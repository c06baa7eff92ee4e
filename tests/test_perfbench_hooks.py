"""The benchmark's hooks into the package still find their targets.

``perfbench/`` traces the package by wrapping functions it names by
module path, and a target that no longer exists shows up there only as
"absent".  These tests read the harness without changing it: hook
targets are resolved but never installed, since installing leaves the
wrappers in place for the rest of the session.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Hooks on helpers that the package has since deleted.
STALE = {"afbm.equalize.conditioned_delta", "afbm.metrics.sir_statistics",
         "afbm.metrics.interference_map"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def worker_tree():
    return ast.parse((PERFBENCH / "worker.py").read_text())


def test_only_the_stale_hooks_are_unresolved(tracing):
    unresolved = set()
    for module_name, path, *_ in tracing.HOOKS:
        try:
            tracing._resolve(importlib.import_module(module_name), path)
        except AttributeError:
            unresolved.add(f"{module_name}.{path}")
    assert unresolved == STALE


def test_worker_imports_resolve(worker_tree):
    names = [(node.module, alias.name) for node in ast.walk(worker_tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "afbm"
             for alias in node.names]
    assert names
    for module_name, name in names:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")


def test_ber_trial_takes_the_recorded_arguments(worker_tree):
    from afbm import metrics

    recorded = next(node for node in ast.walk(worker_tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "recorded")
    leading = [a.arg for a in recorded.args.args]
    params = list(inspect.signature(metrics._ber_trial).parameters)
    assert params[:len(leading)] == leading


def test_ber_curve_binds_the_traced_names():
    from afbm.metrics import ber_curve

    params = inspect.signature(ber_curve).parameters
    assert {"modem", "domain", "trials", "qam_order"} <= set(params)
