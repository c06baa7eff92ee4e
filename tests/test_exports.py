import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import afbm
from test_dense_oracles import ORACLES

MODULES = sorted(m.name for m in pkgutil.iter_modules(afbm.__path__))
SOURCE = Path(afbm.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"afbm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_resolve():
    missing = [n for n in afbm.__all__ if not hasattr(afbm, n)]
    assert missing == []
    assert len(set(afbm.__all__)) == len(afbm.__all__)


def test_every_export_is_used_by_the_package_or_is_an_oracle():
    # Public API that only the tests use is removed; the dense oracles
    # are the one exception.  Every module's __all__ is public API, not
    # only the package's.  A name counts as used when package code
    # outside __init__.py reads it, not when it is only defined or
    # listed in an __all__.
    exported = set(afbm.__all__)
    for name in MODULES:
        exported.update(importlib.import_module(f"afbm.{name}").__all__)
    used = set()
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(exported - used - ORACLES) == []
