"""scipy's BLAS/LAPACK kernels as the package loads them.

:mod:`afbm.equalize` loads scipy's two f2py modules without running
the ``scipy`` or ``scipy.linalg`` package, and :mod:`afbm.cli` loads
PyYAML only to parse a spec.  The import checks run in
fresh interpreters, so no earlier import in the test session hides what
a command loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from afbm import equalize

SRC = str(Path(equalize.__file__).resolve().parents[1])

# Run after the import under test: prints the kernels the package calls
# that are not the objects scipy.linalg.blas and scipy.linalg.lapack
# export, and whether metrics calls through equalize's LAPACK module.
SAME_KERNELS = """
import scipy.linalg.blas, scipy.linalg.lapack
from afbm import equalize, metrics
kernels = [(equalize._fblas, scipy.linalg.blas, "zherk")] + [
    (equalize._flapack, scipy.linalg.lapack, name)
    for name in ("zpotrf", "zpotri", "zpotrs", "zlantr")]
print([name for ours, theirs, name in kernels
       if getattr(ours, name) is not getattr(theirs, name)],
      metrics._flapack is equalize._flapack)
"""


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_yaml_scipy_and_the_pool_unloaded():
    # Parsing a spec then loads PyYAML, and only PyYAML.
    out = _python("import sys, afbm.cli, afbm.metrics\n"
                  "names = ('yaml', 'scipy', 'scipy.linalg', "
                  "'concurrent.futures.process')\n"
                  "print(*(name in sys.modules for name in names))\n"
                  "spec = afbm.cli.parse_spec('kind: ber\\nseed: 3')\n"
                  "print(spec.kind, spec.seed, "
                  "*(name in sys.modules for name in names))")
    assert out == "False False False False\nber 3 True False False False\n"


# Fails the first load from the install directory, as a distribution
# whose kernels need scipy's _distributor_init would.
FAIL_ONCE = """
import importlib.util, sys
load, calls = importlib.util.module_from_spec, []
def fail_once(spec):
    calls.append(spec.name)
    if len(calls) == 1:
        raise ImportError("kernel library not set up")
    return load(spec)
importlib.util.module_from_spec = fail_once
import afbm.equalize
importlib.util.module_from_spec = load
print(calls, "scipy" in sys.modules)
"""


def test_a_failed_load_is_retried_after_importing_scipy():
    assert _python(FAIL_ONCE + SAME_KERNELS) == (
        "['scipy.linalg._fblas', 'scipy.linalg._fblas', "
        "'scipy.linalg._flapack'] True\n[] True\n")


@pytest.mark.parametrize("first", ["afbm.metrics", "scipy.linalg"])
def test_kernels_are_the_objects_scipy_linalg_exports(first):
    assert _python(f"import {first}" + SAME_KERNELS) == "[] True\n"


def test_missing_module_is_refused_by_name():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module "
                                          r"not found in ") as refused:
        equalize._scipy_extension("_no_such_module")
    assert refused.value.name == "scipy.linalg._no_such_module"
