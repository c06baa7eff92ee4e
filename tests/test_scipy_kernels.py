"""scipy's BLAS/LAPACK kernels as the package loads them.

:mod:`afbm.equalize` loads scipy's two f2py modules without the
``scipy.linalg`` package.  The import checks run in fresh interpreters,
so no earlier import in the test session hides what a command loads.
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


def test_cli_import_leaves_scipy_linalg_and_the_pool_unloaded():
    out = _python("import sys, afbm.cli, afbm.metrics; "
                  "print(*(name in sys.modules for name in "
                  "('scipy.linalg', 'concurrent.futures.process')))")
    assert out == "False False\n"


@pytest.mark.parametrize("first", ["afbm.metrics", "scipy.linalg"])
def test_kernels_are_the_objects_scipy_linalg_exports(first):
    assert _python(f"import {first}" + SAME_KERNELS) == "[] True\n"


def test_missing_module_is_refused_by_name():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module "
                                          r"not found in ") as refused:
        equalize._scipy_extension("_no_such_module")
    assert refused.value.name == "scipy.linalg._no_such_module"
