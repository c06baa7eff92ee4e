"""The BLAS/LAPACK kernel table and what the package loads.

:mod:`afbm.equalize` binds its five kernels from numpy's own BLAS
through ctypes and falls back to scipy's two f2py modules, loaded
without running the ``scipy`` or ``scipy.linalg`` package, where
numpy's BLAS does not export them; :mod:`afbm.cli` loads PyYAML only
to parse a spec.  The import checks run in fresh interpreters, so no
earlier import in the test session hides what a command loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack

from afbm import equalize

SRC = str(Path(equalize.__file__).resolve().parents[1])

# Hides numpy's BLAS symbols from afbm.equalize's lookup, as a numpy
# built on a BLAS that exports neither spelling would, so the table
# falls back to scipy's modules.
FALLBACK = """
import ctypes, numpy
ctypes.CDLL = lambda path: object()
"""

# Writes a toy run of each kind of ``kinds`` into ``out`` and prints
# the scipy modules loaded by then.
TOY_RUNS = """
import sys
from dataclasses import replace
from afbm.cli import PRESETS, run, write_report
toy = dict(L=8, K=2, N=16, P=(12,), paths=2, delay_max=2, doppler_max=0.5)
specs = {{
    "sir-waveform": replace(PRESETS["waveform-sweep"], **toy),
    "sir-channel": replace(PRESETS["channel-stats"], realizations=3,
                           emit_heatmap=True, **toy),
    "ber": replace(PRESETS["ber-curves"], snr_db=(0.0, 20.0), trials=4,
                   **toy),
}}
for kind in {kinds!r}:
    write_report(specs[kind], run(specs[kind], workers=1), {out!r})
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""

uses_numpy_blas = pytest.mark.skipif(
    equalize._symbols is None,
    reason="numpy's BLAS exports neither spelling; the table is scipy's")


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


@uses_numpy_blas
def test_a_toy_run_of_each_kind_leaves_scipy_unloaded(tmp_path):
    kinds = ("sir-waveform", "sir-channel", "ber")
    assert _python(TOY_RUNS.format(kinds=kinds, out=str(tmp_path))) == "[]\n"


@uses_numpy_blas
def test_the_fallback_writes_the_same_bytes(tmp_path):
    kinds = ("sir-channel", "ber")
    ours, theirs = tmp_path / "numpy", tmp_path / "scipy"
    assert _python(TOY_RUNS.format(kinds=kinds, out=str(ours))) == "[]\n"
    loaded = _python(FALLBACK + TOY_RUNS.format(kinds=kinds, out=str(theirs)))
    assert "scipy.linalg._flapack" in loaded
    names = sorted(path.name for path in ours.glob("*.csv"))
    # The summary, the samples, four heatmaps and the BER curves.
    assert len(names) == 7
    assert names == sorted(path.name for path in theirs.glob("*.csv"))
    for name in names:
        assert (ours / name).read_bytes() == (theirs / name).read_bytes(), \
            name


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
    assert _python(FALLBACK + FAIL_ONCE) == (
        "['scipy.linalg._fblas', 'scipy.linalg._fblas', "
        "'scipy.linalg._flapack'] True\n")


def test_missing_module_is_refused_by_name():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module "
                                          r"not found in ") as refused:
        equalize._scipy_extension("_no_such_module")
    assert refused.value.name == "scipy.linalg._no_such_module"


def _bits(a) -> bytes:
    return np.asfortranarray(a).tobytes()


def _complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKernelsMatchScipy:
    """Each kernel of the table, bit for bit against scipy.linalg's on
    seeded inputs."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_zherk_on_a_column_slice(self, rng, beta):
        window = _complex(rng, 40, 24)
        a = window[:, 8:20].T           # 12 x 40, leading dimension 24
        start = _complex(rng, 12, 12)
        ours = start.copy(order="F")
        equalize._kernels.zherk(ours, a, beta)
        theirs = scipy.linalg.blas.zherk(1.0, a, beta=beta,
                                         c=start.copy(order="F"))
        assert _bits(ours) == _bits(theirs)

    def test_cholesky_factor_inverse_and_solve(self, rng):
        n = 48
        x = _complex(rng, 2 * n, n)
        gram = x.conj().T @ x
        lapack = scipy.linalg.lapack
        ours = gram.copy(order="F")
        theirs, info = lapack.zpotrf(gram, clean=0)
        assert (equalize._kernels.zpotrf(ours), info) == (0, 0)
        assert _bits(ours) == _bits(theirs)
        rhs = _complex(rng, n)
        solved = rhs.copy()
        assert equalize._kernels.zpotrs(ours, solved) == 0
        assert _bits(solved) == _bits(lapack.zpotrs(theirs, rhs)[0])
        inverse, info = lapack.zpotri(theirs)
        assert (equalize._kernels.zpotri(ours), info) == (0, 0)
        assert _bits(ours) == _bits(inverse)

    def test_zlantr_on_the_strict_lower_rows(self, rng):
        delta = _complex(rng, 30, 30)
        ours = equalize._kernels.zlantr("F", delta[1:].T)
        theirs = scipy.linalg.lapack.zlantr("F", delta[1:].T, uplo="U")
        assert ours == theirs


@uses_numpy_blas
class TestRefusedLayouts:
    """A layout BLAS cannot read in place is refused by name, with the
    operand left as it was."""

    @pytest.mark.parametrize("make, what", [
        (lambda a: a[::2], r"strides \(32, 256\)"),      # row stride 2
        (lambda a: a.T, r"strides \(256, 16\)"),          # C-ordered
        (lambda a: a.real.copy(order="F"), "float64"),
    ], ids=["strided-rows", "c-ordered", "real"])
    def test_zherk_operand(self, rng, make, what):
        a = make(_complex(rng, 16, 16).copy(order="F"))
        c = np.zeros((len(a),) * 2, dtype=complex, order="F")
        with pytest.raises(ValueError, match=f"zherk: BLAS cannot read "
                                             f".*{what}"):
            equalize._kernels.zherk(c, a, 0.0)
        assert not c.any()

    def test_read_only_factor(self):
        a = np.eye(4, dtype=complex, order="F")
        a.setflags(write=False)
        with pytest.raises(ValueError, match="zpotrf: BLAS cannot write in "
                                             "place a read-only complex128"):
            equalize._kernels.zpotrf(a)

    def test_solve_with_a_strided_right_hand_side(self):
        a = np.eye(4, dtype=complex, order="F")
        b = np.arange(8, dtype=complex)[::2]
        with pytest.raises(ValueError, match=r"zpotrs: .* 4x1 operand "
                                             r"with strides \(32, 0\)"):
            equalize._kernels.zpotrs(a, b)
        assert b.tolist() == [0, 2, 4, 6]
