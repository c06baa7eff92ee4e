import ctypes
import os
import re

# One BLAS thread: the suite's matrices are small, and OpenBLAS's default
# thread pool makes them many times slower on few-core machines.  Must
# run before numpy is first imported; an explicit setting still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from afbm import AfbmModem, design_config  # noqa: E402

_ACCEPTANCE_LINES: list[str] = []


def _openblas_call(lib, name: str, restype):
    """``lib``'s getter ``name``, under whichever of OpenBLAS's symbol
    prefixes and suffixes the build exports, or None."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            func = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if func is not None:
                func.argtypes, func.restype = [], restype
                return func()
    return None


def blas_stamp() -> tuple[str, ...]:
    """One entry per OpenBLAS library loaded in this process, read
    through ctypes: its name, version, the core its DYNAMIC_ARCH
    dispatch picked and its thread count.

    numpy and scipy each ship their own copy.  Every kernel the package
    calls runs in numpy's, where it exports them (:mod:`afbm.equalize`),
    but the stamp loads scipy's too and names both, so it reads the
    same whichever the package uses and the result tables stay keyed
    as they were recorded.  Empty where the loaded libraries cannot be
    listed (no /proc).
    """
    import scipy.linalg.blas  # noqa: F401  (loads scipy's copy)
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.split()[-1]})
    except OSError:
        return ()
    stamp = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = (_openblas_call(lib, "get_config", ctypes.c_char_p)
                  or b"? ?").decode().split()
        core = (_openblas_call(lib, "get_corename", ctypes.c_char_p)
                or b"?").decode()
        threads = _openblas_call(lib, "get_num_threads", ctypes.c_int)
        name = re.match(r"[^-.]+", os.path.basename(path)).group()
        stamp.append(f"{name} {config[1]} {core} threads={threads}")
    return tuple(stamp)


def pytest_report_header(config):
    return [f"BLAS: {line}" for line in blas_stamp()] or \
        ["BLAS: no OpenBLAS library listed"]


@pytest.fixture(scope="session", name="blas_stamp")
def blas_stamp_fixture() -> tuple[str, ...]:
    """This process's :func:`blas_stamp`, which keys result-byte tables."""
    return blas_stamp()


@pytest.fixture(scope="session")
def acceptance_recorder():
    """Collects one verdict line per acceptance check; the lines are
    echoed in the terminal summary so they survive output capture."""
    def record(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)
    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance checks")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_modem():
    """Smallest waveform that exercises every stage (L=8, K=2, N=16)."""
    return AfbmModem(design_config(8, 2, 16, 12, "hermite"))


@pytest.fixture(scope="session")
def mid_hermite():
    return AfbmModem(design_config(64, 8, 128, 96, "hermite"))


@pytest.fixture(scope="session")
def mid_phydyas():
    return AfbmModem(design_config(64, 8, 128, 96, "phydyas"))


@pytest.fixture(scope="session")
def oracle_modems(toy_modem, mid_hermite, mid_phydyas):
    """Both families at toy and mid scale."""
    return (toy_modem, AfbmModem(design_config(8, 2, 16, 12, "phydyas")),
            mid_hermite, mid_phydyas)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def grid_modem():
    """(scale, family, K) -> the modem at that point of the kernel grid:
    toy (L=8, N=16, P=12) or mid (L=64, N=128, P=96) scale, built once."""
    cache = {}

    def modem(scale, family, K):
        if (scale, family, K) not in cache:
            L, N, P = {"toy": (8, 16, 12), "mid": (64, 128, 96)}[scale]
            cache[scale, family, K] = AfbmModem(
                design_config(L, K, N, P, family))
        return cache[scale, family, K]

    return modem
