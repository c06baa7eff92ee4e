import os

# One BLAS thread: the suite's matrices are small, and OpenBLAS's default
# thread pool makes them many times slower on few-core machines.  Must
# run before numpy is first imported; an explicit setting still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from afbm import AfbmModem, design_config  # noqa: E402

_ACCEPTANCE_LINES: list[str] = []


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
