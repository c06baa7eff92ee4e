"""Prototype filters and the half-band filter bank matrices.

Two standard prototypes are provided: a truncated Gaussian-Hermite
pulse with overlap 1.5 and the PHYDYAS frequency-sampling design with
overlap 4.  Taps are always real, unit energy and symmetric.  The bank
matrices built here follow the half-period staggering convention: block
p of the single-symbol matrix carries taps [pN/2, pN/2 + N/2) in its
left or right half according to the parity of p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrototypeFilter",
    "block_toeplitz",
    "custom_prototype",
    "hermite_prototype",
    "phydyas_prototype",
    "single_symbol_matrix",
]

# Hermite-series coefficients (physicists' convention, orders 0,4,...,20)
# that flatten the Gaussian's interference on the half-period grid.
_HERMITE_ORDERS = (0, 4, 8, 12, 16, 20)
_HERMITE_WEIGHTS = (
    1.412692577,
    -3.0145e-3,
    -8.8041e-6,
    -2.2611e-9,
    -4.4570e-15,
    1.8633e-16,
)

# Frequency-sampling weights of the PHYDYAS overlap-4 prototype.
_PHYDYAS_WEIGHTS = (0.97195983, np.sqrt(2.0) / 2.0, 0.23514695)


@dataclass(frozen=True, eq=False)
class PrototypeFilter:
    """Unit-energy real prototype of length overlap * fft_size.

    Attributes
    ----------
    taps : numpy.ndarray
        Real tap vector, length overlap * fft_size.
    overlap : float
        Number of fft_size periods the pulse spans; twice the overlap
        must be an integer so the taps split into half-period blocks.
    fft_size : int
        Subcarrier grid size N of the bank the filter belongs to.
    family : str
        One of "hermite", "phydyas", "custom".
    """

    taps: np.ndarray
    overlap: float
    fft_size: int
    family: str = "custom"

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        two_o = round(2 * self.overlap)
        if abs(2 * self.overlap - two_o) > 1e-9 or two_o < 1:
            raise ValueError(f"2*overlap must be a positive integer, "
                             f"got overlap={self.overlap}")
        if self.fft_size % 2:
            raise ValueError(f"fft_size must be even, got {self.fft_size}")
        expected = round(self.overlap * self.fft_size)
        if taps.size != expected:
            raise ValueError(f"expected {expected} taps, got {taps.size}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if np.dot(taps, taps) <= 0:
            raise ValueError("taps must carry nonzero energy")
        taps = taps.copy()
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def n_blocks(self) -> int:
        """Number of half-period blocks, 2*overlap."""
        return round(2 * self.overlap)


def _centered_time(n_taps: int, fft_size: int) -> np.ndarray:
    """Symmetric time grid in units of the period, step 1/fft_size."""
    m = np.arange(n_taps)
    return (m - (n_taps - 1) / 2.0) / fft_size


def _normalized(taps: np.ndarray) -> np.ndarray:
    return taps / np.linalg.norm(taps)


def hermite_prototype(N: int, overlap: float = 1.5) -> PrototypeFilter:
    """Truncated Gaussian-Hermite prototype.

    The pulse is a Gaussian multiplied by a short Hermite series whose
    weights cancel the leading self-interference terms of the plain
    Gaussian on the half-period transmit grid.  With overlap 1.5 the
    bank Gram stays diagonal, which is what makes the single-gain
    compensation of the modem exact.

    Parameters
    ----------
    N : int
        Even grid size; the filter has round(1.5 N) taps.
    overlap : float
        Only the designed value 1.5 is supported.

    Returns
    -------
    PrototypeFilter
    """
    if overlap != 1.5:
        raise ValueError(f"hermite prototype is designed for overlap 1.5, "
                         f"got {overlap}")
    n_taps = round(overlap * N)
    if N % 2 or n_taps != overlap * N:
        raise ValueError(f"N must be even with overlap*N integer, got N={N}")
    tau = _centered_time(n_taps, N)
    coef = np.zeros(max(_HERMITE_ORDERS) + 1)
    for order, w in zip(_HERMITE_ORDERS, _HERMITE_WEIGHTS):
        coef[order] = w
    series = np.polynomial.hermite.hermval(2.0 * np.sqrt(np.pi) * tau, coef)
    taps = np.exp(-2.0 * np.pi * tau ** 2) * series
    return PrototypeFilter(_normalized(taps), overlap, N, family="hermite")


def phydyas_prototype(N: int, overlap: float = 4) -> PrototypeFilter:
    """PHYDYAS frequency-sampling prototype with overlap 4.

    Built as a raised sum of three harmonic cosines over the pulse
    span; the weights interpolate a root-Nyquist frequency response on
    the overlap-4 sampling grid.  The taps vanish at both ends of the
    span.

    Parameters
    ----------
    N : int
        Even grid size, at least 8; the filter has 4N taps.
    overlap : float
        Only the designed value 4 is supported.

    Returns
    -------
    PrototypeFilter
    """
    if overlap != 4:
        raise ValueError(f"phydyas prototype is designed for overlap 4, "
                         f"got {overlap}")
    if N % 2 or N < 8:
        raise ValueError(f"N must be even and >= 8, got {N}")
    n_taps = 4 * N
    tau = _centered_time(n_taps, N)
    taps = np.ones(n_taps)
    for k, w in enumerate(_PHYDYAS_WEIGHTS, start=1):
        taps = taps + 2.0 * w * np.cos(2.0 * np.pi * k * tau / overlap)
    return PrototypeFilter(_normalized(taps), float(overlap), N,
                           family="phydyas")


def custom_prototype(taps, N: int, overlap: float) -> PrototypeFilter:
    """Wrap externally designed taps; they are normalized to unit energy."""
    return PrototypeFilter(_normalized(np.asarray(taps, dtype=float)),
                           overlap, N, family="custom")


def single_symbol_matrix(f: PrototypeFilter) -> np.ndarray:
    """ON x N filtering matrix of one multicarrier symbol.

    Even-indexed half-period blocks occupy the left N/2 columns and
    odd-indexed blocks the right N/2, so consecutive blocks window
    alternating halves of the symbol.  Because every row touches a
    single column, the Gram of this matrix is diagonal for any overlap.
    """
    N = f.fft_size
    h = N // 2
    out = np.zeros((f.n_blocks * h, N))
    for p in range(f.n_blocks):
        cols = slice(0, h) if p % 2 == 0 else slice(h, N)
        rows = slice(p * h, (p + 1) * h)
        out[rows, cols] = np.diag(f.taps[p * h:(p + 1) * h])
    return out


def block_toeplitz(f: PrototypeFilter, K: int) -> np.ndarray:
    """M x NK transmit filtering matrix for K symbols, M = ON + (K-1)N/2.

    Column block k is the single-symbol matrix shifted down k half
    periods, which realizes the overlap-add of consecutive symbols.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    N = f.fft_size
    h = N // 2
    single = single_symbol_matrix(f)
    rows = single.shape[0] + (K - 1) * h
    out = np.zeros((rows, N * K))
    for k in range(K):
        out[k * h:k * h + single.shape[0], k * N:(k + 1) * N] = single
    return out
