"""Prototype filters, the family table and the half-band bank matrices.

Two standard prototypes are provided: a truncated Gaussian-Hermite
pulse with overlap 1.5 and the PHYDYAS frequency-sampling design with
overlap 4.  :data:`_FAMILIES` maps each family name to its overlap and
its design; it is the one place either is declared.  A design returns
its taps: a read-only real array of overlap * N entries, unit energy
and symmetric.  The bank matrices built here follow the half-period
staggering convention: block p of the single-symbol matrix carries
taps [pN/2, pN/2 + N/2) in its left or right half according to the
parity of p.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_toeplitz",
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


def _centered_time(n_taps: int, N: int) -> np.ndarray:
    """Symmetric time grid in units of the period, step 1/N."""
    m = np.arange(n_taps)
    return (m - (n_taps - 1) / 2.0) / N


def _unit_energy(taps: np.ndarray) -> np.ndarray:
    taps = taps / np.linalg.norm(taps)
    taps.flags.writeable = False
    return taps


def hermite_prototype(N: int) -> np.ndarray:
    """Truncated Gaussian-Hermite prototype with overlap 1.5.

    The pulse is a Gaussian multiplied by a short Hermite series whose
    weights cancel the leading self-interference terms of the plain
    Gaussian on the half-period transmit grid.  With overlap 1.5 the
    bank Gram stays diagonal, which is what makes the single-gain
    compensation of the modem exact.

    Parameters
    ----------
    N : int
        Even grid size; the filter has 1.5 N taps.

    Returns
    -------
    numpy.ndarray
        The read-only unit-energy taps.
    """
    if N % 2:
        raise ValueError(f"N must be even, got N={N}")
    overlap, _ = _FAMILIES["hermite"]
    tau = _centered_time(round(overlap * N), N)
    coef = np.zeros(max(_HERMITE_ORDERS) + 1)
    for order, w in zip(_HERMITE_ORDERS, _HERMITE_WEIGHTS):
        coef[order] = w
    series = np.polynomial.hermite.hermval(2.0 * np.sqrt(np.pi) * tau, coef)
    return _unit_energy(np.exp(-2.0 * np.pi * tau ** 2) * series)


def phydyas_prototype(N: int) -> np.ndarray:
    """PHYDYAS frequency-sampling prototype with overlap 4.

    Built as a raised sum of three harmonic cosines over the pulse
    span; the weights interpolate a root-Nyquist frequency response on
    the overlap-4 sampling grid.  The taps vanish at both ends of the
    span.

    Parameters
    ----------
    N : int
        Even grid size, at least 8; the filter has 4N taps.

    Returns
    -------
    numpy.ndarray
        The read-only unit-energy taps.
    """
    if N % 2 or N < 8:
        raise ValueError(f"N must be even and >= 8, got {N}")
    overlap, _ = _FAMILIES["phydyas"]
    n_taps = round(overlap * N)
    tau = _centered_time(n_taps, N)
    taps = np.ones(n_taps)
    for k, w in enumerate(_PHYDYAS_WEIGHTS, start=1):
        taps = taps + 2.0 * w * np.cos(2.0 * np.pi * k * tau / overlap)
    return _unit_energy(taps)


# Each family's overlap, in grid periods, and its design on an N-point
# grid.  Twice an overlap is an integer, the pulse's half-period blocks.
_FAMILIES = {"hermite": (1.5, hermite_prototype),
             "phydyas": (4.0, phydyas_prototype)}


def single_symbol_matrix(taps: np.ndarray, N: int) -> np.ndarray:
    """taps.size x N filtering matrix of one multicarrier symbol.

    The taps split into taps.size / (N/2) half-period blocks.
    Even-indexed blocks occupy the left N/2 columns and odd-indexed
    blocks the right N/2, so consecutive blocks window alternating
    halves of the symbol.  Because every row touches a single column,
    the Gram of this matrix is diagonal for any overlap.
    """
    h = N // 2
    out = np.zeros((taps.size, N))
    for p in range(taps.size // h):
        cols = slice(0, h) if p % 2 == 0 else slice(h, N)
        rows = slice(p * h, (p + 1) * h)
        out[rows, cols] = np.diag(taps[rows])
    return out


def block_toeplitz(taps: np.ndarray, N: int, K: int) -> np.ndarray:
    """M x NK transmit filtering matrix for K symbols, M = ON + (K-1)N/2.

    Column block k is the single-symbol matrix shifted down k half
    periods, which realizes the overlap-add of consecutive symbols.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    h = N // 2
    single = single_symbol_matrix(taps, N)
    rows = single.shape[0] + (K - 1) * h
    out = np.zeros((rows, N * K))
    for k in range(K):
        out[k * h:k * h + single.shape[0], k * N:(k + 1) * N] = single
    return out
