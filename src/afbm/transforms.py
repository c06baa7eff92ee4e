"""Discrete affine Fourier building blocks.

The modulation chain is a composition of a small number of structured
matrices: normalized DFTs, diagonal chirps, the DAFT, and the
frequency-domain expansion that embeds a P-point spectrum into an
N-point grid.  The DAFT takes its two chirp rates and its size as
plain numbers (:func:`daft_matrix`); the modulation config is the one
place that derives them, and :func:`synthesis_block` keeps the first L
rows of its P-point DAFT.  DFT entries are read from the n-th roots of
unity at the exponent mk mod n, so an n-point matrix costs n complex
exponentials rather than n^2, and :func:`synthesis_block` applies its
two DFT stages as FFTs along the columns instead of multiplying dense
DFT matrices.  The dense matrices stay available as the oracles those
paths are checked against; the per-symbol fast paths live in
:mod:`afbm.modem`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "chirp_phases",
    "daft_matrix",
    "default_c1",
    "default_c2",
    "dft_matrix",
    "expansion_matrix",
    "grid_alignment_phases",
    "separability_span",
    "synthesis_block",
]


def dft_matrix(n: int) -> np.ndarray:
    """Normalized n-point DFT matrix, entry (m, k) = exp(-j2pi mk/n)/sqrt(n).

    Each entry is the root of unity at exponent mk mod n, so the phase
    is reduced exactly before any rounding.
    """
    if n < 1:
        raise ValueError(f"transform size must be positive, got {n}")
    k = np.arange(n)
    roots = np.exp(-2j * np.pi * k / n)
    return roots[np.outer(k, k) % n] / np.sqrt(n)


def chirp_phases(c: float, n: int) -> np.ndarray:
    """Diagonal of the chirp matrix as a vector, entry k = exp(-j2pi c k^2).

    The exponent carries no implicit 1/n factor; any per-size
    normalization belongs in the rate ``c`` itself.
    """
    if n < 1:
        raise ValueError(f"transform size must be positive, got {n}")
    k = np.arange(n)
    return np.exp(-2j * np.pi * c * k.astype(float) ** 2)


def daft_matrix(c1: float, c2: float, n: int) -> np.ndarray:
    """Discrete affine Fourier transform matrix Lambda_c1 F Lambda_c2.

    ``c1`` and ``c2`` are the dimensionless rates of the pre- and
    post-DFT chirps (:func:`chirp_phases`), both finite, and n >= 2 the
    transform size.  Unitary for any pair of rates; collapses to the
    plain DFT when both are zero.
    """
    if n < 2:
        raise ValueError(f"transform size must be >= 2, got {n}")
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError("chirp rates must be finite")
    pre = chirp_phases(c1, n)
    post = chirp_phases(c2, n)
    return pre[:, None] * dft_matrix(n) * post[None, :]


def expansion_matrix(N: int, P: int) -> np.ndarray:
    """N x P expansion placing a P-point spectrum at the edges of an N-point grid.

    The first P/2 inputs map to the first P/2 outputs, the last P/2
    inputs to the last P/2 outputs, and the middle N - P rows are zero,
    so the embedded spectrum keeps a dead band around the Nyquist bin.
    Columns are orthonormal by construction.
    """
    if P % 2:
        raise ValueError(f"P must be even, got {P}")
    if not P <= N:
        raise ValueError(f"need P <= N, got P={P}, N={N}")
    T = np.zeros((N, P))
    h = P // 2
    T[:h, :h] = np.eye(h)
    T[N - h:, h:] = np.eye(h)
    return T


def grid_alignment_phases(N: int, overlap: float) -> np.ndarray:
    """Per-bin phases aligning the synthesis grid to the filter-bank peak.

    A bank of 2O half-period blocks peaks at the center of its span.
    When 2O is even the peak falls on a full period boundary and no
    correction is needed.  When 2O is odd the peak sits a quarter
    period off the grid, and the modulation must be advanced by a
    quarter period (the diagonal j^n) so that each subcarrier still
    sees a single real gain; otherwise a scalar compensation per
    subcarrier cannot restore orthogonality.
    """
    two_o = round(2 * overlap)
    if abs(2 * overlap - two_o) > 1e-9:
        raise ValueError(f"2*overlap must be an integer, got overlap={overlap}")
    if two_o % 2 == 0:
        return np.ones(N, dtype=complex)
    reps = -(-N // 4)
    return np.tile(np.array([1, 1j, -1, -1j]), reps)[:N]


def synthesis_block(cfg) -> np.ndarray:
    """N x L synthesis matrix from compensated subcarrier symbols to the bank grid.

    Composes the adjoint of the P-point DAFT's first L rows, the P-point
    DFT, the frequency-domain expansion, the grid alignment phases, and
    the inverse N-point DFT.  The result is an isometry: its Gram matrix is
    the L x L identity to within roundoff.  Both DFT stages run as
    unitary FFTs down the L columns.

    Parameters
    ----------
    cfg : ModulationConfig
        Supplies L, P, N, the pre-chirp rate ``c1`` and the overlap
        factor (only its parity enters, through the alignment phases);
        the P-point stage post-chirps at ``default_c2(P)``.
    """
    if not cfg.L < cfg.P <= cfg.N:
        raise ValueError(f"need L < P <= N, got L={cfg.L}, P={cfg.P}, N={cfg.N}")
    L, P, N = cfg.L, cfg.P, cfg.N
    pruned = daft_matrix(cfg.c1, default_c2(P), P)[:L]
    spectrum = np.fft.fft(pruned.conj().T, axis=0, norm="ortho")
    # The expansion: each half of the P-point spectrum at a grid edge.
    grid = np.zeros((N, L), dtype=complex)
    grid[:P // 2] = spectrum[:P // 2]
    grid[N - P // 2:] = spectrum[P // 2:]
    grid *= grid_alignment_phases(N, cfg.overlap)[:, None]
    return np.fft.ifft(grid, axis=0, norm="ortho")


def default_c1(f_max: float, xi: int, P: int) -> float:
    """Default pre-chirp rate (2(f_max + xi) + 1) / (2P).

    The standard choice that keeps distinct delay-Doppler paths
    resolvable after the affine transform, given the worst-case Doppler
    ``f_max`` and an integer guard width ``xi``.
    """
    return (2.0 * (f_max + xi) + 1.0) / (2.0 * P)


def default_c2(n: int) -> float:
    """Default post-chirp rate 1/(pi n^2) for an n-point stage."""
    return 1.0 / (math.pi * n * n)


def separability_span(f_max: float, l_max: int, xi: int) -> float:
    """Affine-domain span 2(f_max + xi)(l_max + 1) + l_max of a spread.

    Paths stay separable when the span is at most P: the delay-Doppler
    spread then fits inside one affine-domain period.
    """
    return 2.0 * (f_max + xi) * (l_max + 1) + l_max
