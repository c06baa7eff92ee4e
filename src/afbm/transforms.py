"""Discrete affine Fourier building blocks.

The modulation chain is a composition of a small number of structured
matrices: normalized DFTs, diagonal chirps, the pruned DAFT, and the
frequency-domain expansion that embeds a P-point spectrum into an
N-point grid.  DFT entries are read from the n-th roots of unity at
the exponent mk mod n, so an n-point matrix costs n complex
exponentials rather than n^2, and :func:`synthesis_block` applies its
two DFT stages as FFTs along the columns instead of multiplying dense
DFT matrices.  The dense matrices stay available as the oracles those
paths are checked against; the per-symbol fast paths live in
:mod:`afbm.modem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChirpParams",
    "chirp_phases",
    "daft_matrix",
    "default_c1",
    "default_c2",
    "dft_matrix",
    "expansion_matrix",
    "grid_alignment_phases",
    "pruned_daft",
    "separability_span",
    "synthesis_block",
]


@dataclass(frozen=True)
class ChirpParams:
    """Chirp rates of one DAFT stage.

    Parameters
    ----------
    c1, c2 : float
        Digital chirp frequencies multiplying the squared index in the
        pre- and post-DFT diagonal, both dimensionless.
    n : int
        Transform size, at least 2.
    """

    c1: float
    c2: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"transform size must be >= 2, got {self.n}")
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("chirp rates must be finite")


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


def daft_matrix(params: ChirpParams) -> np.ndarray:
    """Discrete affine Fourier transform matrix Lambda_c1 F Lambda_c2.

    Unitary for any pair of chirp rates; collapses to the plain DFT
    when both rates are zero.
    """
    pre = chirp_phases(params.c1, params.n)
    post = chirp_phases(params.c2, params.n)
    return pre[:, None] * dft_matrix(params.n) * post[None, :]


def pruned_daft(L: int, P: int, params: ChirpParams) -> np.ndarray:
    """First L rows of the P-point DAFT (an L x P matrix with orthonormal rows)."""
    if params.n != P:
        raise ValueError(f"chirp params sized {params.n}, expected {P}")
    if not 1 <= L <= P:
        raise ValueError(f"need 1 <= L <= P, got L={L}, P={P}")
    return daft_matrix(params)[:L]


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

    Composes the adjoint of the pruned P-point DAFT, the P-point DFT,
    the frequency-domain expansion, the grid alignment phases, and the
    inverse N-point DFT.  The result is an isometry: its Gram matrix is
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
    params = ChirpParams(cfg.c1, default_c2(P), P)
    spectrum = np.fft.fft(pruned_daft(L, P, params).conj().T, axis=0,
                          norm="ortho")
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
