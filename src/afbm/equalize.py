"""MMSE equalization, interference matrices, and hard detection.

Detection works per channel realization from the dense effective
channel of a detection domain.  The white-noise MMSE form is used in
both domains even though the receive chains color the noise; that
mismatch is part of the modeled receiver, not an implementation
shortcut.

One Gram serves both fast paths: :func:`_gram` forms the lower
triangle of Heff^H Heff, over the effective channel's block support
only, and never mirrors it.  :func:`delta_from_gram`, the SIR hot
path, reads Delta = I - r (G + r I)^-1 from one Cholesky inverse of
that triangle and mirrors the inverse, so Delta is the one matrix made
exactly Hermitian.  At zero noise r is always a relative ridge of
1e-10 times the mean Gram diagonal, so a zero-forcing Delta is set by
that one stated regularizer, not by roundoff.  :func:`mmse_detect`,
for BER frames, factors the triangle in place and solves the normal
equations for the one received vector without forming the equalizer.
:func:`mmse` builds the dense equalizer E, which with
:func:`delta_matrix` and :func:`equalize_and_detect` is the oracle the
fast paths are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from .modem import EffectiveChannel, _support_runs

__all__ = [
    "Equalizer",
    "delta_from_gram",
    "delta_matrix",
    "equalize_and_detect",
    "mmse",
    "mmse_detect",
]


@dataclass(frozen=True, eq=False)
class Equalizer:
    """Linear payload estimator E for one domain and noise level."""

    matrix: np.ndarray
    domain: str
    noise_var: float


_MIRROR_BLOCK = 64


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the strict lower triangle of ``a`` conjugated onto the upper
    one, in place, so ``a`` is exactly Hermitian.

    Works in stripes of 64 rows: the panel right of each diagonal block
    is copied from the panel below it as one slice assignment, and only
    the diagonal block goes through triangle indices.
    """
    n = a.shape[0]
    for i0 in range(0, n, _MIRROR_BLOCK):
        i1 = min(i0 + _MIRROR_BLOCK, n)
        a[i0:i1, i1:] = a[i1:, i0:i1].T.conj()
        block = a[i0:i1, i0:i1]
        upper = np.triu_indices(i1 - i0, 1)
        block[upper] = block.T[upper].conj()
    return a


def _gram(h: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    """h^H h on and below the diagonal, exact zeros above: the layout
    whose ``.T`` view ``zpotrf`` reads as the upper triangle of
    conj(h^H h), in :func:`delta_from_gram` and :func:`mmse_detect`.

    ``zherk`` reads a C-ordered h as its Fortran transpose without a
    copy and fills the upper triangle of h^T conj(h), the transpose of
    h^H h.  With a block ``support`` (see
    :class:`afbm.modem.EffectiveChannel`) that leaves some blocks out,
    each receive window adds one ``zherk`` triangle per run of
    consecutive supported symbols and one product per pair of runs
    below them; a full or absent support is one ``zherk`` over all of h.
    """
    if support is None or support.all():
        return scipy.linalg.blas.zherk(1.0, h.T, trans=0, lower=0).T
    K = support.shape[0]
    rows, w = h.shape[0] // K, h.shape[1] // K
    out = np.zeros((h.shape[1],) * 2, dtype=complex)
    for j, runs in enumerate(_support_runs(support)):
        window = h[j * rows:(j + 1) * rows]
        for i, (a, b) in enumerate(runs):
            run = window[:, a * w:b * w]
            out[a * w:b * w, a * w:b * w] += scipy.linalg.blas.zherk(
                1.0, run.T, trans=0, lower=0).T
            for c, d in runs[:i]:
                out[a * w:b * w, c * w:d * w] += \
                    run.conj().T @ window[:, c * w:d * w]
    return out


def _rank_deficient(n: int, sigma2: float) -> ValueError:
    return ValueError(
        f"mmse: {n}x{n} Gram matrix is rank deficient to working "
        f"precision and sigma2={sigma2:g} does not regularize it")


def _solve_spd(gram: np.ndarray, rhs: np.ndarray,
               sigma2: float) -> np.ndarray:
    """Solve (gram + sigma2 I) X = rhs through a Hermitian factorization."""
    n = gram.shape[0]
    reg = gram + sigma2 * np.eye(n)
    try:
        factor = scipy.linalg.cho_factor(reg, check_finite=False)
    except np.linalg.LinAlgError:
        raise _rank_deficient(n, sigma2) from None
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def mmse(heff: EffectiveChannel, sigma2: float) -> Equalizer:
    """MMSE equalizer E = (Heff^H Heff + sigma2 I)^-1 Heff^H.

    Computed through a positive-definite solve, never an explicit
    inverse.  With sigma2 = 0 this is the zero-forcing pseudo-inverse
    and requires a full-column-rank effective channel.
    """
    if not sigma2 >= 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    Hm = heff.matrix
    gram = Hm.conj().T @ Hm
    E = _solve_spd(gram, Hm.conj().T, sigma2)
    return Equalizer(E, heff.domain, float(sigma2))


def delta_matrix(eq: Equalizer, heff: EffectiveChannel) -> np.ndarray:
    """End-to-end payload matrix Delta = E Heff of one realization.

    The identity on the diagonal means perfect restoration; everything
    off the diagonal (and any diagonal deficit) is interference.
    """
    if eq.domain != heff.domain:
        raise ValueError(f"equalizer domain {eq.domain!r} does not match "
                         f"effective channel domain {heff.domain!r}")
    return eq.matrix @ heff.matrix


def delta_from_gram(gram: np.ndarray, sigma2: float) -> np.ndarray:
    """Delta computed from the effective-channel Gram alone.

    Delta = (G + r I)^-1 G = I - r (G + r I)^-1, identical to composing
    :func:`mmse` with :func:`delta_matrix` but read from one inverse;
    this is the Monte-Carlo hot path.  r is sigma2 when it is positive.
    At sigma2 = 0 (zero forcing) r is always the ridge 1e-10 times the
    mean diagonal of G, so every Delta costs exactly one factorization
    and a well-conditioned Gram reads Delta = I to within r, that is an
    infinite SIR.

    Only the lower triangle of ``gram`` and its diagonal are read, so
    the triangle :func:`_gram` forms serves as it is.  The function
    owns a writeable complex C-ordered ``gram``, as :func:`mmse_detect`
    owns :func:`_gram`'s output: r is added on its diagonal and it is
    factored in place, so it is changed also when the call raises, and
    a caller that needs it afterwards passes a copy.  Any other
    ``gram`` is copied first and left as it is.  The inverse comes
    from ``zpotrf`` + ``zpotri`` on that triangle (about n^3 flops,
    against 7n^3/3 for a factorization and an n-column solve) and is
    mirrored, so Delta is exactly Hermitian.  A Gram the factorization
    rejects raises ValueError naming n and r.
    """
    if not sigma2 >= 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    n = gram.shape[0]
    r = sigma2 if sigma2 > 0 else 1e-10 * np.trace(gram).real / n
    gram = np.require(gram, complex, ["C", "W"])
    gram[np.diag_indices(n)] += r
    # The Fortran view of the C-ordered G + r I is its conjugate; its
    # upper triangle is the lower one, which ends up holding the
    # inverse's.
    factor, info = scipy.linalg.lapack.zpotrf(gram.T, lower=0, clean=0,
                                              overwrite_a=1)
    if info == 0:
        inverse, info = scipy.linalg.lapack.zpotri(factor, lower=0,
                                                   overwrite_c=1)
    if info != 0:
        raise ValueError(
            f"delta_from_gram: {n}x{n} Gram matrix plus r={r:g} is not "
            f"positive definite to working precision (LAPACK info {info})")
    delta = _mirror_lower(inverse.T)
    delta *= -r
    delta[np.diag_indices(n)] += 1.0
    return delta


def _received_vector(received: np.ndarray, rows: int) -> np.ndarray:
    received = np.asarray(received, dtype=complex)
    if received.shape != (rows,):
        raise ValueError(f"received vector must have shape ({rows},), "
                         f"got {received.shape}")
    return received


def _nearest_symbols(soft: np.ndarray, alphabet: np.ndarray) -> np.ndarray:
    """Slice each soft estimate to the nearest alphabet symbol."""
    alphabet = np.asarray(alphabet, dtype=complex)
    nearest = np.argmin(np.abs(soft[:, None] - alphabet[None, :]), axis=1)
    return alphabet[nearest]


def equalize_and_detect(eq: Equalizer, received: np.ndarray,
                        alphabet: np.ndarray) -> np.ndarray:
    """Apply the equalizer and slice each coordinate to the nearest symbol."""
    received = _received_vector(received, eq.matrix.shape[1])
    return _nearest_symbols(eq.matrix @ received, alphabet)


def mmse_detect(heff: EffectiveChannel, received: np.ndarray,
                sigma2: float, alphabet: np.ndarray) -> np.ndarray:
    """MMSE hard decisions for one received vector, without forming E.

    Solves (Heff^H Heff + sigma2 I) x = Heff^H r with a single
    right-hand side, so the cost is the Gram and its factorization
    rather than a solve against every row of Heff.  Decisions agree
    with ``equalize_and_detect(mmse(heff, sigma2), received, alphabet)``
    up to roundoff in the soft estimates.

    The Gram is :func:`_gram`'s triangle over the channel's block
    support.  It takes sigma2 on its diagonal, and its ``.T`` view, the
    upper triangle of conj(Heff^H Heff + sigma2 I), is factored in
    place.  The right-hand side Heff^T conj(r) is conj(Heff^H r), so
    the solve returns the conjugated soft estimates; conjugating that
    n-vector gives them.  Neither Heff nor the Gram is conjugated, and
    the only n x n array is the Gram itself.
    """
    if not sigma2 >= 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    Hm = heff.matrix
    received = _received_vector(received, Hm.shape[0])
    n = Hm.shape[1]
    reg = _gram(Hm, heff.support)
    reg[np.diag_indices(n)] += sigma2
    factor, info = scipy.linalg.lapack.zpotrf(reg.T, lower=0, clean=0,
                                              overwrite_a=1)
    if info != 0:
        raise _rank_deficient(n, sigma2)
    soft, _ = scipy.linalg.lapack.zpotrs(factor, Hm.T @ received.conj(),
                                         lower=0, overwrite_b=1)
    return _nearest_symbols(soft.conj(), alphabet)
