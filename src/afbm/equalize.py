"""MMSE equalization, interference matrices, and hard detection.

Detection works per channel realization from the dense effective
channel of a detection domain.  The white-noise MMSE form is used in
both domains even though the receive chains color the noise; that
mismatch is part of the modeled receiver, not an implementation
shortcut.

BER frames detect through :func:`mmse_detect`, which solves the normal
equations for the one received vector and never forms the equalizer:
it fills one triangle of the Gram with ``zherk``, factors it in place
and solves, without mirroring the Gram or copying Heff to conjugate it.
:func:`mmse` builds the dense equalizer E, which with
:func:`delta_matrix` and :func:`equalize_and_detect` is the oracle the
fast paths are checked against; the SIR hot path is
:func:`delta_from_gram` of the Gram :func:`_gram` forms, which reads
Delta = I - r (G + r I)^-1 from a single Cholesky inverse.  Either
path returns Delta as a plain square array.  At zero noise r is always
a relative ridge of 1e-10 times the mean Gram diagonal, so a
zero-forcing Delta is set by that one stated regularizer, not by
roundoff.  The SIR path forms the Gram Heff^H Heff through
:func:`_gram` and the inverse through ``zpotri``, each on one triangle
mirrored exactly Hermitian; the oracle keeps the plain product and the
solve.  :func:`_gram` reads the effective channel's block support:
per receive window it multiplies only the runs of consecutive symbols
that window can see, so a short prototype's Gram skips the blocks its
symbols never reach; a full or absent support is one product over all
of Heff.
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


def _lower_gram(h: np.ndarray) -> np.ndarray:
    """h^H h on and below the diagonal, zeros above.

    ``zherk`` fills one triangle of h^T conj(h), the conjugate (that is,
    the transpose) of h^H h, reading a C-ordered h as its Fortran
    transpose without a copy.  Transposing puts the filled triangle at
    the bottom of h^H h.
    """
    return scipy.linalg.blas.zherk(1.0, h.T, trans=0, lower=0).T


def _gram(h: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    """h^H h from one triangle, mirrored so the result is exactly Hermitian.

    With a block ``support`` (see :class:`afbm.modem.EffectiveChannel`)
    that leaves some blocks out, the lower triangle is summed over the
    receive windows from the blocks that can be nonzero only.  Per
    window, each run of consecutive supported symbols adds its own
    ``zherk`` triangle on the diagonal, and each pair of runs adds one
    product below it; blocks outside the support contribute nothing.
    Without a support, or with a full one, it is one ``zherk`` over all
    of h.  The strict upper triangle is then copied from the lower one
    conjugated.
    """
    if support is None or support.all():
        return _mirror_lower(_lower_gram(h))
    K = support.shape[0]
    rows, w = h.shape[0] // K, h.shape[1] // K
    out = np.zeros((h.shape[1],) * 2, dtype=complex)
    for j, runs in enumerate(_support_runs(support)):
        window = h[j * rows:(j + 1) * rows]
        for i, (a, b) in enumerate(runs):
            run = window[:, a * w:b * w]
            out[a * w:b * w, a * w:b * w] += _lower_gram(run)
            for c, d in runs[:i]:
                out[a * w:b * w, c * w:d * w] += \
                    run.conj().T @ window[:, c * w:d * w]
    return _mirror_lower(out)


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

    The inverse comes from ``zpotrf`` + ``zpotri`` on one triangle
    (about n^3 flops, against 7n^3/3 for a factorization and an n-column
    solve) and is mirrored exactly Hermitian.  A Gram the factorization
    rejects raises ValueError naming n and r.
    """
    if not sigma2 >= 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    n = gram.shape[0]
    r = sigma2 if sigma2 > 0 else 1e-10 * np.trace(gram).real / n
    reg = gram + r * np.eye(n)
    # The Fortran view of the C-ordered reg is its conjugate; its upper
    # triangle is reg's lower one, which ends up holding reg^-1's.
    factor, info = scipy.linalg.lapack.zpotrf(reg.T, lower=0, clean=0,
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

    The Gram is one triangle, factored in place: ``zherk`` reads the
    C-ordered Heff as its Fortran transpose and fills the upper triangle
    of conj(Heff^H Heff); conjugating that exactly gives the Gram's own
    upper triangle, which takes sigma2 on its diagonal and goes to
    ``zpotrf`` and ``zpotrs`` without a copy.  Heff^H r is read as
    conj(Heff^T conj(r)), so Heff is never conjugated either, and the
    only n x n array is the Gram itself.
    """
    if not sigma2 >= 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    Hm = heff.matrix
    received = _received_vector(received, Hm.shape[0])
    n = Hm.shape[1]
    reg = scipy.linalg.blas.zherk(1.0, Hm.T, trans=0, lower=0)
    np.conjugate(reg, out=reg)
    reg[np.diag_indices(n)] += sigma2
    factor, info = scipy.linalg.lapack.zpotrf(reg, lower=0, clean=0,
                                              overwrite_a=1)
    if info != 0:
        raise _rank_deficient(n, sigma2)
    rhs = Hm.T @ received.conj()
    soft, _ = scipy.linalg.lapack.zpotrs(factor, np.conjugate(rhs, out=rhs),
                                         lower=0, overwrite_b=1)
    return _nearest_symbols(soft, alphabet)
