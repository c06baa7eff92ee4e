"""MMSE equalization, interference matrices, and hard detection.

Detection works per channel realization from the normal equations of a
detection domain's effective channel.  The white-noise MMSE form is
used in both domains even though the receive chains color the noise;
that mismatch is part of the modeled receiver, not an implementation
shortcut.

Both fast paths start from the lower triangle of Heff^H Heff, never
mirrored: :func:`_gram` forms it over the channel's block support, and
:func:`_window_gram` adds one receive window's share, for it and for the
per-realization sweep (:func:`afbm.metrics._systems`), which never
forms the filtered channel.  :func:`delta_from_gram`, for SIR samples,
reads Delta's lower triangle from one Cholesky inverse of it, with a
stated relative ridge at zero noise; :func:`mmse_detect`, for BER
frames, factors it in place and solves for the sweep's right-hand side,
returning soft estimates that the QAM demapper slices.
:func:`mmse` builds the dense equalizer E, which with
:func:`delta_matrix` and :func:`equalize_and_detect` is the oracle the
fast paths are checked against.

The fast paths call scipy's BLAS and LAPACK kernels through its two
compiled modules, ``_fblas`` and ``_flapack``, which
:func:`_scipy_extension` loads straight from scipy's install directory:
importing the packages would add scipy's ``__init__`` (``subprocess``,
``sysconfig``, Cython helpers) and ``scipy.linalg``'s array-API layer
(``numpy.f2py``, ``numpy.testing``, ``numpy.ma``) to every process's
start-up time and peak memory, for code none of them runs.  Only the
oracle's :func:`_solve_spd` imports ``scipy.linalg``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .modem import EffectiveChannel, _support_runs

__all__ = [
    "Equalizer",
    "delta_from_gram",
    "delta_matrix",
    "equalize_and_detect",
    "mmse",
    "mmse_detect",
]


def _scipy_extension(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded from its
    install directory without running scipy's or ``scipy.linalg``'s
    ``__init__``.

    ``find_spec("scipy")`` locates the package without importing it.
    A module that is found but fails to load is loaded once more after
    ``import scipy``, whose ``_distributor_init`` is where a
    distribution sets up the BLAS or DLLs its kernels link against.
    The full dotted name keys CPython's cache of single-phase extension
    modules, so the kernels are the very objects ``scipy.linalg.blas``
    and ``scipy.linalg.lapack`` export, whichever is imported first.
    """
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(package.submodule_search_locations[0], "linalg")
    fullname = f"scipy.linalg.{name}"
    spec = importlib.machinery.PathFinder.find_spec(fullname, [directory])
    if spec is None:
        raise ImportError(f"{fullname} not found in {directory}",
                          name=fullname)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        import scipy  # noqa: F401
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


_fblas = _scipy_extension("_fblas")
_flapack = _scipy_extension("_flapack")


@dataclass(frozen=True, eq=False)
class Equalizer:
    """Linear payload estimator E for one domain and noise level."""

    matrix: np.ndarray
    domain: str


def _add_herk(out: np.ndarray, a: np.ndarray) -> None:
    """Add a^H a to the lower triangle of the C-ordered n x n ``out``,
    in place.

    ``zherk`` reads a C-ordered ``a`` as its Fortran transpose without
    a copy and, with beta = 1, accumulates a^T conj(a), the transpose of
    a^H a, into the upper triangle of ``out.T``, which is ``out``'s
    lower one: no n x n temporary is made.
    """
    _fblas.zherk(1.0, a.T, beta=1.0, c=out.T, trans=0, lower=0,
                 overwrite_c=1)


def _window_gram(out: np.ndarray, window: np.ndarray,
                 runs: list[tuple[int, int]], w: int) -> None:
    """Add one receive window's share of h^H h to ``out``'s lower
    triangle.

    ``window`` is the window's rows of h, ``runs`` the [a, b) runs of
    consecutive symbols its support row holds, and w the columns per
    symbol.  A single run over every symbol accumulates in place
    (:func:`_add_herk`).  Otherwise each run adds one ``zherk`` triangle
    and one product per run before it.
    """
    if runs == [(0, out.shape[0] // w)]:
        _add_herk(out, window)
        return
    for i, (a, b) in enumerate(runs):
        run = window[:, a * w:b * w]
        out[a * w:b * w, a * w:b * w] += _fblas.zherk(
            1.0, run.T, trans=0, lower=0).T
        for c, d in runs[:i]:
            out[a * w:b * w, c * w:d * w] += \
                run.conj().T @ window[:, c * w:d * w]


def _gram(h: np.ndarray, support: np.ndarray | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """h^H h on and below the diagonal, exact zeros above: the layout
    whose ``.T`` view ``zpotrf`` reads as the upper triangle of
    conj(h^H h), in :func:`delta_from_gram` and :func:`mmse_detect`.

    With no ``support``, or a full one on a square h (an affine
    channel), it is one ``zherk`` over all of h.  Otherwise each
    receive window of the block ``support`` (see
    :class:`afbm.modem.EffectiveChannel`) adds its share through
    :func:`_window_gram`, blocks outside the support costing nothing.
    A filtered channel is always summed window by window, because the
    sweep sums it so without forming it, and both then give the same
    bits.  ``out``, when given, is a C-ordered complex n x n buffer that
    is zeroed and filled; otherwise a new array is returned.
    """
    n = h.shape[1]
    if out is None:
        out = np.zeros((n, n), dtype=complex)
    else:
        out.fill(0)
    if support is None or (support.all() and h.shape[0] == n):
        _add_herk(out, h)
        return out
    K = support.shape[0]
    rows = h.shape[0] // K
    for j, runs in enumerate(_support_runs(support)):
        _window_gram(out, h[j * rows:(j + 1) * rows], runs, n // K)
    return out


def _rank_deficient(n: int, sigma2: float) -> ValueError:
    return ValueError(
        f"mmse: {n}x{n} Gram matrix is rank deficient to working "
        f"precision and sigma2={sigma2:g} does not regularize it")


def _solve_spd(gram: np.ndarray, rhs: np.ndarray,
               sigma2: float) -> np.ndarray:
    """Solve (gram + sigma2 I) X = rhs through a Hermitian factorization.

    The oracle alone uses ``scipy.linalg``, so only its callers import it.
    """
    import scipy.linalg

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
    return Equalizer(E, heff.domain)


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
    """Delta computed from the effective-channel Gram alone, as its
    lower triangle.

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
    owns its Gram: r is added on its diagonal and it is factored in
    place, so it is changed also when the call raises, and a caller
    that needs it afterwards passes a copy.  Any other ``gram`` is
    copied first and left as it is.  The inverse comes from ``zpotrf``
    + ``zpotri`` on that triangle (about n^3 flops, against 7n^3/3 for
    a factorization and an n-column solve) and is not mirrored: as with
    :func:`_gram`, only the lower triangle of the result is Delta's, and
    the entries above it hold -r times what ``gram`` held there.  A
    Gram the factorization rejects raises ValueError naming n and r.
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
    factor, info = _flapack.zpotrf(gram.T, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        inverse, info = _flapack.zpotri(factor, lower=0, overwrite_c=1)
    if info != 0:
        raise ValueError(
            f"delta_from_gram: {n}x{n} Gram matrix plus r={r:g} is not "
            f"positive definite to working precision (LAPACK info {info})")
    delta = inverse.T
    delta *= -r
    delta[np.diag_indices(n)] += 1.0
    return delta


def _nearest_symbols(soft: np.ndarray, alphabet: np.ndarray) -> np.ndarray:
    """Slice each soft estimate to the nearest alphabet symbol."""
    alphabet = np.asarray(alphabet, dtype=complex)
    nearest = np.argmin(np.abs(soft[:, None] - alphabet[None, :]), axis=1)
    return alphabet[nearest]


def equalize_and_detect(eq: Equalizer, received: np.ndarray,
                        alphabet: np.ndarray) -> np.ndarray:
    """Apply the equalizer and slice each coordinate to the nearest symbol."""
    received = np.asarray(received, dtype=complex)
    if received.shape != eq.matrix.shape[1:]:
        raise ValueError(f"received vector must have shape "
                         f"({eq.matrix.shape[1]},), got {received.shape}")
    return _nearest_symbols(eq.matrix @ received, alphabet)


def mmse_detect(gram: np.ndarray, rhs: np.ndarray,
                sigma2: float) -> np.ndarray:
    """MMSE soft estimates for one received vector r, without forming E.

    Solves (Heff^H Heff + sigma2 I) x = Heff^H r from ``gram``, the
    lower triangle of Heff^H Heff in :func:`_gram`'s layout, and
    ``rhs``, Heff^T conj(r) = conj(Heff^H r), as the per-realization
    sweep (:func:`afbm.metrics._systems`) yields them, and returns x.
    It agrees with ``mmse(heff, sigma2).matrix @ r`` up to roundoff;
    :func:`afbm.modem.qam_demap` slices it to the decisions of
    :func:`equalize_and_detect`, since per-axis rounding is the exact
    nearest neighbour of a square QAM alphabet.

    It owns both, as :func:`delta_from_gram` owns its Gram: the
    writeable complex C-ordered ``gram`` takes sigma2 on its diagonal
    and its ``.T`` view, the upper triangle of conj(G + sigma2 I), is
    factored in place, and ``rhs`` is solved in place into the soft
    estimates' conjugates; conjugating that n-vector gives them.
    """
    if not sigma2 >= 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    n = gram.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},), "
                         f"got {rhs.shape}")
    gram[np.diag_indices(n)] += sigma2
    factor, info = _flapack.zpotrf(gram.T, lower=0, clean=0, overwrite_a=1)
    if info != 0:
        raise _rank_deficient(n, sigma2)
    soft, _ = _flapack.zpotrs(factor, rhs, lower=0, overwrite_b=1)
    return soft.conj()
