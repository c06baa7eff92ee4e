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

The fast paths call five BLAS and LAPACK kernels, ``zherk``,
``zpotrf``, ``zpotri``, ``zpotrs`` and ``zlantr``, through one table,
``_kernels``, bound once at import.  numpy's own OpenBLAS exports them
with 64-bit integers (``scipy_zherk_64_`` from numpy 2 on,
``zherk_64_`` in numpy 1.x), and ``ctypes`` finds them through numpy's
already-loaded ``_multiarray_umath`` extension, so a process maps one
BLAS library and touches one work buffer.  Each binding reads its
operands in place, a column slice through its leading dimension, and
refuses by name a layout BLAS cannot read rather than copy it.  Where
numpy's BLAS exports neither spelling (MKL or distribution builds),
the table falls back to scipy's two compiled modules, ``_fblas`` and
``_flapack``, which :func:`_scipy_extension` loads straight from
scipy's install directory without running scipy's or
``scipy.linalg``'s ``__init__``.  Only the oracle's :func:`_solve_spd`
imports ``scipy.linalg``.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

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
    modules, so the module is the one ``scipy.linalg`` imports, whichever
    is imported first.
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


# Each kernel's Fortran arguments, then the hidden length of each
# character argument, and its result.
_CHAR, _LEN, _ARRAY = ctypes.c_char_p, ctypes.c_size_t, ctypes.c_void_p
_INT, _REAL = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
_FACTOR = ([_CHAR, _INT, _ARRAY, _INT, _INT, _LEN], None)
_SIGNATURES = {
    "zherk": ([_CHAR, _CHAR, _INT, _INT, _REAL, _ARRAY, _INT, _REAL, _ARRAY,
               _INT, _LEN, _LEN], None),
    "zpotrf": _FACTOR,
    "zpotri": _FACTOR,
    "zpotrs": ([_CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT, _LEN],
               None),
    "zlantr": ([_CHAR, _CHAR, _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _LEN,
                _LEN, _LEN], ctypes.c_double),
}


def _numpy_symbols() -> dict | None:
    """The five kernels of numpy's own BLAS as ``ctypes`` functions, or
    None where it exports neither 64-bit-integer spelling.

    Opening numpy's ``_multiarray_umath``, which is already loaded,
    maps nothing new, and its symbol lookup reaches the BLAS it links.
    """
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules["numpy.core._multiarray_umath"])
    lib = ctypes.CDLL(umath.__file__)
    for spelling in ("scipy_{}_64_", "{}_64_"):
        found = {name: getattr(lib, spelling.format(name), None)
                 for name in _SIGNATURES}
        if all(found.values()):
            for name, func in found.items():
                func.argtypes, func.restype = _SIGNATURES[name]
            return found
    return None


def _ld(kernel: str, a: np.ndarray, write: bool = False) -> int:
    """The leading dimension under which BLAS reads ``a`` in place as a
    Fortran matrix: its column stride in elements.

    A layout BLAS cannot read so, or a read-only ``a`` that ``write``
    asks to change, raises ValueError naming it: nothing is copied.
    """
    m, n = a.shape
    ld = a.strides[1] // a.itemsize
    if not (a.dtype == np.complex128 and a.flags.aligned
            and (a.flags.writeable or not write)
            and (m <= 1 or a.strides[0] == a.itemsize)
            and (n <= 1 or (a.strides[1] % a.itemsize == 0
                            and ld >= max(m, 1)))):
        raise ValueError(
            f"{kernel}: BLAS cannot {'write' if write else 'read'} in place "
            f"a {'' if a.flags.writeable else 'read-only '}{a.dtype} "
            f"{m}x{n} operand with strides {a.strides}")
    return ld if n > 1 else max(m, 1)


def _ctypes_kernels(symbols: dict) -> SimpleNamespace:
    """The table over numpy's BLAS.  Each kernel works on the upper
    triangle of Fortran-ordered operands, in place, and passes every
    integer as a 64-bit one and each character's hidden length."""

    def ints(*values):
        return [ctypes.byref(ctypes.c_int64(v)) for v in values]

    def real(value):
        return ctypes.byref(ctypes.c_double(value))

    def square(kernel, a, write=True):
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"{kernel}: operand must be square, got "
                             f"{a.shape}")
        return _ld(kernel, a, write)

    def zherk(c, a, beta):
        lda = _ld("zherk", a)
        ldc = square("zherk", c)
        if c.shape[0] != a.shape[0]:
            raise ValueError(f"zherk: {c.shape} result for a {a.shape} "
                             f"operand")
        symbols["zherk"](b"U", b"N", *ints(*a.shape), real(1.0),
                         a.ctypes.data, *ints(lda), real(beta),
                         c.ctypes.data, *ints(ldc), 1, 1)

    def factor(kernel, a):
        info = ctypes.c_int64()
        symbols[kernel](b"U", *ints(len(a)), a.ctypes.data,
                        *ints(square(kernel, a)), ctypes.byref(info), 1)
        return info.value

    def zpotrs(a, b):
        b2 = b if b.ndim == 2 else b[:, None]
        ldb = _ld("zpotrs", b2, write=True)
        if len(b2) != len(a):
            raise ValueError(f"zpotrs: {b.shape} right-hand side for a "
                             f"{a.shape} factor")
        info = ctypes.c_int64()
        symbols["zpotrs"](b"U", *ints(len(a), b2.shape[1]), a.ctypes.data,
                          *ints(square("zpotrs", a, False)), b2.ctypes.data,
                          *ints(ldb), ctypes.byref(info), 1)
        return info.value

    def zlantr(norm, a):
        work = np.empty(max(a.shape[0], 1))
        return symbols["zlantr"](norm.encode(), b"U", b"N", *ints(*a.shape),
                                 a.ctypes.data, *ints(_ld("zlantr", a)),
                                 work.ctypes.data, 1, 1, 1)

    return SimpleNamespace(
        zherk=zherk, zpotrf=lambda a: factor("zpotrf", a),
        zpotri=lambda a: factor("zpotri", a), zpotrs=zpotrs, zlantr=zlantr)


def _scipy_kernels() -> SimpleNamespace:
    """The same table over scipy's f2py modules.  f2py copies an operand
    it cannot pass as it is, so each result is written back into it."""
    fblas, flapack = _scipy_extension("_fblas"), _scipy_extension("_flapack")

    def into(a, got):
        if got is not a:
            a[...] = got

    def zherk(c, a, beta):
        into(c, fblas.zherk(1.0, a, beta=beta, c=c, overwrite_c=1))

    def zpotrf(a):
        got, info = flapack.zpotrf(a, clean=0, overwrite_a=1)
        into(a, got)
        return info

    def zpotri(a):
        got, info = flapack.zpotri(a, overwrite_c=1)
        into(a, got)
        return info

    def zpotrs(a, b):
        got, info = flapack.zpotrs(a, b, overwrite_b=1)
        into(b, got)
        return info

    return SimpleNamespace(
        zherk=zherk, zpotrf=zpotrf, zpotri=zpotri, zpotrs=zpotrs,
        zlantr=lambda norm, a: flapack.zlantr(norm, a, uplo="U"))


# zherk(c, a, beta): c's upper triangle becomes a a^H + beta c.
# zpotrf(a), zpotri(a): a's upper Cholesky factor, then from it the
# inverse's upper triangle, in place; each returns LAPACK's info.
# zpotrs(a, b): b becomes the solution from the factor a; returns info.
# zlantr(norm, a): the norm of a's upper trapezoid.
_symbols = _numpy_symbols()
_kernels = _ctypes_kernels(_symbols) if _symbols else _scipy_kernels()


@dataclass(frozen=True, eq=False)
class Equalizer:
    """Linear payload estimator E for one domain and noise level."""

    matrix: np.ndarray
    domain: str


def _add_herk(out: np.ndarray, a: np.ndarray) -> None:
    """Add a^H a to the lower triangle of the C-ordered n x n ``out``,
    in place.

    ``zherk`` reads ``a``, whose rows have unit stride, as its Fortran
    transpose without a copy and, with beta = 1, accumulates
    a^T conj(a), the transpose of a^H a, into the upper triangle of
    ``out.T``, which is ``out``'s lower one: no n x n temporary is made.
    """
    _kernels.zherk(out.T, a.T, 1.0)


def _window_gram(out: np.ndarray, window: np.ndarray,
                 runs: list[tuple[int, int]], w: int) -> None:
    """Add one receive window's share of h^H h to ``out``'s lower
    triangle.

    ``window`` is the window's rows of h, ``runs`` the [a, b) runs of
    consecutive symbols its support row holds, and w the columns per
    symbol.  A single run over every symbol accumulates in place
    (:func:`_add_herk`).  Otherwise each run adds one ``zherk`` triangle,
    which ``zherk`` reads from the run's columns of ``window`` through
    its leading dimension, and one product per run before it.
    """
    if runs == [(0, out.shape[0] // w)]:
        _add_herk(out, window)
        return
    for i, (a, b) in enumerate(runs):
        run = window[:, a * w:b * w]
        triangle = np.zeros(((b - a) * w,) * 2, dtype=complex)
        _kernels.zherk(triangle.T, run.T, 0.0)
        out[a * w:b * w, a * w:b * w] += triangle
        del triangle    # freed before the products' temporaries
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
    info = _kernels.zpotrf(gram.T)
    if info == 0:
        info = _kernels.zpotri(gram.T)
    if info != 0:
        raise ValueError(
            f"delta_from_gram: {n}x{n} Gram matrix plus r={r:g} is not "
            f"positive definite to working precision (LAPACK info {info})")
    delta = gram
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
    if _kernels.zpotrf(gram.T) != 0:
        raise _rank_deficient(n, sigma2)
    _kernels.zpotrs(gram.T, rhs)
    return rhs.conj()
