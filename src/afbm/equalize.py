"""MMSE equalization, interference matrices, and hard detection.

Detection works per channel realization from the dense effective
channel of a detection domain.  The white-noise MMSE form is used in
both domains even though the receive chains color the noise; that
mismatch is part of the modeled receiver, not an implementation
shortcut.

BER frames detect through :func:`mmse_detect`, which solves the normal
equations for the one received vector and never forms the equalizer.
:func:`mmse` builds the dense equalizer E, which with
:func:`delta_matrix` and :func:`equalize_and_detect` is the oracle the
fast paths are checked against; the SIR hot path is
:func:`delta_from_gram`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .modem import AFFINE, FILTERED, EffectiveChannel

__all__ = [
    "DeltaMatrix",
    "Equalizer",
    "conditioned_delta",
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


@dataclass(frozen=True, eq=False)
class DeltaMatrix:
    """Square payload-to-payload matrix after equalization.

    The identity on the diagonal means perfect restoration; everything
    off the diagonal (and any diagonal deficit) is interference.
    """

    matrix: np.ndarray
    domain: str


def _solve_spd(gram: np.ndarray, rhs: np.ndarray, sigma2: float,
               context: str) -> np.ndarray:
    """Solve (gram + sigma2 I) X = rhs through a Hermitian factorization."""
    n = gram.shape[0]
    reg = gram + sigma2 * np.eye(n)
    try:
        factor = scipy.linalg.cho_factor(reg, check_finite=False)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"{context}: {n}x{n} Gram matrix is rank deficient to "
            f"working precision and sigma2={sigma2:g} does not "
            f"regularize it") from None
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def mmse(heff: EffectiveChannel, sigma2: float) -> Equalizer:
    """MMSE equalizer E = (Heff^H Heff + sigma2 I)^-1 Heff^H.

    Computed through a positive-definite solve, never an explicit
    inverse.  With sigma2 = 0 this is the zero-forcing pseudo-inverse
    and requires a full-column-rank effective channel.
    """
    if sigma2 < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    Hm = heff.matrix
    gram = Hm.conj().T @ Hm
    E = _solve_spd(gram, Hm.conj().T, sigma2, "mmse")
    return Equalizer(E, heff.domain, float(sigma2))


def delta_matrix(eq: Equalizer, heff: EffectiveChannel) -> DeltaMatrix:
    """End-to-end payload matrix Delta = E Heff of one realization."""
    if eq.domain != heff.domain:
        raise ValueError(f"equalizer domain {eq.domain!r} does not match "
                         f"effective channel domain {heff.domain!r}")
    return DeltaMatrix(eq.matrix @ heff.matrix, eq.domain)


def delta_from_gram(gram: np.ndarray, sigma2: float) -> np.ndarray:
    """Delta computed from the effective-channel Gram alone.

    Algebraically (gram + sigma2 I)^-1 gram, identical to composing
    :func:`mmse` with :func:`delta_matrix` but skipping the rectangular
    factors; this is the Monte-Carlo hot path.  With sigma2 = 0 a
    rank-deficient Gram falls back to a relative ridge of 1e-10 times
    the mean diagonal, keeping the zero-forcing reading while staying
    solvable.
    """
    if sigma2 < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    try:
        return _solve_spd(gram, gram, sigma2, "delta_from_gram")
    except ValueError:
        if sigma2 > 0:
            raise
        ridge = 1e-10 * np.trace(gram).real / gram.shape[0]
        return _solve_spd(gram, gram, ridge, "delta_from_gram(ridge)")


def conditioned_delta(modem, H, domain: str, sigma2: float) -> DeltaMatrix:
    """Build the domain's effective channel for H and return its Delta."""
    if domain == AFFINE:
        heff = modem.effective_channel_affine(H)
    elif domain == FILTERED:
        heff = modem.effective_channel_filtered(H)
    else:
        raise ValueError(f"unknown domain {domain!r}")
    gram = heff.matrix.conj().T @ heff.matrix
    return DeltaMatrix(delta_from_gram(gram, sigma2), domain)


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
    """
    if sigma2 < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    Hm = heff.matrix
    received = _received_vector(received, Hm.shape[0])
    Hh = Hm.conj().T
    soft = _solve_spd(Hh @ Hm, Hh @ received, sigma2, "mmse")
    return _nearest_symbols(soft, alphabet)
