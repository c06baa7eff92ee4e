"""Doubly dispersive channel sampling, application, and noise.

A channel realization is a small set of paths, each a complex gain, an
integer cyclic delay, and a real Doppler shift measured in cycles per
frame.  The induced matrix is a sum of phase-twisted cyclic shifts; it
is never materialized on the hot path, since applying it per path is
both exact and cheap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelConfig",
    "ChannelRealization",
    "PathSpec",
    "add_awgn",
    "apply_channel",
    "channel_matrix",
    "from_records",
    "sample_channel",
    "to_records",
    "trial_stream",
]


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: complex gain, integer delay, real Doppler."""

    gain: complex
    delay: int
    doppler: float

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if not cmath.isfinite(self.gain):
            raise ValueError(f"gain must be finite, got {self.gain}")
        if not math.isfinite(self.doppler):
            raise ValueError(f"doppler must be finite, got {self.doppler}")


@dataclass(frozen=True)
class ChannelRealization:
    """A set of paths, optionally annotated with the frame size it acts on."""

    paths: tuple[PathSpec, ...]
    size: int | None = None

    def __post_init__(self):
        if len(self.paths) < 1:
            raise ValueError("a realization needs at least one path")
        delays = [p.delay for p in self.paths]
        if len(set(delays)) != len(delays):
            raise ValueError(f"path delays must be distinct, got {delays}")


@dataclass(frozen=True)
class ChannelConfig:
    """Sampling parameters of the channel ensemble."""

    n_paths: int = 3
    delay_max: int = 16
    doppler_max: float = 2.0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"need at least one path, got {self.n_paths}")
        if self.delay_max < self.n_paths - 1:
            raise ValueError(
                f"cannot place {self.n_paths - 1} distinct nonzero delays "
                f"in [1, {self.delay_max}]")
        if self.doppler_max < 0:
            raise ValueError(f"doppler_max must be >= 0, "
                             f"got {self.doppler_max}")


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for trial ``index``.

    Streams derive from (seed, index) alone, so trials can run in any
    order or in parallel and still reproduce bit-identical draws.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def sample_channel(n_paths: int, delay_max: int, doppler_max: float,
                   rng: np.random.Generator,
                   size: int | None = None) -> ChannelRealization:
    """Draw one realization.

    The first path always sits at delay zero; the remaining delays are
    drawn uniformly without replacement from [1, delay_max].  Dopplers
    are uniform on [-doppler_max, doppler_max] and gains are i.i.d.
    circularly symmetric Gaussian with variance 1/n_paths, so the
    ensemble-average path energy is one.  The draw order (delays,
    Dopplers, gains) is fixed and part of the reproducibility contract.
    """
    cfg = ChannelConfig(n_paths, delay_max, doppler_max)
    delays = np.zeros(n_paths, dtype=int)
    if n_paths > 1:
        delays[1:] = rng.choice(np.arange(1, delay_max + 1),
                                size=n_paths - 1, replace=False)
    dopplers = rng.uniform(-cfg.doppler_max, cfg.doppler_max, n_paths)
    scale = np.sqrt(0.5 / n_paths)
    gains = scale * (rng.standard_normal(n_paths)
                     + 1j * rng.standard_normal(n_paths))
    paths = tuple(PathSpec(complex(g), int(d), float(f))
                  for g, d, f in zip(gains, delays, dopplers))
    return ChannelRealization(paths, size=size)


def _frame_size(c: ChannelRealization, size: int | None) -> int:
    if size is None:
        size = c.size
    if size is None:
        raise ValueError("frame size unknown: pass size or annotate the "
                         "realization")
    return size


def channel_matrix(c: ChannelRealization,
                   size: int | None = None) -> np.ndarray:
    """Dense M x M matrix: sum over paths of gain * phase-diag * cyclic shift.

    The Doppler phase of path r is exp(-j2pi m f_r / M) on sample m,
    applied after the cyclic shift by the path delay.
    """
    M = _frame_size(c, size)
    m = np.arange(M)
    H = np.zeros((M, M), dtype=complex)
    for p in c.paths:
        phase = np.exp(-2j * np.pi * m * p.doppler / M)
        H += p.gain * phase[:, None] * np.roll(np.eye(M), p.delay, axis=0)
    return H


def apply_channel(c: ChannelRealization, s: np.ndarray) -> np.ndarray:
    """Apply the realization per path: shift, phase-twist, accumulate.

    ``s`` is a length-M vector or an M-row matrix (columns propagate
    independently).  Matches the dense product with
    :func:`channel_matrix` to roundoff.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim == 0 or s.shape[0] == 0:
        raise ValueError("expected a non-empty vector or matrix of samples")
    M = s.shape[0]
    if c.size is not None and c.size != M:
        raise ValueError(f"realization is annotated for frames of "
                         f"{c.size} samples, got {M}")
    m = np.arange(M)
    out = np.zeros_like(s)
    term = np.empty_like(s)
    for p in c.paths:
        phase = np.exp(-2j * np.pi * m * p.doppler / M)
        if s.ndim > 1:
            phase = phase[:, None]
        twist = p.gain * phase
        # Cyclic shift by d without a rolled copy: rows [d, M) take
        # s[0, M-d), rows [0, d) wrap around from s[M-d, M).
        d = p.delay % M
        np.multiply(twist[d:], s[:M - d], out=term[d:])
        np.multiply(twist[:d], s[M - d:], out=term[:d])
        out += term
    return out


def add_awgn(v: np.ndarray, sigma2: float,
             rng: np.random.Generator) -> np.ndarray:
    """Add circularly symmetric white noise of per-sample variance sigma2."""
    if sigma2 < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    if sigma2 == 0:
        return np.array(v, dtype=complex, copy=True)
    v = np.asarray(v, dtype=complex)
    scale = np.sqrt(sigma2 / 2.0)
    return v + scale * (rng.standard_normal(v.shape)
                        + 1j * rng.standard_normal(v.shape))


def to_records(c: ChannelRealization) -> list[tuple[float, float, int, float]]:
    """Rows (Re gain, Im gain, delay, doppler), one per path."""
    return [(p.gain.real, p.gain.imag, p.delay, p.doppler) for p in c.paths]


def from_records(rows, size: int | None = None) -> ChannelRealization:
    """Rebuild a realization from :func:`to_records` rows."""
    paths = tuple(PathSpec(complex(re, im), int(d), float(f))
                  for re, im, d, f in rows)
    return ChannelRealization(paths, size=size)
