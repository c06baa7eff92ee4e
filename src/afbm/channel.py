"""Doubly dispersive channel sampling, application, and noise.

A channel realization is a small set of paths, each a complex gain, an
integer cyclic delay, and a real Doppler shift measured in cycles per
frame, plus the size M of the frames it acts on.  Its M x M matrix, a
sum of phase-twisted cyclic shifts, is never materialized on the hot
path, since applying it per path is both exact and cheap.
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
    "sample_channel",
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
    """A set of paths and the size of the frames it acts on."""

    paths: tuple[PathSpec, ...]
    size: int

    def __post_init__(self):
        if len(self.paths) < 1:
            raise ValueError("a realization needs at least one path")
        if self.size < 1:
            raise ValueError(f"frame size must be >= 1, got {self.size}")
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
        if not 0 <= self.doppler_max < math.inf:
            raise ValueError(f"doppler_max must be finite and >= 0, "
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
                   size: int) -> ChannelRealization:
    """Draw one realization for frames of ``size`` samples.

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


def channel_matrix(c: ChannelRealization) -> np.ndarray:
    """Dense M x M matrix: sum over paths of gain * phase-diag * cyclic shift.

    M is ``c.size``.  The Doppler phase of path r is exp(-j2pi m f_r / M)
    on sample m, applied after the cyclic shift by the path delay.
    """
    M = c.size
    m = np.arange(M)
    H = np.zeros((M, M), dtype=complex)
    for p in c.paths:
        phase = np.exp(-2j * np.pi * m * p.doppler / M)
        H += p.gain * phase[:, None] * np.roll(np.eye(M), p.delay, axis=0)
    return H


def _path_twists(c: ChannelRealization,
                 M: int) -> list[tuple[int, np.ndarray]]:
    """Per path: the cyclic delay modulo M and the length-M twist.

    The twist of a path is gain * exp(-j2pi m f / M) on output sample m,
    the factor its shifted input is multiplied by.  Refuses a
    realization drawn for another frame size.
    """
    if c.size != M:
        raise ValueError(f"realization is annotated for frames of "
                         f"{c.size} samples, got {M}")
    m = np.arange(M)
    return [(p.delay % M, p.gain * np.exp(-2j * np.pi * m * p.doppler / M))
            for p in c.paths]


def apply_channel(c: ChannelRealization, s: np.ndarray) -> np.ndarray:
    """Apply the realization per path: shift, phase-twist, accumulate.

    ``s`` is one frame, a vector of ``c.size`` samples; any other shape
    is refused.  Matches the dense product with :func:`channel_matrix`
    to roundoff.
    """
    s = np.asarray(s, dtype=complex)
    M = c.size
    if s.shape != (M,):
        raise ValueError(f"frame must have shape ({M},), got {s.shape}")
    out = np.zeros_like(s)
    term = np.empty_like(s)
    for d, twist in _path_twists(c, M):
        # Cyclic shift by d without a rolled copy: rows [d, M) take
        # s[0, M-d), rows [0, d) wrap around from s[M-d, M).
        np.multiply(twist[d:], s[:M - d], out=term[d:])
        np.multiply(twist[:d], s[M - d:], out=term[:d])
        out += term
    return out


def add_awgn(v: np.ndarray, sigma2: float,
             rng: np.random.Generator) -> np.ndarray:
    """Add circularly symmetric white noise of per-sample variance sigma2."""
    if not sigma2 >= 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    if sigma2 == 0:
        return np.array(v, dtype=complex, copy=True)
    v = np.asarray(v, dtype=complex)
    scale = np.sqrt(sigma2 / 2.0)
    return v + scale * (rng.standard_normal(v.shape)
                        + 1j * rng.standard_normal(v.shape))

