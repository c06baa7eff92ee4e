"""SIR figures and BER Monte-Carlo curves.

Two signal-to-interference measures are computed from the chain: the
waveform SIR, an intrinsic property of the modulation with an identity
channel, and the channel-conditioned SIR of the equalized end-to-end
matrix of one realization.  Aggregation over realizations and the
bit-error Monte Carlo live here as well.

The conditioned SIR comes in two flavors.  The ratio
(d / (||Delta||_F^2 - d)) treats any deviation of the Frobenius mass
from the d unit diagonals as interference; under MMSE the diagonal
shrinks below one, the denominator can go negative, and the ratio
loses meaning.  The bias-robust variant sum|diag|^2 / sum|offdiag|^2
stays well defined, and is substituted automatically whenever the
plain form degenerates.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel as _channel
from .equalize import _gram, delta_from_gram, mmse_detect
from .modem import AFFINE, FILTERED, AfbmModem, ModulationConfig, \
    qam_alphabet, qam_demap, qam_map

__all__ = [
    "BerPoint",
    "ConditionedSir",
    "SirStatistics",
    "WaveformSir",
    "ber_curve",
    "interference_map",
    "sir_conditioned",
    "sir_statistics",
    "sir_waveform",
]


class WaveformSir(NamedTuple):
    """Waveform SIR in dB plus a flag for exactly orthogonal setups."""

    value_db: float
    orthogonal: bool


@dataclass(frozen=True)
class ConditionedSir:
    """Channel-conditioned SIR of one realization, two estimators.

    ``nominal_db`` takes the restored diagonal as exactly unit, so the
    interference power is the Frobenius mass in excess of the dimension;
    it degenerates when shrinkage pulls the total mass below that.
    ``diagonal_db`` measures the actual diagonal against the actual
    off-diagonal power and stays finite whenever interference exists.
    """

    nominal_db: float
    diagonal_db: float
    substituted: bool

    @property
    def value_db(self) -> float:
        """The figure of record: diagonal form when the nominal one degenerates."""
        return self.diagonal_db if self.substituted else self.nominal_db


@dataclass(frozen=True)
class SirStatistics:
    """Aggregate SIR over independently drawn channel realizations."""

    average_db: float
    maximum_db: float
    minimum_db: float
    realizations: int
    averaging: str
    substituted: int
    samples_db: tuple[float, ...]


@dataclass(frozen=True)
class BerPoint:
    """One SNR point of a bit-error curve."""

    snr_db: float
    bit_errors: int
    bits_total: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total


# ----------------------------------------------------------------- SIR values


def sir_waveform(modem: AfbmModem) -> WaveformSir:
    """Intrinsic SIR of the modulation chain with an identity channel.

    The Gram of the transmit matrix has unit diagonal by construction
    of the compensation, so its off-diagonal Frobenius mass is exactly
    the per-payload interference power.  Payload independent.  When
    that mass sits below numerical roundoff the setup is flagged as
    orthogonal and the value reported as +inf dB.
    """
    S = modem.modulation_matrix()
    gram = S.conj().T @ S
    d = gram.shape[0]
    denominator = np.linalg.norm(gram, "fro") ** 2 - d
    if denominator <= 1e-12 * d:
        return WaveformSir(np.inf, True)
    return WaveformSir(10.0 * np.log10(d / denominator), False)


def sir_conditioned(delta) -> ConditionedSir:
    """Conditioned SIR of a square end-to-end matrix (or DeltaMatrix)."""
    matrix = getattr(delta, "matrix", delta)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"delta must be square, got {matrix.shape}")
    d = matrix.shape[0]
    fro2 = np.linalg.norm(matrix, "fro") ** 2
    diag2 = float(np.sum(np.abs(np.diag(matrix)) ** 2))
    off2 = max(fro2 - diag2, 0.0)

    nominal_den = fro2 - d
    substituted = nominal_den <= 0
    nominal_db = np.inf if substituted else 10.0 * np.log10(d / nominal_den)
    if off2 <= 1e-15 * max(diag2, 1.0):
        diagonal_db = np.inf
    else:
        diagonal_db = 10.0 * np.log10(diag2 / off2)
    return ConditionedSir(nominal_db, diagonal_db, substituted)


def _domain_gram(modem: AfbmModem, realization, domain: str) -> np.ndarray:
    return _gram(modem.effective_channel(realization, domain).matrix)


def _sir_sample(modem: AfbmModem, chan: _channel.ChannelConfig, domain: str,
                seed: int, index: int, sigma2: float) -> ConditionedSir:
    rng = _channel.trial_stream(seed, index)
    realization = _channel.sample_channel(
        chan.n_paths, chan.delay_max, chan.doppler_max, rng,
        size=modem.cfg.frame_size)
    gram = _domain_gram(modem, realization, domain)
    return sir_conditioned(delta_from_gram(gram, sigma2))



# Worker-process state for the Monte-Carlo pools.  The modem is rebuilt
# once per worker from its configuration instead of being pickled per
# task; results depend only on (seed, index), never on scheduling.
_POOL_STATE: dict = {}


def _pool_init(cfg: ModulationConfig, chan, domain, seed, sigma2):
    _POOL_STATE["args"] = (AfbmModem(cfg), chan, domain, seed, sigma2)


def _pool_sample(index: int) -> ConditionedSir:
    modem, chan, domain, seed, sigma2 = _POOL_STATE["args"]
    return _sir_sample(modem, chan, domain, seed, index, sigma2)


def _pool_ber_init(cfg: ModulationConfig, chan, domain, seed, order):
    _POOL_STATE["ber"] = (AfbmModem(cfg), chan, domain, seed, order,
                          qam_alphabet(order))


def _pool_ber_trial(task: tuple[int, float]) -> tuple[int, int]:
    modem, chan, domain, seed, order, alphabet = _POOL_STATE["ber"]
    index, sigma2 = task
    return _ber_trial(modem, chan, domain, seed, index, sigma2, order,
                      alphabet)


def sir_statistics(modem: AfbmModem, chan: _channel.ChannelConfig,
                   domain: str, n_realizations: int, seed: int,
                   sigma2: float = 0.0, averaging: str = "linear",
                   workers: int = 1) -> SirStatistics:
    """Conditioned SIR over freshly drawn channels.

    Each realization draws its channel from an independent stream
    keyed by (seed, index), so results are reproducible bit-exactly
    and independent of worker scheduling.  ``sigma2`` is the operating
    noise power entering the equalizer; zero selects the zero-forcing
    reading (with a relative ridge on rank-deficient draws).

    ``averaging`` selects how the average is formed: "linear" averages
    the SIR power ratios before converting to dB (energy-consistent),
    "db" averages the dB values themselves, which matches how
    published tables are usually aggregated.  Extremes are reported in
    dB either way.
    """
    if n_realizations < 1:
        raise ValueError(f"need at least one realization, "
                         f"got {n_realizations}")
    if averaging not in ("linear", "db"):
        raise ValueError(f"averaging must be 'linear' or 'db', "
                         f"got {averaging!r}")
    indices = range(n_realizations)
    if workers > 1:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init,
                initargs=(modem.cfg, chan, domain, seed, sigma2)) as pool:
            conditioned = list(pool.map(_pool_sample, indices,
                                        chunksize=8))
    else:
        conditioned = [_sir_sample(modem, chan, domain, seed, i, sigma2)
                       for i in indices]

    samples = np.array([c.value_db for c in conditioned])
    if averaging == "linear":
        average = 10.0 * np.log10(np.mean(10.0 ** (samples / 10.0)))
    else:
        average = float(np.mean(samples))
    return SirStatistics(
        average_db=float(average),
        maximum_db=float(np.max(samples)),
        minimum_db=float(np.min(samples)),
        realizations=n_realizations,
        averaging=averaging,
        substituted=sum(c.substituted for c in conditioned),
        samples_db=tuple(float(s) for s in samples),
    )


def interference_map(deltas) -> np.ndarray:
    """Mean squared magnitude of end-to-end matrices, for leakage heatmaps."""
    acc = None
    count = 0
    for delta in deltas:
        matrix = getattr(delta, "matrix", delta)
        power = np.abs(matrix) ** 2
        acc = power if acc is None else acc + power
        count += 1
    if acc is None:
        raise ValueError("no delta matrices given")
    return acc / count


# ------------------------------------------------------------------ BER curve


def _ber_trial(modem: AfbmModem, chan: _channel.ChannelConfig, domain: str,
               seed: int, index: int, sigma2: float, order: int,
               alphabet: np.ndarray) -> tuple[int, int]:
    """One frame: errors and bits.  Draw order: channel, bits, noise."""
    rng = _channel.trial_stream(seed, index)
    realization = _channel.sample_channel(
        chan.n_paths, chan.delay_max, chan.doppler_max, rng,
        size=modem.cfg.frame_size)
    bits_per_symbol = int(round(np.log2(order)))
    n_bits = modem.cfg.payload_size * bits_per_symbol
    bits = rng.integers(0, 2, size=n_bits)

    x = qam_map(bits, order)
    s = modem.modulate(x)
    r = _channel.apply_channel(realization, s)
    r = _channel.add_awgn(r, sigma2, rng)

    heff = modem.effective_channel(realization, domain)
    received = (modem.matched_demodulate(r) if domain == AFFINE
                else modem.filtered_receive(r))
    branch_noise = modem.received_noise_power(domain, sigma2)
    detected = mmse_detect(heff, received, branch_noise, alphabet)
    errors = int(np.sum(qam_demap(detected, order) != bits))
    return errors, n_bits


def ber_curve(modem: AfbmModem, chan: _channel.ChannelConfig, domain: str,
              snr_grid_db, trials: int, seed: int, *,
              min_bit_errors: int = 100, qam_order: int = 4,
              batch: int = 25, workers: int = 1) -> list[BerPoint]:
    """Monte-Carlo bit-error rate over an SNR grid.

    The per-symbol SNR is 1/sigma2 with the unit-average-energy
    constellation and unit-average-energy channel, so the noise
    variance per received sample is 10^(-snr_db/10).  The equalizer in
    each trial regularizes with that variance mapped through the
    receive front end (:meth:`AfbmModem.received_noise_power`), keeping
    the white-noise detector matched in both domains.  Trials stop at
    the first batch boundary where ``min_bit_errors`` errors have
    accumulated, or at ``trials`` frames, whichever comes first; the
    stopping rule therefore depends only on (seed, trials, batch) and
    replays bit-exactly.

    Trial index (snr point p, trial t) keys stream p*trials + t, so
    every point uses channels, payloads and noise that are independent
    of the other points.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial per point, got {trials}")
    if domain not in (AFFINE, FILTERED):
        raise ValueError(f"unknown domain {domain!r}")
    alphabet = qam_alphabet(qam_order)
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_ber_init,
            initargs=(modem.cfg, chan, domain, seed, qam_order))
    try:
        points = []
        for p_idx, snr_db in enumerate(snr_grid_db):
            sigma2 = 10.0 ** (-float(snr_db) / 10.0)
            errors = 0
            bits_total = 0
            done = 0
            while done < trials:
                size = min(batch, trials - done)
                tasks = [(p_idx * trials + done + t, sigma2)
                         for t in range(size)]
                if pool is not None:
                    results = list(pool.map(_pool_ber_trial, tasks))
                else:
                    results = [_ber_trial(modem, chan, domain, seed, i,
                                          s2, qam_order, alphabet)
                               for i, s2 in tasks]
                for err, nbits in results:
                    errors += err
                    bits_total += nbits
                done += size
                if errors >= min_bit_errors:
                    break
            points.append(BerPoint(snr_db=float(snr_db), bit_errors=errors,
                                   bits_total=bits_total))
        return points
    finally:
        if pool is not None:
            pool.shutdown()
