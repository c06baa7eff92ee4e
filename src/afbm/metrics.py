"""SIR figures and BER Monte-Carlo curves.

Two signal-to-interference measures are computed from the chain: the
waveform SIR, an intrinsic property of the modulation with an identity
channel, and the channel-conditioned SIR of the equalized end-to-end
matrix of one realization.  Aggregation over realizations and the
bit-error Monte Carlo live here as well.

The affine receiver is C^H after the filtered one (see
:mod:`afbm.modem`).  The waveform SIR reads the identity realization's
affine channel, S^H S, as a conditioned SIR; S is never formed.

One sweep, :func:`_systems`, builds a realization's MMSE systems
without forming the filtered channel H_f.  A BER frame solves its one
system (:func:`afbm.equalize.mmse_detect`).  :func:`sir_pass` is the
one SIR Monte-Carlo pass: per realization index it draws the channel
once and, per domain, reduces the Gram to Delta once; that Delta
yields the SIR sample and, when asked, the |Delta|^2 that the mean
interference heatmap accumulates in index order.  It and
:func:`ber_curve` run their tasks through one runner, :func:`_runner`,
and fold the results in task order, whatever the number of workers.

The conditioned SIR is sum|Delta_ii|^2 / sum_{i!=j}|Delta_ij|^2.  The
pass reads it from the lower triangle that
:func:`afbm.equalize.delta_from_gram` returns, the interference summed
directly as twice the strict lower triangle's power; the |Delta|^2
triangles travel and are summed packed, and their mean is mirrored
once per pass.
:func:`sir_conditioned` reads a dense Delta, for the oracle.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from . import channel as _channel
from .equalize import _gram, _window_gram, delta_from_gram, mmse_detect
from .modem import AFFINE, FILTERED, AfbmModem, EffectiveChannel, \
    ModulationConfig, _qam_params, _support_runs, qam_demap, qam_map

__all__ = [
    "BerPoint",
    "ConditionedSir",
    "SirPass",
    "SirStatistics",
    "WaveformSir",
    "ber_curve",
    "sir_conditioned",
    "sir_pass",
    "sir_waveform",
]


class WaveformSir(NamedTuple):
    """Waveform SIR in dB plus a flag for exactly orthogonal setups."""

    value_db: float
    orthogonal: bool


@dataclass(frozen=True)
class ConditionedSir:
    """Channel-conditioned SIR of one realization in dB: the restored
    diagonal's power against the off-diagonal power."""

    value_db: float


@dataclass(frozen=True)
class SirStatistics:
    """Aggregate SIR over independently drawn channel realizations."""

    average_db: float
    maximum_db: float
    minimum_db: float
    realizations: int
    averaging: str
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

    The identity realization's affine channel is S^H S, S the transmit
    matrix, and its conditioned SIR (:func:`_lower_sir_db`) is the
    payload's power against the interference leaked from the others.
    Payload independent.  A +inf reading flags the setup as orthogonal.
    """
    identity = _channel.ChannelRealization(
        (_channel.PathSpec(1, 0, 0.0),), size=modem.cfg.frame_size)
    value_db = _lower_sir_db(modem.effective_channel_affine(identity).matrix)
    return WaveformSir(value_db, bool(value_db == np.inf))


def _sir_db(diag2: float, off2: float) -> float:
    """diag2 / off2 in dB, or +inf when the off-diagonal power is at
    most 1e-15 of the diagonal's (of 1, if that is smaller)."""
    if off2 <= 1e-15 * max(diag2, 1.0):
        return np.inf
    return 10.0 * np.log10(diag2 / off2)


def sir_conditioned(delta: np.ndarray) -> ConditionedSir:
    """Conditioned SIR of a square end-to-end matrix Delta, every entry
    off its diagonal counted as interference."""
    if delta.shape[0] != delta.shape[1]:
        raise ValueError(f"delta must be square, got {delta.shape}")
    power = np.abs(delta) ** 2
    diag2 = float(np.trace(power))
    np.fill_diagonal(power, 0.0)
    return ConditionedSir(_sir_db(diag2, float(power.sum())))


def _lower_sir_db(delta: np.ndarray) -> float:
    """Conditioned SIR of a Hermitian Delta from its diagonal and strict
    lower triangle alone, the entries above the diagonal unread.

    ``delta[1:].T`` is rows 1.. of Delta in Fortran order, and its upper
    trapezoid is Delta's strict lower triangle; ``zlantr`` takes that
    triangle's Frobenius norm in place, so the interference, twice its
    square, is summed without a copy or a mirror.
    """
    lower = scipy.linalg.lapack.zlantr("F", delta[1:].T, uplo="U")
    return _sir_db(float(np.sum(np.abs(np.diag(delta)) ** 2)),
                   2.0 * lower ** 2)


def _domain_gram(heff, out: np.ndarray | None = None) -> np.ndarray:
    return _gram(heff.matrix, heff.support, out)


def _domain_sample(gram: np.ndarray, sigma2: float, heatmaps: bool) -> tuple:
    """The SIR in dB and, when ``heatmaps`` is set, |Delta|^2's lower
    triangle packed by rows (see :func:`_mirrored`): each row's part
    goes through ``abs`` into it, then it is squared in place."""
    delta = delta_from_gram(gram, sigma2)
    power = None
    if heatmaps:
        power = np.empty(len(delta) * (len(delta) + 1) // 2)
        for i, row in enumerate(delta):
            np.abs(row[:i + 1], out=power[i * (i + 1) // 2:][:i + 1])
        np.square(power, out=power)
    return _lower_sir_db(delta), power


def _trial_draw(modem: AfbmModem, chan: _channel.ChannelConfig, seed: int,
                index: int) -> tuple:
    """The stream keyed by (seed, index) and the channel drawn first."""
    rng = _channel.trial_stream(seed, index)
    return rng, _channel.sample_channel(
        chan.n_paths, chan.delay_max, chan.doppler_max, rng,
        size=modem.cfg.frame_size)


def _systems(modem: AfbmModem, realization: _channel.ChannelRealization,
             received: dict):
    """One realization's MMSE systems, the filtered domain first: per
    domain of ``received``, (domain, gram, rhs), ``gram`` the lower
    triangle of Heff^H Heff in :func:`_gram`'s layout and ``rhs``
    Heff^T conj(y) for y = ``received[domain]``, or None where y is.

    H_f is never formed: one sweep over its windows adds each to the
    filtered Gram and right-hand side and, on the modem's route through
    the filtered channel, maps it to the affine rows; otherwise the
    affine channel is projected after the filtered domain is yielded.
    The affine Gram is formed in the filtered one's buffer, so a
    consumer reduces each ``gram`` before it asks for the next.

    Memory follows the route: one block holds the Gram, the through
    route's affine channel and a spare part for the window and then the
    direct route's affine channel (8 MiB for a Hermite SIR sample at
    preset scale, 10 MiB for PHYDYAS), except that an affine frame on
    the through route frees its window before it forms its Gram.
    """
    cfg = modem.cfg
    n = cfg.payload_size
    filtered = FILTERED in received
    through = AFFINE in received and modem._affine_from_filtered
    direct = AFFINE in received and not through
    if filtered or not through:
        # One block: as separate arrays these cost about 10,500 minor
        # page faults per sir-channel repetition, by keeping glibc's
        # mmap and trim thresholds low.
        spare = max(cfg.N if filtered else 0, n if direct else 0)
        block = np.empty((n * (1 + through) + spare, n), dtype=complex)
        gram, affine, buffer = block[:n], block[n:2 * n], block[-cfg.N:]
    else:
        gram, affine = None, np.empty((n, n), dtype=complex)
        buffer = np.empty((cfg.N, n), dtype=complex)
    if through:
        affine.fill(0)
    if filtered or through:
        support, sweep = modem._filtered_windows(realization,
                                                 [buffer] * cfg.K)
        runs = _support_runs(support)
        y = received.get(FILTERED)
        rhs = None if y is None else np.zeros(n, dtype=complex)
        if filtered:
            gram.fill(0)
        for j, window in sweep:
            if filtered:
                _window_gram(gram, window, runs[j], cfg.L // 2)
            if rhs is not None:
                rhs += window.T @ y[j * cfg.N:(j + 1) * cfg.N].conj()
            if through:
                modem._affine_rows(affine, j, window, runs[j])
        del buffer, window
        if filtered:
            yield FILTERED, gram, rhs
    if AFFINE in received:
        if direct:
            affine.fill(0)
            support = modem._project_affine(realization, affine)
        y = received[AFFINE]
        gram = _domain_gram(EffectiveChannel(affine, AFFINE, support), gram)
        yield AFFINE, gram, None if y is None else affine.T @ y.conj()


def _sir_sample(modem: AfbmModem, chan: _channel.ChannelConfig, seed: int,
                index: int, noise: tuple[tuple[str, float], ...],
                heatmaps: bool) -> list[tuple]:
    """One realization: per (domain, sigma2) of ``noise``, the
    conditioned SIR in dB and, when ``heatmaps`` is set, |Delta|^2, each
    domain reduced as soon as :func:`_systems` yields its Gram."""
    _, realization = _trial_draw(modem, chan, seed, index)
    sigma2 = dict(noise)
    samples = {domain: _domain_sample(gram, sigma2[domain], heatmaps)
               for domain, gram, _ in _systems(modem, realization,
                                               dict.fromkeys(sigma2))}
    return [samples[domain] for domain, _ in noise]


# Worker-process state for the Monte-Carlo pools.  The modem is rebuilt
# once per worker from its configuration instead of being pickled per
# task; results depend only on (seed, index), never on scheduling.
_POOL_STATE: dict = {}


def _pool_init(cfg: ModulationConfig, work):
    _POOL_STATE["modem"] = AfbmModem(cfg)
    _POOL_STATE["work"] = work


def _pool_task(args: tuple):
    return _POOL_STATE["work"](_POOL_STATE["modem"], *args)


@contextmanager
def _runner(modem: AfbmModem, work, workers: int):
    """Yield a map from task tuples to ``work(modem, *task)``, in task
    order: computed lazily in this process at ``workers <= 1``, else by
    a pool of ``workers`` processes, one task each, shut down on exit."""
    if workers <= 1:
        yield lambda tasks: (work(modem, *task) for task in tasks)
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                             initargs=(modem.cfg, work)) as pool:
        yield lambda tasks: pool.map(_pool_task, tasks)


def _statistics(samples_db: list[float], averaging: str) -> SirStatistics:
    samples = np.array(samples_db)
    if averaging == "linear":
        average = 10.0 * np.log10(np.mean(10.0 ** (samples / 10.0)))
    else:
        average = float(np.mean(samples))
    return SirStatistics(
        average_db=float(average),
        maximum_db=float(np.max(samples)),
        minimum_db=float(np.min(samples)),
        realizations=len(samples),
        averaging=averaging,
        samples_db=tuple(float(s) for s in samples),
    )


def _mirrored(packed: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n map whose lower triangle, row by row, is
    ``packed``, unpacked through one boolean mask, not index arrays."""
    lower = np.tri(n, dtype=bool)
    power = np.empty((n, n))
    power[lower] = power.T[lower] = packed
    return power


@dataclass(frozen=True, eq=False)
class SirPass:
    """Per-domain results of one Monte-Carlo pass.

    ``heatmaps`` maps each domain to the mean |Delta|^2 over the pass's
    realizations, and is empty unless the pass was asked for them.
    """

    statistics: dict[str, SirStatistics]
    heatmaps: dict[str, np.ndarray]


def sir_pass(modem: AfbmModem, chan: _channel.ChannelConfig,
             sigma2: dict[str, float], indices, seed: int, *,
             averaging: str = "linear", heatmaps: bool = False,
             workers: int = 1) -> SirPass:
    """Conditioned SIR statistics, and optionally heatmaps, of every
    domain in ``sigma2`` (domain -> operating noise power) from one
    pass over ``indices``.

    Each index draws its channel once from the stream keyed by
    (seed, index), and each domain's Delta is computed once and feeds
    both its SIR sample and its |Delta|^2.  Results are folded in index
    order (``acc + power`` in place, then ``/ count``), whether they
    come from this process or from ``workers`` pool processes, so the
    output is reproducible bit-exactly and does not depend on
    ``workers``.  Each |Delta|^2 travels and is summed as its lower
    triangle packed by rows, half a square map's bytes: memory is one
    such accumulator per domain, not one Delta per realization, and
    each mean is mirrored once (:func:`_mirrored`).

    A noise power of zero selects the zero-forcing reading, which
    always applies the relative ridge of
    :func:`afbm.equalize.delta_from_gram` (1e-10 times the mean Gram
    diagonal), on every draw.  ``averaging`` selects how each average
    is formed: "linear" averages the SIR power ratios before converting
    to dB (energy-consistent), "db" averages the dB values themselves,
    which matches how published tables are usually aggregated.
    Extremes are reported in dB either way.
    """
    indices = list(indices)
    if not indices:
        raise ValueError("need at least one realization, got 0")
    if min(indices) < 0:
        raise ValueError(f"realization indices must be >= 0, "
                         f"got {min(indices)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not sigma2:
        raise ValueError("need at least one domain")
    for domain, power in sigma2.items():
        if domain not in (AFFINE, FILTERED):
            raise ValueError(f"unknown domain {domain!r}")
        if not 0.0 <= power < np.inf:
            raise ValueError(f"noise power of domain {domain!r} must be "
                             f"finite and non-negative, got {power}")
    if averaging not in ("linear", "db"):
        raise ValueError(f"averaging must be 'linear' or 'db', "
                         f"got {averaging!r}")
    noise = tuple(sigma2.items())
    samples = {domain: [] for domain in sigma2}
    n = modem.cfg.payload_size
    acc = {d: np.zeros(n * (n + 1) // 2) for d in sigma2} if heatmaps else {}
    with _runner(modem, _sir_sample, workers) as run:
        for per_domain in run([(chan, seed, i, noise, heatmaps)
                               for i in indices]):
            for domain, (sir, power) in zip(sigma2, per_domain):
                samples[domain].append(sir)
                if heatmaps:
                    np.add(acc[domain], power, out=acc[domain])
            # Free this index's maps before the next index is computed.
            del per_domain, power
    return SirPass(
        statistics={d: _statistics(s, averaging) for d, s in samples.items()},
        heatmaps={d: _mirrored(a / len(indices), n) for d, a in acc.items()})


# ------------------------------------------------------------------ BER curve

# Frames per BER batch; a point stops early only at a batch boundary.
_BATCH = 25


def _ber_trial(modem: AfbmModem, chan: _channel.ChannelConfig, domain: str,
               seed: int, index: int, sigma2: float,
               order: int) -> tuple[int, int]:
    """One frame: errors and bits.  Draw order: channel, bits, noise."""
    rng, realization = _trial_draw(modem, chan, seed, index)
    bits_per_symbol = int(round(np.log2(order)))
    n_bits = modem.cfg.payload_size * bits_per_symbol
    bits = rng.integers(0, 2, size=n_bits)

    x = qam_map(bits, order)
    s = modem.modulate(x)
    r = _channel.apply_channel(realization, s)
    r = _channel.add_awgn(r, sigma2, rng)

    branch_noise = modem.received_noise_power(domain, sigma2)
    received = (modem.matched_demodulate(r) if domain == AFFINE
                else modem.filtered_receive(r))
    (_, gram, rhs), = _systems(modem, realization, {domain: received})
    soft = mmse_detect(gram, rhs, branch_noise)
    errors = int(np.sum(qam_demap(soft, order) != bits))
    return errors, n_bits


def ber_curve(modem: AfbmModem, chan: _channel.ChannelConfig, domain: str,
              snr_grid_db, trials: int, seed: int, *,
              min_bit_errors: int = 100, qam_order: int = 4,
              workers: int = 1) -> list[BerPoint]:
    """Monte-Carlo bit-error rate over an SNR grid.

    The per-symbol SNR is 1/sigma2 with the unit-average-energy
    constellation and unit-average-energy channel, so the noise
    variance per received sample is 10^(-snr_db/10).  The equalizer in
    each trial regularizes with that variance mapped through the
    receive front end (:meth:`AfbmModem.received_noise_power`), keeping
    the white-noise detector matched in both domains.  Trials run in
    batches of 25 frames and stop at the first batch boundary where
    ``min_bit_errors`` errors have accumulated, or at ``trials`` frames,
    whichever comes first; the stopping rule therefore depends only on
    (seed, trials) and replays bit-exactly at any ``workers``.

    Trial index (snr point p, trial t) keys stream p*trials + t, so
    every point uses channels, payloads and noise that are independent
    of the other points.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial per point, got {trials}")
    if domain not in (AFFINE, FILTERED):
        raise ValueError(f"unknown domain {domain!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    snr_grid_db = [float(snr_db) for snr_db in snr_grid_db]
    if not np.all(np.isfinite(snr_grid_db)):
        raise ValueError(f"SNR values must be finite, got {snr_grid_db}")
    _qam_params(qam_order)
    points = []
    with _runner(modem, _ber_trial, workers) as run:
        for p_idx, snr_db in enumerate(snr_grid_db):
            sigma2 = 10.0 ** (-snr_db / 10.0)
            errors = bits_total = 0
            for start in range(0, trials, _BATCH):
                for err, nbits in run([
                        (chan, domain, seed, p_idx * trials + t, sigma2,
                         qam_order)
                        for t in range(start, min(start + _BATCH, trials))]):
                    errors += err
                    bits_total += nbits
                if errors >= min_bit_errors:
                    break
            points.append(BerPoint(snr_db=snr_db, bit_errors=errors,
                                   bits_total=bits_total))
    return points
