import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afbm import metrics
from afbm.channel import ChannelConfig, sample_channel, trial_stream
from afbm.equalize import _gram, delta_from_gram, delta_matrix, mmse
from afbm.metrics import (BerPoint, ber_curve, sir_conditioned, sir_pass,
                          sir_waveform)
from afbm.modem import AFFINE, FILTERED, AfbmModem, design_config


@pytest.fixture(scope="module")
def small_modem():
    """Cheap enough for Monte-Carlo statistics in unit tests."""
    return AfbmModem(design_config(16, 2, 32, 24, "hermite", f_max=1.0))


SMALL_CHANNEL = ChannelConfig(n_paths=2, delay_max=4, doppler_max=0.5)


def _failing_task(modem, *task):
    raise RuntimeError(f"task failed in process {os.getpid()}")


def assert_fails_in_a_worker(call):
    """call() raises the task's error from a pool process, and once it
    has, no worker process is left behind."""
    with pytest.raises(RuntimeError, match="task failed in process") as err:
        call()
    assert err.value.args[0] != f"task failed in process {os.getpid()}"
    assert multiprocessing.active_children() == []


class TestWaveformSir:

    def test_known_midsize_value(self, mid_phydyas):
        got = sir_waveform(mid_phydyas)
        assert not got.orthogonal
        assert got.value_db == pytest.approx(15.52, abs=0.01)

    def test_matches_the_dense_gram(self, oracle_modems):
        for modem in oracle_modems:
            S = modem.modulation_matrix()
            want = sir_conditioned(S.conj().T @ S).value_db
            assert sir_waveform(modem).value_db == pytest.approx(
                want, abs=1e-9)

    def test_hermite_tops_phydyas(self, mid_hermite, mid_phydyas):
        assert (sir_waveform(mid_hermite).value_db
                > sir_waveform(mid_phydyas).value_db)


class TestConditionedSir:

    def test_single_off_diagonal_entry(self):
        delta = np.eye(512, dtype=complex)
        delta[0, 1] = 0.1
        got = sir_conditioned(delta)
        assert got.value_db == pytest.approx(47.09, abs=0.01)

    def test_identity_is_flagged_clean(self):
        got = sir_conditioned(np.eye(64, dtype=complex))
        assert np.isinf(got.value_db)


def _sir_amplitude(sir_db):
    """sqrt(off-diagonal / diagonal power) of a SIR reading."""
    return 10.0 ** (-sir_db / 20.0)


class TestPassSampleAgainstOracle:
    """A sample of the SIR pass, read from Delta's lower triangle, against
    sir_conditioned of the dense oracle's Delta = mmse(heff, r) Heff."""

    @given(which=st.integers(0, 3), seed=st.integers(0, 2 ** 16),
           domain=st.sampled_from((AFFINE, FILTERED)),
           sigma2=st.sampled_from((0.0, 10.0 ** -3.4, 0.3)))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_dense_oracle(self, oracle_modems, which, seed,
                                      domain, sigma2):
        modem = oracle_modems[which]
        M = modem.cfg.frame_size
        chan = ChannelConfig(n_paths=3, delay_max=min(16, M - 1),
                             doppler_max=2.0)
        got = sir_pass(modem, chan, {domain: sigma2}, [0],
                       seed).statistics[domain].samples_db[0]
        heff = modem.effective_channel(sample_channel(
            3, chan.delay_max, 2.0, trial_stream(seed, 0), size=M), domain)
        gram = heff.matrix.conj().T @ heff.matrix
        n = gram.shape[0]
        r = sigma2 if sigma2 > 0 else 1e-10 * np.trace(gram).real / n
        delta = delta_matrix(mmse(heff, r), heff)
        want = sir_conditioned(delta).value_db
        # The two Deltas differ entrywise by at most e = 8 n eps kappa
        # (test_equalize.py, TestDeltaFromInverse), so the Frobenius
        # norms of their off-diagonal parts differ by at most n e and
        # those of their diagonals by sqrt(n) e; the ratio of the norms,
        # the SIR amplitude a, then moves by at most
        # (n + sqrt(n) a) e / (||diag|| - sqrt(n) e), and by any amount
        # once sqrt(n) e reaches ||diag||.  An infinite reading stands
        # for any a up to the sqrt(1e-15) threshold.
        eig = np.linalg.eigvalsh(gram + r * np.eye(n))
        e = 8 * n * np.finfo(float).eps * eig[-1] / eig[0]
        a = _sir_amplitude(want)
        diag = np.linalg.norm(np.diag(delta))
        bound = ((n + np.sqrt(n) * a) * e / (diag - np.sqrt(n) * e)
                 if diag > np.sqrt(n) * e else np.inf)
        if np.isinf(got) or np.isinf(want):
            bound += np.sqrt(1e-15 * max(1.0, 1.0 / diag ** 2))
        assert abs(_sir_amplitude(got) - a) <= bound


class TestSirStatistics:
    """One domain's statistics, as ``sir_pass(...).statistics[domain]``."""

    def test_replay_is_bit_exact(self, small_modem):
        kw = dict(averaging="linear", workers=1)
        a = sir_pass(small_modem, SMALL_CHANNEL, {AFFINE: 1e-3}, range(6),
                     303, **kw).statistics[AFFINE]
        b = sir_pass(small_modem, SMALL_CHANNEL, {AFFINE: 1e-3}, range(6),
                     303, **kw).statistics[AFFINE]
        assert a == b

    def test_seed_changes_samples(self, small_modem):
        a = sir_pass(small_modem, SMALL_CHANNEL, {AFFINE: 1e-3}, range(4),
                     1).statistics[AFFINE]
        b = sir_pass(small_modem, SMALL_CHANNEL, {AFFINE: 1e-3}, range(4),
                     2).statistics[AFFINE]
        assert a.samples_db != b.samples_db

    def test_extremes_bracket_average(self, small_modem):
        st = sir_pass(small_modem, SMALL_CHANNEL, {FILTERED: 1e-4}, range(8),
                      99).statistics[FILTERED]
        assert st.minimum_db <= st.average_db <= st.maximum_db
        assert st.realizations == len(st.samples_db) == 8

    def test_db_averaging_sits_below_linear(self, small_modem):
        lin = sir_pass(small_modem, SMALL_CHANNEL, {AFFINE: 1e-3}, range(10),
                       7, averaging="linear").statistics[AFFINE]
        db = sir_pass(small_modem, SMALL_CHANNEL, {AFFINE: 1e-3}, range(10),
                      7, averaging="db").statistics[AFFINE]
        assert db.samples_db == lin.samples_db
        assert db.average_db < lin.average_db

    def test_worker_count_does_not_change_results(self, small_modem):
        kw = dict(averaging="db")
        a = sir_pass(small_modem, SMALL_CHANNEL, {FILTERED: 1e-3}, range(6),
                     17, workers=1, **kw).statistics[FILTERED]
        b = sir_pass(small_modem, SMALL_CHANNEL, {FILTERED: 1e-3}, range(6),
                     17, workers=2, **kw).statistics[FILTERED]
        assert a == b

    def test_rejects_unknown_averaging(self, small_modem):
        with pytest.raises(ValueError):
            sir_pass(small_modem, SMALL_CHANNEL, {AFFINE: 0.0}, range(2), 0,
                     averaging="median")


def two_pass_maps(modem, chan, sigma2, n, seed):
    """The heatmap as a second pass computed it: every Delta redrawn per
    domain, its |Delta|^2 summed in index order and divided by the
    count, and the lower triangle of the mean, which is the map's,
    copied onto the upper one."""
    out = {}
    for domain, s2 in sigma2.items():
        acc = None
        for index in range(n):
            realization = sample_channel(
                chan.n_paths, chan.delay_max, chan.doppler_max,
                trial_stream(seed, index), size=modem.cfg.frame_size)
            heff = modem.effective_channel(realization, domain)
            power = np.abs(delta_from_gram(
                _gram(heff.matrix, heff.support), s2)) ** 2
            acc = power if acc is None else acc + power
        mean = acc / n
        out[domain] = np.where(np.tri(len(mean), dtype=bool), mean, mean.T)
    return out


MID_CHANNEL = ChannelConfig(n_paths=3, delay_max=8, doppler_max=1.0)


class TestSirPass:

    # More than 8 realizations, so a pool runs more than one chunk.
    N_DRAWS = 10

    @pytest.mark.parametrize("sigma2", [
        {AFFINE: 1e-3, FILTERED: 1e-4}, {AFFINE: 0.0, FILTERED: 0.0}])
    @pytest.mark.parametrize("scale", ["toy", "mid"])
    def test_heatmaps_equal_the_two_pass_oracle(self, scale, sigma2,
                                                toy_modem, mid_phydyas):
        modem, chan = ((toy_modem, SMALL_CHANNEL) if scale == "toy"
                       else (mid_phydyas, MID_CHANNEL))
        got = sir_pass(modem, chan, sigma2, range(self.N_DRAWS), 41,
                       heatmaps=True)
        want = two_pass_maps(modem, chan, sigma2, self.N_DRAWS, 41)
        assert list(got.heatmaps) == [AFFINE, FILTERED]
        for domain in sigma2:
            assert np.array_equal(got.heatmaps[domain], want[domain])
            alone = sir_pass(modem, chan, {domain: sigma2[domain]},
                             range(self.N_DRAWS), 41)
            assert got.statistics[domain] == alone.statistics[domain]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sigma2", [
        {AFFINE: 1e-3, FILTERED: 1e-4}, {AFFINE: 0.0, FILTERED: 0.0}])
    @pytest.mark.parametrize("scale", ["toy", "mid"])
    def test_heatmaps_are_bitwise_symmetric(self, scale, sigma2, workers,
                                            toy_modem, mid_phydyas):
        # The heatmap writer formats only the upper triangle of a map
        # whose bits equal its transpose's.
        modem, chan = ((toy_modem, SMALL_CHANNEL) if scale == "toy"
                       else (mid_phydyas, MID_CHANNEL))
        got = sir_pass(modem, chan, sigma2, range(self.N_DRAWS), 7,
                       heatmaps=True, workers=workers)
        for domain in sigma2:
            bits = got.heatmaps[domain].view(np.int64)
            assert np.array_equal(bits, bits.T)

    def test_worker_count_does_not_change_heatmaps(self, toy_modem):
        sigma2 = {AFFINE: 1e-3, FILTERED: 0.0}
        a = sir_pass(toy_modem, SMALL_CHANNEL, sigma2, range(self.N_DRAWS),
                     5, heatmaps=True, workers=1)
        b = sir_pass(toy_modem, SMALL_CHANNEL, sigma2, range(self.N_DRAWS),
                     5, heatmaps=True, workers=2)
        assert a.statistics == b.statistics
        for domain in sigma2:
            assert np.array_equal(a.heatmaps[domain], b.heatmaps[domain])

    def test_no_heatmaps_unless_asked(self, toy_modem):
        got = sir_pass(toy_modem, SMALL_CHANNEL, {FILTERED: 1e-3}, range(3),
                       5)
        assert got.heatmaps == {}
        assert list(got.statistics) == [FILTERED]

    @pytest.mark.parametrize("sigma2,indices,reason", [
        ({AFFINE: 0.0}, [], "at least one realization"),
        ({}, [0], "at least one domain"),
        ({"delay": 0.1}, [0], "unknown domain 'delay'"),
        ({AFFINE: 0.0, FILTERED: -1e-3}, [0], "'filtered' must be finite"),
        ({AFFINE: float("nan")}, [0], "'affine' must be finite"),
        ({FILTERED: float("inf")}, [0], "'filtered' must be finite"),
        ({AFFINE: 0.0}, [0, -1, 1], "indices must be >= 0, got -1")])
    def test_rejects_bad_arguments(self, toy_modem, sigma2, indices,
                                   reason):
        with pytest.raises(ValueError, match=reason):
            sir_pass(toy_modem, SMALL_CHANNEL, sigma2, indices, 5)

    def test_rejects_negative_seed(self, toy_modem):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sir_pass(toy_modem, SMALL_CHANNEL, {AFFINE: 0.0}, [0], -1)

    def test_failing_pool_leaves_no_worker(self, toy_modem, monkeypatch):
        monkeypatch.setattr(metrics, "_sir_sample", _failing_task)
        assert_fails_in_a_worker(lambda: sir_pass(
            toy_modem, SMALL_CHANNEL, {AFFINE: 1e-3}, [0, 1, 2], 5,
            workers=2))


class TestSirSample:
    """One SIR sample sweeps the filtered channel window by window and
    never forms it, yet gives the bits of the materialized channels."""

    @given(data=st.data(), scale=st.sampled_from(("toy", "mid")),
           family=st.sampled_from(("phydyas", "hermite")),
           K=st.sampled_from((1, 2, 3, 8)),
           domains=st.sampled_from(((AFFINE, FILTERED), (FILTERED, AFFINE),
                                    (AFFINE,), (FILTERED,))),
           heatmaps=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_materialized_channels(self, grid_modem, data,
                                                scale, family, K, domains,
                                                heatmaps):
        # Delays of at least 1 wrap the last symbol's strip past the
        # frame end, and at K = 1 make the strip longer than the frame.
        modem = grid_modem(scale, family, K)
        chan = ChannelConfig(n_paths=3, delay_max=data.draw(
            st.sampled_from((2, modem.cfg.N // 2, 2 * modem.cfg.N))),
                             doppler_max=2.0)
        seed = data.draw(st.integers(0, 2 ** 16))
        noise = tuple((domain, data.draw(st.sampled_from(
            (0.0, 10.0 ** -3.4, 0.3)))) for domain in domains)
        got = metrics._sir_sample(modem, chan, seed, 0, noise, heatmaps)
        _, realization = metrics._trial_draw(modem, chan, seed, 0)
        assert len(got) == len(noise)
        for (domain, sigma2), (sir, power) in zip(noise, got):
            heff = modem.effective_channel(realization, domain)
            delta = delta_from_gram(_gram(heff.matrix, heff.support),
                                    sigma2)
            assert sir == metrics._lower_sir_db(delta)
            if heatmaps:
                # The map travels as its lower triangle, packed by rows.
                lower = (np.abs(delta) ** 2)[np.tri(len(delta), dtype=bool)]
                assert np.array_equal(power.view(np.int64),
                                      lower.view(np.int64))
            else:
                assert power is None
        # With received vectors the sweep also sums each domain's
        # right-hand side, and its Grams keep their bits.
        rng = np.random.default_rng(seed)
        rows = {AFFINE: modem.cfg.payload_size,
                FILTERED: modem.cfg.N * modem.cfg.K}
        received = {domain: rng.standard_normal(rows[domain])
                    + 1j * rng.standard_normal(rows[domain])
                    for domain in domains}
        swept = []
        for domain, gram, rhs in metrics._systems(modem, realization,
                                                  received):
            swept.append(domain)
            heff = modem.effective_channel(realization, domain)
            assert np.array_equal(
                gram.view(np.int64),
                _gram(heff.matrix, heff.support).view(np.int64))
            want = heff.matrix.T @ received[domain].conj()
            assert np.abs(rhs - want).max() <= 1e-12 * np.abs(want).max()
        assert swept == [d for d in (FILTERED, AFFINE) if d in domains]

    @pytest.mark.parametrize("family", ["hermite", "phydyas"])
    def test_peak_allocation_below_the_filtered_channel(self, family):
        # Preset shape: H_f is 2048 x 512 complex, 16 MiB; a sample
        # holds one 256 x 512 window of it at a time, in a block of 8 MiB
        # (Hermite: the Gram, then the window or the affine channel) or
        # 10 MiB (PHYDYAS: the Gram, the affine channel and the window).
        modem = AfbmModem(design_config(128, 8, 256, 192, family))
        chan = ChannelConfig(n_paths=3, delay_max=16, doppler_max=2.0)
        noise = ((AFFINE, 1e-3), (FILTERED, 1e-3))
        filtered_bytes = 2048 * 512 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            metrics._sir_sample(modem, chan, 20250819, 0, noise, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert filtered_bytes == 16 * 2 ** 20
        assert peak < 14 * 2 ** 20

    def test_heatmap_pass_peak(self):
        # The sir-heatmap shape: one sample's block of 8 MiB and, held
        # across samples, the two domains' accumulators, lower triangles
        # packed (1 MiB each, against 2 MiB for a square map).
        modem = AfbmModem(design_config(128, 8, 256, 192, "hermite"))
        chan = ChannelConfig(n_paths=3, delay_max=16, doppler_max=2.0)
        tracemalloc.start()
        try:
            result = sir_pass(modem, chan, {AFFINE: 0.0, FILTERED: 0.0},
                              range(2), 20250819, heatmaps=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [m.shape for m in result.heatmaps.values()] == [(512, 512)] * 2
        assert peak < 16 * 2 ** 20


class TestBerTrial:

    @pytest.mark.parametrize("family", ["hermite", "phydyas"])
    def test_filtered_peak_below_the_channel_and_its_gram(self, family):
        # Preset shape: H_f (16 MiB) and its Gram (4 MiB), which a frame
        # that formed H_f held together, are never formed together.
        modem = AfbmModem(design_config(128, 8, 256, 192, family))
        chan = ChannelConfig(n_paths=3, delay_max=16, doppler_max=2.0)
        tracemalloc.start()
        try:
            metrics._ber_trial(modem, chan, FILTERED, 20250819, 0, 1e-2, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_through_route_affine_peak(self):
        # Preset shape: a PHYDYAS affine frame holds its 4 MiB affine
        # channel and one 2 MiB window during the sweep, then the
        # channel and its 4 MiB Gram, never all three.
        modem = AfbmModem(design_config(128, 8, 256, 192, "phydyas"))
        assert modem._affine_from_filtered
        chan = ChannelConfig(n_paths=3, delay_max=16, doppler_max=2.0)
        tracemalloc.start()
        try:
            metrics._ber_trial(modem, chan, AFFINE, 20250819, 0, 1e-2, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8.7 * 2 ** 20


class TestBerCurve:

    def test_replay_is_bit_exact(self, small_modem):
        kw = dict(min_bit_errors=10, workers=1)
        a = ber_curve(small_modem, SMALL_CHANNEL, AFFINE, [8.0], 6, 5, **kw)
        b = ber_curve(small_modem, SMALL_CHANNEL, AFFINE, [8.0], 6, 5, **kw)
        assert a == b

    def test_point_shape_and_counts(self, small_modem):
        pts = ber_curve(small_modem, SMALL_CHANNEL, FILTERED, [0.0, 10.0],
                        4, 9, min_bit_errors=5)
        assert [p.snr_db for p in pts] == [0.0, 10.0]
        for p in pts:
            assert isinstance(p, BerPoint)
            assert p.bits_total in (64, 128, 192, 256)
            assert 0 <= p.ber <= 1

    def test_error_floor_stops_early(self, small_modem):
        # at very low SNR the error budget fills inside the first batch
        pts = ber_curve(small_modem, SMALL_CHANNEL, AFFINE, [-10.0], 200, 3,
                        min_bit_errors=30)
        assert pts[0].bit_errors >= 30
        assert pts[0].bits_total == metrics._BATCH * 32

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("domain,counts", [
        (AFFINE, [(134, 800), (23, 1600)]),
        (FILTERED, [(116, 800), (10, 1600)]),
    ])
    def test_counts_are_pinned(self, small_modem, domain, counts, workers):
        # Recorded with batches of 25 frames, 32 bits each: the 2 dB
        # point stops after its first batch, the 12 dB point runs all 50.
        assert metrics._BATCH == 25
        pts = ber_curve(small_modem, SMALL_CHANNEL, domain, [2.0, 12.0], 50,
                        7, min_bit_errors=100, workers=workers)
        assert [(p.bit_errors, p.bits_total) for p in pts] == counts

    def test_worker_count_does_not_change_results(self, small_modem):
        kw = dict(min_bit_errors=8)
        a = ber_curve(small_modem, SMALL_CHANNEL, FILTERED, [6.0], 8, 2,
                      workers=1, **kw)
        b = ber_curve(small_modem, SMALL_CHANNEL, FILTERED, [6.0], 8, 2,
                      workers=2, **kw)
        assert a == b

    @pytest.mark.parametrize("domain,snr,trials,order,reason", [
        (AFFINE, [6.0], 0, 4, "at least one trial"),
        ("delay", [6.0], 4, 4, "unknown domain 'delay'"),
        (FILTERED, [6.0, float("nan")], 4, 4, "SNR values must be finite"),
        (FILTERED, [float("-inf")], 4, 4, "SNR values must be finite"),
        (AFFINE, [6.0], 4, 8, "order must be an even power of 2")])
    def test_rejects_bad_arguments(self, toy_modem, domain, snr, trials,
                                   order, reason):
        with pytest.raises(ValueError, match=reason):
            ber_curve(toy_modem, SMALL_CHANNEL, domain, snr, trials, 5,
                      qam_order=order)

    def test_rejects_negative_seed(self, toy_modem):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ber_curve(toy_modem, SMALL_CHANNEL, AFFINE, [8.0], 4, -1)

    def test_failing_pool_leaves_no_worker(self, toy_modem, monkeypatch):
        monkeypatch.setattr(metrics, "_ber_trial", _failing_task)
        assert_fails_in_a_worker(lambda: ber_curve(
            toy_modem, SMALL_CHANNEL, AFFINE, [8.0], 4, 5, workers=2))
