import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afbm.channel import (ChannelRealization, PathSpec, channel_matrix,
                          sample_channel, trial_stream)
from afbm.filters import single_symbol_matrix
from afbm.modem import (AFFINE, FILTERED, AfbmModem, ModulationConfig,
                        active_indices, design_config, mapping_matrix,
                        qam_alphabet, qam_demap, qam_map)
from afbm.transforms import (ChirpParams, daft_matrix, default_c2,
                             synthesis_block)


def precoder(modem):
    """L x L precoding matrix: the L-point DAFT times the gain vector."""
    cfg = modem.cfg
    return daft_matrix(ChirpParams(cfg.c1, default_c2(cfg.L), cfg.L)) * \
        modem._comp[None, :]


class TestDesignConfig:

    def test_family_defaults(self):
        assert design_config(64, 8, 128, 96, "hermite").overlap == 1.5
        assert design_config(64, 8, 128, 96, "phydyas").overlap == 4.0

    def test_shared_upsweep_rate(self):
        cfg = design_config(64, 8, 128, 96, "hermite")
        assert cfg.c1 == pytest.approx(5 / 192)
        assert default_c2(cfg.L) == pytest.approx(1 / (np.pi * 64 ** 2))
        assert default_c2(cfg.P) == pytest.approx(1 / (np.pi * 96 ** 2))

    def test_sizes(self):
        cfg = design_config(64, 8, 128, 96, "hermite")
        assert cfg.payload_size == 256
        assert cfg.frame_size == int(1.5 * 128) + 7 * 64

    def test_violations(self):
        good = design_config(64, 8, 128, 96, "hermite")
        assert good.violations() == []
        bad = design_config(96, 8, 128, 96, "hermite")
        assert any("L" in v for v in bad.violations())
        with pytest.raises(ValueError):
            AfbmModem(bad)

    def test_unknown_family_refused_by_name_before_any_build(self):
        # The family fixes the prototype and its overlap, so a family
        # with no design has neither and is refused up front.
        cfg = design_config(8, 1, 16, 16, "custom")
        want = ("filter family must be one of ['hermite', 'phydyas'], "
                "got 'custom'")
        assert cfg.violations() == [want]
        with pytest.raises(ValueError) as refused:
            AfbmModem(cfg)
        assert str(refused.value) == want

    @pytest.mark.parametrize("f_max", [-0.5, float("nan"), float("inf")])
    def test_f_max_must_be_finite_and_non_negative(self, f_max):
        # The pre-chirp rate derives from f_max, so a bad one is refused
        # with its name before any transform is built.
        cfg = design_config(64, 8, 128, 96, "hermite", f_max=f_max)
        want = f"f_max must be finite and >= 0, got {f_max}"
        assert cfg.violations() == [want]
        with pytest.raises(ValueError, match=want):
            AfbmModem(cfg)


class TestMapping:

    def test_active_band_edges(self):
        idx = active_indices(16)
        assert np.array_equal(idx, [0, 1, 2, 3, 12, 13, 14, 15])

    @pytest.mark.parametrize("L,K", [(8, 1), (16, 2), (64, 8)])
    def test_isometry_exact(self, L, K):
        Xi = mapping_matrix(L, K)
        assert Xi.shape == (L * K, L * K // 2)
        assert np.array_equal(Xi.T @ Xi, np.eye(L * K // 2))

    def test_guard_rows_are_zero(self):
        Xi = mapping_matrix(16, 2)
        assert not Xi[4:12].any()
        assert not Xi[20:28].any()


class TestModemStructure:

    def test_unit_column_gain(self, mid_hermite, mid_phydyas):
        for modem in (mid_hermite, mid_phydyas):
            S = modem.modulation_matrix()
            norms = np.linalg.norm(S, axis=0)
            assert np.abs(norms - 1).max() < 1e-8

    def test_precoder_zeroes_guard_band(self, mid_hermite):
        C = precoder(mid_hermite)
        assert not np.abs(C[:, 16:48]).any()
        assert np.abs(C[:, :16]).any()

    def test_filter_matrix_shape(self, mid_phydyas):
        G = mid_phydyas.filter_matrix()
        assert G.shape == (mid_phydyas.cfg.frame_size, 128 * 8)

    def test_received_noise_power(self, mid_hermite):
        # matched demodulator columns have unit gain, the gained bank
        # columns carry N/2 * 1/N = 1/2 each
        assert mid_hermite.received_noise_power("affine", 0.3) == \
            pytest.approx(0.3, rel=1e-8)
        assert mid_hermite.received_noise_power("filtered", 0.3) == \
            pytest.approx(0.15, rel=1e-12)
        assert mid_hermite.received_noise_power("filtered", 0.0) == 0.0
        with pytest.raises(ValueError):
            mid_hermite.received_noise_power("delay", 0.3)
        with pytest.raises(ValueError):
            mid_hermite.received_noise_power("affine", -1.0)

    def test_interference_enters_through_composition(self, mid_hermite,
                                                     mid_phydyas):
        # the single-symbol bank Gram is exactly diagonal, so residual
        # interference can only come from composing it with the precoded
        # synthesis (per symbol) and from symbol overlap (full Gram);
        # with overlap included the longer PHYDYAS pulse leaks more
        def off_mass(gram):
            d = np.diag(np.diag(gram))
            return np.linalg.norm(gram - d) / np.linalg.norm(d)

        for modem in (mid_hermite, mid_phydyas):
            bank = single_symbol_matrix(modem.prototype)
            bank_gram = bank.T @ bank
            V = synthesis_block(modem.cfg) @ precoder(modem)
            per_symbol = V.conj().T @ bank_gram @ V
            assert off_mass(per_symbol) > 1e-3

        def full_mass(modem):
            S = modem.modulation_matrix()
            return off_mass(S.conj().T @ S)

        assert full_mass(mid_phydyas) > full_mass(mid_hermite)


class TestFastPaths:

    def test_modulate_matches_dense(self, toy_modem, rng):
        S = toy_modem.modulation_matrix()
        for _ in range(10):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert np.abs(toy_modem.modulate(x) - S @ x).max() < 1e-9

    def test_matched_demodulate_matches_dense(self, toy_modem, rng):
        S = toy_modem.modulation_matrix()
        r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        want = S.conj().T @ r
        assert np.abs(toy_modem.matched_demodulate(r) - want).max() < 1e-9

    def test_filtered_receive_matches_dense(self, toy_modem, rng):
        G = toy_modem.filter_matrix()
        r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        want = G.conj().T @ r
        assert np.abs(toy_modem.filtered_receive(r) - want).max() < 1e-9

    def test_modulate_rejects_wrong_length(self, toy_modem):
        with pytest.raises(ValueError):
            toy_modem.modulate(np.ones(7))


class TestEffectiveChannels:

    @staticmethod
    def identity(M):
        return ChannelRealization((PathSpec(1.0, 0, 0.0),), size=M)

    def test_affine_identity_channel(self, toy_modem):
        S = toy_modem.modulation_matrix()
        heff = toy_modem.effective_channel_affine(self.identity(32))
        assert heff.domain == AFFINE
        assert np.allclose(heff.matrix, S.conj().T @ S, atol=1e-12)

    def test_filtered_identity_is_near_isometry(self, mid_hermite):
        M = mid_hermite.cfg.frame_size
        heff = mid_hermite.effective_channel_filtered(self.identity(M))
        assert heff.domain == FILTERED
        gram = heff.matrix.conj().T @ heff.matrix
        diag = np.abs(np.diag(gram))
        # interior coordinates see the full analysis window; only the
        # outermost symbols lose coverage at the frame edges
        assert abs(np.median(diag) - 1) < 1e-3
        assert diag.min() > 0.5
        off = gram - np.diag(np.diag(gram))
        assert np.linalg.norm(off) ** 2 / gram.shape[0] < 0.05

    def test_rejects_wrong_frame(self, toy_modem):
        # A dense channel matrix is refused by type, not read as a
        # realization annotated for a frame of its element count.
        for H in (np.eye(31), np.eye(32)):
            for domain in (AFFINE, FILTERED):
                with pytest.raises(TypeError, match="ChannelRealization, "
                                                    "got ndarray"):
                    toy_modem.effective_channel(H, domain)

    def test_dispatch_by_domain(self, toy_modem):
        ch = sample_channel(2, 4, 0.5, trial_stream(3, 1), size=32)
        for domain, build in ((AFFINE, toy_modem.effective_channel_affine),
                              (FILTERED,
                               toy_modem.effective_channel_filtered)):
            heff = toy_modem.effective_channel(ch, domain)
            assert heff.domain == domain
            assert np.array_equal(heff.matrix, build(ch).matrix)
        with pytest.raises(ValueError, match="unknown domain"):
            toy_modem.effective_channel(ch, "delay")


DOPPLER_MAX = 2.0


@st.composite
def realizations(draw, M, N):
    """1-3 distinct paths whose delays hit 0, below N/2, at least N/2,
    M-1 and at least M (wrapping past the frame start), with Dopplers
    at and inside +-DOPPLER_MAX."""
    delay = st.one_of(st.just(0), st.integers(1, N // 2),
                      st.integers(N // 2, M - 1), st.just(M - 1),
                      st.integers(M, 3 * M))
    delays = draw(st.lists(delay, min_size=1, max_size=3, unique=True))
    doppler = st.one_of(st.sampled_from((-DOPPLER_MAX, DOPPLER_MAX)),
                        st.floats(-DOPPLER_MAX, DOPPLER_MAX))
    gain = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)
    paths = tuple(PathSpec(draw(gain), d, draw(doppler)) for d in delays)
    return ChannelRealization(paths, size=draw(st.sampled_from((M, None))))


class TestBlockPath:
    """The per-symbol path for realizations against the dense oracle:
    ``modulation_matrix()`` / ``filter_matrix()`` around
    ``channel_matrix``."""

    @staticmethod
    def dense(modem, H, domain):
        if domain == AFFINE:
            front = modem.modulation_matrix().conj().T
        else:
            front = modem.filter_matrix().T
        return front @ H @ modem.modulation_matrix()

    @given(data=st.data(), which=st.integers(0, 3),
           domain=st.sampled_from((AFFINE, FILTERED)))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, oracle_modems, data, which, domain):
        modem = oracle_modems[which]
        M = modem.cfg.frame_size
        ch = data.draw(realizations(M, modem.cfg.N))
        H = channel_matrix(ch, size=M)
        got = modem.effective_channel(ch, domain)
        want = self.dense(modem, H, domain)
        assert got.domain == domain
        assert got.matrix.shape == want.shape
        # Entries are bounded by the summed path gains (unit-norm
        # transmit columns, receive columns of norm at most one).
        scale = sum(abs(p.gain) for p in ch.paths)
        assert np.abs(got.matrix - want).max() <= 1e-12 * scale

    @given(data=st.data(), which=st.integers(0, 3),
           domain=st.sampled_from((AFFINE, FILTERED)))
    @settings(max_examples=40, deadline=None)
    def test_blocks_outside_the_support_are_zero(self, oracle_modems, data,
                                                 which, domain):
        modem = oracle_modems[which]
        K = modem.cfg.K
        ch = data.draw(realizations(modem.cfg.frame_size, modem.cfg.N))
        heff = modem.effective_channel(ch, domain)
        assert heff.support.shape == (K, K)
        rows, cols = (n // K for n in heff.matrix.shape)
        for j in range(K):
            for k in range(K):
                block = heff.matrix[j * rows:(j + 1) * rows,
                                    k * cols:(k + 1) * cols]
                assert heff.support[j, k] or not block.any()

    @given(which=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_filtered_receive_matches_filter_matrix(self, oracle_modems,
                                                    which, seed):
        modem = oracle_modems[which]
        rng = np.random.default_rng(seed)
        M = modem.cfg.frame_size
        r = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        for got, front in ((modem.filtered_receive(r),
                            modem.filter_matrix().T),
                           (modem.matched_demodulate(r),
                            modem.modulation_matrix().conj().T)):
            assert np.abs(got - front @ r).max() <= 1e-14 * np.abs(r).sum()

    @given(which=st.integers(0, 3), sigma2=st.floats(0.0, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_received_noise_power_is_mean_column_energy(self, oracle_modems,
                                                         which, sigma2):
        modem = oracle_modems[which]
        for domain, front in ((AFFINE, modem.modulation_matrix()),
                              (FILTERED, modem.filter_matrix())):
            want = sigma2 * np.mean(np.sum(np.abs(front) ** 2, axis=0))
            got = modem.received_noise_power(domain, sigma2)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    def test_rejects_realization_for_other_frame(self, oracle_modems,
                                                 domain):
        for modem in oracle_modems:
            M = modem.cfg.frame_size
            for size in (M - 1, M + 1):
                ch = sample_channel(2, 4, 0.5, trial_stream(9, 0), size=size)
                with pytest.raises(ValueError,
                                   match=f"annotated for frames of {size}"):
                    modem.effective_channel(ch, domain)


KERNEL_GRID = {"scale": st.sampled_from(("toy", "mid")),
               "family": st.sampled_from(("phydyas", "hermite")),
               "K": st.sampled_from((1, 2, 3, 8))}


@pytest.fixture(scope="module")
def kernel_twins(grid_modem):
    """(scale, family, K) -> a modem and its twin with the route flag
    flipped, the one that routes its affine channel through the
    filtered one first."""
    cache = {}

    def twins(scale, family, K):
        if (scale, family, K) not in cache:
            modem = grid_modem(scale, family, K)
            twin = AfbmModem(modem.cfg)
            twin._affine_from_filtered = not modem._affine_from_filtered
            cache[scale, family, K] = (
                (modem, twin) if modem._affine_from_filtered
                else (twin, modem))
        return cache[scale, family, K]

    return twins


class TestAffineRoute:
    """The affine channel through the filtered one, (I_K kron C^H) H_f,
    against the direct projection and the dense oracle."""

    @pytest.mark.parametrize("family,K,through_filtered", [
        ("hermite", 8, False), ("hermite", 4, False),
        ("phydyas", 8, True), ("phydyas", 4, True)])
    def test_route_follows_the_flop_count_at_preset_scale(
            self, family, K, through_filtered):
        modem = AfbmModem(design_config(128, K, 256, 192, family))
        assert modem._affine_from_filtered is through_filtered

    @staticmethod
    def other_route(modem):
        twin = AfbmModem(modem.cfg)
        twin._affine_from_filtered = not twin._affine_from_filtered
        return twin

    @given(data=st.data(), which=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_both_routes_match_the_dense_oracle(self, oracle_modems, data,
                                                which):
        modem = oracle_modems[which]
        M = modem.cfg.frame_size
        ch = data.draw(realizations(M, modem.cfg.N))
        S = modem.modulation_matrix()
        want = S.conj().T @ channel_matrix(ch, size=M) @ S
        scale = sum(abs(p.gain) for p in ch.paths)
        routes = (modem, self.other_route(modem))
        got = [m.effective_channel_affine(ch) for m in routes]
        for heff in got:
            assert np.abs(heff.matrix - want).max() <= 1e-12 * scale
        assert np.array_equal(got[0].support, got[1].support)

    @given(data=st.data(), **KERNEL_GRID)
    @settings(max_examples=30, deadline=None)
    def test_through_route_is_the_adjoint_after_the_filtered_channel(
            self, kernel_twins, data, scale, family, K):
        # (I_K kron C^H) H_f, one receive window at a time, bit for bit;
        # blocks off the support are zero on both sides.
        through, _ = kernel_twins(scale, family, K)
        N, w = through.cfg.N, through.cfg.L // 2
        ch = data.draw(realizations(through.cfg.frame_size, N))
        filtered = through.effective_channel_filtered(ch)
        got = through.effective_channel_affine(ch)
        adjoint = through._spread.conj().T
        for j in range(K):
            assert np.array_equal(got.matrix[j * w:(j + 1) * w],
                                  adjoint @ filtered.matrix[j * N:(j + 1) * N])
        assert np.array_equal(got.support, filtered.support)


class TestFilteredKernel:
    """The tap-weight kernel of the filtered channel against the dense
    oracle, at toy and mid scale and K in {1, 2, 3, 8}.  Hermite with
    odd K and PHYDYAS with even K put M mod N at N/2, where a delay
    that wraps past the frame start lands in the half-shift class; at
    K = 1 the strip is longer than the frame."""

    @given(data=st.data(), **KERNEL_GRID)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_oracle_and_the_propagated_support(
            self, kernel_twins, data, scale, family, K):
        through, direct = kernel_twins(scale, family, K)
        M = through.cfg.frame_size
        ch = data.draw(realizations(M, through.cfg.N))
        want = through.filter_matrix().T @ (
            channel_matrix(ch, size=M) @ through.modulation_matrix())
        # Each path's filtered channel has Frobenius norm about
        # |gain| sqrt(KL/2): unit-norm transmit columns through a
        # near-tight receive bank.
        norm = sum(abs(p.gain) for p in ch.paths) * np.sqrt(want.shape[1])
        heff = through.effective_channel_filtered(ch)
        assert heff.domain == FILTERED
        assert np.linalg.norm(heff.matrix - want) <= 1e-12 * norm
        # The direct affine projection takes its support from the
        # propagated pieces.
        assert np.array_equal(
            heff.support, direct.effective_channel_affine(ch).support)

    @pytest.mark.parametrize("family", ["hermite", "phydyas"])
    def test_both_routes_take_the_support_the_pieces_reach(
            self, kernel_twins, family):
        # The kernel and the direct projection mark the same blocks: the
        # ones a propagated piece of the direct route lands in.
        through, direct = kernel_twins("mid", family, 8)
        cfg = through.cfg
        window = np.empty((cfg.N, cfg.payload_size), dtype=complex)
        out = np.zeros((cfg.payload_size,) * 2, dtype=complex)
        for index, delay_max in enumerate((4, 16, cfg.N // 2, cfg.N)):
            ch = sample_channel(3, delay_max, 2.0, trial_stream(6, index),
                                size=cfg.frame_size)
            reached = np.zeros((cfg.K, cfg.K), dtype=bool)
            for k, j, *_ in direct._propagated_pieces(direct._twists(ch)):
                reached[j, k] = True
            support, _ = through._filtered_windows(ch, [window] * cfg.K)
            assert np.array_equal(support, reached)
            assert np.array_equal(direct._project_affine(ch, out), reached)

    @pytest.mark.parametrize("scale", ["toy", "mid"])
    def test_support_grows_with_the_delay(self, kernel_twins, scale):
        # Hermite at K = 8 is the grid's one banded support, so a delay
        # reaches receive windows that a delay-free channel does not.
        through, direct = kernel_twins(scale, "hermite", 8)
        N, M = through.cfg.N, through.cfg.frame_size
        supports = []
        for d in (0, N // 4, N, 2 * N):
            ch = ChannelRealization((PathSpec(1.0, d, 0.1),), size=M)
            supports.append(through.effective_channel_filtered(ch).support)
            assert np.array_equal(
                supports[-1], direct.effective_channel_affine(ch).support)
        for narrow, wide in zip(supports, supports[1:]):
            assert (wide >= narrow).all() and wide.sum() > narrow.sum()


class TestQam:

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_alphabet_energy(self, order):
        a = qam_alphabet(order)
        assert a.size == order
        assert np.mean(np.abs(a) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [4, 16])
    def test_roundtrip(self, order, rng):
        bits = rng.integers(0, 2, 60 * int(np.log2(order)))
        assert np.array_equal(qam_demap(qam_map(bits, order), order), bits)

    def test_gray_neighbors_differ_in_one_bit(self):
        # adjacent constellation columns flip exactly one bit
        bits = qam_demap(qam_alphabet(16), 16).reshape(16, 4)
        levels = np.unique(qam_alphabet(16).real)
        rows = {}
        for b, sym in zip(bits, qam_alphabet(16)):
            rows[(sym.real, sym.imag)] = b
        for im in levels:
            for lo, hi in zip(levels, levels[1:]):
                flips = rows[(lo, im)] != rows[(hi, im)]
                assert flips.sum() == 1

    def test_demap_is_nearest_neighbor(self, rng):
        a = qam_alphabet(16)
        noisy = a + 0.05 * (rng.standard_normal(16)
                            + 1j * rng.standard_normal(16))
        assert np.array_equal(qam_demap(noisy, 16), qam_demap(a, 16))

    @pytest.mark.parametrize("order", [2, 8, 32])
    def test_rejects_non_square_orders(self, order):
        with pytest.raises(ValueError):
            qam_alphabet(order)

    def test_map_rejects_ragged_bits(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(3, dtype=int), 4)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        bits = np.random.default_rng(seed).integers(0, 2, 32)
        assert np.array_equal(qam_demap(qam_map(bits, 4), 4), bits)
