import tracemalloc

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from afbm.channel import (ChannelRealization, PathSpec, add_awgn,
                          apply_channel, sample_channel, trial_stream)
from afbm import equalize, metrics
from afbm.equalize import (_gram, _nearest_symbols, _solve_spd,
                           delta_from_gram, delta_matrix,
                           equalize_and_detect, mmse, mmse_detect)
from afbm.modem import (AFFINE, FILTERED, AfbmModem, EffectiveChannel,
                        design_config, qam_alphabet, qam_demap)


def random_heff(d, rng, domain=AFFINE):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    # diagonally dominant, comfortably invertible
    return EffectiveChannel(A / np.sqrt(d) + 2 * np.eye(d), domain)


def normal_equations(heff, received):
    """The Gram triangle and right-hand side mmse_detect solves, formed
    from a materialized channel."""
    return _gram(heff.matrix, heff.support), \
        heff.matrix.T @ np.conj(received)


class TestMmse:

    def test_zero_noise_inverts(self, rng):
        heff = random_heff(24, rng)
        eq = mmse(heff, 0.0)
        delta = eq.matrix @ heff.matrix
        assert np.abs(delta - np.eye(24)).max() < 1e-6

    def test_carries_domain(self, rng):
        heff = random_heff(8, rng, FILTERED)
        assert mmse(heff, 0.3).domain == FILTERED

    def test_shrinkage_grows_with_noise(self, rng):
        heff = random_heff(16, rng)
        gains = []
        for s2 in (1e-4, 1e-2, 1.0):
            d = mmse(heff, s2).matrix @ heff.matrix
            gains.append(np.abs(np.diag(d)).mean())
        assert gains[0] > gains[1] > gains[2]

    def test_matches_normal_equations(self, rng):
        heff = random_heff(12, rng)
        H = heff.matrix
        want = np.linalg.solve(H.conj().T @ H + 0.05 * np.eye(12),
                               H.conj().T)
        assert np.abs(mmse(heff, 0.05).matrix - want).max() < 1e-10

    def test_rejects_negative_noise(self, rng):
        with pytest.raises(ValueError):
            mmse(random_heff(4, rng), -0.1)

    def test_singular_gram_names_context_dimension_and_noise(self):
        heff = EffectiveChannel(np.zeros((6, 4), dtype=complex), AFFINE)
        with pytest.raises(ValueError) as err:
            mmse(heff, 0.0)
        message = str(err.value)
        assert message.startswith("mmse: 4x4 Gram matrix")
        assert "sigma2=0" in message


class TestDelta:

    def test_delta_matrix_composes(self, rng):
        heff = random_heff(10, rng)
        eq = mmse(heff, 0.02)
        delta = delta_matrix(eq, heff)
        assert np.allclose(delta, eq.matrix @ heff.matrix)

    def test_domain_mismatch_rejected(self, rng):
        eq = mmse(random_heff(6, rng, AFFINE), 0.1)
        with pytest.raises(ValueError):
            delta_matrix(eq, random_heff(6, rng, FILTERED))

    def test_gram_shortcut_agrees(self, rng):
        heff = random_heff(14, rng)
        H = heff.matrix
        gram = H.conj().T @ H
        direct = mmse(heff, 0.07).matrix @ H
        assert np.abs(np.tril(delta_from_gram(gram, 0.07) - direct)).max() \
            < 1e-10

    def test_singular_gram_zero_noise_falls_back_to_ridge(self):
        v = np.ones((6, 1), dtype=complex)
        gram = v @ v.conj().T        # rank one
        delta = delta_from_gram(gram, 0.0)
        assert np.all(np.isfinite(delta))

    def test_identity_gram_zero_noise(self):
        delta = delta_from_gram(np.eye(5, dtype=complex), 0.0)
        assert np.abs(delta - np.eye(5)).max() < 1e-9


EPS = np.finfo(float).eps


def _kappa(gram, r):
    eig = np.linalg.eigvalsh(gram + r * np.eye(gram.shape[0]))
    return eig[-1] / eig[0]


def _zero_forcing_ridge(gram):
    return 1e-10 * np.trace(gram).real / gram.shape[0]


def _mirrored(lower):
    """The Hermitian matrix whose lower triangle is ``lower``'s."""
    return np.tril(lower) + np.tril(lower, -1).conj().T


def _lower_error(got, want):
    """Largest deviation on and below the diagonal, the part of
    delta_from_gram's result that is Delta's."""
    return np.abs(np.tril(got - want)).max()


class TestDeltaFromInverse:
    """delta_from_gram reads the lower triangle of
    Delta = I - r (G + r I)^-1 from one Cholesky inverse; these pin it
    to the dense oracle and to a spectral one."""

    @given(which=st.integers(0, 3), seed=st.integers(0, 2 ** 16),
           domain=st.sampled_from((AFFINE, FILTERED)),
           sigma2=st.sampled_from((10.0 ** -3.4, 10.0 ** -1.6, 0.3)))
    @settings(max_examples=24, deadline=None)
    def test_matches_mmse_and_delta_matrix(self, oracle_modems, which, seed,
                                           domain, sigma2):
        modem = oracle_modems[which]
        M = modem.cfg.frame_size
        ch = sample_channel(3, min(16, M - 1), 2.0, trial_stream(seed, 0),
                            size=M)
        heff = modem.effective_channel(ch, domain)
        want = delta_matrix(mmse(heff, sigma2), heff)
        gram = _gram(heff.matrix, heff.support)
        bound = 8 * gram.shape[0] * EPS * _kappa(gram, sigma2)
        # The triangle _gram forms, and the same Gram mirrored: the
        # entries above the diagonal are never read.
        for given in (gram, _mirrored(gram)):
            got = delta_from_gram(given.copy(), sigma2)
            assert _lower_error(got, want) <= bound

    @given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 48),
           smallest=st.sampled_from((0.0, 1e-15, 1e-12, 1e-8)),
           sigma2=st.sampled_from((0.0, 1e-9, 1e-6, 1e-2)))
    @settings(max_examples=40, deadline=None)
    def test_matches_eigh_reference_on_ill_conditioned_grams(
            self, seed, n, smallest, sigma2):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        lam = np.geomspace(1.0, max(smallest, 1e-16), n)
        if smallest == 0.0:
            lam[n // 2:] = 0.0
        gram = (q * lam) @ q.conj().T
        gram = 0.5 * (gram + gram.conj().T)
        r = sigma2 if sigma2 > 0 else _zero_forcing_ridge(gram)
        lam, vec = np.linalg.eigh(gram)
        want = (vec * (lam / (lam + r))) @ vec.conj().T
        got = delta_from_gram(gram.copy(), sigma2)
        assert _lower_error(got, want) <= 8 * n * EPS * _kappa(gram, r)

    @pytest.fixture
    def factorizations(self, monkeypatch):
        """Shapes of the matrices handed to zpotrf, counted on the kernel
        table delta_from_gram calls through."""
        calls = []
        factor = equalize._kernels.zpotrf

        def counting(a):
            calls.append(a.shape)
            return factor(a)

        monkeypatch.setattr(equalize._kernels, "zpotrf", counting)
        return calls

    @pytest.mark.parametrize("gram", [
        np.eye(6, dtype=complex),
        np.ones((6, 6), dtype=complex),                    # rank one
        np.diag([1.0, 1.0, 1e-18, 0.0, 1.0, 2.0]).astype(complex),
    ], ids=["identity", "rank-one", "near-singular"])
    def test_zero_noise_is_one_factorization_with_the_ridge(
            self, factorizations, gram):
        got = delta_from_gram(gram.copy(), 0.0)
        assert factorizations == [gram.shape]
        r = _zero_forcing_ridge(gram)
        want = np.eye(6) - r * np.linalg.inv(gram + r * np.eye(6))
        assert _lower_error(got, want) <= 1e-9

    def test_zero_noise_mid_scale_grams_factor_once(self, factorizations,
                                                    mid_hermite):
        ch = sample_channel(3, 16, 2.0, trial_stream(20250819, 0),
                            size=mid_hermite.cfg.frame_size)
        for domain in (AFFINE, FILTERED):
            h = mid_hermite.effective_channel(ch, domain).matrix
            delta_from_gram(_gram(h), 0.0)
        assert factorizations == [(256, 256)] * 2

    @pytest.mark.parametrize("block_support", [False, True])
    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    def test_ridge_and_factorization_work_on_the_given_gram(
            self, mid_hermite, domain, block_support):
        # delta_from_gram owns its argument: r goes on the Gram's own
        # diagonal and the inverse overwrites it, so Delta is that
        # buffer and no n x n temporary is allocated.
        ch = sample_channel(3, 16, 2.0, trial_stream(20250819, 1),
                            size=mid_hermite.cfg.frame_size)
        heff = mid_hermite.effective_channel(ch, domain)
        gram = _gram(heff.matrix, heff.support if block_support else None)
        want = delta_from_gram(gram.copy(), 0.0)
        tracemalloc.start()
        try:
            got = delta_from_gram(gram, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(got, gram)
        assert peak < gram.nbytes / 2
        assert np.array_equal(got, want)

    def test_other_layouts_are_copied_and_left_as_they_are(self, rng):
        a = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
        gram = a.conj().T @ a
        want = delta_from_gram(gram.copy(), 0.3)
        for given in (np.asfortranarray(gram), gram.real.copy()):
            kept = given.copy()
            got = delta_from_gram(given, 0.3)
            assert np.array_equal(given, kept)
            assert not np.shares_memory(got, given)
        assert np.array_equal(delta_from_gram(np.asfortranarray(gram), 0.3),
                              want)
        read_only = gram.copy()
        read_only.flags.writeable = False
        assert np.array_equal(delta_from_gram(read_only, 0.3), want)

    @pytest.mark.parametrize("sigma2,r", [(0.0, "-1e-10"), (0.5, "0.5")])
    def test_failed_factorization_names_dimension_and_ridge(self, sigma2, r):
        with pytest.raises(ValueError) as err:
            delta_from_gram(-np.eye(5, dtype=complex), sigma2)
        message = str(err.value)
        assert message.startswith("delta_from_gram: 5x5 Gram matrix")
        assert f"r={r} " in message


def assert_lower_gram(got, h, bound):
    """got is h^H h on and below the diagonal to within bound, and
    exactly zero above it."""
    want = h.conj().T @ h
    assert got.shape == want.shape
    assert np.abs(np.tril(got) - np.tril(want)).max() <= bound
    assert not np.triu(got, 1).any()


class TestGram:

    @given(st.integers(1, 40), st.integers(1, 24), st.integers(0, 2 ** 16),
           st.sampled_from([1e-8, 1.0, 1e6]))
    @settings(max_examples=40, deadline=None)
    def test_lower_triangle_matches_product(self, rows, cols, seed, scale):
        rng = np.random.default_rng(seed)
        h = scale * (rng.standard_normal((rows, cols))
                     + 1j * rng.standard_normal((rows, cols)))
        bound = 4 * rows * np.finfo(float).eps * np.linalg.norm(h) ** 2
        assert_lower_gram(_gram(h), h, bound)

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    def test_effective_channel_grams(self, mid_hermite, domain):
        ch = sample_channel(3, 16, 2.0, trial_stream(4, 2),
                            size=mid_hermite.cfg.frame_size)
        h = mid_hermite.effective_channel(ch, domain).matrix
        want = h.conj().T @ h
        assert_lower_gram(_gram(h), h, 1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    @pytest.mark.parametrize("family", ["hermite", "phydyas"])
    def test_delta_from_the_triangle_equals_the_mirrored_one(
            self, mid_hermite, mid_phydyas, family, domain):
        # delta_from_gram reads one triangle and the trace, so mirroring
        # the Gram first changes no bit of Delta's triangle.
        modem = {"hermite": mid_hermite, "phydyas": mid_phydyas}[family]
        ch = sample_channel(3, 16, 2.0, trial_stream(4, 2),
                            size=modem.cfg.frame_size)
        heff = modem.effective_channel(ch, domain)
        gram = _gram(heff.matrix, heff.support)
        for sigma2 in (0.0, 1e-2):
            got = np.tril(delta_from_gram(gram.copy(), sigma2))
            want = np.tril(delta_from_gram(_mirrored(gram), sigma2))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def block_sparse(draw):
    """A K x K block matrix zero outside a random support."""
    K, rows, cols = (draw(st.integers(1, 5)), draw(st.integers(1, 6)),
                     draw(st.integers(1, 4)))
    support = np.array(draw(st.lists(st.booleans(), min_size=K * K,
                                     max_size=K * K))).reshape(K, K)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    h = rng.standard_normal((K * rows, K * cols)) + \
        1j * rng.standard_normal((K * rows, K * cols))
    h *= np.kron(support, np.ones((rows, cols)))
    return h, support


@st.composite
def wrapped_channels(draw, M):
    """1-3 paths, one of them always delayed so the last symbol's strip
    wraps past the frame end."""
    first = draw(st.integers(1, 24))
    rest = draw(st.lists(st.integers(0, 2 * M), max_size=2))
    delays = list(dict.fromkeys([first, *rest]))
    gain = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)
    paths = tuple(PathSpec(draw(gain), d, draw(st.floats(-2.0, 2.0)))
                  for d in delays)
    return ChannelRealization(paths, size=M)


class TestSupportGram:
    """The Gram summed over supported blocks against a dense h^H h."""

    @staticmethod
    def check(h, support):
        want = h.conj().T @ h
        assert_lower_gram(_gram(h, support), h,
                          1e-12 * max(np.abs(want).max(), 1e-300))

    @given(block_sparse())
    @settings(max_examples=60, deadline=None)
    def test_random_supports(self, case):
        self.check(*case)

    @given(data=st.data(), which=st.integers(0, 3),
           domain=st.sampled_from((AFFINE, FILTERED)))
    @settings(max_examples=40, deadline=None)
    def test_effective_channels(self, oracle_modems, data, which, domain):
        modem = oracle_modems[which]
        ch = data.draw(wrapped_channels(modem.cfg.frame_size))
        heff = modem.effective_channel(ch, domain)
        self.check(heff.matrix, heff.support)

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    def test_strip_wrapped_past_the_frame_end(self, mid_hermite, domain):
        M, K = mid_hermite.cfg.frame_size, mid_hermite.cfg.K
        ch = ChannelRealization((PathSpec(1.0, 0, 0.5),
                                 PathSpec(0.6 - 0.3j, 9, -1.5)), size=M)
        heff = mid_hermite.effective_channel(ch, domain)
        # The last symbol reaches back into the first window, the
        # symbols between do not: window 0 holds two runs.
        assert heff.support[0, K - 1] and not heff.support[0, K // 2]
        self.check(heff.matrix, heff.support)

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    def test_full_support_phydyas(self, mid_phydyas, domain):
        """A full support sums the Gram as the sweep does, bit for bit:
        one in-place ``zherk`` per receive window of the filtered
        channel, in window order, and one over the square affine one."""
        ch = sample_channel(3, 16, 2.0, trial_stream(4, 2),
                            size=mid_phydyas.cfg.frame_size)
        heff = mid_phydyas.effective_channel(ch, domain)
        assert heff.support.all()
        self.check(heff.matrix, heff.support)
        rows = mid_phydyas.cfg.N if domain == FILTERED else \
            heff.matrix.shape[0]
        assert np.array_equal(_gram(heff.matrix, heff.support),
                              windowed_herk(heff.matrix, rows))


class TestDetection:

    def test_recovers_clean_symbols(self, rng):
        heff = random_heff(20, rng)
        alphabet = qam_alphabet(4)
        sent = alphabet[rng.integers(0, 4, 20)]
        received = heff.matrix @ sent
        eq = mmse(heff, 0.0)
        got = equalize_and_detect(eq, received, alphabet)
        assert np.array_equal(got, sent)

    def test_survives_small_noise(self, rng):
        heff = random_heff(30, rng)
        alphabet = qam_alphabet(4)
        sent = alphabet[rng.integers(0, 4, 30)]
        received = heff.matrix @ sent
        received += 1e-3 * (rng.standard_normal(30)
                            + 1j * rng.standard_normal(30))
        got = equalize_and_detect(mmse(heff, 1e-6), received, alphabet)
        assert np.array_equal(got, sent)


def windowed_herk(h, rows):
    """h^H h on and below the diagonal as the sweep sums it: one
    in-place ``zherk`` (beta = 1) per block of ``rows`` rows of h, one
    receive window at a time, in window order."""
    n = h.shape[1]
    out = np.zeros((n, n), dtype=complex)
    for a in range(0, h.shape[0], rows):
        out = scipy.linalg.blas.zherk(1.0, h[a:a + rows].T, beta=1.0,
                                      c=out.T, trans=0, lower=0,
                                      overwrite_c=1).T
    return out


def zherk_soft_estimates(heff, received, sigma2, rows):
    """mmse_detect's soft estimates as it forms them from the Gram
    summed over blocks of ``rows`` rows of Heff (:func:`windowed_herk`):
    the upper triangle of conj(G) conjugated into G's, factored, and
    solved against the conjugated Heff^T conj(r), summed over the same
    blocks, one receive window at a time as the sweep sums both."""
    Hm = heff.matrix
    n = Hm.shape[1]
    reg = np.conjugate(windowed_herk(Hm, rows).T)
    reg[np.diag_indices(n)] += sigma2
    factor, info = scipy.linalg.lapack.zpotrf(reg, lower=0, clean=0,
                                              overwrite_a=1)
    assert info == 0
    rhs = np.zeros(n, dtype=complex)
    for a in range(0, Hm.shape[0], rows):
        rhs += Hm[a:a + rows].T @ received[a:a + rows].conj()
    soft, _ = scipy.linalg.lapack.zpotrs(factor, np.conjugate(rhs, out=rhs),
                                         lower=0, overwrite_b=1)
    return soft


class TestMmseDetect:

    @staticmethod
    def frame(modem, seed, domain, sigma2):
        """One simulated frame: the materialized effective channel, the
        received vector, the sweep's Gram and right-hand side, the
        detector's noise power and the alphabet."""
        rng = trial_stream(seed, 0)
        ch = sample_channel(2, 4, 0.5, rng, size=modem.cfg.frame_size)
        alphabet = qam_alphabet(4)
        sent = alphabet[rng.integers(0, 4, modem.cfg.payload_size)]
        r = add_awgn(apply_channel(ch, modem.modulate(sent)), sigma2, rng)
        received = (modem.matched_demodulate(r) if domain == AFFINE
                    else modem.filtered_receive(r))
        (_, gram, rhs), = metrics._systems(modem, ch, {domain: received})
        return modem.effective_channel(ch, domain), received, gram, rhs, \
            modem.received_noise_power(domain, sigma2), alphabet

    @classmethod
    def detect_both(cls, modem, seed, domain, sigma2):
        """Bits demapped from the fast soft estimates and from the dense
        oracle's decisions on one simulated frame."""
        heff, received, gram, rhs, noise, alphabet = cls.frame(
            modem, seed, domain, sigma2)
        want = equalize_and_detect(mmse(heff, noise), received, alphabet)
        return qam_demap(mmse_detect(gram, rhs, noise)), qam_demap(want)

    @given(st.integers(0, 2 ** 16), st.sampled_from([AFFINE, FILTERED]),
           st.sampled_from([1e-4, 1e-2, 0.3]))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_oracle_on_toy_frames(self, toy_modem, seed,
                                                domain, sigma2):
        got, want = self.detect_both(toy_modem, seed, domain, sigma2)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    @pytest.mark.parametrize("seed,sigma2", [(0, 1e-4), (1, 1e-2),
                                             (2, 0.3)])
    def test_matches_dense_oracle_on_mid_frames(self, mid_hermite,
                                                mid_phydyas, seed, domain,
                                                sigma2):
        for modem in (mid_hermite, mid_phydyas):
            got, want = self.detect_both(modem, seed, domain, sigma2)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    @pytest.mark.parametrize("seed,sigma2", [(0, 1e-4), (1, 1e-2),
                                             (2, 0.3)])
    def test_block_support_matches_dense_oracle(self, mid_hermite, seed,
                                                domain, sigma2):
        heff, received, gram, rhs, noise, alphabet = self.frame(
            mid_hermite, seed, domain, sigma2)
        assert not heff.support.all()
        want = equalize_and_detect(mmse(heff, noise), received, alphabet)
        got = mmse_detect(gram, rhs, noise)
        assert np.array_equal(qam_demap(got), qam_demap(want))
        H = heff.matrix
        spd = _solve_spd(H.conj().T @ H, H.conj().T @ received, noise)
        assert np.abs(got - spd).max() <= 1e-12 * np.abs(spd).max()

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("K", [4, 8])
    def test_full_support_soft_estimates_are_the_zherk_ones(
            self, mid_phydyas, K, seed, domain):
        modem = mid_phydyas if K == 8 else \
            AfbmModem(design_config(64, 4, 128, 96, "hermite"))
        heff, received, gram, rhs, noise, alphabet = self.frame(
            modem, seed, domain, 1e-2)
        assert heff.support.all()
        got = mmse_detect(gram, rhs, noise)
        rows = modem.cfg.N if domain == FILTERED else received.size
        want = zherk_soft_estimates(heff, received, noise, rows)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_peak_allocation_below_the_gram(self):
        # The Gram is factored and the right-hand side solved in place:
        # no n x n array is allocated.
        modem = AfbmModem(design_config(128, 4, 256, 256, "hermite"))
        rng = trial_stream(3, 0)
        ch = sample_channel(3, 16, 2.0, rng, size=modem.cfg.frame_size)
        received = modem.filtered_receive(
            rng.standard_normal(modem.cfg.frame_size) + 0j)
        (_, gram, rhs), = metrics._systems(modem, ch, {FILTERED: received})
        tracemalloc.start()
        try:
            mmse_detect(gram, rhs, 1e-2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gram.nbytes == 2 ** 20
        assert peak < gram.nbytes

    def test_recovers_clean_symbols_zero_forcing(self, rng):
        heff = random_heff(20, rng)
        alphabet = qam_alphabet(4)
        sent = alphabet[rng.integers(0, 4, 20)]
        got = mmse_detect(*normal_equations(heff, heff.matrix @ sent), 0.0)
        assert np.array_equal(qam_demap(got), qam_demap(sent))

    def test_rectangular_channel_shape(self, rng):
        A = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        heff = EffectiveChannel(A, FILTERED)
        alphabet = qam_alphabet(4)
        sent = alphabet[rng.integers(0, 4, 5)]
        got = mmse_detect(*normal_equations(heff, A @ sent), 1e-6)
        assert got.shape == (5,)
        assert np.array_equal(qam_demap(got), qam_demap(sent))

    def test_qpsk_tie_at_zero_demaps_as_the_oracle_slices(self):
        # A soft coordinate exactly on the QPSK decision boundary: the
        # per-axis demapper and the oracle's nearest-symbol slicer (its
        # first nearest alphabet entry) both take the negative level.
        sent = np.array([0.0, 0.5j, -0.3, 0.7 + 0.0j, 0.0 - 0.2j, 0.4 + 0.6j])
        heff = EffectiveChannel(np.eye(6, dtype=complex), FILTERED)
        got = mmse_detect(*normal_equations(heff, sent), 0.0)
        assert np.array_equal(got, sent)
        want = equalize_and_detect(mmse(heff, 0.0), sent, qam_alphabet(4))
        assert np.array_equal(want, _nearest_symbols(sent, qam_alphabet(4)))
        assert np.array_equal(qam_demap(got), qam_demap(want))
        assert np.all(qam_demap(got).reshape(-1, 2)[:2, 0] == 0)

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
    def test_rejects_misshaped_rhs(self, shape):
        with pytest.raises(ValueError,
                           match=r"right-hand side must have shape \(5,\)"):
            mmse_detect(np.eye(5, dtype=complex),
                        np.zeros(shape, dtype=complex), 0.1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise variance"):
            mmse_detect(np.eye(4, dtype=complex), np.zeros(4, dtype=complex),
                        -1e-3)

    def test_singular_gram_named_as_mmse(self):
        with pytest.raises(ValueError, match="^mmse: 4x4 Gram"):
            mmse_detect(np.zeros((4, 4), dtype=complex),
                        np.zeros(4, dtype=complex), 0.0)


class TestNoiseRefusal:

    @pytest.mark.parametrize("sigma2", [np.nan, -1e-3, -np.inf])
    @pytest.mark.parametrize("solver", ["delta_from_gram", "mmse",
                                        "mmse_detect", "add_awgn",
                                        "received_noise_power"])
    def test_nan_and_negative_noise_refused(self, solver, sigma2, rng,
                                            toy_modem):
        heff = random_heff(4, rng)
        call = {
            "received_noise_power": lambda: toy_modem.received_noise_power(
                AFFINE, sigma2),
            "delta_from_gram": lambda: delta_from_gram(
                _gram(heff.matrix), sigma2),
            "mmse": lambda: mmse(heff, sigma2),
            "mmse_detect": lambda: mmse_detect(
                *normal_equations(heff, np.zeros(4)), sigma2),
            "add_awgn": lambda: add_awgn(np.zeros(4, dtype=complex),
                                         sigma2, rng),
        }[solver]
        with pytest.raises(ValueError,
                           match=f"noise variance must be >= 0, got "
                                 f"{sigma2}"):
            call()
