import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afbm.channel import (add_awgn, apply_channel, channel_matrix,
                          sample_channel, trial_stream)
from afbm.equalize import (DeltaMatrix, conditioned_delta, delta_from_gram,
                           delta_matrix, equalize_and_detect, mmse,
                           mmse_detect)
from afbm.modem import AFFINE, FILTERED, EffectiveChannel, qam_alphabet


def random_heff(d, rng, domain=AFFINE):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    # diagonally dominant, comfortably invertible
    return EffectiveChannel(A / np.sqrt(d) + 2 * np.eye(d), domain)


class TestMmse:

    def test_zero_noise_inverts(self, rng):
        heff = random_heff(24, rng)
        eq = mmse(heff, 0.0)
        delta = eq.matrix @ heff.matrix
        assert np.abs(delta - np.eye(24)).max() < 1e-6

    def test_carries_domain_and_noise(self, rng):
        heff = random_heff(8, rng, FILTERED)
        eq = mmse(heff, 0.3)
        assert eq.domain == FILTERED
        assert eq.noise_var == 0.3

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
        assert isinstance(delta, DeltaMatrix)
        assert np.allclose(delta.matrix, eq.matrix @ heff.matrix)

    def test_domain_mismatch_rejected(self, rng):
        eq = mmse(random_heff(6, rng, AFFINE), 0.1)
        with pytest.raises(ValueError):
            delta_matrix(eq, random_heff(6, rng, FILTERED))

    def test_gram_shortcut_agrees(self, rng):
        heff = random_heff(14, rng)
        H = heff.matrix
        gram = H.conj().T @ H
        direct = mmse(heff, 0.07).matrix @ H
        assert np.abs(delta_from_gram(gram, 0.07) - direct).max() < 1e-10

    def test_singular_gram_zero_noise_falls_back_to_ridge(self):
        v = np.ones((6, 1), dtype=complex)
        gram = v @ v.conj().T        # rank one
        delta = delta_from_gram(gram, 0.0)
        assert np.all(np.isfinite(delta))

    def test_identity_gram_zero_noise(self):
        delta = delta_from_gram(np.eye(5, dtype=complex), 0.0)
        assert np.abs(delta - np.eye(5)).max() < 1e-9


class TestConditionedDelta:

    @pytest.mark.parametrize("domain", [AFFINE, FILTERED])
    def test_matches_manual_composition(self, toy_modem, domain):
        ch = sample_channel(2, 4, 0.5, trial_stream(17, 0))
        H = channel_matrix(ch, size=toy_modem.cfg.frame_size)
        build = (toy_modem.effective_channel_affine if domain == AFFINE
                 else toy_modem.effective_channel_filtered)
        heff = build(H)
        want = delta_matrix(mmse(heff, 0.01), heff).matrix
        got = conditioned_delta(toy_modem, ch, domain, 0.01)
        assert got.domain == domain
        assert np.abs(got.matrix - want).max() < 1e-8

    def test_square_in_both_domains(self, toy_modem):
        ch = sample_channel(2, 4, 0.5, trial_stream(17, 1))
        for domain in (AFFINE, FILTERED):
            d = conditioned_delta(toy_modem, ch, domain, 1e-3).matrix
            assert d.shape == (8, 8)

    def test_unknown_domain_rejected(self, toy_modem):
        with pytest.raises(ValueError):
            conditioned_delta(toy_modem, np.eye(32), "dual", 0.0)


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


class TestMmseDetect:

    @given(st.integers(0, 2 ** 16), st.sampled_from([AFFINE, FILTERED]),
           st.sampled_from([1e-4, 1e-2, 0.3]))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_oracle_on_toy_frames(self, toy_modem, seed,
                                                domain, sigma2):
        rng = trial_stream(seed, 0)
        ch = sample_channel(2, 4, 0.5, rng, size=toy_modem.cfg.frame_size)
        alphabet = qam_alphabet(4)
        sent = alphabet[rng.integers(0, 4, toy_modem.cfg.payload_size)]
        r = add_awgn(apply_channel(ch, toy_modem.modulate(sent)), sigma2,
                     rng)
        if domain == AFFINE:
            heff = toy_modem.effective_channel_affine(ch)
            received = toy_modem.matched_demodulate(r)
        else:
            heff = toy_modem.effective_channel_filtered(ch)
            received = toy_modem.filtered_receive(r)
        noise = toy_modem.received_noise_power(domain, sigma2)
        want = equalize_and_detect(mmse(heff, noise), received, alphabet)
        got = mmse_detect(heff, received, noise, alphabet)
        assert np.array_equal(got, want)

    def test_recovers_clean_symbols_zero_forcing(self, rng):
        heff = random_heff(20, rng)
        alphabet = qam_alphabet(4)
        sent = alphabet[rng.integers(0, 4, 20)]
        got = mmse_detect(heff, heff.matrix @ sent, 0.0, alphabet)
        assert np.array_equal(got, sent)

    def test_rectangular_channel_shape(self, rng):
        A = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        heff = EffectiveChannel(A, FILTERED)
        alphabet = qam_alphabet(4)
        sent = alphabet[rng.integers(0, 4, 5)]
        got = mmse_detect(heff, A @ sent, 1e-6, alphabet)
        assert got.shape == (5,)
        assert np.array_equal(got, sent)

    @pytest.mark.parametrize("shape", [(11,), (13,), (12, 1), ()])
    def test_rejects_misshaped_received(self, rng, shape):
        heff = EffectiveChannel(np.ones((12, 5), dtype=complex), FILTERED)
        with pytest.raises(ValueError, match="received vector"):
            mmse_detect(heff, np.zeros(shape), 0.1, qam_alphabet(4))

    def test_rejects_negative_noise(self, rng):
        heff = random_heff(4, rng)
        with pytest.raises(ValueError, match="noise variance"):
            mmse_detect(heff, np.zeros(4), -1e-3, qam_alphabet(4))

    def test_singular_gram_named_as_mmse(self):
        heff = EffectiveChannel(np.zeros((6, 4), dtype=complex), AFFINE)
        with pytest.raises(ValueError, match="^mmse: 4x4 Gram"):
            mmse_detect(heff, np.zeros(6), 0.0, qam_alphabet(4))
