import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afbm.channel import (ChannelConfig, ChannelRealization, PathSpec,
                          add_awgn, apply_channel, channel_matrix,
                          from_records, sample_channel, to_records,
                          trial_stream)


class TestTypes:

    def test_path_validation(self):
        with pytest.raises(ValueError):
            PathSpec(1 + 0j, -1, 0.5)

    def test_duplicate_delays_rejected(self):
        paths = (PathSpec(1 + 0j, 2, 0.1), PathSpec(0.5 + 0j, 2, -0.3))
        with pytest.raises(ValueError):
            ChannelRealization(paths)

    @given(st.sampled_from(["gain", "doppler"]),
           st.sampled_from([np.nan, np.inf, -np.inf]),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_non_finite_path_rejected(self, field, bad, imaginary):
        gain, doppler = 1 + 0j, 0.5
        if field == "gain":
            gain = complex(0.3, bad) if imaginary else complex(bad, 0.3)
        else:
            doppler = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PathSpec(gain, 1, doppler)

    def test_config_requires_enough_delays(self):
        with pytest.raises(ValueError):
            ChannelConfig(n_paths=5, delay_max=3, doppler_max=1.0)


class TestSampleChannel:

    def test_first_path_at_zero_delay(self):
        for i in range(5):
            ch = sample_channel(3, 16, 2.0, trial_stream(42, i))
            delays = [p.delay for p in ch.paths]
            assert delays[0] == 0
            assert len(set(delays)) == 3
            assert all(1 <= d <= 16 for d in delays[1:])

    def test_doppler_range(self):
        ch = sample_channel(4, 16, 2.0, trial_stream(7, 0))
        assert all(-2.0 <= p.doppler <= 2.0 for p in ch.paths)

    def test_replay_is_bit_exact(self):
        a = sample_channel(3, 16, 2.0, trial_stream(11, 4))
        b = sample_channel(3, 16, 2.0, trial_stream(11, 4))
        assert a == b

    def test_streams_are_distinct(self):
        a = sample_channel(3, 16, 2.0, trial_stream(11, 0))
        b = sample_channel(3, 16, 2.0, trial_stream(11, 1))
        assert a != b

    def test_average_power_normalization(self):
        # path gains are drawn with variance 1/n_paths each
        gains = np.array([p.gain
                          for i in range(200)
                          for p in sample_channel(
                              4, 16, 2.0, trial_stream(5, i)).paths])
        assert np.mean(np.abs(gains) ** 2) * 4 == pytest.approx(1.0, rel=0.1)


class TestChannelMatrix:

    def test_energy_identity(self):
        # distinct cyclic shifts occupy disjoint cells, so the squared
        # Frobenius norm is exactly size * sum |h_r|^2
        ch = sample_channel(3, 8, 1.0, trial_stream(3, 2))
        H = channel_matrix(ch, size=32)
        total = 32 * sum(abs(p.gain) ** 2 for p in ch.paths)
        assert np.linalg.norm(H) ** 2 == pytest.approx(total, rel=1e-12)

    def test_single_path_structure(self):
        ch = ChannelRealization((PathSpec(2 + 0j, 1, 0.0),))
        H = channel_matrix(ch, size=4)
        want = 2 * np.roll(np.eye(4), 1, axis=0)
        assert np.allclose(H, want, atol=1e-14)

    def test_doppler_phase_on_output_grid(self):
        ch = ChannelRealization((PathSpec(1 + 0j, 0, 1.0),))
        H = channel_matrix(ch, size=8)
        want = np.diag(np.exp(-2j * np.pi * np.arange(8) / 8))
        assert np.allclose(H, want, atol=1e-14)

    def test_size_metadata_default(self):
        ch = sample_channel(2, 4, 1.0, trial_stream(1, 0), size=24)
        assert ch.size == 24
        assert channel_matrix(ch).shape == (24, 24)


def rolled_reference(c, s):
    """Per-path propagation through np.roll, the formula apply_channel
    must reproduce byte for byte."""
    M = s.shape[0]
    m = np.arange(M)
    out = np.zeros_like(s)
    for p in c.paths:
        phase = np.exp(-2j * np.pi * m * p.doppler / M)
        if s.ndim > 1:
            phase = phase[:, None]
        out += p.gain * phase * np.roll(s, p.delay, axis=0)
    return out


class TestApplyChannel:

    @given(st.integers(1, 40), st.integers(0, 4),
           st.lists(st.integers(0, 100), min_size=1, max_size=4,
                    unique=True),
           st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_byte_identical_to_roll(self, M, columns, delays, seed):
        # columns == 0 is the vector case; delays include 0 and >= M
        g = np.random.default_rng(seed)
        paths = tuple(PathSpec(complex(*g.standard_normal(2)), d,
                               float(g.uniform(-3, 3))) for d in delays)
        ch = ChannelRealization(paths)
        shape = (M,) if columns == 0 else (M, columns)
        s = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        got = apply_channel(ch, s)
        want = rolled_reference(ch, s)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_delay_at_or_beyond_frame_wraps_like_roll(self, rng):
        paths = (PathSpec(0.5 + 1j, 0, 0.25), PathSpec(1 - 0.5j, 8, -1.0),
                 PathSpec(-0.3 + 0j, 19, 0.5))
        ch = ChannelRealization(paths)
        s = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        got = apply_channel(ch, s)
        assert got.tobytes() == rolled_reference(ch, s).tobytes()

    def test_empty_frame_rejected(self):
        ch = ChannelRealization((PathSpec(1 + 0j, 0, 0.0),))
        with pytest.raises(ValueError, match="non-empty"):
            apply_channel(ch, np.zeros(0, dtype=complex))

    def test_matches_dense_matrix(self, rng):
        ch = sample_channel(3, 16, 2.0, trial_stream(9, 5))
        H = channel_matrix(ch, size=64)
        s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.abs(apply_channel(ch, s) - H @ s).max() < 1e-10

    def test_matrix_argument(self, rng):
        ch = sample_channel(3, 16, 2.0, trial_stream(9, 6))
        H = channel_matrix(ch, size=48)
        X = rng.standard_normal((48, 5)) + 1j * rng.standard_normal((48, 5))
        assert np.abs(apply_channel(ch, X) - H @ X).max() < 1e-10

    def test_size_mismatch_rejected(self):
        ch = sample_channel(2, 4, 1.0, trial_stream(1, 0), size=24)
        with pytest.raises(ValueError):
            apply_channel(ch, np.ones(25))

    @given(st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        g = np.random.default_rng(seed)
        ch = sample_channel(2, 6, 1.0, trial_stream(13, 1))
        a, b = g.standard_normal(2)
        x = g.standard_normal(16) + 1j * g.standard_normal(16)
        y = g.standard_normal(16) + 1j * g.standard_normal(16)
        lhs = apply_channel(ch, a * x + b * y)
        rhs = a * apply_channel(ch, x) + b * apply_channel(ch, y)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestAwgn:

    def test_zero_variance_copies(self, rng):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        out = add_awgn(v, 0.0, rng)
        assert np.array_equal(out, v)
        assert out is not v

    def test_noise_power(self):
        rng = np.random.default_rng(0)
        v = np.zeros(200000, dtype=complex)
        out = add_awgn(v, 0.25, rng)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(0.25, rel=0.02)

    def test_negative_variance_rejected(self, rng):
        with pytest.raises(ValueError):
            add_awgn(np.ones(4, dtype=complex), -1e-3, rng)


class TestRecords:

    def test_roundtrip(self):
        ch = sample_channel(3, 16, 2.0, trial_stream(21, 0), size=100)
        assert from_records(to_records(ch), size=100) == ch
