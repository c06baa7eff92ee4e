import numpy as np
import pytest

from afbm.transforms import (chirp_phases, daft_matrix, default_c1,
                             default_c2, dft_matrix, expansion_matrix,
                             grid_alignment_phases, separability_span,
                             synthesis_block)
from afbm.modem import design_config


def unitary_error(A):
    return np.abs(A.conj().T @ A - np.eye(A.shape[1])).max()


class TestDftMatrix:

    @pytest.mark.parametrize("n", [2, 4, 16, 37])
    def test_unitary(self, n):
        assert unitary_error(dft_matrix(n)) < 1e-12

    def test_matches_fft(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        direct = np.fft.fft(x) / np.sqrt(16)
        assert np.allclose(dft_matrix(16) @ x, direct, atol=1e-12)

    def test_first_row_constant(self):
        F = dft_matrix(9)
        assert np.allclose(F[0], 1 / 3)

    @pytest.mark.parametrize("n", [96, 192, 256])
    def test_matches_fft_of_identity(self, n):
        want = np.fft.fft(np.eye(n), axis=0, norm="ortho")
        assert np.abs(dft_matrix(n) - want).max() < 1e-15


class TestChirpPhases:

    def test_chirp_phases_unimodular(self):
        ph = chirp_phases(0.037, 50)
        assert np.allclose(np.abs(ph), 1.0)
        # quadratic argument: ratio of consecutive phases keeps changing
        assert not np.allclose(ph[1] / ph[0], ph[2] / ph[1])


class TestDaftMatrix:

    @pytest.mark.parametrize("c1,c2", [(0.0, 0.0), (0.031, 1e-4),
                                       (-0.017, 3e-5)])
    @pytest.mark.parametrize("n", [8, 24])
    def test_unitary(self, n, c1, c2):
        assert unitary_error(daft_matrix(c1, c2, n)) < 1e-12

    def test_zero_chirps_reduce_to_dft(self):
        W = daft_matrix(0.0, 0.0, 16)
        assert np.allclose(W, dft_matrix(16), atol=1e-14)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            daft_matrix(0.1, 0.01, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            daft_matrix(np.inf, 0.0, 8)


class TestExpansionMatrix:

    def test_isometry(self):
        T = expansion_matrix(16, 12)
        assert np.array_equal(T.T @ T, np.eye(12))

    def test_splits_halves_at_grid_edges(self):
        T = expansion_matrix(16, 12)
        assert np.array_equal(T[:6, :6], np.eye(6))
        assert np.array_equal(T[10:, 6:], np.eye(6))
        assert not T[6:10].any()

    def test_square_case_is_identity(self):
        assert np.array_equal(expansion_matrix(8, 8), np.eye(8))


class TestGridAlignmentPhases:

    def test_whole_overlap_needs_no_phase(self):
        assert np.array_equal(grid_alignment_phases(16, 4.0), np.ones(16))

    def test_half_overlap_tile(self):
        ph = grid_alignment_phases(8, 1.5)
        assert np.array_equal(ph, np.array([1, 1j, -1, -1j] * 2))

    def test_rejects_overlap_with_fractional_double(self):
        with pytest.raises(ValueError,
                           match=r"2\*overlap must be an integer"):
            grid_alignment_phases(8, 1.3)


class TestSynthesisBlock:

    @pytest.mark.parametrize("family,L,P,N", [
        ("hermite", 8, 12, 16),
        ("hermite", 64, 96, 128),
        ("phydyas", 64, 96, 128),
        ("hermite", 64, 128, 128),
    ])
    def test_isometry(self, family, L, P, N):
        Q = synthesis_block(design_config(L, 8, N, P, family))
        assert Q.shape == (N, L)
        assert unitary_error(Q) < 1e-10

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            synthesis_block(design_config(16, 2, 16, 16, "hermite"))

    @pytest.mark.parametrize("L,P,N", [(32, 24, 32), (8, 24, 16)])
    def test_rejects_l_above_p_or_p_above_n(self, L, P, N):
        with pytest.raises(ValueError):
            synthesis_block(design_config(L, 2, N, P, "hermite"))

    def test_row_pruning(self):
        # column l comes from DAFT row l alone, so a smaller L keeps the
        # leading columns of a larger one at the same P and N
        wide = synthesis_block(design_config(64, 8, 128, 96, "phydyas"))
        narrow = synthesis_block(design_config(32, 8, 128, 96, "phydyas"))
        assert np.abs(narrow - wide[:, :32]).max() < 1e-15

    @pytest.mark.parametrize("family", ["hermite", "phydyas"])
    @pytest.mark.parametrize("P", [96, 192, 256])
    def test_matches_the_composition_through_np_fft(self, family, P):
        # The defining product, every DFT taken from np.fft of an
        # identity: F_N^H diag(phases) T F_P pruned^H.
        N, L = 256, 64
        cfg = design_config(L, 8, N, P, family)
        dft = {n: np.fft.fft(np.eye(n), axis=0, norm="ortho") for n in (N, P)}
        pre = chirp_phases(cfg.c1, P)[:L]
        post = chirp_phases(default_c2(P), P)
        pruned = pre[:, None] * dft[P][:L] * post[None, :]
        want = dft[N].conj().T @ (
            grid_alignment_phases(N, cfg.overlap)[:, None]
            * (expansion_matrix(N, P) @ dft[P] @ pruned.conj().T))
        assert np.abs(synthesis_block(cfg) - want).max() < 1e-14


class TestDesignRules:

    def test_default_c1(self):
        assert default_c1(2.0, 0, 256) == pytest.approx(5 / 512)
        assert default_c1(1.0, 2, 64) == pytest.approx(7 / 128)

    def test_default_c2(self):
        assert default_c2(128) == pytest.approx(1 / (np.pi * 128 ** 2))

    @pytest.mark.parametrize("f_max,l_max,xi,P,ok", [
        (2.0, 16, 0, 192, True),
        (2.0, 16, 0, 256, True),
        (2.0, 16, 0, 48, False),
        (1.0, 12, 0, 48, True),
    ])
    def test_orthogonality_condition(self, f_max, l_max, xi, P, ok):
        assert (separability_span(f_max, l_max, xi) <= P) is ok
