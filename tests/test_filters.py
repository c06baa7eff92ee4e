import numpy as np
import pytest

from afbm.filters import (PrototypeFilter, block_toeplitz, hermite_prototype,
                          phydyas_prototype, single_symbol_matrix)


class TestHermitePrototype:

    @pytest.mark.parametrize("N", [16, 128, 256])
    def test_unit_energy(self, N):
        f = hermite_prototype(N)
        assert np.linalg.norm(f.taps) == pytest.approx(1.0)

    def test_length_and_family(self):
        f = hermite_prototype(64)
        assert f.taps.size == 96
        assert f.overlap == 1.5
        assert f.family == "hermite"
        assert f.n_blocks == 3

    def test_even_symmetry(self):
        taps = hermite_prototype(64).taps
        assert np.allclose(taps, taps[::-1], atol=1e-12)

    def test_peak_at_center(self):
        taps = hermite_prototype(64).taps
        assert taps.argmax() in ((taps.size - 1) // 2, taps.size // 2)


class TestPhydyasPrototype:

    @pytest.mark.parametrize("N", [16, 128, 256])
    def test_unit_energy(self, N):
        f = phydyas_prototype(N)
        assert np.linalg.norm(f.taps) == pytest.approx(1.0)

    def test_length_and_family(self):
        f = phydyas_prototype(32)
        assert f.taps.size == 128
        assert f.overlap == 4
        assert f.family == "phydyas"
        assert f.n_blocks == 8

    def test_vanishes_at_span_ends(self):
        taps = phydyas_prototype(64).taps
        assert abs(taps[0]) < 1e-3 * taps.max()

    def test_rejects_tiny_fft_size(self):
        with pytest.raises(ValueError):
            phydyas_prototype(4)


class TestPrototypeFilter:

    def test_rejects_half_integer_block_count(self):
        with pytest.raises(ValueError):
            PrototypeFilter(np.ones(20) / np.sqrt(20), 1.25, 16, "hermite")


class TestSingleSymbolMatrix:

    @pytest.mark.parametrize("make,N", [(hermite_prototype, 16),
                                        (phydyas_prototype, 16),
                                        (hermite_prototype, 64)])
    def test_shape_and_energy(self, make, N):
        f = make(N)
        G = single_symbol_matrix(f)
        assert G.shape == (f.taps.size, N)
        assert np.linalg.norm(G) == pytest.approx(1.0)

    @pytest.mark.parametrize("make", [hermite_prototype, phydyas_prototype])
    def test_gram_exactly_diagonal(self, make):
        # every bank row touches a single column, so the single-symbol
        # Gram has no off-diagonal mass at all, for any prototype
        G = single_symbol_matrix(make(16))
        gram = G.T @ G
        assert np.array_equal(gram, np.diag(np.diag(gram)))

    def test_alternating_half_support(self):
        G = single_symbol_matrix(hermite_prototype(16))
        assert not G[:8, 8:].any()      # block 0 lives on the left half
        assert not G[8:16, :8].any()    # block 1 on the right
        assert not G[16:, 8:].any()     # block 2 back on the left

    @pytest.mark.parametrize("make", [hermite_prototype, phydyas_prototype])
    def test_each_row_holds_its_tap_in_column_r_mod_n(self, make):
        # the structure the modem's tap fold relies on
        f = make(16)
        G = single_symbol_matrix(f)
        rows = np.arange(f.taps.size)
        expected = np.zeros_like(G)
        expected[rows, rows % 16] = f.taps
        assert np.array_equal(G, expected)


class TestBlockToeplitz:

    def test_single_symbol_case(self):
        f = hermite_prototype(16)
        assert np.array_equal(block_toeplitz(f, 1), single_symbol_matrix(f))

    @pytest.mark.parametrize("K", [2, 4])
    def test_stride_placement(self, K):
        f = hermite_prototype(16)
        G = block_toeplitz(f, K)
        single = single_symbol_matrix(f)
        M = f.taps.size + (K - 1) * 8
        assert G.shape == (M, 16 * K)
        for k in range(K):
            rows = slice(k * 8, k * 8 + f.taps.size)
            cols = slice(k * 16, (k + 1) * 16)
            assert np.array_equal(G[rows, cols], single)

    def test_rejects_bad_symbol_count(self):
        with pytest.raises(ValueError):
            block_toeplitz(hermite_prototype(16), 0)
