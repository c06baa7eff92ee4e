import numpy as np
import pytest

from afbm.filters import (_FAMILIES, block_toeplitz, hermite_prototype,
                          phydyas_prototype, single_symbol_matrix)


class TestHermitePrototype:

    @pytest.mark.parametrize("N", [16, 128, 256])
    def test_unit_energy(self, N):
        assert np.linalg.norm(hermite_prototype(N)) == pytest.approx(1.0)

    def test_length_and_family(self):
        taps = hermite_prototype(64)
        assert taps.size == 96
        assert _FAMILIES["hermite"] == (1.5, hermite_prototype)
        assert not taps.flags.writeable

    def test_even_symmetry(self):
        taps = hermite_prototype(64)
        assert np.allclose(taps, taps[::-1], atol=1e-12)

    def test_peak_at_center(self):
        taps = hermite_prototype(64)
        assert taps.argmax() in ((taps.size - 1) // 2, taps.size // 2)

    def test_rejects_odd_fft_size(self):
        with pytest.raises(ValueError):
            hermite_prototype(15)


class TestPhydyasPrototype:

    @pytest.mark.parametrize("N", [16, 128, 256])
    def test_unit_energy(self, N):
        assert np.linalg.norm(phydyas_prototype(N)) == pytest.approx(1.0)

    def test_length_and_family(self):
        taps = phydyas_prototype(32)
        assert taps.size == 128
        assert _FAMILIES["phydyas"] == (4.0, phydyas_prototype)
        assert not taps.flags.writeable

    def test_vanishes_at_span_ends(self):
        taps = phydyas_prototype(64)
        assert abs(taps[0]) < 1e-3 * taps.max()

    def test_rejects_tiny_fft_size(self):
        with pytest.raises(ValueError):
            phydyas_prototype(4)


class TestFamilies:

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_taps_fill_whole_half_period_blocks(self, family):
        # the bank strides half a period, so each family's pulse spans a
        # whole number of N/2 blocks: overlap * N taps, 2 * overlap whole
        overlap, design = _FAMILIES[family]
        assert (2 * overlap).is_integer()
        for N in (16, 64):
            assert design(N).size == round(overlap * N)
            assert design(N).size % (N // 2) == 0


class TestSingleSymbolMatrix:

    @pytest.mark.parametrize("make,N", [(hermite_prototype, 16),
                                        (phydyas_prototype, 16),
                                        (hermite_prototype, 64)])
    def test_shape_and_energy(self, make, N):
        taps = make(N)
        G = single_symbol_matrix(taps, N)
        assert G.shape == (taps.size, N)
        assert np.linalg.norm(G) == pytest.approx(1.0)

    @pytest.mark.parametrize("make", [hermite_prototype, phydyas_prototype])
    def test_gram_exactly_diagonal(self, make):
        # every bank row touches a single column, so the single-symbol
        # Gram has no off-diagonal mass at all, for any prototype
        G = single_symbol_matrix(make(16), 16)
        gram = G.T @ G
        assert np.array_equal(gram, np.diag(np.diag(gram)))

    def test_alternating_half_support(self):
        G = single_symbol_matrix(hermite_prototype(16), 16)
        assert not G[:8, 8:].any()      # block 0 lives on the left half
        assert not G[8:16, :8].any()    # block 1 on the right
        assert not G[16:, 8:].any()     # block 2 back on the left

    @pytest.mark.parametrize("make", [hermite_prototype, phydyas_prototype])
    def test_each_row_holds_its_tap_in_column_r_mod_n(self, make):
        # the structure the modem's tap fold relies on
        taps = make(16)
        G = single_symbol_matrix(taps, 16)
        rows = np.arange(taps.size)
        expected = np.zeros_like(G)
        expected[rows, rows % 16] = taps
        assert np.array_equal(G, expected)


class TestBlockToeplitz:

    def test_single_symbol_case(self):
        taps = hermite_prototype(16)
        assert np.array_equal(block_toeplitz(taps, 16, 1),
                              single_symbol_matrix(taps, 16))

    @pytest.mark.parametrize("K", [2, 4])
    def test_stride_placement(self, K):
        taps = hermite_prototype(16)
        G = block_toeplitz(taps, 16, K)
        single = single_symbol_matrix(taps, 16)
        M = taps.size + (K - 1) * 8
        assert G.shape == (M, 16 * K)
        for k in range(K):
            rows = slice(k * 8, k * 8 + taps.size)
            cols = slice(k * 16, (k + 1) * 16)
            assert np.array_equal(G[rows, cols], single)

    def test_rejects_bad_symbol_count(self):
        with pytest.raises(ValueError):
            block_toeplitz(hermite_prototype(16), 16, 0)
