import numpy as np
import pytest
import scipy.sparse as sp

from minplus_apsp import (
    DensityReport,
    EncodedMatrix,
    choose_kernel,
    decode,
    encode,
    multiply_dense,
    multiply_sparse,
    params_for,
)
from conftest import minplus_square, random_dist_matrix

P3_ENCODED = [[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]
P3_SQUARED = [[17.0, 8.0, 1.0], [8.0, 18.0, 8.0], [1.0, 8.0, 17.0]]


def enc(rows):
    return EncodedMatrix(np.array(rows, dtype=np.float64))


def definition_product(a, b):
    """Ordinary matrix product from its definition, as a broadcast sum."""
    return (a[:, :, None] * b[None, :, :]).sum(1)


def sparse_square(a):
    s = sp.csr_array(a)
    return multiply_sparse(s, s).toarray()


class TestDense:
    def test_identity(self):
        a = enc(np.arange(1, 10).reshape(3, 3))
        assert np.array_equal(multiply_dense(enc(np.eye(3)), a).data, a.data)

    def test_empty_row_annihilates(self):
        a = enc([[0.0, 0.0], [1.0, 2.0]])
        assert multiply_dense(a, a).data[0].tolist() == [0.0, 0.0]

    def test_1x1(self):
        assert multiply_dense(enc([[3.0]]), enc([[5.0]])).data.tolist() == [[15.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            multiply_dense(enc(np.eye(2)), enc(np.eye(3)))


class TestNaive:
    """The broadcast-sum definition that the random kernel checks compare against."""

    def test_p3_squared_by_hand(self):
        a = np.array(P3_ENCODED)
        assert definition_product(a, a).tolist() == P3_SQUARED


class TestDenseBlocked:
    """Shapes below one BLAS tile, across a tile tail, and the 3x3 hand case."""

    def test_single_block_degenerates_to_naive(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((7, 7)), rng.random((7, 7))
        got = multiply_dense(EncodedMatrix(a), EncodedMatrix(b)).data
        np.testing.assert_allclose(got, definition_product(a, b), rtol=1e-13)

    def test_p3_squared_with_small_block(self):
        a = enc(P3_ENCODED)
        assert multiply_dense(a, a).data.tolist() == P3_SQUARED

    def test_tail_blocks_n65(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((65, 65)), rng.random((65, 65))
        got = multiply_dense(EncodedMatrix(a), EncodedMatrix(b)).data
        np.testing.assert_allclose(got, definition_product(a, b), rtol=1e-12)


class TestSparseMultiply:
    def test_identity(self):
        rng = np.random.default_rng(7)
        a = rng.random((10, 10)) * (rng.random((10, 10)) < 0.3)
        got = multiply_sparse(sp.csr_array(np.eye(10)), sp.csr_array(a))
        assert np.array_equal(got.toarray(), a)

    def test_p3_squared(self):
        assert sparse_square(np.array(P3_ENCODED)).tolist() == P3_SQUARED

    def test_empty_row_annihilates(self):
        assert sparse_square(np.array([[0.0, 0.0], [1.0, 2.0]]))[0].tolist() == [0.0, 0.0]

    def test_all_zero(self):
        assert np.array_equal(sparse_square(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_vs_definition_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.15)
            np.testing.assert_allclose(sparse_square(a), definition_product(a, a), rtol=1e-12)

    def test_returns_csr_array(self):
        s = sp.csr_array(np.array(P3_ENCODED))
        assert isinstance(multiply_sparse(s, s), sp.csr_array)


class TestChooseKernel:
    def test_sparse_below_threshold(self):
        d = DensityReport(finite_count=86, n_squared=10000)
        assert choose_kernel(d) == "sparse"

    def test_dense_at_threshold_exactly(self):
        d = DensityReport(finite_count=1000, n_squared=10000)
        assert choose_kernel(d) == "dense"

    def test_dense_when_dense(self):
        d = DensityReport(finite_count=9900, n_squared=10000)
        assert choose_kernel(d) == "dense"


class TestKernelAgreementAfterDecode:
    def test_decoded_distances_identical(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 17, 64, 128):
            m = random_dist_matrix(rng, n, max_weight=3, density=0.2)
            p = params_for(m)
            e = encode(m, p)
            want = minplus_square(m).data
            assert np.array_equal(decode(multiply_dense(e, e), p).data, want)
            got = EncodedMatrix(sparse_square(e.data))
            assert np.array_equal(decode(got, p).data, want)

    def test_decoded_distances_identical_larger_elements(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(20, 100))
            m = random_dist_matrix(rng, n, max_weight=9, density=0.04)
            p = params_for(m)
            e = encode(m, p)
            want = minplus_square(m).data
            assert np.array_equal(decode(multiply_dense(e, e), p).data, want)
            got = EncodedMatrix(sparse_square(e.data))
            assert np.array_equal(decode(got, p).data, want)
