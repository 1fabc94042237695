import numpy as np
import pytest

from minplus_apsp import (
    CsrMatrix,
    DensityReport,
    EncodedMatrix,
    KernelChoice,
    choose_kernel,
    decode,
    encode,
    from_csr,
    multiply_dense_blocked,
    multiply_naive,
    multiply_sparse,
    multiply_strassen,
    params_for,
    to_csr,
)
from conftest import random_dist_matrix

P3_ENCODED = [[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]
P3_SQUARED = [[17.0, 8.0, 1.0], [8.0, 18.0, 8.0], [1.0, 8.0, 17.0]]


def enc(rows):
    return EncodedMatrix(np.array(rows, dtype=np.float64))


class TestNaive:
    def test_identity(self):
        a = enc(np.arange(1, 10).reshape(3, 3))
        ident = enc(np.eye(3))
        assert np.array_equal(multiply_naive(ident, a).data, a.data)

    def test_p3_squared_by_hand(self):
        a = enc(P3_ENCODED)
        assert multiply_naive(a, a).data.tolist() == P3_SQUARED

    def test_1x1(self):
        assert multiply_naive(enc([[3.0]]), enc([[5.0]])).data.tolist() == [[15.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            multiply_naive(enc(np.eye(2)), enc(np.eye(3)))


class TestDenseBlocked:
    def test_single_block_degenerates_to_naive(self):
        rng = np.random.default_rng(1)
        a, b = enc(rng.random((7, 7))), enc(rng.random((7, 7)))
        got = multiply_dense_blocked(a, b)
        np.testing.assert_allclose(got.data, multiply_naive(a, b).data, rtol=1e-13)

    def test_p3_squared_with_small_block(self):
        a = enc(P3_ENCODED)
        np.testing.assert_allclose(
            multiply_dense_blocked(a, a).data, P3_SQUARED, rtol=1e-13
        )

    def test_tail_blocks_n65(self):
        rng = np.random.default_rng(2)
        a, b = enc(rng.random((65, 65))), enc(rng.random((65, 65)))
        got = multiply_dense_blocked(a, b)
        np.testing.assert_allclose(got.data, multiply_naive(a, b).data, rtol=1e-12)


class TestStrassen:
    def test_2x2_by_hand(self):
        a = enc([[1.0, 2.0], [3.0, 4.0]])
        b = enc([[5.0, 6.0], [7.0, 8.0]])
        got = multiply_strassen(a, b, cutoff=1)
        assert got.data.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_identity(self):
        rng = np.random.default_rng(3)
        a = enc(rng.random((16, 16)))
        got = multiply_strassen(enc(np.eye(16)), a, cutoff=4)
        np.testing.assert_allclose(got.data, a.data, rtol=1e-9)

    def test_n100_vs_naive(self):
        rng = np.random.default_rng(4)
        a, b = enc(rng.random((100, 100))), enc(rng.random((100, 100)))
        got = multiply_strassen(a, b, cutoff=16)
        np.testing.assert_allclose(got.data, multiply_naive(a, b).data, rtol=1e-9)

    def test_odd_sizes(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 17):
            a, b = enc(rng.random((n, n))), enc(rng.random((n, n)))
            got = multiply_strassen(a, b, cutoff=2)
            np.testing.assert_allclose(got.data, multiply_naive(a, b).data, rtol=1e-9)


class TestCsr:
    def test_small_example(self):
        c = to_csr(enc([[0.0, 1.0], [2.0, 0.0]]))
        assert c.row_ptr.tolist() == [0, 1, 2]
        assert c.col_idx.tolist() == [1, 0]
        assert c.values.tolist() == [1.0, 2.0]

    def test_all_zero(self):
        c = to_csr(enc(np.zeros((3, 3))))
        assert len(c.values) == 0
        assert np.array_equal(from_csr(c).data, np.zeros((3, 3)))

    def test_round_trip_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.2)
            back = from_csr(to_csr(EncodedMatrix(a)))
            assert np.array_equal(back.data, a)

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            CsrMatrix(
                n=2,
                row_ptr=np.array([0, 2, 2]),
                col_idx=np.array([1, 0]),  # not increasing within row 0
                values=np.array([1.0, 2.0]),
            )
        with pytest.raises(ValueError):
            CsrMatrix(
                n=2,
                row_ptr=np.array([0, 1, 2]),
                col_idx=np.array([0, 1]),
                values=np.array([1.0, 0.0]),  # explicit zero
            )


class TestSparseMultiply:
    def test_identity(self):
        rng = np.random.default_rng(7)
        a = rng.random((10, 10)) * (rng.random((10, 10)) < 0.3)
        ident = to_csr(enc(np.eye(10)))
        got = from_csr(multiply_sparse(ident, to_csr(EncodedMatrix(a))))
        assert np.array_equal(got.data, a)

    def test_p3_squared(self):
        c = to_csr(enc(P3_ENCODED))
        assert from_csr(multiply_sparse(c, c)).data.tolist() == P3_SQUARED

    def test_empty_row_annihilates(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        c = to_csr(EncodedMatrix(a))
        got = from_csr(multiply_sparse(c, c))
        assert got.data[0].tolist() == [0.0, 0.0]

    def test_vs_naive_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.15)
            want = multiply_naive(EncodedMatrix(a), EncodedMatrix(a)).data
            got = from_csr(multiply_sparse(to_csr(EncodedMatrix(a)), to_csr(EncodedMatrix(a))))
            np.testing.assert_allclose(got.data, want, rtol=1e-12)


class TestChooseKernel:
    def test_sparse_below_threshold(self):
        d = DensityReport(finite_count=86, n_squared=10000)
        assert choose_kernel(d, KernelChoice()) == "sparse"

    def test_dense_at_threshold_exactly(self):
        d = DensityReport(finite_count=1000, n_squared=10000)
        assert choose_kernel(d, KernelChoice()) == "dense_blocked"

    def test_dense_when_dense(self):
        d = DensityReport(finite_count=9900, n_squared=10000)
        assert choose_kernel(d, KernelChoice()) == "dense_blocked"

    def test_forced_kind(self):
        d = DensityReport(finite_count=1, n_squared=10000)
        assert choose_kernel(d, KernelChoice(kind="dense_blocked")) == "dense_blocked"

    def test_invalid_choice(self):
        with pytest.raises(ValueError):
            KernelChoice(threshold=0.0)
        with pytest.raises(ValueError):
            KernelChoice(kind="gpu")


class TestKernelAgreementAfterDecode:
    def test_decoded_distances_identical(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 17, 64, 128):
            m = random_dist_matrix(rng, n, max_weight=3, density=0.2)
            p = params_for(m)
            e = encode(m, p)
            want = decode(multiply_naive(e, e), p).data
            for got in (
                multiply_dense_blocked(e, e),
                multiply_strassen(e, e, cutoff=8),
                from_csr(multiply_sparse(to_csr(e), to_csr(e))),
            ):
                assert np.array_equal(decode(got, p).data, want)

    def test_decoded_distances_identical_larger_elements(self):
        # Strassen excluded: its subtractive recombination is only exact
        # while every partial sum stays below 2**53
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(20, 100))
            m = random_dist_matrix(rng, n, max_weight=9, density=0.04)
            p = params_for(m)
            e = encode(m, p)
            want = decode(multiply_naive(e, e), p).data
            assert np.array_equal(decode(multiply_dense_blocked(e, e), p).data, want)
            got = from_csr(multiply_sparse(to_csr(e), to_csr(e)))
            assert np.array_equal(decode(got, p).data, want)
