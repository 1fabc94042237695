import math
import tracemalloc

import numpy as np
import pytest

from minplus_apsp import (
    EMAX,
    INF,
    DistMatrix,
    EncodedMatrix,
    EncodeParams,
    FeasibilityError,
    NegativeEntryError,
    NonFiniteEntryError,
    decode,
    encode,
    max_finite,
    multiply_dense,
    params_for,
    precision_limits,
)
from minplus_apsp import codec
from minplus_apsp.codec import (
    DecodeError,
    decode_values,
    encode_table,
    largest_float32_x_tilde,
)
from conftest import minplus_square, random_dist_matrix


class TestMaxFinite:
    def test_path_graph(self, p3):
        assert max_finite(p3) == 1

    def test_single_node(self):
        assert max_finite(DistMatrix.from_rows([[0]])) == 0

    def test_all_unreachable_off_diagonal(self):
        m = DistMatrix.from_rows([[0, INF], [INF, 0]])
        assert max_finite(m) == 0

    def test_weighted(self):
        m = DistMatrix.from_rows([[0, 8], [8, 0]])
        assert max_finite(m) == 8


class TestEncode:
    def test_p3_worked_example(self, p3):
        enc = encode(p3, params_for(p3))
        assert enc.data.tolist() == [[4, 1, 0], [1, 4, 1], [0, 1, 4]]

    def test_single_node(self):
        m = DistMatrix.from_rows([[0]])
        enc = encode(m, EncodeParams(base=2, x_tilde=0))
        assert enc.data.tolist() == [[1.0]]

    def test_two_node_weight_two(self):
        m = DistMatrix.from_rows([[0, 2], [2, 0]])
        enc = encode(m, EncodeParams(base=3, x_tilde=2))
        assert enc.data.tolist() == [[9, 1], [1, 9]]

    def test_width_32_dtype(self, p3):
        # width is the float type of the codes
        p = params_for(p3, width=32)
        assert p.dtype == np.float32 and params_for(p3).dtype == np.float64
        assert encode_table(p).dtype == np.float32
        out = np.empty((3, 3), np.float32)
        assert encode(p3, p, out=out).data is out
        assert out.tolist() == [[4, 1, 0], [1, 4, 1], [0, 1, 4]]

    def test_float32_codes_report_width_32(self, p3):
        enc = encode(p3, params_for(p3, width=32))
        assert enc.data.dtype == np.float32
        assert enc.width == 32
        assert enc.data.tolist() == encode(p3, params_for(p3)).data.tolist()

    def test_feasibility_error(self):
        m = DistMatrix.from_rows([[0, 45], [45, 0]])
        with pytest.raises(FeasibilityError):
            encode(m, params_for(m, width=32))

    def test_feasibility_guard_cannot_be_switched_off(self):
        m = DistMatrix.from_rows([[0, 100], [100, 0]])
        with pytest.raises(TypeError):
            encode(m, params_for(m), enforce=False)

    def test_guard_cannot_be_bypassed_through_float32(self):
        # the float type is p.width, so no argument can pair float32 codes
        # with a p proven only for float64
        m = DistMatrix.from_rows([[0, 100], [100, 0]])
        with pytest.raises(TypeError):
            encode(m, params_for(m), np.float32)
        with pytest.raises(TypeError):
            encode_table(params_for(m), np.float32)
        with pytest.raises(FeasibilityError, match="exponent"):
            encode(m, params_for(m, width=32))
        # x_tilde 1 at n = 2881 fits the float32 exponent range, but its
        # rounding is outside the proof; a zero-strided n x n view stands in
        # for the input, so only encode itself could allocate
        n = 2881
        p = EncodeParams(base=n + 1, x_tilde=1, width=32)
        assert p.exponent_budget() < EMAX[32]
        view = DistMatrix._trusted(np.broadcast_to(0.0, (n, n)))
        tracemalloc.start()
        try:
            with pytest.raises(FeasibilityError, match="rounding"):
                encode_table(p)
            with pytest.raises(FeasibilityError, match="rounding"):
                encode(view, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("width, top", [(32, 2880), (64, 66_772_474)])
    def test_rounding_bound_pins_n(self, width, top):
        # the rounding half of the proof admits x_tilde 1 at n = top and not
        # even x_tilde 0 one node further; a table holds x_tilde + 2 codes,
        # so neither side allocates anything of size n
        assert EncodeParams(base=top + 1, x_tilde=1, width=width).is_feasible()
        table = encode_table(EncodeParams(base=top + 1, x_tilde=1, width=width))
        assert table.dtype == f"float{width}" and len(table) == 3
        p = EncodeParams(base=top + 2, x_tilde=0, width=width)
        assert p.exponent_budget() < EMAX[width]
        assert not p.is_feasible()
        with pytest.raises(FeasibilityError, match="rounding"):
            encode_table(p)

    def test_largest_feasible_x_tilde(self):
        # base 2 admits x_tilde = 512, the most any feasible encoding has
        m = DistMatrix.from_rows([[0]])
        enc = encode(m, EncodeParams(base=2, x_tilde=512))
        assert enc.data.tolist() == [[2.0**512]]
        with pytest.raises(FeasibilityError):
            encode(m, EncodeParams(base=2, x_tilde=513))

    def test_base_mismatch_rejected(self, p3):
        with pytest.raises(ValueError, match="base"):
            encode(p3, EncodeParams(base=7, x_tilde=1))

    def test_x_tilde_too_small_rejected(self, p3):
        with pytest.raises(ValueError, match="x_tilde"):
            encode(p3, EncodeParams(base=4, x_tilde=0))

    def test_antitone(self):
        m = DistMatrix.from_rows([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        enc = encode(m, params_for(m))
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    if m.data[i, j] < m.data[i, k]:
                        assert enc.data[i, j] > enc.data[i, k]


class TestDecode:
    def test_p3_squared_worked_example(self, p3):
        p = params_for(p3)
        sq = multiply_dense(encode(p3, p), encode(p3, p))
        # 4*4 + 1*1 + 0*0 = 17 on the diagonal corner, 4*0 + 1*1 + 0*4 = 1
        # for the two-hop pair
        assert sq.data[0, 0] == 17
        assert sq.data[0, 2] == 1
        dec = decode(sq, p)
        assert dec.data.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_zero_decodes_to_inf(self):
        p = EncodeParams(base=4, x_tilde=1)
        dec = decode(EncodedMatrix(np.array([[17.0, 0.0], [0.0, 17.0]])), p)
        assert dec.data[0, 1] == INF

    def test_negative_entry_raises(self):
        p = EncodeParams(base=4, x_tilde=1)
        bad = EncodedMatrix(np.array([[17.0, -1.0], [1.0, 17.0]]))
        with pytest.raises(NegativeEntryError):
            decode(bad, p)

    def test_non_finite_entry_raises(self):
        p = EncodeParams(base=4, x_tilde=1)
        bad = EncodedMatrix(np.array([[17.0, np.inf], [1.0, 17.0]]))
        with pytest.raises(NonFiniteEntryError):
            decode(bad, p)

    def test_round_trip_via_minplus_identity(self):
        rng = np.random.default_rng(17)
        for n in (2, 5, 12, 30):
            m = random_dist_matrix(rng, n)
            p = params_for(m)
            ident = DistMatrix(np.where(np.eye(n, dtype=bool), 0.0, INF))
            prod = multiply_dense(encode(m, p), encode(ident, p))
            assert np.array_equal(decode(prod, p).data, m.data)

    def test_random_against_direct_minplus_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            m = random_dist_matrix(rng, n, directed=bool(rng.integers(2)))
            p = params_for(m)
            prod = multiply_dense(encode(m, p), encode(m, p))
            assert np.array_equal(decode(prod, p).data, minplus_square(m).data)

    def test_width_32_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = random_dist_matrix(rng, 8, max_weight=2)
            p = params_for(m, width=32)
            prod = multiply_dense(encode(m, p), encode(m, p))
            assert prod.data.dtype == np.float32
            assert np.array_equal(decode(prod, p).data, minplus_square(m).data)

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(29)
        for width in (32, 64):
            m = random_dist_matrix(rng, 25, directed=True)
            p = params_for(m, width=width)
            prod = multiply_dense(encode(m, p), encode(m, p))
            before = prod.data.copy()
            decode(prod, p)
            assert prod.data.dtype == before.dtype
            assert prod.data.tobytes() == before.tobytes()

    def test_nan_raises(self):
        p = EncodeParams(base=4, x_tilde=1)
        bad = EncodedMatrix(np.array([[17.0, np.nan], [1.0, 17.0]]))
        with pytest.raises(NonFiniteEntryError):
            decode(bad, p)

    def test_decode_values_in_place(self):
        p = EncodeParams(base=4, x_tilde=1)
        vals = np.array([17.0, 1.0, 4.0, 0.0])
        out = decode_values(vals, p, out=vals)
        assert out is vals
        assert vals.tolist() == [0.0, 2.0, 1.0, INF]


class TestDecodeExactAtLargeN:
    """c tied witnesses at distance d give the product entry c * base**(2x - d),
    which lies log_base((n+1)/n) below the next power of base when c = n.

    These products are float64, decoded under the half-gap guard; a cap of
    32 checks x_tilde up to the 32-bit exponent cap, a cap of 64 up to the
    64-bit one. TestFloat32Exact covers float32 products.
    """

    def test_n_tied_witnesses_width_32(self):
        # above n = 2880 the proof refuses float32 at every x_tilde, and the
        # x_tilde of the 32-bit exponent cap decodes in float64
        for n in (11_000, 20_000, 100_000):
            assert not EncodeParams(base=n + 1, x_tilde=0, width=32).is_feasible()
            p = EncodeParams(base=n + 1, x_tilde=2)
            assert p.exponent_budget() <= EMAX[32]
            b = float(p.base)
            prod = np.array([[b**4, n * b**2], [0.0, b**4]])
            assert decode(EncodedMatrix(prod), p).data[0, 1] == 2

    @pytest.mark.parametrize("cap", [32, 64])
    @pytest.mark.parametrize("n", [10, 1000, 11_000, 20_000, 100_000, 10**6])
    def test_witness_counts(self, n, cap):
        top = math.floor(precision_limits(n, cap).safe_limit)
        assert top >= 1
        for x in sorted({1, 2, top} & set(range(1, top + 1))):
            p = EncodeParams(base=n + 1, x_tilde=x)
            # the factors as encode stores them, multiplied and summed in
            # float64, as the kernels do
            powers = float(p.base) ** np.arange(x + 1, dtype=np.float64)
            entries, expected = [], []
            for d in range(2 * x + 1):
                a = min(d, x)
                term = float(powers[x - a]) * float(powers[x - (d - a)])
                for c in (n, n - 1, 1):
                    entries.append(c * term)
                    expected.append(d)
            k = len(entries) + 1
            prod = np.zeros((k, k))
            np.fill_diagonal(prod, float(powers[x]) ** 2)
            prod[0, 1:] = entries
            dec = decode(EncodedMatrix(prod), p)
            assert dec.data[0, 1:].tolist() == expected, (n, cap, x)


def _largest_float32_n(limit: int = 10**4) -> int:
    for n in range(1, limit):
        if not EncodeParams(base=n + 2, x_tilde=0, width=32).is_feasible():
            return n
    raise AssertionError(f"float32 proven at every n below {limit}")


def _tied_witness_cases(n: int, x: int) -> np.ndarray:
    """Rows of distances, one per (a, c): c entries a, the rest unreachable,
    for every a in 0..x and c in (n, n - 1, 1). Row i times row j (as a
    column) has min(c_i, c_j) tied witnesses at a_i + a_j."""
    rows = []
    for a in range(x + 1):
        for c in (n, n - 1, 1):
            row = np.full(n, INF)
            row[:c] = a
            rows.append(row)
    return np.array(rows)


def _product(d: np.ndarray, p: EncodeParams) -> np.ndarray:
    """d times d.T through BLAS on codes of p.dtype, as a dense epoch runs it."""
    codes = encode_table(p)[np.minimum(d, p.x_tilde + 1).astype(np.int16)]
    return codes @ codes.T


def _minplus(d: np.ndarray) -> np.ndarray:
    """min over k of d[i, k] + d[j, k], straight from the definition."""
    return np.min(d[:, None, :] + d[None, :, :], axis=2)


class TestFloat32Exact:
    """A product is decoded only where EncodeParams.is_feasible proves its
    width exact; there every tied-witness product decodes to the min-plus
    definition."""

    def test_bound_admits_route1600_not_wsf1600_or_sf6000(self):
        assert _largest_float32_n() == 2880
        assert largest_float32_x_tilde(1600) == 5
        assert largest_float32_x_tilde(2880) == 5
        assert largest_float32_x_tilde(1) == 63
        # wsf1600's dense epochs run at x_tilde 29..36; sf6000 is above the n bound
        assert not EncodeParams(base=1601, x_tilde=29, width=32).is_feasible()
        for n in (6000, 2**23, 2**24, 10**23):
            assert largest_float32_x_tilde(n) is None, n

    def test_next_n_and_next_x_tilde_route_to_float64(self):
        big = _largest_float32_n()
        for n in (1600, big):
            top = largest_float32_x_tilde(n)
            assert EncodeParams(base=n + 1, x_tilde=top, width=32).is_feasible()
            assert not EncodeParams(base=n + 1, x_tilde=top + 1, width=32).is_feasible()
        assert largest_float32_x_tilde(big + 1) is None

    def test_largest_x_tilde_is_the_32_bit_safe_limit(self):
        # the paper's 32-bit diameter limit acts only here: up to the n
        # bound, float32 is admitted exactly up to the safe limit
        for n in range(1, 2881):
            top = largest_float32_x_tilde(n)
            assert top == math.floor(precision_limits(n, 32).safe_limit), n
        assert largest_float32_x_tilde(2881) is None

    # each n at the width a dense epoch picks there; x_tilde 4 at n = 6000
    # is sf6000's dense epoch
    @pytest.mark.parametrize(
        "n, width",
        [(1600, 32), (2880, 32), (3000, 64), (6000, 64), (10_000, 64)],
        ids=["1600", "2880", "3000", "6000", "10000"],
    )
    def test_tied_witnesses_decode_exactly(self, n, width):
        assert EncodeParams(base=n + 1, x_tilde=1, width=32).is_feasible() == (width == 32)
        for x in (1, largest_float32_x_tilde(n)) if width == 32 else (1, 4):
            p = EncodeParams(base=n + 1, x_tilde=x, width=width)
            d = _tied_witness_cases(n, x)
            prod = _product(d, p)
            assert prod.dtype == p.dtype
            assert np.array_equal(decode_values(prod, p), _minplus(d)), (n, x)

    def test_product_of_another_dtype_refused(self):
        # a product decodes only under the width it was multiplied in: a
        # float32 product's rounding is far outside the float64 proof
        n, x = 1600, 2
        p32 = EncodeParams(base=n + 1, x_tilde=x, width=32)
        p64 = EncodeParams(base=n + 1, x_tilde=x)
        d = _tied_witness_cases(n, x)
        prod = _product(d, p32)
        assert np.array_equal(decode_values(prod, p32), _minplus(d))
        with pytest.raises(DecodeError, match="float32 product decoded with float64"):
            decode_values(prod, p64)
        with pytest.raises(DecodeError, match="float64 product decoded with float32"):
            decode_values(_product(d, p64), p32)

    def test_decodes_into_the_float64_array_behind_it(self):
        # the solver's float32 epoch keeps its product in the second half of
        # the bytes of the float64 array the distances are decoded into
        n, x = 400, 3
        assert n * n > 2 * codec._DECODE_CHUNK
        p = EncodeParams(base=n + 1, x_tilde=x, width=32)
        rng = np.random.default_rng(5)
        d = rng.integers(0, x + 1, (n, n)).astype(float)
        d[rng.random((n, n)) < 0.5] = INF
        buf = np.empty((n, n))
        halves = buf.reshape(-1).view(np.float32).reshape(2, n, n)
        halves[1] = _product(d, p)
        assert decode_values(halves[1], p, out=buf) is buf
        assert np.array_equal(buf, [np.min(d[i] + d, axis=1) for i in range(n)])

    def test_float32_product_outside_the_bound_refused(self):
        p = EncodeParams(base=1601, x_tilde=6, width=32)
        with pytest.raises(DecodeError, match="float32"):
            decode_values(np.ones((2, 2), np.float32), p)
        with pytest.raises(DecodeError, match="float32"):
            decode_values(np.ones(2, np.float32), EncodeParams(base=3000, x_tilde=1, width=32))
        # and float64 one node above its rounding bound
        with pytest.raises(DecodeError, match="float64"):
            decode_values(np.ones(2), EncodeParams(base=66_772_476, x_tilde=1))


class TestPrecisionLimits:
    def test_actors_network_limits(self):
        assert precision_limits(8508, 32).paper_limit == pytest.approx(9.8, abs=0.05)
        assert precision_limits(8508, 64).paper_limit == pytest.approx(78.4, abs=0.05)

    def test_published_rows(self):
        assert precision_limits(10, 64).paper_limit == pytest.approx(296.0, abs=0.1)
        assert precision_limits(1, 32).paper_limit == pytest.approx(127.9, abs=0.1)
        assert precision_limits(1, 64).paper_limit == pytest.approx(1024.0, abs=0.1)

    def test_large_row_in_log_space(self):
        lim = precision_limits(10**23, 64)
        assert lim.paper_limit == pytest.approx(1024.0 / math.log2(10**23 + 1), rel=1e-12)
        assert lim.paper_limit == pytest.approx(13.4, abs=0.1)

    def test_safe_below_paper_and_decreasing(self):
        prev_paper, prev_safe = math.inf, math.inf
        for n in (1, 10, 1000, 10**8):
            lim = precision_limits(n, 64)
            assert lim.safe_limit < lim.paper_limit
            assert lim.paper_limit < prev_paper and lim.safe_limit < prev_safe
            prev_paper, prev_safe = lim.paper_limit, lim.safe_limit

    @pytest.mark.parametrize("width", [32, 64])
    def test_safe_limit_is_the_encode_guard(self, width):
        # check's verdict (D <= safe_limit) and encode's refusal of x_tilde
        # agree at every integer diameter: floor(safe_limit) is the largest
        # x_tilde that encode admits, at every n the width's rounding bound
        # admits (2880 in float32, 66 772 474 in float64)
        ns = range(1, 2881) if width == 32 else [*range(1, 3001), 8508, 10**4, 10**5, 10**6]
        for n in ns:
            top = math.floor(precision_limits(n, width).safe_limit)
            assert EncodeParams(base=n + 1, x_tilde=top, width=width).is_feasible(), n
            assert not EncodeParams(base=n + 1, x_tilde=top + 1, width=width).is_feasible(), n

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            precision_limits(0, 64)
        with pytest.raises(ValueError):
            precision_limits(10, 16)
