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
    base_for,
    decode_values,
    encode_table,
    largest_float32_x_tilde,
)
from minplus_apsp.matio import INF_SENTINEL
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


# codes of distance a are 2**(k*(x_tilde - a) - c), with c = 511 in float64
# and 63 in float32; P3 has n = 3, so base 8 and k = 3, and x_tilde = 1
P3_CODES = [
    [2.0**-508, 2.0**-511, 0], [2.0**-511, 2.0**-508, 2.0**-511], [0, 2.0**-511, 2.0**-508]
]
P3_CODES_32 = [[2.0**-60, 2.0**-63, 0], [2.0**-63, 2.0**-60, 2.0**-63], [0, 2.0**-63, 2.0**-60]]


class TestEncodeParams:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"base": 1, "x_tilde": 1}, "base must be >= 2, got 1"),
            ({"base": 0, "x_tilde": 1}, "base must be >= 2, got 0"),
            ({"base": 4, "x_tilde": -1}, "x_tilde must be >= 0, got -1"),
            ({"base": 4, "x_tilde": 1, "width": 16}, "width must be 32 or 64, got 16"),
            ({"base": 4, "x_tilde": 1, "width": 128}, "width must be 32 or 64, got 128"),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EncodeParams(**kwargs)


class TestEncode:
    def test_p3_worked_example(self, p3):
        assert params_for(p3) == EncodeParams(base=8, x_tilde=1)
        enc = encode(p3, params_for(p3))
        assert enc.data.tolist() == P3_CODES

    def test_single_node(self):
        m = DistMatrix.from_rows([[0]])
        enc = encode(m, EncodeParams(base=4, x_tilde=0))
        assert enc.data.tolist() == [[2.0**-511]]

    def test_two_node_weight_two(self):
        m = DistMatrix.from_rows([[0, 2], [2, 0]])
        enc = encode(m, EncodeParams(base=8, x_tilde=2))
        assert enc.data.tolist() == [[2.0**-505, 2.0**-511], [2.0**-511, 2.0**-505]]

    def test_width_32_dtype(self, p3):
        # width is the float type of the codes
        p = params_for(p3, width=32)
        assert p.dtype == np.float32 and params_for(p3).dtype == np.float64
        assert encode_table(p).dtype == np.float32
        out = encode(p3, p).data
        assert out.dtype == np.float32
        assert out.tolist() == P3_CODES_32

    def test_float32_codes_report_width_32(self, p3):
        enc = encode(p3, params_for(p3, width=32))
        assert enc.data.dtype == np.float32
        # the same powers of two, each width shifted by its own offset c
        wide = encode(p3, params_for(p3)).data
        assert (enc.data.astype(np.float64) * 2.0**63).tolist() == (wide * 2.0**511).tolist()

    def test_feasibility_error(self):
        # x_tilde 41 is the float32 limit at n = 2
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
        # x_tilde 1 at n = 2**23 fits the float32 exponent range, but its
        # rounding is outside the proof; a zero-strided n x n view stands in
        # for the input, so only encode itself could allocate
        n = 2**23
        p = EncodeParams(base=base_for(n), x_tilde=1, width=32)
        assert p.exponent_budget() < np.finfo(np.float32).maxexp
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

    @pytest.mark.parametrize("width, top", [(32, 2**23 - 1), (64, 2**52 - 1)])
    def test_rounding_bound_pins_n(self, width, top):
        # the rounding half of the proof (base * eps <= 2) admits x_tilde 1
        # at n = top and not even x_tilde 0 one node further, where the base
        # doubles; a table holds x_tilde + 2 codes, so neither side
        # allocates anything of size n
        assert EncodeParams(base=base_for(top), x_tilde=1, width=width).is_feasible()
        table = encode_table(EncodeParams(base=base_for(top), x_tilde=1, width=width))
        assert table.dtype == f"float{width}" and len(table) == 3
        p = EncodeParams(base=base_for(top + 1), x_tilde=0, width=width)
        assert p.exponent_budget() < np.finfo(p.dtype).maxexp
        assert not p.is_feasible()
        with pytest.raises(FeasibilityError, match="rounding"):
            encode_table(p)

    def test_largest_feasible_x_tilde(self):
        # base 4 (n = 1) admits x_tilde = 511, the most any encoding at
        # base_for(n) has; the int16 indices of encode and the relaxation's
        # int16 sentinel rely on that bound
        m = DistMatrix.from_rows([[0]])
        enc = encode(m, EncodeParams(base=4, x_tilde=511))
        assert enc.data.tolist() == [[2.0**511]]
        with pytest.raises(FeasibilityError):
            encode(m, EncodeParams(base=4, x_tilde=512))
        # every base_for(n) is 2**k with k >= 2
        for k in range(2, 64):
            for width in (32, 64):
                assert not EncodeParams(base=2**k, x_tilde=512, width=width).is_feasible()

    def test_base_is_the_power_of_two_above_2n(self):
        # base_for(n) is admitted, and encode refuses half of it (or any
        # other base) before it allocates: a zero-strided view is the input
        for n in range(1, 3001):
            b = base_for(n)
            assert b & (b - 1) == 0 and 2 * n < b <= 4 * n, n
            assert EncodeParams(base=b, x_tilde=1, width=32).is_feasible(), n
        for n in (1, 2, 3, 64, 1000, 10**6):
            view = DistMatrix._trusted(np.broadcast_to(0.0, (n, n)))
            for base in (base_for(n) // 2, 2 * base_for(n), n + 1):
                with pytest.raises(ValueError, match="base"):
                    encode(view, EncodeParams(base=base, x_tilde=0))
            if n <= 64:
                assert encode(view, EncodeParams(base=base_for(n), x_tilde=0)).n == n

    def test_base_not_a_power_of_two_refused(self):
        with pytest.raises(FeasibilityError, match="power of two"):
            encode_table(EncodeParams(base=7, x_tilde=1))

    def test_base_mismatch_rejected(self, p3):
        with pytest.raises(ValueError, match="base"):
            encode(p3, EncodeParams(base=7, x_tilde=1))

    def test_x_tilde_too_small_rejected(self, p3):
        with pytest.raises(ValueError, match="x_tilde"):
            encode(p3, EncodeParams(base=8, x_tilde=0))

    @pytest.mark.parametrize("width, c", [(32, 63), (64, 511)])
    def test_codes_by_definition(self, width, c):
        # inf maps to 0 and finite a to 2**(k*(x_tilde - a) - c), base 2**k:
        # at x_tilde 0, at the largest x_tilde the width admits at n = 3,
        # and at x_tilde 511, which only base 4 (n = 1) in float64 admits
        top = math.floor(precision_limits(3, width).safe_limit)
        cases = [
            (DistMatrix.from_rows([[0, INF], [INF, 0]]), 0),
            (DistMatrix.from_rows([[0, top, INF], [1, 0, top - 1], [INF, 2, 0]]), top),
        ]
        if width == 64:
            cases.append((DistMatrix.from_rows([[0]]), 511))
        for m, x in cases:
            p = EncodeParams(base=base_for(m.n), x_tilde=x, width=width)
            k = int(math.log2(p.base))
            enc = encode(m, p).data
            want = [[0.0 if a == INF else 2.0 ** (k * (x - a) - c) for a in row] for row in m.data]
            assert enc.dtype == f"float{width}"
            assert enc.astype(np.float64).tolist() == want, (m.n, x)

    def test_codes_by_definition_over_row_blocks(self):
        # n = 130: two full 64-row blocks and a partial one, in float32 at
        # the largest x_tilde the width admits and in float64
        rng = np.random.default_rng(47)
        n = 130
        for width, top in ((32, largest_float32_x_tilde(n)), (64, 40)):
            m = random_dist_matrix(rng, n, max_weight=top, density=0.3, directed=True)
            p = EncodeParams(base=base_for(n), x_tilde=max_finite(m), width=width)
            k, c = int(math.log2(p.base)), {32: 63, 64: 511}[width]
            a = m.data
            want = np.where(a == INF, 0.0, np.exp2(k * (p.x_tilde - np.minimum(a, p.x_tilde)) - c))
            enc = encode(m, p).data
            assert enc.dtype == f"float{width}" and enc.shape == (n, n)
            assert np.array_equal(enc.astype(np.float64), want), width

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
        # 2**-1016 + 2**-1022 + 0 on the diagonal corner, one witness
        # 2**-511 * 2**-511 for the two-hop pair: binary exponents -1016 and
        # -1022, and 2 * 1 - (e + 1022) // 3 gives 0 and 2
        assert sq.data[0, 0] == 2.0**-1016 + 2.0**-1022
        assert sq.data[0, 2] == 2.0**-1022
        dec = decode(sq, p)
        assert dec.data.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_zero_decodes_to_inf(self):
        p = EncodeParams(base=4, x_tilde=1)
        # -0.0 has the sign bit set, and decodes like 0.0
        prod = np.array([[2.0**-1018, 0.0], [-0.0, 2.0**-1018]])
        dec = decode(EncodedMatrix(prod), p)
        assert dec.data.tolist() == [[0, INF], [INF, 0]]
        # in float32 c = 63, so 2**-122 decodes to 2 - (-122 + 126) // 2 = 0
        prod32 = np.array([[2.0**-122, 0.0], [-0.0, 2.0**-122]], np.float32)
        dec32 = decode(EncodedMatrix(prod32), EncodeParams(base=4, x_tilde=1, width=32))
        assert dec32.data.tolist() == [[0, INF], [INF, 0]]

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

    def test_decode_values_into_out(self):
        # base 4: k = 2, so exponent e decodes to 2 - (e + 1022) // 2; 0
        # decodes to UNREACHABLE16 in int16, which decode casts to inf
        p = EncodeParams(base=4, x_tilde=1)
        vals = np.array([2.0**-1018, 2.0**-1022, 2.0**-1020 + 2.0**-1021, 0.0])
        out = np.empty(4, np.int16)
        assert decode_values(vals, p, out=out) is out
        assert out.tolist() == [0, 2, 1, codec.UNREACHABLE16]
        assert decode_values(vals, p).dtype == np.int16
        dec = decode(EncodedMatrix(vals.reshape(2, 2)), p)
        assert dec.data.reshape(-1).tolist() == [0, 2, 1, INF]

    @pytest.mark.parametrize("where", ["sentinels", "none"])
    @pytest.mark.parametrize(
        "src, dst, sentinel, to",
        [
            ("int16", "uint8", codec.UNREACHABLE16, 250),
            ("uint8", "int16", 250, codec.UNREACHABLE16),
            ("int16", "float64", codec.UNREACHABLE16, INF),
            ("uint8", "float64", 250, INF),
            ("uint64", "float64", INF_SENTINEL, INF),
        ],
        ids=["int16-uint8", "uint8-int16", "int16-float64", "uint8-float64", "uint64-float64"],
    )
    def test_recast_by_definition_over_row_blocks(self, src, dst, sentinel, to, where):
        # n = 200: blocks of rows 0-63, 64-127, 128-191 and 192-199; the
        # sentinel, when there is one, in the third block and the last
        rng = np.random.default_rng(48)
        n = 200
        a = rng.integers(0, 50, (n, n)).astype(src)
        if where == "sentinels":
            a[130, 7] = a[199, 198] = a[150:160, 20:30] = sentinel
        want = a.astype(dst)
        want[a == sentinel] = to
        out = np.empty((n, n), dst)
        assert codec.recast(a, out, sentinel, to) is out
        assert np.array_equal(out, want)
        assert np.count_nonzero(out == to) == (102 if where == "sentinels" else 0)
        if src == "int16" and dst == "float64":
            # decode recasts its int16 distances so: a float64 product whose
            # entries decode to a, 0 where a holds the sentinel
            p = EncodeParams(base=base_for(n), x_tilde=25, width=64)
            k = p.base.bit_length() - 1
            exps = k * (2 * p.x_tilde - a.astype(np.int64)) - 2 * codec._OFFSET[64]
            prod = np.where(a == sentinel, 0.0, np.ldexp(1.0, exps))
            assert np.array_equal(decode_values(prod, p), a)
            got = decode(EncodedMatrix(prod), p).data
            assert got.dtype == np.float64 and np.array_equal(got, want)


class TestDecodeExactAtLargeN:
    """c tied witnesses at distance d give the product entry c * 2**E, the
    largest sum a product entry with largest term 2**E can reach when
    c = n. A width of 32 checks float32 products up to the float32 limit,
    64 float64 products up to the float64 one. TestFloat32Exact runs the
    sums through BLAS."""

    def test_n_tied_witnesses_width_32(self):
        # float32 is proven at every n below 2**23; x_tilde 2 fits each
        for n in (11_000, 20_000, 100_000):
            p = EncodeParams(base=base_for(n), x_tilde=2, width=32)
            assert p.is_feasible()
            code = encode_table(p)
            prod = np.array([[code[0] ** 2, n * code[1] ** 2], [0, code[0] ** 2]], np.float32)
            assert decode(EncodedMatrix(prod), p).data[0, 1] == 2

    @pytest.mark.parametrize("cap", [32, 64])
    @pytest.mark.parametrize("n", [10, 1000, 11_000, 20_000, 100_000, 10**6])
    def test_witness_counts(self, n, cap):
        top = math.floor(precision_limits(n, cap).safe_limit)
        assert top >= 1
        for x in sorted({1, 2, top} & set(range(1, top + 1))):
            p = EncodeParams(base=base_for(n), x_tilde=x, width=cap)
            # the factors as encode stores them, multiplied and summed in
            # p.dtype, as the kernels do
            code = encode_table(p)[:-1]
            entries, expected = [], []
            for d in range(2 * x + 1):
                a = min(d, x)
                term = code[a] * code[d - a]
                for c in (n, n - 1, 1):
                    entries.append(p.dtype.type(c) * term)
                    expected.append(d)
            k = len(entries) + 1
            prod = np.zeros((k, k), p.dtype)
            np.fill_diagonal(prod, code[0] ** 2)
            prod[0, 1:] = entries
            dec = decode(EncodedMatrix(prod), p)
            assert dec.data[0, 1:].tolist() == expected, (n, cap, x)


def _largest_float32_n() -> int:
    # base_for(n) doubles only where n reaches a power of two
    for j in range(64):
        if not EncodeParams(base=base_for(2**j), x_tilde=0, width=32).is_feasible():
            assert EncodeParams(base=base_for(2**j - 1), x_tilde=0, width=32).is_feasible()
            return 2**j - 1
    raise AssertionError("float32 proven at every n below 2**63")


def _tied_witness_cases(n: int, x: int) -> np.ndarray:
    """Rows of distances, three for each a in (0, 1, x // 2, x - 1, x): n
    entries a (n tied witnesses), n - 1 entries a and one a + 1 (a near
    tie; unreachable when a = x), and a single entry a with the rest
    unreachable. Row i times row j (as a column) has up to n tied witnesses
    at a_i + a_j, and near ties one term one step lighter."""
    rows = []
    for a in sorted({0, 1, x // 2, x - 1, x} & set(range(x + 1))):
        tie = np.full(n, float(a), np.float32)
        near = tie.copy()
        near[-1] = a + 1 if a < x else INF
        single = np.full(n, INF, np.float32)
        single[0] = a
        rows += [tie, near, single]
    return np.array(rows)


def _product(d: np.ndarray, p: EncodeParams) -> np.ndarray:
    """d times d.T through BLAS on codes of p.dtype, as a dense epoch runs it."""
    idx = np.minimum(d, p.x_tilde + 1, out=np.empty(d.shape, np.int16), casting="unsafe")
    codes = encode_table(p)[idx]
    return codes @ codes.T


def _minplus(d: np.ndarray) -> np.ndarray:
    """min over k of d[i, k] + d[j, k], straight from the definition."""
    return np.array([[np.min(di + dj) for dj in d] for di in d])


class TestFloat32Exact:
    """A product is decoded only where EncodeParams.is_feasible proves its
    width exact; there every tied-witness product decodes to the min-plus
    definition."""

    def test_bound_admits_route1600_and_sf6000_not_wsf1600(self):
        assert _largest_float32_n() == 2**23 - 1
        assert largest_float32_x_tilde(1600) == 10
        assert largest_float32_x_tilde(2880) == 9
        assert largest_float32_x_tilde(8508) == 7
        assert largest_float32_x_tilde(1) == 63
        # route1600's dense epoch runs at x_tilde 2, sf6000's at 4;
        # wsf1600's at 29..36
        assert EncodeParams(base=base_for(1600), x_tilde=2, width=32).is_feasible()
        assert EncodeParams(base=base_for(6000), x_tilde=4, width=32).is_feasible()
        assert not EncodeParams(base=base_for(1600), x_tilde=29, width=32).is_feasible()
        for n in (2**23, 2**24, 10**23):
            assert largest_float32_x_tilde(n) is None, n

    def test_next_n_and_next_x_tilde_route_to_float64(self):
        big = _largest_float32_n()
        for n in (1600, big):
            top = largest_float32_x_tilde(n)
            assert EncodeParams(base=base_for(n), x_tilde=top, width=32).is_feasible()
            assert not EncodeParams(base=base_for(n), x_tilde=top + 1, width=32).is_feasible()
        assert largest_float32_x_tilde(big + 1) is None
        assert EncodeParams(base=base_for(big + 1), x_tilde=1).is_feasible()

    def test_largest_x_tilde_is_the_32_bit_safe_limit(self):
        # float32 is admitted exactly up to the 32-bit safe limit
        for n in [*range(1, 3001), 8508, 10**4, 10**5, 10**6, 2**23 - 1]:
            top = largest_float32_x_tilde(n)
            assert top == math.floor(precision_limits(n, 32).safe_limit), n
        assert largest_float32_x_tilde(2**23) is None

    # x_tilde 2 at n = 1600 is route1600's dense epoch, x_tilde 4 at
    # n = 6000 sf6000's; each n runs in both widths, from x_tilde 1 to the
    # width's limit
    @pytest.mark.parametrize(
        "n", [1600, 2880, 3000, 6000, 10_000, 10**6], ids=lambda n: str(n)
    )
    def test_tied_witnesses_decode_exactly(self, n):
        for width in (32, 64):
            top = math.floor(precision_limits(n, width).safe_limit)
            for x in (1, top):
                p = EncodeParams(base=base_for(n), x_tilde=x, width=width)
                d = _tied_witness_cases(n, x)
                prod = _product(d, p)
                assert prod.dtype == p.dtype
                assert np.array_equal(decode_values(prod, p), _minplus(d)), (n, width, x)

    def test_product_of_another_dtype_refused(self):
        # a product decodes only under the width it was multiplied in: the
        # float32 offset c is not float64's
        n, x = 1600, 2
        p32 = EncodeParams(base=base_for(n), x_tilde=x, width=32)
        p64 = EncodeParams(base=base_for(n), x_tilde=x)
        d = _tied_witness_cases(n, x)
        prod = _product(d, p32)
        assert np.array_equal(decode_values(prod, p32), _minplus(d))
        with pytest.raises(DecodeError, match="float32 product decoded with float64"):
            decode_values(prod, p64)
        with pytest.raises(DecodeError, match="float64 product decoded with float32"):
            decode_values(_product(d, p64), p32)

    @pytest.mark.parametrize("width", [32, 64])
    def test_decodes_into_int16(self, width):
        # the solver decodes every product into int16 distances, with the
        # sentinel for unreachable, over more than two decode chunks
        n, x = 400, 3
        assert n * n > 2 * codec._DECODE_CHUNK
        p = EncodeParams(base=base_for(n), x_tilde=x, width=width)
        rng = np.random.default_rng(5)
        d = rng.integers(0, x + 1, (n, n)).astype(float)
        d[rng.random((n, n)) < 0.5] = INF
        # a few rows no column reaches: their product entries are 0
        d[:3] = INF
        prod = _product(d, p)
        want = _minplus(d)
        assert (prod == 0).any() and np.array_equal(prod == 0, want == INF)
        out = np.empty((n, n), np.int16)
        assert decode_values(prod, p, out=out) is out
        assert np.array_equal(out, np.where(want == INF, codec.UNREACHABLE16, want))

    def test_float32_product_outside_the_bound_refused(self):
        p = EncodeParams(base=base_for(1600), x_tilde=11, width=32)
        with pytest.raises(DecodeError, match="float32"):
            decode_values(np.ones((2, 2), np.float32), p)
        p = EncodeParams(base=base_for(2**23), x_tilde=1, width=32)
        with pytest.raises(DecodeError, match="float32"):
            decode_values(np.ones(2, np.float32), p)
        # and float64 one node above its rounding bound
        with pytest.raises(DecodeError, match="float64"):
            decode_values(np.ones(2), EncodeParams(base=base_for(2**52), x_tilde=1))


def _parent_x_tilde(n: int, width: int) -> int | None:
    """Largest x_tilde that Alon's base n + 1 with a half-gap log decode
    admitted: 2 * x * log2(n + 1) + log2(n) within EMAX, at n up to that
    proof's rounding bound (2880 in float32, 66 772 474 in float64)."""
    if n > (2880 if width == 32 else 66_772_474):
        return None
    return math.floor((EMAX[width] - math.log2(n)) / (2 * math.log2(n + 1)))


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
        # x_tilde that encode admits
        for n in [*range(1, 3001), 8508, 10**4, 10**5, 10**6]:
            top = math.floor(precision_limits(n, width).safe_limit)
            assert EncodeParams(base=base_for(n), x_tilde=top, width=width).is_feasible(), n
            refused = EncodeParams(base=base_for(n), x_tilde=top + 1, width=width)
            assert not refused.is_feasible(), n

    @pytest.mark.parametrize("width", [32, 64])
    def test_parent_ceilings_still_admitted(self, width):
        # every x_tilde the base-(n + 1) encoding admitted at n >= 2 is
        # admitted by the power-of-two base (n = 1 goes from 512 to 511 in
        # float64, where x_tilde is always 0)
        for n in [*range(2, 20_001), 10**5, 10**6, 10**7]:
            old = _parent_x_tilde(n, width)
            if old is not None:
                assert EncodeParams(base=base_for(n), x_tilde=old, width=width).is_feasible(), n

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            precision_limits(0, 64)
        with pytest.raises(ValueError):
            precision_limits(10, 16)
