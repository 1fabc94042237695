import math

import numpy as np
import pytest

from minplus_apsp import (
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
    float32_exact,
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
        # width caps the exponent budget only: the encoding is the same float64
        enc = encode(p3, params_for(p3, width=32))
        assert enc.data.dtype == np.float64
        assert enc.width == 64
        assert enc.data.tobytes() == encode(p3, params_for(p3)).data.tobytes()

    def test_float32_codes_report_width_32(self, p3):
        p = params_for(p3)
        enc = encode(p3, p, np.float32)
        assert enc.data.dtype == np.float32
        assert enc.width == 32
        assert enc.data.tolist() == encode(p3, p).data.tolist()

    def test_feasibility_error(self):
        m = DistMatrix.from_rows([[0, 45], [45, 0]])
        with pytest.raises(FeasibilityError):
            encode(m, params_for(m, width=32))

    def test_feasibility_guard_cannot_be_switched_off(self):
        m = DistMatrix.from_rows([[0, 100], [100, 0]])
        with pytest.raises(TypeError):
            encode(m, params_for(m), enforce=False)

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


def _largest_feasible_x_tilde(n: int, width: int) -> int:
    x = 0
    while EncodeParams(base=n + 1, x_tilde=x + 1, width=width).is_feasible():
        x += 1
    return x


class TestDecodeExactAtLargeN:
    """c tied witnesses at distance d give the product entry c * base**(2x - d),
    which lies log_base((n+1)/n) below the next power of base when c = n.

    These products are float64 (width caps only the exponent); the width-32
    cases check x_tilde up to the 32-bit cap. TestFloat32Exact covers float32
    products.
    """

    def test_n_tied_witnesses_width_32(self):
        for n in (11_000, 20_000, 100_000):
            p = EncodeParams(base=n + 1, x_tilde=2, width=32)
            assert p.is_feasible()
            b = float(p.base)
            prod = np.array([[b**4, n * b**2], [0.0, b**4]])
            assert decode(EncodedMatrix(prod), p).data[0, 1] == 2

    @pytest.mark.parametrize("width", [32, 64])
    @pytest.mark.parametrize("n", [10, 1000, 11_000, 20_000, 100_000, 10**6])
    def test_witness_counts(self, n, width):
        top = _largest_feasible_x_tilde(n, width)
        assert top >= 1
        for x in sorted({1, 2, top} & set(range(1, top + 1))):
            p = EncodeParams(base=n + 1, x_tilde=x, width=width)
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
            assert dec.data[0, 1:].tolist() == expected, (n, width, x)


def _largest_float32_n() -> int:
    n = 1
    while float32_exact(EncodeParams(base=n + 2, x_tilde=0)):
        n += 1
    return n


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


def _float32_product(d: np.ndarray, p: EncodeParams) -> np.ndarray:
    """d times d.T through float32 codes, as a dense float32 epoch runs it."""
    codes = encode_table(p, np.float32)[np.minimum(d, p.x_tilde + 1).astype(np.int16)]
    return codes @ codes.T


def _minplus(d: np.ndarray) -> np.ndarray:
    """min over k of d[i, k] + d[j, k], straight from the definition."""
    return np.min(d[:, None, :] + d[None, :, :], axis=2)


class TestFloat32Exact:
    """A float32 product is decoded only where float32_exact admits it; there
    every tied-witness product decodes to the min-plus definition."""

    def test_bound_admits_route1600_not_wsf1600_or_sf6000(self):
        assert _largest_float32_n() == 2880
        assert largest_float32_x_tilde(1600) == 5
        assert largest_float32_x_tilde(2880) == 5
        assert largest_float32_x_tilde(1) == 63
        # wsf1600's dense epochs run at x_tilde 29..36; sf6000 is above the n bound
        assert not float32_exact(EncodeParams(base=1601, x_tilde=29))
        for n in (6000, 2**23, 2**24, 10**23):
            assert largest_float32_x_tilde(n) is None, n

    def test_next_n_and_next_x_tilde_route_to_float64(self):
        big = _largest_float32_n()
        for n in (1600, big):
            top = largest_float32_x_tilde(n)
            assert float32_exact(EncodeParams(base=n + 1, x_tilde=top))
            assert not float32_exact(EncodeParams(base=n + 1, x_tilde=top + 1))
        assert largest_float32_x_tilde(big + 1) is None

    def test_largest_x_tilde_is_the_32_bit_safe_limit(self):
        # the paper's 32-bit diameter limit acts only here: up to the n
        # bound, float32 is admitted exactly up to the safe limit
        for n in range(1, 2881):
            top = largest_float32_x_tilde(n)
            assert top == math.floor(precision_limits(n, 32).safe_limit), n
        assert largest_float32_x_tilde(2881) is None

    @pytest.mark.parametrize("n", [1600, _largest_float32_n()])
    def test_tied_witnesses_decode_exactly(self, n):
        for x in (1, largest_float32_x_tilde(n)):
            p = EncodeParams(base=n + 1, x_tilde=x)
            d = _tied_witness_cases(n, x)
            prod = _float32_product(d, p)
            assert prod.dtype == np.float32
            assert np.array_equal(decode_values(prod, p), _minplus(d)), (n, x)

    def test_float64_guard_misreads_a_float32_product(self):
        # pins the guard choice: the float32 code of distance 0 at x_tilde=2,
        # n=1600, squared and rounded to float32, lies below base**4, so the
        # float64 guard (1e-9) floors it one step low
        n, x = 1600, 2
        p = EncodeParams(base=n + 1, x_tilde=x)
        d = _tied_witness_cases(n, x)
        prod = _float32_product(d, p)
        i = 2  # the row of (a=0, c=1)
        assert (d[i] == 0).sum() == 1
        assert decode_values(prod, p)[i, i] == 0
        assert decode_values(prod.astype(np.float64), p)[i, i] == 1

    def test_decodes_into_the_float64_array_behind_it(self):
        # the solver's float32 epoch keeps its product in the second half of
        # the bytes of the float64 array the distances are decoded into
        n, x = 400, 3
        assert n * n > 2 * codec._DECODE_CHUNK
        p = EncodeParams(base=n + 1, x_tilde=x)
        rng = np.random.default_rng(5)
        d = rng.integers(0, x + 1, (n, n)).astype(float)
        d[rng.random((n, n)) < 0.5] = INF
        buf = np.empty((n, n))
        halves = buf.reshape(-1).view(np.float32).reshape(2, n, n)
        halves[1] = _float32_product(d, p)
        assert decode_values(halves[1], p, out=buf) is buf
        assert np.array_equal(buf, [np.min(d[i] + d, axis=1) for i in range(n)])

    def test_float32_product_outside_the_bound_refused(self):
        p = EncodeParams(base=1601, x_tilde=6)
        with pytest.raises(DecodeError, match="float32"):
            decode_values(np.ones((2, 2), np.float32), p)
        with pytest.raises(DecodeError, match="float32"):
            decode_values(np.ones(2, np.float32), EncodeParams(base=3000, x_tilde=1))


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
        for n in [*range(1, 3001), 8508, 10**4, 10**5, 10**6, 10**8]:
            top = math.floor(precision_limits(n, width).safe_limit)
            assert EncodeParams(base=n + 1, x_tilde=top, width=width).is_feasible(), n
            assert not EncodeParams(base=n + 1, x_tilde=top + 1, width=width).is_feasible(), n

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            precision_limits(0, 64)
        with pytest.raises(ValueError):
            precision_limits(10, 16)
