import re

import numpy as np
import pytest

from minplus_apsp import (
    INF,
    DensityReport,
    DistMatrix,
    Graph,
    GraphFormatError,
    density,
    parse_edge_list,
    to_distance_matrix,
)
from minplus_apsp.graph import EdgeError
from minplus_apsp.matio import edge_list_text


def edge_tuples(g: Graph) -> list[tuple[int, int, int]]:
    return list(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()))


_COUNT_RE = re.compile(r"-?\d+")


def reference_parse_edge_list(text: str, directed: bool = False) -> Graph:
    """The earlier parser, kept as the reference: a per-line loop of
    ``str.split`` and one ``np.array(tokens, dtype=np.int64)``."""
    lines = text.splitlines()
    declared_n = None
    tokens: list[str] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "#n":
            if len(parts) != 2 or not _COUNT_RE.fullmatch(parts[1]):
                raise GraphFormatError(f"line {lineno}: expected '#n <count>', got {raw!r}")
            declared_n = int(parts[1])
            if declared_n <= 0:
                raise GraphFormatError(
                    f"line {lineno}: node count must be positive, got {declared_n}"
                )
            continue
        if parts[0][0] == "#":
            continue
        if len(parts) == 2:
            parts.append("1")
        elif len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v' or 'u v w', got {raw!r}")
        tokens += parts
        linenos.append(lineno)

    if not linenos and declared_n is None:
        raise GraphFormatError("empty graph: no edge lines and no '#n' header")
    try:
        edges = np.array(tokens, dtype=np.int64).reshape(-1, 3)
    except (ValueError, OverflowError):
        for k, lineno in enumerate(linenos):
            try:
                np.array(tokens[3 * k : 3 * k + 3], dtype=np.int64)
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: non-integer token in {lines[lineno - 1]!r}"
                ) from None
            except OverflowError:
                raise GraphFormatError(
                    f"line {lineno}: integer outside the int64 range in {lines[lineno - 1]!r}"
                ) from None
        raise GraphFormatError("non-integer token") from None
    n = declared_n if declared_n is not None else max(int(edges[:, :2].max()) + 1, 1)
    try:
        return Graph(n, edges[:, 0], edges[:, 1], edges[:, 2], directed=directed)
    except EdgeError as exc:
        raise GraphFormatError(f"line {linenos[exc.index]}: {exc}") from None
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def parse_outcome(parse, text: str, directed: bool):
    """What ``parse`` makes of ``text``: the graph's fields, or the message
    of its GraphFormatError."""
    try:
        g = parse(text, directed=directed)
    except GraphFormatError as exc:
        return str(exc)
    return g.n, g.src.tolist(), g.dst.tolist(), g.weight.tolist(), g.directed


# ASCII whitespace that str.split splits on but str.splitlines does not
# break at, and the ASCII line breaks of str.splitlines
_SEPARATORS = [" ", "  ", "\t", " \t ", "\x1f"]
_LINE_ENDS = ["\n"] * 6 + ["\r\n"] * 3 + ["\r"] * 2 + ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
_COMMENTS = ["# a comment", "#", "#n5", "#nodes 5", "#\t1 2", "# 0 x", "# caf\u00e9"]
_ODD_TOKENS = [
    "x", "1.5", "+", "-", "1-", "--1", "+-1", "0x1", "1e3", "\x00", "#", "+5", "007", "-0",
    "99999999999999999999", "-9223372036854775809", "9223372036854775808",
    "9223372036854775807", "-9223372036854775808", "0000000000000000000000003",
    "-00000000000000000009223372036854775808", "00000000000000000009223372036854775808",
]
_OUTCOMES = [
    "empty graph", "expected 'u v' or 'u v w'", "expected '#n <count>'", "non-integer token",
    "int64 range", "node count must be positive", "out of range for", "self-loop", "invalid weight",
]
_ODD_LINES = [
    "0 1 2 3", "4", "#n", "#n 0", "#n -3", "#n 3x", "#n 4 5", "#n +4", "#n 99999999999999999999",
    "2 2", "1 1 5", "0 1 0", "0 1 -4",
]


def random_edge_list(rng: np.random.Generator) -> str:
    """An edge list, ASCII outside comments, that mixes headers on any line,
    comments, blank lines, every ASCII whitespace and line ending, lines of
    2 and 3 tokens, and now and then a malformed line or token."""
    n = int(rng.integers(1, 12))
    lines = []
    for _ in range(int(rng.integers(0, 14))):
        r = rng.random()
        if r < 0.08:
            lines.append(f"#n {int(rng.integers(1, 14))}")
        elif r < 0.16:
            lines.append(str(rng.choice(_COMMENTS)))
        elif r < 0.24:
            lines.append(str(rng.choice(["", " ", "\t", " \x0b "])))
        elif r < 0.26:
            lines.append(str(rng.choice(_ODD_LINES)))
        else:
            ids = [str(int(x)) for x in rng.choice(n + 1, 2, replace=False) - (rng.random() < 0.01)]
            if rng.random() < 0.5:
                ids.append(str(int(rng.integers(0 if rng.random() < 0.02 else 1, 9))))
            if rng.random() < 0.03:
                ids[int(rng.integers(len(ids)))] = str(rng.choice(_ODD_TOKENS))
            lines.append(str(rng.choice(_SEPARATORS)).join(ids))
        if rng.random() < 0.2:
            lines[-1] = str(rng.choice(_SEPARATORS)) + lines[-1] + str(rng.choice(_SEPARATORS))
    ends = [str(rng.choice(_LINE_ENDS)) for _ in lines]
    if ends and rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestParseEdgeList:
    def test_two_edge_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3
        assert edge_tuples(g) == [(0, 1, 1), (1, 2, 1)]
        assert g.src.dtype == g.dst.dtype == g.weight.dtype == np.int64
        assert not g.directed

    def test_empty_input_rejected(self):
        with pytest.raises(GraphFormatError, match="empty"):
            parse_edge_list("")

    def test_edgeless_graph_round_trips(self):
        for n in (1, 2, 5, 40):
            for directed in (False, True):
                text = edge_list_text(Graph(n, [], [], [], directed))
                assert text == f"#n {n}\n"
                g = parse_edge_list(text, directed=directed)
                assert (g.n, edge_tuples(g), g.directed) == (n, [], directed)
                m = to_distance_matrix(g)
                assert np.array_equal(m.data, np.where(np.eye(n, dtype=bool), 0.0, INF))

    def test_duplicate_edges_collapse_to_min_weight(self):
        # the parser keeps both lines; the matrix keeps the lighter
        g = parse_edge_list("0 1 3\n0 1 2")
        assert edge_tuples(g) == [(0, 1, 3), (0, 1, 2)]
        assert to_distance_matrix(g).data.tolist() == [[0, 2], [2, 0]]

    def test_undirected_duplicate_across_orientations(self):
        for text in ("0 1 3\n1 0 2", "0 1 2\n1 0 3"):
            assert to_distance_matrix(parse_edge_list(text)).data.tolist() == [[0, 2], [2, 0]]

    def test_directed_keeps_both_orientations(self):
        g = parse_edge_list("0 1 3\n1 0 2", directed=True)
        assert sorted(edge_tuples(g)) == [(0, 1, 3), (1, 0, 2)]
        assert to_distance_matrix(g).data.tolist() == [[0, 3], [2, 0]]

    def test_comments_and_blank_lines_skipped(self):
        g = parse_edge_list("# a comment\n\n0 1\n")
        assert edge_tuples(g) == [(0, 1, 1)]
        # only a first token of exactly "#n" is a header
        g = parse_edge_list("#nodes 5\n#n5\n0 1\n")
        assert (g.n, edge_tuples(g)) == (2, [(0, 1, 1)])
        with pytest.raises(GraphFormatError, match="empty"):
            parse_edge_list("# a comment\n#nodes 5\n")

    def test_header_fixes_node_count(self):
        g = parse_edge_list("#n 5\n0 1")
        assert g.n == 5

    def test_node_id_beyond_header_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("#n 2\n0 5")
        with pytest.raises(GraphFormatError, match="node count must be positive, got 0"):
            parse_edge_list("#n 0\n0 1")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n0 x")
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("0 1 2 3")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_edge_list("2 2")

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="weight"):
            parse_edge_list("0 1 0")

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("0 1\n\n1 -2 3\n", 3, r"edge \(1,-2\) out of range"),
            ("-1 -2\n", 1, "out of range"),
            ("0 1\n# c\n2 2 1\n0 2 5\n", 3, "self-loop at node 2"),
            ("0 1 4\n1 2 0\n", 2, r"edge \(1,2\) has invalid weight 0"),
            ("#n 3\n0 1\n1 3\n", 3, r"edge \(1,3\) out of range for n=3"),
            ("0 1\n1 3\n2 3\n#n 3\n", 2, r"edge \(1,3\) out of range for n=3"),
            ("0 1\n1 2 1\n2 3 1.5\n", 3, "non-integer token"),
            ("0 1\n0 99999999999999999999\n", 2, "int64 range"),
            ("0 1 99999999999999999999\n", 1, "int64 range"),
            ("#n -5\n0 1\n", 1, "node count must be positive, got -5"),
            ("#n 0\n0 1\n", 1, "node count must be positive, got 0"),
            ("0 1\n#n 3x\n", 2, "expected '#n <count>', got '#n 3x'"),
            ("0 1\n\n#n\n", 3, "expected '#n <count>', got '#n'"),
            ("#n 4 5\n0 1\n", 1, "expected '#n <count>'"),
            # read by Python's int as 10, 1 and an edge of weight 2
            ("0 1\n0 1_0\n", 2, "non-integer token in '0 1_0'"),
            ("0 \u0661\n", 1, "non-integer token"),
            ("# caf\u00e9\n0 1\u00a02\n", 2, "non-integer token"),
        ],
        ids=[
            "negative_id",
            "all_ids_negative",
            "self_loop",
            "weight_0",
            "id_past_header",
            "id_past_later_header",
            "non_integer",
            "id_past_int64",
            "weight_past_int64",
            "header_negative",
            "header_0",
            "header_not_integer",
            "header_bare",
            "header_two_counts",
            "underscore_in_token",
            "non_ascii_digit",
            "no_break_space",
        ],
    )
    def test_rejection_names_line(self, text, line, reason):
        with pytest.raises(GraphFormatError, match=rf"^line {line}: .*{reason}"):
            parse_edge_list(text)

    @pytest.mark.parametrize("directed", [False, True])
    def test_equals_old_parse_loop(self, directed):
        rng = np.random.default_rng(17 + directed)
        seen = set()
        for _ in range(3000):
            text = random_edge_list(rng)
            want = parse_outcome(reference_parse_edge_list, text, directed)
            assert parse_outcome(parse_edge_list, text, directed) == want, text
            seen |= {k for k in _OUTCOMES if k in str(want)} if isinstance(want, str) else {"graph"}
        # the texts reach graphs and every kind of rejection
        assert seen == {"graph", *_OUTCOMES}

    @pytest.mark.parametrize(
        "text",
        [
            # the first malformed line or header wins, by line
            "0 1 2 3\n#n\n",
            "#n 0\n4\n",
            # a malformed line or header after a bad token wins, by line
            "0 x\n0 1 2 3\n",
            "0 99999999999999999999\n#n 0\n",
            "0 1 1.5\n\n#n\n",
            # a bad token beats an edge error on an earlier line
            "2 2\n0 x\n",
            "#n 2\n0 5\n1 99999999999999999999\n",
            # on one line the first bad token decides
            "0 99999999999999999999 x\n",
            "0 x 99999999999999999999\n",
        ],
    )
    def test_error_order_equals_old_parse_loop(self, text):
        want = parse_outcome(reference_parse_edge_list, text, False)
        assert isinstance(want, str)
        assert parse_outcome(parse_edge_list, text, False) == want

    def test_large_graph_equals_old_parse_loop(self):
        rng = np.random.default_rng(5)
        n = 3000
        u, v, w = rng.integers(0, n, 20000), rng.integers(0, n, 20000), rng.integers(1, 99, 20000)
        keep = u != v
        edges = zip(u[keep], v[keep], w[keep])
        rows = [f"{a} {b}" if c % 3 else f"{a}\t{b} {c}" for a, b, c in edges]
        rows[100:100] = ["# a comment", "#n 3000", ""]
        text = "\r\n".join(rows)
        want = parse_outcome(reference_parse_edge_list, text, True)
        assert not isinstance(want, str)
        assert parse_outcome(parse_edge_list, text, True) == want


class TestGraphInvariants:
    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(0,2\) out of range"):
            Graph(2, [0], [2], [1])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [1], [1], [1])

    def test_negative_node_count(self):
        with pytest.raises(ValueError):
            Graph(0, [], [], [])

    @pytest.mark.parametrize(
        "edge", [([0.5], [1], [1]), ([0], [1.0], [1]), ([0], [np.float64(2)], [1])]
    )
    def test_non_integer_node_id(self, edge):
        # to_distance_matrix would otherwise truncate the id silently
        with pytest.raises(ValueError, match="non-integer node id"):
            Graph(3, *edge)

    @pytest.mark.parametrize("weight", [INF, float("nan"), 1.5, 0])
    def test_invalid_weight(self, weight):
        with pytest.raises(ValueError, match=r"edge \(0,1\) has invalid weight"):
            Graph(2, [0], [1], [weight])

    def test_numpy_integers_accepted(self):
        g = Graph(3, [np.int64(0)], [np.int64(2)], [np.int64(3)])
        assert to_distance_matrix(g).data[0, 2] == 3

    def test_first_bad_edge_named(self):
        with pytest.raises(EdgeError, match=r"edge \(1,2\) has invalid weight 0") as exc:
            Graph(3, [0, 1, 2, 0], [1, 2, 2, 2], [1, 0, 1, 0])
        assert exc.value.index == 1

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            Graph(3, [0, 1], [1], [1, 1])

    def test_arrays_are_read_only_int64_copies(self):
        src = np.array([0], dtype=np.int64)
        g = Graph(3, src, np.array([2], dtype=np.int32), [2.0])
        assert g.src.dtype == g.dst.dtype == g.weight.dtype == np.int64
        assert edge_tuples(g) == [(0, 2, 2)]
        src[0] = 1
        assert g.src[0] == 0
        with pytest.raises(ValueError):
            g.weight[0] = 0


class TestToDistanceMatrix:
    def test_path_graph(self, p3):
        g = parse_edge_list("0 1\n1 2")
        assert np.array_equal(to_distance_matrix(g).data, p3.data)

    def test_single_node(self):
        g = Graph(1, [], [], [])
        assert to_distance_matrix(g).data.tolist() == [[0.0]]

    def test_directed_asymmetry_preserved(self):
        g = parse_edge_list("0 1", directed=True)
        assert to_distance_matrix(g).data.tolist() == [[0.0, 1.0], [INF, 0.0]]

    def test_equals_edge_loop_with_duplicates(self):
        def loop(g):
            a = np.full((g.n, g.n), INF, dtype=np.float64)
            np.fill_diagonal(a, 0.0)
            for u, v, w in edge_tuples(g):
                a[u, v] = min(a[u, v], w)
                if not g.directed:
                    a[v, u] = min(a[v, u], w)
            return a

        rng = np.random.default_rng(7)
        for directed in (False, True):
            for _ in range(20):
                n = int(rng.integers(2, 30))
                edges = []
                for _ in range(int(rng.integers(1, 4 * n))):
                    u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                    edges.append((u, v, int(rng.integers(1, 9))))
                # the same pair again, in both orientations, heavier and lighter
                u, v, w = edges[0]
                edges += [(u, v, w + 3), (v, u, w + 1), (u, v, max(1, w - 1))]
                g = Graph(n, *zip(*edges), directed=directed)
                assert np.array_equal(to_distance_matrix(g).data, loop(g))


class TestDistMatrixValidation:
    @pytest.mark.parametrize(
        "rows",
        [
            [[0, float("nan")], [1, 0]],
            [[0, -INF], [1, 0]],
            [[0, -1], [1, 0]],
            [[0, 1.5], [1, 0]],
            [[0, 1], [1, 2]],
        ],
        ids=["nan", "minus_inf", "negative", "fraction", "nonzero_diagonal"],
    )
    def test_rejected(self, rows):
        with pytest.raises(ValueError):
            DistMatrix.from_rows(rows)

    @pytest.mark.parametrize("bad", [1.5, -1.0, float("nan"), -INF], ids=str)
    def test_rejected_above_2048(self, bad):
        a = np.full((2100, 2100), INF)
        np.fill_diagonal(a, 0.0)
        a[2099, 7] = bad
        with pytest.raises(ValueError):
            DistMatrix(a)

    def test_inf_and_integers_accepted(self):
        m = DistMatrix.from_rows([[0, INF, 3], [7, 0, INF], [INF, 12, 0]])
        assert m.n == 3

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 2)], ids=str)
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            DistMatrix(np.zeros(shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int16], ids=str)
    def test_non_float64_rejected(self, dtype):
        with pytest.raises(ValueError, match="expected float64 entries"):
            DistMatrix(np.zeros((2, 2), dtype))


class TestDensity:
    def test_path_graph_by_hand(self, p3):
        rep = density(p3)
        assert rep.finite_count == 7
        assert rep.n_squared == 9
        assert rep.density == pytest.approx(7 / 9)

    def test_all_finite(self):
        from minplus_apsp import DistMatrix

        rep = density(DistMatrix.from_rows([[0, 1], [1, 0]]))
        assert rep.density == 1.0

    @pytest.mark.parametrize("finite", [0, -1, 10], ids=str)
    def test_density_outside_unit_interval_rejected(self, finite):
        # a density is a share of n * n = 9 entries, at least the diagonal's
        with pytest.raises(ValueError, match=r"out of \(0, 1\]"):
            DensityReport(finite_count=finite, n_squared=9)

    def test_actors_network_scale_arithmetic(self):
        # 617958 finite off-diagonal entries plus the 8508 diagonal zeros
        rep = DensityReport(finite_count=617958 + 8508, n_squared=8508**2)
        assert rep.density == pytest.approx(0.0087, abs=2e-4)

    def test_finite_count_is_2e_plus_n(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            g = _random_graph(rng, n)
            rep = density(to_distance_matrix(g))
            assert rep.finite_count == 2 * len(g.src) + n

    def test_round_trip_edges(self):
        rng = np.random.default_rng(6)
        g = _random_graph(rng, 25)
        m = to_distance_matrix(g)
        weights = {(u, v): w for u, v, w in edge_tuples(g)}
        for i in range(25):
            for j in range(25):
                if i != j and np.isfinite(m.data[i, j]):
                    key = (min(i, j), max(i, j))
                    assert weights[key] == m.data[i, j]


def _random_graph(rng, n) -> Graph:
    edges = {}
    for _ in range(int(rng.integers(1, n * 2))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        w = int(rng.integers(1, 5))
        edges[key] = min(edges.get(key, w), w)
    if not edges:
        edges[(0, 1)] = 1
    (src, dst), weight = zip(*edges), list(edges.values())
    return Graph(n, src, dst, weight)
