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


def old_parse_matrix(text: str, directed: bool) -> np.ndarray:
    """The earlier parser as reference: a per-line loop that merges duplicate
    pairs into the lightest weight, then one matrix entry per merged pair."""
    declared_n = None
    best: dict[tuple[int, int], int] = {}
    max_id = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#n\s+(\d+)\s*$", line)
            if m:
                declared_n = int(m.group(1))
            continue
        nums = [int(p) for p in line.split()]
        u, v = nums[0], nums[1]
        w = nums[2] if len(nums) == 3 else 1
        key = (u, v) if directed else (min(u, v), max(u, v))
        best[key] = min(best.get(key, w), w)
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    a = np.full((n, n), INF)
    np.fill_diagonal(a, 0.0)
    for (u, v), w in best.items():
        a[u, v] = w
        if not directed:
            a[v, u] = w
    return a


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
        ],
    )
    def test_rejection_names_line(self, text, line, reason):
        with pytest.raises(GraphFormatError, match=rf"^line {line}: .*{reason}"):
            parse_edge_list(text)

    @pytest.mark.parametrize("directed", [False, True])
    def test_equals_old_parse_loop(self, directed):
        rng = np.random.default_rng(17 + directed)
        for _ in range(40):
            n = int(rng.integers(2, 25))
            lines = [f"#n {n}"] if rng.random() < 0.5 else []
            pairs = []
            for _ in range(int(rng.integers(1, 3 * n))):
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                pairs.append((u, v))
                if rng.random() < 0.3:
                    # a duplicate, in either orientation
                    pairs.append((u, v) if rng.random() < 0.5 else (v, u))
            for u, v in pairs:
                if rng.random() < 0.1:
                    lines.append("# comment" if rng.random() < 0.5 else "")
                if rng.random() < 0.4:
                    lines.append(f"{u} {v}")
                else:
                    lines.append(f" {u}\t{v}  {int(rng.integers(1, 9))} ")
            text = "\n".join(lines)
            got = to_distance_matrix(parse_edge_list(text, directed=directed)).data
            assert np.array_equal(got, old_parse_matrix(text, directed))


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
