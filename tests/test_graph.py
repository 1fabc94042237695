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


class TestParseEdgeList:
    def test_two_edge_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3
        assert sorted(g.edges) == [(0, 1, 1), (1, 2, 1)]
        assert not g.directed

    def test_empty_input_rejected(self):
        with pytest.raises(GraphFormatError, match="empty"):
            parse_edge_list("")

    def test_duplicate_edges_collapse_to_min_weight(self):
        g = parse_edge_list("0 1 3\n0 1 2")
        assert g.edges == [(0, 1, 2)]

    def test_undirected_duplicate_across_orientations(self):
        g = parse_edge_list("0 1 3\n1 0 2")
        assert g.edges == [(0, 1, 2)]

    def test_directed_keeps_both_orientations(self):
        g = parse_edge_list("0 1 3\n1 0 2", directed=True)
        assert sorted(g.edges) == [(0, 1, 3), (1, 0, 2)]

    def test_comments_and_blank_lines_skipped(self):
        g = parse_edge_list("# a comment\n\n0 1\n")
        assert g.edges == [(0, 1, 1)]

    def test_header_fixes_node_count(self):
        g = parse_edge_list("#n 5\n0 1")
        assert g.n == 5

    def test_node_id_beyond_header_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("#n 2\n0 5")

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


class TestGraphInvariants:
    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(n=2, edges=[(0, 2, 1)])

    def test_self_loop(self):
        with pytest.raises(ValueError):
            Graph(n=2, edges=[(1, 1, 1)])

    def test_negative_node_count(self):
        with pytest.raises(ValueError):
            Graph(n=0, edges=[])

    @pytest.mark.parametrize("edge", [(0.5, 1, 1), (0, 1.0, 1), (0, np.float64(2), 1)])
    def test_non_integer_node_id(self, edge):
        # to_distance_matrix would otherwise truncate the id silently
        with pytest.raises(ValueError, match="non-integer node id"):
            Graph(n=3, edges=[edge])

    @pytest.mark.parametrize("weight", [INF, float("nan"), 1.5, 0])
    def test_invalid_weight(self, weight):
        with pytest.raises(ValueError, match=r"edge \(0,1\) has invalid weight"):
            Graph(n=2, edges=[(0, 1, weight)])

    def test_numpy_integers_accepted(self):
        g = Graph(n=3, edges=[(np.int64(0), np.int64(2), np.int64(3))])
        assert to_distance_matrix(g).data[0, 2] == 3


class TestToDistanceMatrix:
    def test_path_graph(self, p3):
        g = parse_edge_list("0 1\n1 2")
        assert np.array_equal(to_distance_matrix(g).data, p3.data)

    def test_single_node(self):
        g = Graph(n=1, edges=[])
        assert to_distance_matrix(g).data.tolist() == [[0.0]]

    def test_directed_asymmetry_preserved(self):
        g = parse_edge_list("0 1", directed=True)
        assert to_distance_matrix(g).data.tolist() == [[0.0, 1.0], [INF, 0.0]]

    def test_equals_edge_loop_with_duplicates(self):
        def loop(g):
            a = np.full((g.n, g.n), INF, dtype=np.float64)
            np.fill_diagonal(a, 0.0)
            for u, v, w in g.edges:
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
                g = Graph(n=n, edges=edges, directed=directed)
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
            assert rep.finite_count == 2 * len(g.edges) + n

    def test_round_trip_edges(self):
        rng = np.random.default_rng(6)
        g = _random_graph(rng, 25)
        m = to_distance_matrix(g)
        weights = {(u, v): w for u, v, w in g.edges}
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
    return Graph(n=n, edges=[(u, v, w) for (u, v), w in edges.items()])
