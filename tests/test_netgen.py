import math

import numpy as np
import pytest

from minplus_apsp import (
    DistMatrix,
    GenSpec,
    diameter,
    estimate_diameter,
    generate_scale_free,
    power_law_bound,
    to_distance_matrix,
)
from conftest import floyd_warshall
from test_solver import path_matrix

INF = float("inf")


class TestGenerateScaleFree:
    def test_m1_yields_tree(self):
        g = generate_scale_free(GenSpec(n=5, m_attach=1, seed=3))
        assert len(g.src) == 4
        d = diameter(power_law_bound(to_distance_matrix(g)).distances)
        assert not d.disconnected

    def test_edge_count_formula(self):
        g = generate_scale_free(GenSpec(n=1000, m_attach=3, seed=9))
        assert len(g.src) == 2991  # (n - m_attach) * m_attach

    def test_deterministic_per_seed(self):
        a = generate_scale_free(GenSpec(n=200, m_attach=2, seed=42))
        b = generate_scale_free(GenSpec(n=200, m_attach=2, seed=42))
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        c = generate_scale_free(GenSpec(n=200, m_attach=2, seed=43))
        assert not (np.array_equal(a.src, c.src) and np.array_equal(a.dst, c.dst))

    def test_connected(self):
        g = generate_scale_free(GenSpec(n=300, m_attach=2, seed=1))
        d = diameter(power_law_bound(to_distance_matrix(g)).distances)
        assert not d.disconnected

    def test_heavy_tail(self):
        g = generate_scale_free(GenSpec(n=2000, m_attach=2, seed=5))
        deg = np.bincount(np.concatenate((g.src, g.dst)), minlength=g.n)
        # preferential attachment concentrates degree far above the mean
        assert deg.max() > 10 * deg.mean()

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GenSpec(n=3, m_attach=3, seed=0)
        with pytest.raises(ValueError):
            GenSpec(n=3, m_attach=0, seed=0)


class TestDiameter:
    def test_p3(self, p3):
        d = diameter(floyd_warshall(p3))
        assert d.value == 2 and not d.disconnected

    def test_complete_graph(self):
        k4 = DistMatrix(np.where(np.eye(4, dtype=bool), 0.0, 1.0))
        assert diameter(k4).value == 1

    def test_disconnected_flag(self):
        m = DistMatrix.from_rows([[0, 1, INF], [1, 0, INF], [INF, INF, 0]])
        d = diameter(m)
        assert d.value == 1 and d.disconnected

    def test_path_graph_attains_n_minus_1(self):
        for n in (2, 6, 11):
            solved = floyd_warshall(path_matrix(n))
            assert diameter(solved).value == n - 1


class TestEstimateDiameter:
    def test_published_values(self):
        assert estimate_diameter(10**8) == pytest.approx(19.4, abs=0.1)
        assert estimate_diameter(10**23) == pytest.approx(54.0, abs=0.1)
        # the fit is approximate for tiny n: published value is 3.4
        assert estimate_diameter(10) == pytest.approx(3.3, abs=0.05)

    def test_generated_graphs_within_loose_band(self):
        for n, m_attach in ((1000, 3), (2000, 2)):
            g = generate_scale_free(GenSpec(n=n, m_attach=m_attach, seed=2))
            d = diameter(power_law_bound(to_distance_matrix(g)).distances)
            assert d.value <= 2 * estimate_diameter(n)

