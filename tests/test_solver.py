import math

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from minplus_apsp import (
    INF,
    DistMatrix,
    EpochStats,
    FeasibilityError,
    SolveOptions,
    converged,
    distance_product,
    epoch_stats_csv,
    fixed_squaring,
    max_finite,
    power_law_bound,
)
from minplus_apsp.solver import _distance_product, _finite_summary
from conftest import P3_SOLVED, floyd_warshall, minplus_square, random_dist_matrix


def path_matrix(n):
    a = np.full((n, n), INF)
    np.fill_diagonal(a, 0.0)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return DistMatrix(a)


class TestDistanceProduct:
    def test_p3(self, p3):
        assert distance_product(p3).data.tolist() == P3_SOLVED

    def test_minplus_identity_is_fixed(self):
        ident = DistMatrix(np.where(np.eye(5, dtype=bool), 0.0, INF))
        assert np.array_equal(distance_product(ident).data, ident.data)

    def test_converged_matrix_is_fixed_point(self, p3):
        solved = floyd_warshall(p3)
        assert np.array_equal(distance_product(solved).data, solved.data)

    def test_equals_direct_definition(self):
        rng = np.random.default_rng(11)
        for kernel in ("auto", "dense", "sparse"):
            m = random_dist_matrix(rng, 20, max_weight=3)
            got = distance_product(m, SolveOptions(kernel=kernel))
            assert np.array_equal(got.data, minplus_square(m).data)

    def test_width32_equals_direct_definition(self):
        rng = np.random.default_rng(12)
        for kernel in ("dense", "sparse"):
            for _ in range(20):
                n = int(rng.integers(2, 40))
                m = random_dist_matrix(
                    rng, n, max_weight=3, density=0.2, directed=bool(rng.integers(2))
                )
                got = distance_product(m, SolveOptions(width=32, kernel=kernel))
                assert np.array_equal(got.data, minplus_square(m).data), (kernel, n)

    def test_dense_and_sparse_branches_equal_definition(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 50))
            m = random_dist_matrix(
                rng, n, density=float(rng.uniform(0, 0.4)), directed=bool(rng.integers(2))
            )
            want = minplus_square(m).data
            for kernel in ("dense", "sparse"):
                assert np.array_equal(distance_product(m, SolveOptions(kernel=kernel)).data, want)

    def test_summary_is_finite_summary_of_result(self):
        rng = np.random.default_rng(14)
        cases = [DistMatrix.from_rows([[0]]), DistMatrix(np.where(np.eye(6, dtype=bool), 0.0, INF))]
        for _ in range(20):
            n = int(rng.integers(2, 40))
            cases.append(
                random_dist_matrix(
                    rng, n, max_weight=3, density=float(rng.uniform(0, 0.5)),
                    directed=bool(rng.integers(2)),
                )
            )
        for m in cases:
            for kernel in ("dense", "sparse"):
                for width in (32, 64):
                    result, kind, summary = _distance_product(
                        m, SolveOptions(kernel=kernel, width=width)
                    )
                    assert kind == kernel
                    assert summary == _finite_summary(result)

    def test_unknown_kernel_rejected(self):
        for kernel in ("naive", "blocked", "strassen", "dense_blocked"):
            with pytest.raises(ValueError, match="unknown kernel"):
                SolveOptions(kernel=kernel)

    def test_feasibility_error_before_multiplying(self):
        m = DistMatrix.from_rows([[0, 45], [45, 0]])
        with pytest.raises(FeasibilityError):
            distance_product(m, SolveOptions(width=32))


class TestResultsValidate:
    """Internal matrices skip validation; every one a caller receives must
    still pass it."""

    def test_every_returned_matrix_is_valid(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            m = random_dist_matrix(
                rng, n, density=float(rng.uniform(0, 0.4)), directed=bool(rng.integers(2))
            )
            for kernel in ("auto", "dense", "sparse"):
                for width in (32, 64):
                    opts = SolveOptions(kernel=kernel, width=width)
                    try:
                        got = [
                            power_law_bound(m, opts).distances,
                            fixed_squaring(m, opts)[0],
                            distance_product(m, opts),
                        ]
                    except FeasibilityError:
                        continue
                    for d in got:
                        assert d.data.dtype == np.float64
                        DistMatrix(d.data)


class TestFloydWarshall:
    def test_p3(self, p3):
        assert floyd_warshall(p3).data.tolist() == P3_SOLVED

    def test_disconnected(self):
        m = DistMatrix.from_rows([[0, INF], [INF, 0]])
        assert np.array_equal(floyd_warshall(m).data, m.data)

    def test_weighted_shortcut(self):
        m = DistMatrix.from_rows([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
        assert floyd_warshall(m).data.tolist() == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]


class TestConverged:
    def test_equal(self, p3):
        assert converged(p3, p3)

    def test_adjacency_vs_square(self, p3):
        assert not converged(p3, distance_product(p3))

    def test_inf_equals_inf(self):
        a = DistMatrix.from_rows([[0, INF], [INF, 0]])
        b = DistMatrix.from_rows([[0, INF], [INF, 0]])
        assert converged(a, b)

    def test_dimension_mismatch(self, p3):
        with pytest.raises(ValueError):
            converged(p3, DistMatrix.from_rows([[0]]))


class TestPowerLawBound:
    def test_p3_two_epochs(self, p3):
        r = power_law_bound(p3)
        assert r.converged
        assert len(r.epochs) == 2
        assert r.distances.data.tolist() == P3_SOLVED

    def test_single_node(self):
        r = power_law_bound(DistMatrix.from_rows([[0]]))
        assert r.converged and len(r.epochs) == 1
        assert r.distances.data.tolist() == [[0.0]]

    def test_diameter_between_4_and_8_doubling_pattern(self):
        # path on 9 nodes: diameter 8, three improving epochs + confirmation;
        # every pair is finite after epoch 3 and 8 < 9 * w_min, so the
        # confirmation is proved by the bound and runs no product
        r = power_law_bound(path_matrix(9))
        assert r.converged
        assert [st.max_element for st in r.epochs] == [2, 4, 8, 8]
        assert len(r.epochs) == 4
        assert len(r.kernel_trace) == 3
        assert r.epochs[-1].delta == 0

    def test_confirming_product_runs_when_weight_bound_fails(self):
        # after epoch 1 every pair is finite, but the largest entry 6 is not
        # below 3 * w_min = 3: a longer path could still be shorter
        m = DistMatrix.from_rows([[0, 1, INF], [1, 0, 5], [INF, 5, 0]])
        r = power_law_bound(m)
        assert r.converged
        assert len(r.kernel_trace) == 2
        assert [st.max_element for st in r.epochs] == [6, 6]
        assert r.distances.data.tolist() == [[0, 1, 6], [1, 0, 5], [6, 5, 0]]

    def test_early_stop_matches_csgraph_random(self):
        rng = np.random.default_rng(16)
        stopped = 0
        for _ in range(600):
            n = int(rng.integers(2, 40))
            directed = bool(rng.integers(2))
            m = random_dist_matrix(
                rng,
                n,
                max_weight=int(rng.integers(1, 9)),
                density=float(rng.uniform(0.01, 0.3)),
                directed=directed,
            )
            r = power_law_bound(m)
            assert r.converged
            want = shortest_path(m.data, method="D", directed=directed)
            assert np.array_equal(r.distances.data, want)
            stopped += len(r.kernel_trace) < len(r.epochs)
        assert stopped > 0

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            m = random_dist_matrix(
                rng, n, density=float(rng.uniform(0.05, 0.5)), directed=bool(rng.integers(2))
            )
            r = power_law_bound(m)
            assert r.converged
            assert np.array_equal(r.distances.data, floyd_warshall(m).data)

    def test_monotone_improvement(self):
        rng = np.random.default_rng(13)
        m = random_dist_matrix(rng, 40, density=0.08)
        current = m
        for st in power_law_bound(m).epochs:
            nxt = distance_product(current)
            assert (nxt.data <= current.data).all()
            assert st.finite_after >= st.finite_before
            current = nxt

    def test_epoch_bound(self):
        for n in (5, 9, 17, 33):
            r = power_law_bound(path_matrix(n))
            d = n - 1
            improving = sum(1 for st in r.epochs if st.delta > 0)
            assert improving <= math.ceil(math.log2(max(d, 2)))
            assert len(r.epochs) <= improving + 1

    def test_fixed_point(self):
        rng = np.random.default_rng(14)
        m = random_dist_matrix(rng, 25)
        r = power_law_bound(m)
        assert np.array_equal(distance_product(r.distances).data, r.distances.data)

    def test_trusted_diameter_hint_skips_confirmation(self):
        r = power_law_bound(path_matrix(9), SolveOptions(trusted_diameter=8))
        assert r.converged
        assert len(r.epochs) == 3
        assert np.array_equal(r.distances.data, floyd_warshall(path_matrix(9)).data)

    def test_trusted_diameter_is_not_checked(self):
        # a hint below the true diameter 8 stops early and still reads converged
        r = power_law_bound(path_matrix(9), SolveOptions(trusted_diameter=2))
        assert r.converged
        assert len(r.epochs) == 1
        assert max_finite(r.distances) == 2

    def test_kernel_trace_records_selection(self):
        # 40 + 2 * 39 finite entries of 1600: 7.4 %, below the 10 % threshold
        r = power_law_bound(path_matrix(40))
        assert r.kernel_trace[0] == "sparse"
        assert r.kernel_trace[-1] == "dense"

    def test_fixed_squaring_baseline(self):
        m = path_matrix(17)
        dist, iters = fixed_squaring(m)
        assert iters == math.ceil(math.log2(16))
        assert np.array_equal(dist.data, floyd_warshall(m).data)
        assert len(power_law_bound(m).epochs) <= iters + 1


class TestSolveOptions:
    @pytest.mark.parametrize(
        "removed",
        ["kernel_choice", "diameter_hint", "trust_hint", "max_epochs", "enforce_precision"],
    )
    def test_removed_options_rejected(self, removed):
        with pytest.raises(TypeError):
            SolveOptions(**{removed: None})

    @pytest.mark.parametrize("field", ["trusted_diameter"])
    def test_bounds_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SolveOptions(**{field: 0})

    @pytest.mark.parametrize("width", [16, 128])
    def test_unknown_width_rejected_when_built(self, width):
        with pytest.raises(ValueError, match="width must be 32 or 64"):
            SolveOptions(width=width)


class TestEpochStats:
    def test_p3_first_epoch(self, p3):
        st = power_law_bound(p3).epochs[0]
        assert (st.finite_before, st.finite_after, st.delta) == (7, 9, 2)
        assert st.max_element == 2

    def test_published_counts_identities(self):
        # epoch 1 of the 8508-node run: 22627474 + 807705 = 23435179,
        # and 23435179 / 8508**2 = 32.375%
        st = EpochStats(
            epoch=1, max_element=2, finite_before=617958, finite_after=22627474
        )
        st.finalize(unreachable_count=807705, n=8508)
        assert st.delta == 22009516
        assert st.convergence_quantity == 23435179
        assert round(st.convergence_pct, 3) == 32.375

    def test_no_change_epoch_is_100_percent(self):
        st = EpochStats(
            epoch=4, max_element=8, finite_before=71578359, finite_after=71578359
        )
        st.finalize(unreachable_count=807705, n=8508)
        assert st.delta == 0
        assert st.convergence_pct == 100.0

    def test_final_epoch_convergence_is_100(self):
        rng = np.random.default_rng(15)
        r = power_law_bound(random_dist_matrix(rng, 30, density=0.1))
        assert r.epochs[-1].convergence_pct == pytest.approx(100.0)

    def test_csv_schema(self, p3):
        r = power_law_bound(p3)
        csv = epoch_stats_csv(r.epochs)
        lines = csv.strip().splitlines()
        assert lines[0] == (
            "epoch,max_element,finite_before,finite_after,delta,"
            "convergence_quantity,convergence_pct"
        )
        assert lines[1].startswith("1,2,7,9,2,")
        assert len(lines) == 3
