import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from minplus_apsp import (
    INF,
    DistMatrix,
    EpochStats,
    FeasibilityError,
    GenSpec,
    Graph,
    distance_product,
    epoch_stats_csv,
    fixed_squaring,
    generate_scale_free,
    power_law_bound,
    precision_limits,
    to_distance_matrix,
)
import minplus_apsp
from minplus_apsp import solver
from minplus_apsp.codec import UNREACHABLE16, largest_float32_x_tilde
from minplus_apsp.solver import _distance_product, _scan
from conftest import (
    P3_SOLVED,
    clustered_dist_matrix,
    dense_state_solve,
    floyd_warshall,
    minplus_square,
    random_dist_matrix,
)


def state16(d: np.ndarray) -> np.ndarray:
    """A float64 distance matrix in the solve's state format: int16, with
    UNREACHABLE16 for inf."""
    assert d[np.isfinite(d)].max(initial=0) < UNREACHABLE16
    return np.where(np.isfinite(d), d, UNREACHABLE16).astype(np.int16)


def held16(st: solver._State) -> bool:
    """Whether st holds its distances, dense or CSR, in int16."""
    return (st.dense if st.dense is not None else st.csr[2]).dtype == np.int16


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

    def test_equals_direct_definition(self, force_kernel):
        rng = np.random.default_rng(11)
        for kernel in ("auto", "dense", "sparse"):
            force_kernel(kernel)
            m = random_dist_matrix(rng, 20, max_weight=3)
            got = distance_product(m)
            assert np.array_equal(got.data, minplus_square(m).data)

    def test_float32_and_float64_equal_direct_definition(self, force_kernel):
        # weights up to 29 put x_tilde on both sides of largest_float32_x_tilde(n),
        # and the product runs float32 exactly on the lower side, on either kernel
        rng = np.random.default_rng(12)
        ran = set()
        for kernel in ("dense", "sparse"):
            force_kernel(kernel)
            for _ in range(20):
                n = int(rng.integers(2, 40))
                m = random_dist_matrix(
                    rng, n, max_weight=int(rng.integers(1, 30)), density=0.2,
                    directed=bool(rng.integers(2)),
                )
                st = _scan(m)
                assert held16(st)
                single = st.summary.top <= largest_float32_x_tilde(n)
                arithmetic = "float32" if single else "float64"
                assert _distance_product(st) == (kernel, arithmetic)
                ran.add((kernel, arithmetic))
                assert held16(st)
                assert np.array_equal(st.distances().data, minplus_square(m).data), (kernel, n)
        assert ran == {
            ("dense", "float32"), ("dense", "float64"), ("sparse", "float32"), ("sparse", "float64")
        }

    def test_dense_and_sparse_branches_equal_definition(self, force_kernel):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 50))
            m = random_dist_matrix(
                rng, n, density=float(rng.uniform(0, 0.4)), directed=bool(rng.integers(2))
            )
            want = minplus_square(m).data
            for kernel in ("dense", "sparse"):
                force_kernel(kernel)
                assert np.array_equal(distance_product(m).data, want)

    def test_csr_state_with_diagonal_only_end_blocks(self, force_kernel):
        # n = 130: row blocks of 64, 64 and 2, so the last one is partial;
        # edges join rows 64..127 only, so the first and the last block of
        # the CSR state hold their diagonal entries alone
        n = 130
        a = np.full((n, n), INF)
        np.fill_diagonal(a, 0.0)
        inner = random_dist_matrix(
            np.random.default_rng(15), 64, max_weight=9, density=0.05, directed=True
        )
        a[64:128, 64:128] = inner.data
        m = DistMatrix(a)
        force_kernel("sparse")
        st = _scan(m)
        while True:
            before = st.summary
            _distance_product(st)
            if st.summary == before:
                break
        indptr = st.csr[0]
        assert indptr[64] == 64 and indptr[n] - indptr[128] == 2
        assert np.array_equal(st.distances().data, floyd_warshall(m).data)
        st = _scan(m)
        assert st.csr is not None
        force_kernel("dense")
        assert _distance_product(st)[0] == "dense"
        assert np.array_equal(st.distances().data, minplus_square(m).data)

    def test_summary_is_finite_summary_of_result(self, force_kernel):
        def rescan(d):
            fin = d.data[np.isfinite(d.data)]
            return fin.size, int(fin.max()), int(fin.sum())

        rng = np.random.default_rng(14)
        cases = [DistMatrix.from_rows([[0]]), DistMatrix(np.where(np.eye(6, dtype=bool), 0.0, INF))]
        for _ in range(20):
            n = int(rng.integers(2, 40))
            cases.append(
                random_dist_matrix(
                    rng, n, max_weight=int(rng.integers(1, 30)),
                    density=float(rng.uniform(0, 0.5)), directed=bool(rng.integers(2)),
                )
            )
        ran = set()
        for m in cases:
            for kernel in ("dense", "sparse"):
                force_kernel(kernel)
                st = _scan(m)
                # convergence compares these sums, so check each against
                # a full rescan of the matrix it summarises
                assert st.summary == rescan(m)
                single = st.summary.top <= largest_float32_x_tilde(m.n)
                arithmetic = "float32" if single else "float64"
                assert _distance_product(st) == (kernel, arithmetic)
                ran.add(arithmetic)
                assert st.summary == rescan(st.distances())
        assert ran == {"float32", "float64"}

    def test_feasibility_error_before_multiplying(self, monkeypatch, force_kernel):
        def refuse(*args, **kwargs):
            raise AssertionError("an infeasible product ran")

        monkeypatch.setattr(solver.kernels, "multiply_dense", refuse)
        monkeypatch.setattr(solver.kernels, "multiply_sparse", refuse)
        # weight 600 at n = 2 needs 1903 exponent bits, above the 64-bit 1024
        m = DistMatrix.from_rows([[0, 600], [600, 0]])
        for kernel in ("dense", "sparse"):
            force_kernel(kernel)
            with pytest.raises(FeasibilityError):
                distance_product(m)


def smallest_off_diagonal(m: DistMatrix) -> float:
    """The smallest finite off-diagonal entry of m, inf if there is none."""
    a = m.data.copy()
    np.fill_diagonal(a, INF)
    return float(a.min())


class TestScanWMin:
    """_scan's w_min, from the CSR parts or from the int16 blocks of its
    dense pass, against its definition."""

    @staticmethod
    def cases() -> list:
        rng = np.random.default_rng(41)
        out = []
        # weights 4..9 everywhere but one 3 in a later row block, and 30 %
        # finite: the first pass stops after its first block when the
        # epoch runs dense
        for n, row in ((200, 150), (130, 129)):
            a = np.where(rng.random((n, n)) < 0.3, rng.integers(4, 10, (n, n)), INF)
            np.fill_diagonal(a, 0.0)
            a[row, 5] = 3.0
            out.append(DistMatrix(a))
        # weights >= 3 everywhere: a minimum that counts the diagonal reads 0
        a = rng.integers(3, 10, (130, 130)).astype(float)
        np.fill_diagonal(a, 0.0)
        out.append(DistMatrix(a))
        # an off-diagonal 0 in the last, partial block
        b = a.copy()
        b[128, 3] = 0.0
        out.append(DistMatrix(b))
        # n = 1, n = 2 with and without an edge, and no finite off-diagonal
        # entry at n = 100
        out += [
            DistMatrix.from_rows([[0]]),
            DistMatrix.from_rows([[0, 7], [INF, 0]]),
            DistMatrix.from_rows([[0, INF], [INF, 0]]),
            DistMatrix(np.where(np.eye(100, dtype=bool), 0.0, INF)),
        ]
        return out

    @pytest.mark.parametrize("kernel", ["dense", "sparse"])
    def test_smallest_finite_off_diagonal_entry(self, force_kernel, kernel):
        force_kernel(kernel)
        for m in self.cases():
            st = _scan(m)
            assert (st.csr is not None) == (kernel == "sparse")
            assert st.w_min == smallest_off_diagonal(m), (kernel, m.n)
            # the diagonal set aside is restored
            if st.dense is not None:
                assert np.array_equal(st.dense, state16(m.data))


class TestResultsValidate:
    """Internal matrices skip validation; every one a caller receives must
    still pass it."""

    def test_every_returned_matrix_is_valid(self, force_kernel):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            # weights up to 29 run dense epochs in float64 as well as float32
            m = random_dist_matrix(
                rng, n, max_weight=int(rng.integers(1, 30)),
                density=float(rng.uniform(0, 0.4)), directed=bool(rng.integers(2)),
            )
            for kernel in ("auto", "dense", "sparse"):
                force_kernel(kernel)
                got = [power_law_bound(m).distances, fixed_squaring(m)[0], distance_product(m)]
                for d in got:
                    assert d.data.dtype == np.float64
                    DistMatrix(d.data)


class TestArithmetic:
    """A product runs float32 exactly where EncodeParams.is_feasible proves
    width 32, on either kernel; every epoch's distances still equal the
    definition."""

    def test_route_graph_dense_epoch_runs_float32(self):
        w = to_distance_matrix(generate_scale_free(GenSpec(n=400, m_attach=7, seed=11)))
        r = power_law_bound(w)
        assert [(st.kernel, st.arithmetic) for st in r.epochs] == [
            ("sparse", "float32"),
            ("dense", "float32"),
            (None, None),
        ]
        assert np.array_equal(r.distances.data, shortest_path(w.data, method="D"))

    def test_float32_epoch_peaks_at_e_and_its_product(self):
        # E and the float32 product, 4 bytes an entry each, are the largest
        # arrays alive at once; the int16 distances come after E is gone, and
        # the rest is a fixed few hundred KiB of chunk and row-block
        # temporaries. The route graph's second epoch encodes E from CSR
        # parts, the m_attach=60 graph's from a dense matrix
        n = 800
        for m_attach, seed, first in ((7, 11, "sparse"), (60, 3, "dense")):
            g = generate_scale_free(GenSpec(n=n, m_attach=m_attach, seed=seed))
            w = to_distance_matrix(g)
            st = _scan(w)
            assert _distance_product(st)[0] == first
            tracemalloc.start()
            try:
                assert _distance_product(st) == ("dense", "float32")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * n * n * 8, (m_attach, peak)
            # two products reach the shortest paths (the solve's third
            # epoch only confirms)
            assert np.array_equal(st.distances().data, shortest_path(w.data, method="D"))

    def test_weighted_directed_graph_runs_float64_only(self):
        # nine weights from just above the float32 budget of n = 300, on both
        # directions of each edge: x_tilde starts past the budget and only grows
        n = 300
        top = largest_float32_x_tilde(n)
        g = generate_scale_free(GenSpec(n=n, m_attach=3, seed=7))
        rng = np.random.default_rng(7)
        src, dst = np.r_[g.src, g.dst], np.r_[g.dst, g.src]
        weights = rng.integers(top + 1, top + 10, len(src))
        w = to_distance_matrix(Graph(n, src, dst, weights, True))
        r = power_law_bound(w)
        assert "dense" in [st.kernel for st in r.epochs]
        # a record settled by a proof runs no product and has no arithmetic
        assert {st.arithmetic for st in r.epochs if st.kernel} == {"float64"}
        assert np.array_equal(r.distances.data, shortest_path(w.data, method="D"))

    def test_previous_state_dropped_before_the_product(self, monkeypatch):
        # at scale every full matrix is a large fraction of RAM, so a dense
        # epoch lets the previous state go before its product's array fills
        g = generate_scale_free(GenSpec(n=300, m_attach=3, seed=7))
        rng = np.random.default_rng(7)
        src, dst = np.r_[g.src, g.dst], np.r_[g.dst, g.src]
        weighted = Graph(300, src, dst, rng.integers(1, 10, len(src)), True)
        graphs = [
            weighted,
            generate_scale_free(GenSpec(n=400, m_attach=7, seed=11)),
            generate_scale_free(GenSpec(n=400, m_attach=60, seed=3)),
        ]
        multiply = solver.kernels.multiply_dense
        previous = []
        ran = set()

        def check(a, b):
            assert all(ref() is None for ref in previous)
            return multiply(a, b)

        monkeypatch.setattr(solver.kernels, "multiply_dense", check)
        for g in graphs:
            # the first epoch's input is the caller's matrix, which stays alive
            st = _scan(to_distance_matrix(g))
            _distance_product(st)
            for _ in range(2):
                form = "csr" if st.csr is not None else "dense"
                previous[:] = map(weakref.ref, st.csr or (st.dense,))
                kind, arithmetic = _distance_product(st)
                ran.add((form, kind, arithmetic))
        assert {(f, a) for f, k, a in ran if k == "dense"} == {
            ("csr", "float32"), ("csr", "float64"), ("dense", "float32"), ("dense", "float64")
        }

    @pytest.mark.parametrize("kernel", ["dense", "sparse"])
    def test_largest_float32_x_tilde_and_one_more(self, force_kernel, kernel):
        n = 60
        top = largest_float32_x_tilde(n)
        force_kernel(kernel)
        for x_tilde, arithmetic in ((top, "float32"), (top + 1, "float64")):
            a = np.ones((n, n))
            np.fill_diagonal(a, 0.0)
            a[0, 1] = a[1, 0] = x_tilde
            m = DistMatrix(a)
            st = _scan(m)
            assert _distance_product(st) == (kernel, arithmetic)
            assert np.array_equal(st.distances().data, minplus_square(m).data)


class TestFloydWarshall:
    def test_p3(self, p3):
        assert floyd_warshall(p3).data.tolist() == P3_SOLVED

    def test_disconnected(self):
        m = DistMatrix.from_rows([[0, INF], [INF, 0]])
        assert np.array_equal(floyd_warshall(m).data, m.data)

    def test_weighted_shortcut(self):
        m = DistMatrix.from_rows([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
        assert floyd_warshall(m).data.tolist() == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]


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
        assert [st.kernel for st in r.epochs if st.kernel] == ["dense"] * 3
        assert r.epochs[-1].kernel is None
        assert r.epochs[-1].delta == 0

    def test_confirming_product_runs_when_weight_bound_fails(self):
        # after epoch 1 every pair is finite, but the largest entry 6 is not
        # below 3 * w_min = 3: a longer path could still be shorter
        m = DistMatrix.from_rows([[0, 1, INF], [1, 0, 5], [INF, 5, 0]])
        r = power_law_bound(m)
        assert r.converged
        assert len([st.kernel for st in r.epochs if st.kernel]) == 2
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
            stopped += r.epochs[-1].kernel is None
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

    def test_epoch_budget_ends_unproved_solve(self, monkeypatch):
        # with neither stop able to fire, path-9 runs its whole budget of
        # ceil(log2(8)) = 3 epochs plus the confirming one, and reads unconverged
        monkeypatch.setattr(solver, "_unchanged", lambda before, after: False)
        monkeypatch.setattr(solver, "_bound_proves_converged", lambda *args: False)
        r = power_law_bound(path_matrix(9))
        assert not r.converged
        assert len(r.epochs) == 4
        assert all(st.kernel == "dense" for st in r.epochs)
        assert np.array_equal(r.distances.data, floyd_warshall(path_matrix(9)).data)

    def test_kernel_trace_records_selection(self):
        # 40 + 2 * 39 finite entries of 1600: 7.4 %, below the 10 % threshold
        r = power_law_bound(path_matrix(40))
        kinds = [st.kernel for st in r.epochs if st.kernel]
        assert kinds[0] == "sparse"
        assert kinds[-1] == "dense"

    def test_fixed_squaring_baseline(self):
        m = path_matrix(17)
        dist, iters = fixed_squaring(m)
        assert iters == math.ceil(math.log2(16))
        assert np.array_equal(dist.data, floyd_warshall(m).data)
        assert len(power_law_bound(m).epochs) <= iters + 1


def input_edges(m: DistMatrix) -> solver._Edges:
    """m's finite off-diagonal entries, read straight from the matrix."""
    u, v = np.nonzero(np.isfinite(m.data) & ~np.eye(m.n, dtype=bool))
    return solver._Edges(u, v, state16(m.data[u, v]))


def sparse_weighted_digraph(rng, n):
    """About two out-edges per node, weights 1..5: few enough edges for the
    edge stop, and a bound that rarely fires."""
    return random_dist_matrix(
        rng, n, max_weight=5, density=float(rng.uniform(1.5, 2.5)) / n, directed=True
    )


def edge_state(m: DistMatrix, d: np.ndarray) -> solver._State:
    """A dense solve state of input m holding a copy of the distances d,
    with m's edges kept as _scan keeps them."""
    st = _scan(m)
    assert st.edges is not None
    st.set_dense(state16(d))
    return st


def relax_dense(st: solver._State) -> bool:
    """_relax_edges with the cap the solve gives it after a dense epoch."""
    return solver._relax_edges(st, st.n * st.n // solver._EDGE_DIVISOR)


def first_dense_state(m: DistMatrix) -> solver._State:
    """m's solve state after its first dense product."""
    st = _scan(m)
    while _distance_product(st)[0] != "dense":
        pass
    return st


class TestEdgeStop:
    """Relaxation over the input edges to the Bellman-Ford fixed point,
    against Floyd-Warshall and csgraph."""

    def test_true_on_shortest_distances(self):
        # a first pass that changes nothing: the old fixed-point check
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = sparse_weighted_digraph(rng, int(rng.integers(192, 256)))
            dist = floyd_warshall(m).data
            st = edge_state(m, dist)
            assert relax_dense(st)
            assert np.array_equal(st.distances().data, dist)
            assert st.summary == solver._dense_summary(state16(dist))

    def test_repairs_one_entry_raised_or_lost(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(256, 320))
            m = sparse_weighted_digraph(rng, n)
            dist = floyd_warshall(m).data
            i, j = np.argwhere(np.isfinite(dist) & ~np.eye(n, dtype=bool))[
                int(rng.integers(np.count_nonzero(np.isfinite(dist)) - n))
            ]
            for wrong in (dist[i, j] + 1, INF):
                d = dist.copy()
                d[i, j] = wrong
                st = edge_state(m, d)
                assert relax_dense(st), (i, j, wrong)
                assert np.array_equal(st.distances().data, dist), (i, j, wrong)
                assert st.summary == solver._dense_summary(state16(dist))

    def test_zero_weights_and_unreachable_pairs(self):
        # 0 -0-> 1 -3-> 2 -0-> 3, and nodes 4..63 on their own: n = 64
        # leaves room for 64 edge relaxations
        n = 64
        a = np.full((n, n), INF)
        np.fill_diagonal(a, 0.0)
        a[0, 1], a[1, 2], a[2, 3] = 0, 3, 0
        m = DistMatrix(a)
        dist = floyd_warshall(m).data
        assert dist[0, 3] == 3 and dist[3, 0] == INF
        for pair, wrong in (((0, 3), 4), ((0, 2), INF), ((1, 3), 4), ((0, 3), INF)):
            d = dist.copy()
            d[pair] = wrong
            st = edge_state(m, d)
            assert relax_dense(st), pair
            assert np.array_equal(st.distances().data, dist), pair

    def test_largest_entries_stay_exact(self):
        # weights of 512 and a distance of 1024, the largest a feasible solve
        # holds, next to unreachable pairs
        n = 74
        a = np.full((n, n), INF)
        np.fill_diagonal(a, 0.0)
        a[np.arange(70), np.arange(1, 71)] = 1.0
        a[71, 72] = a[72, 73] = 512.0
        m = DistMatrix(a)
        dist = floyd_warshall(m).data
        assert dist[71, 73] == 1024 and dist[73, 71] == INF
        for wrong in (1025, INF):
            d = dist.copy()
            d[71, 73] = wrong
            st = edge_state(m, d)
            assert relax_dense(st)
            assert np.array_equal(st.distances().data, dist)

    def test_gives_up_where_an_entry_could_reach_the_sentinel(self):
        # a path of 40 edges of weight 512 into node 0, among 360 nodes on
        # their own: its distances reach 20480, past the int16 sentinel 2**14
        n = 400
        a = np.full((n, n), INF)
        np.fill_diagonal(a, 0.0)
        a[np.arange(1, 41), np.arange(40)] = 512.0
        m = DistMatrix(a)
        st = edge_state(m, a)
        assert not relax_dense(st)
        assert np.array_equal(st.distances().data, a)

    def test_reaches_floyd_warshall_from_product_states(self):
        # every dense state of each solve, relaxed on a copy: the relaxation
        # reaches the shortest distances or gives up with the copy untouched
        rng = np.random.default_rng(35)
        reached = gave_up = 0
        for case in range(12):
            n = int(rng.integers(256, 400))
            m = sparse_weighted_digraph(rng, n)
            if case % 2:
                m = DistMatrix(np.minimum(m.data, m.data.T))
            dist = floyd_warshall(m).data
            st = _scan(m)
            while st.dense is None or not np.array_equal(st.distances().data, dist):
                kind, _ = _distance_product(st)
                if kind != "dense":
                    continue
                copy = edge_state(m, st.distances().data)
                if relax_dense(copy):
                    reached += 1
                    assert np.array_equal(copy.distances().data, dist), case
                    assert copy.summary == solver._dense_summary(state16(dist))
                else:
                    gave_up += 1
                    assert np.array_equal(copy.dense, st.dense), case
                    assert copy.summary == st.summary
        assert reached >= 10 and gave_up >= 5, (reached, gave_up)

    def test_give_up_leaves_the_state_bit_identical(self):
        # about two edges per node leave room for little more than one
        # pass over the edges at n = 200, so about half of these give up
        rng = np.random.default_rng(36)
        gave_up = 0
        for _ in range(16):
            m = sparse_weighted_digraph(rng, int(rng.integers(192, 256)))
            st = first_dense_state(m)
            data, summary = st.dense, st.summary
            before = data.tobytes()
            if relax_dense(st):
                continue
            gave_up += 1
            assert st.dense is data and data.tobytes() == before
            assert st.summary is summary
        assert gave_up >= 6

    @staticmethod
    def count_relaxed(monkeypatch) -> list[int]:
        """Patch _pass_plan to add the edges of each block the relaxation
        takes to the last entry of the returned list. The patched plan can
        be iterated again, as a reused plan is, and counts its blocks on
        each iteration, as they are taken: a pass that gives up counts only
        the blocks it reached."""
        relaxed = [0]
        plan = solver._pass_plan

        class Counted:
            def __init__(self, blocks):
                self.blocks = blocks

            def __iter__(self):
                for ks, e in self.blocks:
                    relaxed[-1] += len(e)
                    yield ks, e

        monkeypatch.setattr(solver, "_pass_plan", lambda src, n: Counted(plan(src, n)))
        return relaxed

    def test_gives_up_only_where_the_passes_pass_the_cap(self, monkeypatch):
        # the edges the passes relax with the cap lifted decide the outcome:
        # a cap of that many edges reaches Floyd-Warshall's result, a cap of
        # one edge fewer gives up within it
        relaxed = self.count_relaxed(monkeypatch)

        def relax(m, d, cap):
            st = edge_state(m, d)
            relaxed.append(0)
            return solver._relax_edges(st, cap), relaxed[-1], st.distances().data

        rng = np.random.default_rng(38)
        gave_up = 0
        for _ in range(16):
            m = sparse_weighted_digraph(rng, int(rng.integers(192, 256)))
            d = first_dense_state(m).distances().data
            dist = floyd_warshall(m).data
            ok, needed, got = relax(m, d, m.n * m.n)
            assert ok and np.array_equal(got, dist)
            ok, count, got = relax(m, d, needed)
            assert ok and count == needed and np.array_equal(got, dist)
            # a first pass that changed nothing leaves no smaller cap to try
            if needed > len(input_edges(m).src):
                ok, count, got = relax(m, d, needed - 1)
                assert not ok and count <= needed - 1 and np.array_equal(got, d)
            fits = needed <= m.n * m.n // solver._EDGE_DIVISOR
            assert relax_dense(edge_state(m, d)) == fits
            gave_up += not fits
        assert 4 <= gave_up <= 12

    def test_far_from_the_fixed_point_gives_up_in_the_first_pass(self, monkeypatch):
        # the input itself, at about 1000 of the 1024 edges the cap allows
        # at n = 256: rows change at once, and the edges into them cannot
        # fit in a second pass, so the first pass is not finished
        relaxed = self.count_relaxed(monkeypatch)
        m = random_dist_matrix(
            np.random.default_rng(39), 256, max_weight=5, density=3.9 / 256, directed=True
        )
        st = edge_state(m, m.data)
        assert len(st.edges.src) <= 1024
        assert not relax_dense(st)
        assert 0 < relaxed[-1] < len(st.edges.src) // 4
        assert np.array_equal(st.distances().data, m.data)

    def test_edge_stop_saves_one_product(self, monkeypatch):
        rng = np.random.default_rng(33)
        fired = 0
        for _ in range(12):
            m = sparse_weighted_digraph(rng, int(rng.integers(128, 256)))
            want = shortest_path(m.data, method="D")
            r = power_law_bound(m)
            assert r.converged and np.array_equal(r.distances.data, want)
            if r.epochs[-1].proof != "edges":
                continue
            fired += 1
            last = r.epochs[-1]
            fin = want[np.isfinite(want)]
            assert (last.kernel, last.arithmetic) == (None, None)
            assert (last.max_element, last.finite_after) == (fin.max(), fin.size)
            assert last.finite_before == r.epochs[-2].finite_after
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_relax_edges", lambda st, cap: False)
                off = power_law_bound(m)
            assert np.array_equal(off.distances.data, want)
            assert off.epochs[-1].proof != "edges"
            products = [st for st in r.epochs if st.kernel]
            assert len([st for st in off.epochs if st.kernel]) >= len(products) + 1
        assert fired >= 10

    def test_edges_kept_up_to_the_limit(self, force_kernel):
        # n = 64: at most 64 edges are kept
        n = 64
        for edges, kept in ((64, True), (65, False)):
            a = np.full((n, n), INF)
            np.fill_diagonal(a, 0.0)
            a[np.arange(n), (np.arange(n) + 1) % n] = 2.0
            if edges > n:
                a[0, 2] = 3.0
            m = DistMatrix(a)
            for kernel in ("auto", "dense", "sparse"):
                force_kernel(kernel)
                st = _scan(m)
                assert (st.edges is not None) == kept
                if kept:
                    assert st.edges.weight.dtype == np.int16
                    got = sorted(zip(*(x.tolist() for x in st.edges)))
                    assert got == sorted(zip(*(x.tolist() for x in input_edges(m))))

    def test_pass_plan_blocks(self):
        # the input's edges and random subsets of them, as later passes take
        # them, on a sparse digraph and on one with a hub of more edges than
        # a block gathers
        rng = np.random.default_rng(37)
        star = star_digraph(600, 6)
        assert np.bincount(_scan(star).edges.src).max() > solver._PULL_ROWS
        for m in (sparse_weighted_digraph(rng, 200), star):
            u = _scan(m).edges.src
            for keep in (1.0, 0.5, 0.1):
                src = u[rng.random(len(u)) < keep]
                seen = []
                for ks, e in solver._pass_plan(src, m.n):
                    assert len(e) == sum(ks) <= solver._PULL_ROWS
                    assert all(a >= b for a, b in zip(ks, ks[1:]))
                    sources = src[e[: ks[0]]]
                    assert len(set(sources.tolist())) == ks[0] <= solver._PULL_SOURCES
                    lo = 0
                    for k in ks:
                        assert np.array_equal(src[e[lo : lo + k]], sources[:k])
                        lo += k
                    seen += e.tolist()
                assert sorted(seen) == list(range(len(src)))

    @staticmethod
    def reference_pass_plan(src: np.ndarray, n: int) -> list:
        """The plan of one pass from its definition: each source's edges cut
        into slices of at most _PULL_ROWS, the slices stable-sorted by
        decreasing size, greedy blocks of at most _PULL_SOURCES slices and
        _PULL_ROWS edges, and, for each rank r, every slice of the block
        with more than r edges."""
        rows, most = solver._PULL_ROWS, solver._PULL_SOURCES
        slices = []
        for u in range(n):
            at = np.flatnonzero(src == u).tolist()
            slices += [at[i : i + rows] for i in range(0, len(at), rows)]
        slices.sort(key=len, reverse=True)
        plan = []
        i = 0
        while i < len(slices):
            j, size = i + 1, len(slices[i])
            while j < len(slices) and j - i < most and size + len(slices[j]) <= rows:
                size += len(slices[j])
                j += 1
            block = slices[i:j]
            ranks = range(len(block[0]))
            ks = [sum(len(s) > r for s in block) for r in ranks]
            plan.append((ks, [s[r] for r in ranks for s in block if len(s) > r]))
            i = j
        return plan

    @pytest.mark.parametrize("rows", [None, 24])
    def test_pass_plan_matches_its_definition(self, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(solver, "_PULL_ROWS", rows)
        rng = np.random.default_rng(41)
        star = star_digraph(600, 6)
        assert np.bincount(_scan(star).edges.src).max() > solver._PULL_ROWS
        for m in (sparse_weighted_digraph(rng, 200), star):
            u = _scan(m).edges.src
            for src in (u, u[rng.random(len(u)) < 0.5], u[rng.random(len(u)) < 0.1], u[:0]):
                got = [(ks, e.tolist()) for ks, e in solver._pass_plan(src, m.n)]
                assert got == self.reference_pass_plan(src, m.n)

    def test_never_called_above_the_edge_limit(self, monkeypatch, force_kernel):
        def refuse(st, cap):
            raise AssertionError("relaxation ran above the edge limit")

        monkeypatch.setattr(solver, "_relax_edges", refuse)
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(20, 60))
            m = random_dist_matrix(rng, n, max_weight=8, density=0.1, directed=True)
            for kernel in ("auto", "dense"):
                force_kernel(kernel)
                r = power_law_bound(m)
                assert r.converged
                assert np.array_equal(r.distances.data, shortest_path(m.data, method="D"))

    def test_routing_graph_stops_by_the_bound(self, monkeypatch):
        def refuse(st, cap):
            raise AssertionError("relaxation ran where the bound fires")

        monkeypatch.setattr(solver, "_relax_edges", refuse)
        # acceptance criterion 6's routing graph
        w = to_distance_matrix(generate_scale_free(GenSpec(n=1600, m_attach=7, seed=11)))
        assert _scan(w).edges is not None
        r = power_law_bound(w)
        assert r.converged and r.epochs[-1].proof == "bound"

    @pytest.mark.parametrize(
        "n, chords, diameter, relaxed",
        [(400, 9, 81, True), (400, 10, 82, False), (800, 20, 111, False)],
    )
    def test_ring_past_the_diameter_ceiling(self, n, chords, diameter, relaxed):
        # an undirected unit-weight ring with random chords, past the x_tilde
        # that Alon's base n + 1 admitted (58 at n = 400, 52 at n = 800):
        # every epoch up to x_tilde = 64 is feasible and x_tilde = 128 is
        # not (safe_limit 101.8 at n = 400, 92.5 at n = 800). From epoch 6's
        # state the diameter-81 ring needs fewer than n * n // 64 edge
        # relaxations, so relaxation finishes it; the diameter-82 ring needs
        # more, and epoch 7's product, at x_tilde 64, leaves it and the
        # n = 800 ring to the bound
        m = _ring(n, chords)
        want = shortest_path(m.data, method="D")
        assert want.max() == diameter
        assert 64 <= precision_limits(n, 64).safe_limit < 128
        r = power_law_bound(m)
        assert r.converged and np.array_equal(r.distances.data, want)
        assert r.epochs[-1].proof == ("edges" if relaxed else "bound")
        if relaxed:
            assert r.epochs[-2].max_element == 64 < r.epochs[-1].max_element == diameter
        else:
            assert r.epochs[-2].max_element == diameter

    def test_ring_past_the_new_ceiling_refused_before_allocating(self):
        # the plain ring of 400 nodes (diameter 200) needs the product at
        # x_tilde = 128; it is refused, and so is a solve from the 128-hop
        # state, the distances up to 128, before any n x n float64 array
        n = 400
        m = _ring(n, 0)
        with pytest.raises(FeasibilityError, match="x_tilde=128"):
            power_law_bound(m)
        dist = shortest_path(m.data, method="D")
        assert dist.max() == 200
        hops = DistMatrix(np.where(dist <= 128, dist, INF))
        tracemalloc.start()
        try:
            with pytest.raises(FeasibilityError, match="x_tilde=128"):
                power_law_bound(hops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < hops.data.nbytes


def _ring(n: int, chords: int) -> DistMatrix:
    """Undirected unit-weight ring of n nodes with random chords."""
    rng = np.random.default_rng(5)
    a = np.full((n, n), INF)
    np.fill_diagonal(a, 0.0)
    a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    src, dst = rng.integers(0, n, chords), rng.integers(0, n, chords)
    keep = src != dst
    a[src[keep], dst[keep]] = 1.0
    return DistMatrix(np.minimum(a, a.T))


def sparse_weighted_few_edges(rng, n):
    """About 1.2-2 out-edges per node, weights 1..9, with largest entries
    that keep the path-weight bound from firing."""
    return random_dist_matrix(
        rng, n, max_weight=9, density=float(rng.uniform(1.2, 2.0)) / n, directed=True
    )


def state_of(m: DistMatrix, d: np.ndarray, form: str) -> solver._State:
    """A solve state holding a copy of the distances d, dense or as CSR
    parts of its finite entries, with all of m's edges, however many there
    are."""
    st = solver._State(m.n)
    st.edges = input_edges(m)
    if form == "dense":
        st.set_dense(state16(d))
    else:
        rows, cols = np.nonzero(np.isfinite(d))
        indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=m.n))].astype(np.int32)
        st.set_sparse(indptr, cols.astype(np.int32), state16(d[rows, cols]))
    return st


def csr_state(m: DistMatrix, d: np.ndarray) -> solver._State:
    """A CSR solve state of input m holding the finite entries of d, with
    m's edges, which _scan keeps."""
    assert _scan(m).edges is not None
    return state_of(m, d, "csr")


class TestRelaxFromSparse:
    """Relaxation over the input edges from the CSR state of a sparse
    epoch, and the rule that decides when the solve tries it, against
    Floyd-Warshall and csgraph."""

    def test_reaches_floyd_warshall_after_one_and_two_sparse_epochs(self, force_kernel):
        force_kernel("sparse")
        rng = np.random.default_rng(41)
        for case in range(12):
            n = int(rng.integers(160, 256))
            m = sparse_weighted_few_edges(rng, n)
            dist = floyd_warshall(m).data
            fin = dist[np.isfinite(dist)]
            for epochs in (1, 2):
                st = _scan(m)
                for _ in range(epochs):
                    assert _distance_product(st)[0] == "sparse"
                assert st.csr is not None
                # a cap no relaxation here reaches
                assert solver._relax_edges(st, n * n), (case, epochs)
                assert st.csr is None and held16(st)
                assert np.array_equal(st.distances().data, dist), (case, epochs)
                assert st.summary == (fin.size, fin.max(), fin.sum())

    def test_state_at_the_fixed_point_keeps_its_form_and_summary(self):
        # a first pass that changes nothing fits a cap of one pass over the
        # edges, and leaves the state, CSR or dense, and its summary as they were
        rng = np.random.default_rng(42)
        for _ in range(6):
            m = sparse_weighted_few_edges(rng, int(rng.integers(160, 256)))
            dist = floyd_warshall(m).data
            for st in (csr_state(m, dist), edge_state(m, dist)):
                parts, dense, summary = st.csr, st.dense, st.summary
                assert solver._relax_edges(st, len(st.edges.src))
                assert (st.csr, st.dense, st.summary) == (parts, dense, summary)
                assert st.summary is summary
                assert np.array_equal(st.distances().data, dist)

    def test_give_up_leaves_the_csr_parts_bit_identical(self):
        # a cap of one pass over the edges: the relaxation gives up as soon
        # as a row changes, where the state is not at the fixed point
        rng = np.random.default_rng(43)
        gave_up = 0
        for _ in range(10):
            m = sparse_weighted_few_edges(rng, int(rng.integers(160, 256)))
            st = _scan(m)
            assert _distance_product(st)[0] == "sparse"
            parts, summary = st.csr, st.summary
            before = [(x.dtype, x.tobytes()) for x in parts]
            if solver._relax_edges(st, len(st.edges.src)):
                continue
            gave_up += 1
            assert st.csr is parts and st.dense is None and st.summary is summary
            assert [(x.dtype, x.tobytes()) for x in parts] == before
        assert gave_up >= 8

    def test_give_up_leaves_the_solve_on_the_product_path(self, monkeypatch):
        relax = solver._relax_edges
        tried = []

        def spy(st, cap):
            tried.append((st.csr is not None, relax(st, cap)))
            return tried[-1][1]

        rng = np.random.default_rng(44)
        from_csr = 0
        for _ in range(10):
            m = sparse_weighted_few_edges(rng, int(rng.integers(256, 320)))
            want = shortest_path(m.data, method="D")
            with monkeypatch.context() as mp:
                # a cap of one edge relaxation from a CSR state
                mp.setattr(solver, "_SPARSE_CAP_DIVISOR", m.n * m.n)
                mp.setattr(solver, "_relax_edges", spy)
                tried.clear()
                try:
                    r = power_law_bound(m)
                except FeasibilityError:
                    r = None
            if any(ok for csr, ok in tried if csr):
                # a CSR state already at the fixed point: its first pass
                # changed nothing and ended the solve
                assert r.epochs[-1].proof == "edges"
                assert np.array_equal(r.distances.data, want)
                continue
            from_csr += any(csr for csr, _ in tried)
            with monkeypatch.context() as mp:
                # no relaxation from a CSR state: the product path
                mp.setattr(solver, "_relax_edges", lambda st, cap: st.csr is None and relax(st, cap))
                if r is None:
                    # refused at the same epoch
                    with pytest.raises(FeasibilityError):
                        power_law_bound(m)
                    continue
                products = power_law_bound(m)
            assert r.epochs == products.epochs
            assert r.converged and np.array_equal(r.distances.data, products.distances.data)
            assert np.array_equal(r.distances.data, want)
        assert from_csr >= 5

    def test_solves_end_by_relaxation_from_sparse_epochs(self, force_kernel):
        # the kernel is forced sparse, so the relaxation starts from a CSR
        # state
        force_kernel("sparse")
        rng = np.random.default_rng(45)
        fired = 0
        for _ in range(16):
            m = sparse_weighted_few_edges(rng, int(rng.integers(256, 320)))
            want = shortest_path(m.data, method="D")
            try:
                r = power_law_bound(m)
            except FeasibilityError:
                continue
            assert r.converged and np.array_equal(r.distances.data, want)
            if r.epochs[-1].proof != "edges":
                continue
            fired += 1
            fin = want[np.isfinite(want)]
            last = r.epochs[-1]
            assert (last.max_element, last.finite_after) == (fin.max(), fin.size)
            assert last.finite_before == r.epochs[-2].finite_after
            assert all(st.kernel == "sparse" for st in r.epochs[:-1])
        assert fired >= 12

    def test_unit_weight_graphs_never_relax_from_csr(self, monkeypatch, force_kernel):
        # after a sparse epoch that covers every path of at most m edges, a
        # unit-weight graph's largest entry is at most m, so the bound can
        # fire after the next product and no relaxation is tried: the
        # doubling that acceptance criterion 3 checks rests on that
        relax, relax_cap = solver._relax_edges, solver._relax_cap
        sparse_caps = []

        def dense_only(st, cap):
            assert st.csr is None, "relaxation from a CSR state"
            return relax(st, cap)

        def spy_cap(kind, *args):
            cap = relax_cap(kind, *args)
            if kind == "sparse":
                sparse_caps.append(cap)
            return cap

        monkeypatch.setattr(solver, "_relax_edges", dense_only)
        monkeypatch.setattr(solver, "_relax_cap", spy_cap)
        specs = [GenSpec(n=1600, m_attach=7, seed=11)]
        specs += [GenSpec(n=1000, m_attach=k, seed=7) for k in (1, 2, 3, 5)]
        graphs = [to_distance_matrix(generate_scale_free(spec)) for spec in specs]
        rng = np.random.default_rng(46)
        graphs += [
            random_dist_matrix(
                rng, int(rng.integers(40, 120)), max_weight=1,
                density=float(rng.uniform(0.01, 0.05)), directed=bool(rng.integers(2)),
            )
            for _ in range(20)
        ]
        for i, w in enumerate(graphs):
            force_kernel("auto" if i < len(specs) else "sparse")
            r = power_law_bound(w)
            assert r.converged, i
            assert np.array_equal(r.distances.data, shortest_path(w.data, method="D")), i
        assert sparse_caps and not any(sparse_caps)

    def test_sparse_rule_boundary(self, monkeypatch):
        n = 128
        # the bound side: 2 * top against (2m + 1) * w_min = 10, whatever
        # the number of edges
        assert solver._relax_cap("sparse", n, 2, 2.0, 5) == n * n // 16
        assert solver._relax_cap("sparse", n, 2, 2.0, 4) == 0
        # after a dense epoch only the cap applies
        assert solver._relax_cap("dense", n, 2, 2.0, 4) == n * n // 64

        # and in a solve: n and n + 1 random edges, weights 1..9; the
        # number of edges does not decide whether a relaxation is tried,
        # so both relax from the CSR state of the first sparse epoch
        relax = solver._relax_edges
        from_csr = []

        def spy(st, cap):
            from_csr.append(st.csr is not None)
            return relax(st, cap)

        monkeypatch.setattr(solver, "_relax_edges", spy)
        rng = np.random.default_rng(47)
        off = np.flatnonzero(~np.eye(n, dtype=bool))
        picked = rng.choice(off, size=n + 1, replace=False)
        weights = rng.integers(1, 10, size=n + 1).astype(np.float64)
        for edges in (n, n + 1):
            a = np.full(n * n, INF)
            a[:: n + 1] = 0.0
            a[picked[:edges]] = weights[:edges]
            m = DistMatrix(a.reshape(n, n))
            from_csr.clear()
            r = power_law_bound(m)
            assert r.converged
            assert np.array_equal(r.distances.data, shortest_path(m.data, method="D"))
            assert r.epochs[0].kernel == "sparse"
            assert from_csr and from_csr[0], (edges, from_csr)


def weighted_ba_digraph(n: int, m_attach: int, seed: int) -> DistMatrix:
    """A Barabasi-Albert graph whose edges each become two directed edges
    with independent weights 1..9."""
    g = generate_scale_free(GenSpec(n=n, m_attach=m_attach, seed=seed))
    w = np.random.default_rng(seed).integers(1, 10, size=(2, len(g.src)))
    a = np.full((n, n), INF)
    np.fill_diagonal(a, 0.0)
    a[g.src, g.dst] = w[0]
    a[g.dst, g.src] = w[1]
    return DistMatrix(a)


def star_digraph(n: int, seed: int) -> DistMatrix:
    """Node 0 with an edge to and from every other node, weights 1..9, and
    a few random edges among the others."""
    rng = np.random.default_rng(seed)
    a = random_dist_matrix(rng, n, max_weight=9, density=1.0 / n, directed=True).data
    a[0, 1:] = rng.integers(1, 10, n - 1)
    a[1:, 0] = rng.integers(1, 10, n - 1)
    return DistMatrix(a)


class TestPullRelaxation:
    """Relaxation passes on hub-heavy graphs, whose sources differ most in
    out-degree, against Floyd-Warshall: from the input, its square and its
    fourth power, held dense and as CSR parts."""

    GRAPHS = {
        "star": lambda: star_digraph(300, 1),
        "star past the row bound": lambda: star_digraph(600, 2),
        "ba m_attach 1": lambda: weighted_ba_digraph(400, 1, 3),
        "ba m_attach 6": lambda: weighted_ba_digraph(300, 6, 4),
        "ba m_attach 7": lambda: weighted_ba_digraph(240, 7, 5),
    }

    @pytest.mark.parametrize("rows", [None, 24])
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_reaches_floyd_warshall_or_gives_up_untouched(self, monkeypatch, name, rows):
        if rows is not None:
            # a row bound that every graph's largest hub passes
            monkeypatch.setattr(solver, "_PULL_ROWS", rows)
        m = self.GRAPHS[name]()
        src = input_edges(m).src
        out = np.bincount(src, minlength=m.n)
        assert (out.max() > solver._PULL_ROWS) == (rows is not None or name.endswith("bound"))
        if name.startswith("star") or name == "ba m_attach 1":
            assert (out == 1).any()
        # a block whose last ranks hold one source
        plan = solver._pass_plan(src, m.n)
        assert rows or any(len(ks) > 1 < ks[0] and ks[-1] == 1 for ks, _ in plan)
        dist = floyd_warshall(m).data
        fin = dist[np.isfinite(dist)]
        d = m.data
        gave_up = 0
        for _ in range(3):
            for form in ("dense", "csr"):
                st = state_of(m, d, form)
                assert solver._relax_edges(st, m.n * m.n), (form, st.summary)
                assert np.array_equal(st.distances().data, dist), form
                assert st.summary == (fin.size, fin.max(), fin.sum())
                # room for the first pass only
                st = state_of(m, d, form)
                parts, dense, summary = st.csr, st.dense, st.summary
                before = [x.tobytes() for x in parts or (dense,)]
                if solver._relax_edges(st, len(src)):
                    assert np.array_equal(st.distances().data, dist)
                    continue
                gave_up += 1
                assert (st.csr, st.dense, st.summary) == (parts, dense, summary)
                assert [x.tobytes() for x in parts or (dense,)] == before
            d = minplus_square(DistMatrix(d)).data
        assert gave_up >= 4


def weighted_chain(weight: int) -> DistMatrix:
    """0 -> 1 -> 2 -> 3 -> 4, each edge of the given weight, among 64 nodes."""
    n = 64
    a = np.full((n, n), INF)
    np.fill_diagonal(a, 0.0)
    a[np.arange(4), np.arange(1, 5)] = weight
    return DistMatrix(a)


class TestRelaxationType:
    """The type a relaxation works in, uint8 with sentinel 255 - w_max where
    every finite entry of its start lies below that, int16 otherwise, seen
    through the copies it fills and widens; the results against
    Floyd-Warshall."""

    @staticmethod
    def spy(monkeypatch) -> tuple[list, list]:
        """Patch _fill and _widen to record the (type, sentinel) of each copy
        a relaxation fills, and the sentinel of each uint8 copy it widens."""
        fills, widened = [], []
        fill, widen = solver._fill, solver._widen

        def spy_fill(st, d, sentinel):
            fills.append((d.dtype, sentinel))
            return fill(st, d, sentinel)

        def spy_widen(buf, sentinel):
            widened.append(sentinel)
            widen(buf, sentinel)

        monkeypatch.setattr(solver, "_fill", spy_fill)
        monkeypatch.setattr(solver, "_widen", spy_widen)
        return fills, widened

    def test_uint8_from_csr_and_dense_states(self, monkeypatch):
        fills, widened = self.spy(monkeypatch)
        rng = np.random.default_rng(45)
        unreachable = 0
        for case in range(6):
            m = sparse_weighted_few_edges(rng, int(rng.integers(160, 256)))
            dist = floyd_warshall(m).data
            fin = dist[np.isfinite(dist)]
            unreachable += fin.size < dist.size
            s8 = 255 - int(input_edges(m).weight.max())
            for form in ("csr", "dense"):
                fills.clear()
                widened.clear()
                st = state_of(m, m.data, form)
                assert solver._relax_edges(st, m.n * m.n), (case, form)
                assert fills == [(np.uint8, s8)] and widened == [s8], (case, form)
                assert st.csr is None and st.dense.shape == (m.n, m.n) and held16(st)
                assert np.array_equal(st.distances().data, dist), (case, form)
                assert st.summary == (fin.size, fin.max(), fin.sum())
        assert unreachable >= 3

    @pytest.mark.parametrize(
        "weight, types",
        [(20, ["uint8"]), (60, ["uint8", "int16"]), (84, ["uint8", "int16"]),
         (85, ["int16"]), (100, ["int16"])],
    )
    def test_chain_against_floyd_warshall(self, monkeypatch, weight, types):
        # from the chain's 2-hop distances, top 2 * weight, against
        # s8 = 255 - weight: below it up to weight 84, so the relaxation
        # starts in uint8. Its fixed point, top 4 * weight, passes the check
        # top + weight < s8 at weight 20 only; at 60 (start 120 < 195, end
        # 240) and 84 it reruns in int16
        fills, widened = self.spy(monkeypatch)
        m = weighted_chain(weight)
        dist = floyd_warshall(m).data
        fin = dist[np.isfinite(dist)]
        assert fin.max() == 4 * weight
        s8 = 255 - weight
        sentinels = {"uint8": s8, "int16": UNREACHABLE16}
        for form in ("csr", "dense"):
            fills.clear()
            widened.clear()
            st = state_of(m, minplus_square(m).data, form)
            assert st.summary.top == 2 * weight
            assert solver._relax_edges(st, m.n * m.n), form
            assert fills == [(np.dtype(t), sentinels[t]) for t in types], form
            assert widened == ([s8] if types == ["uint8"] else [])
            assert st.csr is None and held16(st)
            assert np.array_equal(st.distances().data, dist), form
            assert st.summary == (fin.size, fin.max(), fin.sum())

    def test_uint8_give_up_leaves_the_state_bit_identical(self, monkeypatch):
        fills, widened = self.spy(monkeypatch)
        rng = np.random.default_rng(46)
        gave_up = 0
        for case in range(8):
            m = sparse_weighted_few_edges(rng, int(rng.integers(160, 256)))
            for form in ("csr", "dense"):
                fills.clear()
                st = state_of(m, m.data, form)
                parts, dense, summary = st.csr, st.dense, st.summary
                before = [(x.dtype, x.tobytes()) for x in parts or (dense,)]
                # room for the first pass only
                if solver._relax_edges(st, len(st.edges.src)):
                    continue
                gave_up += 1
                assert fills == [(np.uint8, 255 - int(st.edges.weight.max()))], (case, form)
                assert st.csr is parts and st.dense is dense and st.summary is summary
                assert [(x.dtype, x.tobytes()) for x in parts or (dense,)] == before
        assert gave_up >= 8 and not widened

    def test_a_pass_over_every_edge_is_planned_once(self, monkeypatch):
        # from the input of a hub-heavy digraph, whose first passes change
        # every head row, so each takes every edge
        plan = solver._pass_plan
        planned, passes = [], []

        class Recorded:
            def __init__(self, blocks, edges):
                self.blocks, self.edges = blocks, edges

            def __iter__(self):
                passes.append(self.edges)
                return iter(self.blocks)

        def recording(src, n):
            planned.append(len(src))
            return Recorded(plan(src, n), len(src))

        monkeypatch.setattr(solver, "_pass_plan", recording)
        m = weighted_ba_digraph(300, 6, 4)
        edges = len(input_edges(m).src)
        for form in ("csr", "dense"):
            planned.clear()
            passes.clear()
            st = state_of(m, m.data, form)
            assert solver._relax_edges(st, m.n * m.n)
            assert np.array_equal(st.distances().data, floyd_warshall(m).data)
            assert passes.count(edges) >= 2 and planned.count(edges) == 1, passes
            assert planned == [p for i, p in enumerate(passes) if p != edges or i == 0]


class TestSparsePhase:
    """power_law_bound, which keeps CSR parts while epochs run sparse,
    compares summaries and relaxes over the input edges, against the
    dense-state reference loop, which only checks the edges."""

    def test_matches_dense_state_loop(self, monkeypatch, force_kernel):
        relax = solver._relax_edges
        outcomes = []

        def spy(st, cap):
            outcomes.append(relax(st, cap))
            return outcomes[-1]

        monkeypatch.setattr(solver, "_relax_edges", spy)
        rng = np.random.default_rng(21)
        rng_edges = np.random.default_rng(22)
        rng_heavy = np.random.default_rng(23)
        # the last four count dense epochs by the state form E is encoded
        # from and by arithmetic; gave_up counts solves in which a
        # relaxation gave up
        seen = dict.fromkeys(
            ("ended_sparse", "switched", "unchanged", "bound", "edges", "refused", "gave_up",
             "csr float32", "csr float64", "dense float32", "dense float64"),
            0,
        )
        for case in range(264):
            directed = bool(case % 2)
            if case >= 240:
                # weights up to 59: x_tilde passes the float32 bound early,
                # and some solves reach the 64-bit cap in a later epoch
                n = int(rng_heavy.integers(12, 56))
                m = random_dist_matrix(
                    rng_heavy, n, max_weight=int(rng_heavy.integers(30, 60)),
                    density=float(rng_heavy.uniform(0.02, 0.2)), directed=directed,
                )
            elif case >= 216:
                # about two edges per node: at most n * n // 64 edges, so the
                # edge stop can settle the dense epochs these graphs reach
                n = int(rng_edges.integers(128, 200))
                m = random_dist_matrix(
                    rng_edges, n, max_weight=int(rng_edges.integers(2, 6)),
                    density=float(rng_edges.uniform(1.5, 2.5)) / n * (1 + directed) / 2,
                    directed=directed,
                )
            elif case % 3 == 0:
                n = int(rng.integers(12, 56))
                m = clustered_dist_matrix(
                    rng, n, parts=n // int(rng.integers(2, 6)), max_weight=int(rng.integers(1, 6)),
                    density=float(rng.uniform(0.2, 0.6)), directed=directed,
                )
            else:
                n = int(rng.integers(12, 56))
                m = random_dist_matrix(
                    rng, n, max_weight=int(rng.integers(1, 6)),
                    density=float(rng.uniform(0.01, 0.2)), directed=directed,
                )
            for kernel in ("auto", "dense", "sparse"):
                force_kernel(kernel)
                want, records, want_converged = dense_state_solve(m)
                outcomes.clear()
                try:
                    r = power_law_bound(m)
                except FeasibilityError:
                    assert want is None, (case, kernel)
                    seen["refused"] += 1
                    continue
                got = [
                    (st.kernel, st.max_element, st.finite_before, st.finite_after, st.proof)
                    for st in r.epochs
                ]
                # every product record is the reference's at the same epoch
                products = [rec for rec in got if rec[0]]
                assert products == records[: len(products)], (case, kernel)
                if got[-1][-1] == "edges":
                    # no later than the reference's stop, and the relaxed
                    # matrix is the shortest distances
                    assert want is None or len(got) <= len(records), (case, kernel)
                    dist = shortest_path(m.data, method="D")
                    fin = dist[np.isfinite(dist)]
                    assert got[-1] == (None, fin.max(), products[-1][3], fin.size, "edges")
                    assert r.converged and np.array_equal(r.distances.data, dist)
                else:
                    assert want is not None and got == records, (case, kernel)
                    assert np.array_equal(r.distances.data, want.data), (case, kernel)
                    assert r.converged == want_converged
                seen["gave_up"] += not all(outcomes)
                for prev, st in zip([None, *r.epochs], r.epochs):
                    if st.kernel == "dense":
                        form = "csr" if prev is not None and prev.kernel == "sparse" else "dense"
                        seen[f"{form} {st.arithmetic}"] += 1
                if kernel == "auto":
                    kinds = [k for k, *_ in got if k]
                    seen["ended_sparse"] += kinds[-1] == "sparse"
                    seen["switched"] += kinds[0] == "sparse" and kinds[-1] == "dense"
                    seen[got[-1][-1] or "unchanged"] += 1
        assert min(seen.values()) >= 10, seen

    def test_unchanged_needs_equal_count_and_sum(self):
        assert solver._unchanged(solver._Summary(5, 3, 10), solver._Summary(5, 3, 10))
        # a pair that became finite can add as much as other entries lost
        assert not solver._unchanged(solver._Summary(5, 3, 10), solver._Summary(6, 3, 10))
        assert not solver._unchanged(solver._Summary(5, 3, 10), solver._Summary(5, 3, 9))

    def test_sparse_and_dense_start_refuse_the_same_x_tilde(self):
        n = 400
        limit = math.floor(precision_limits(n, 64).safe_limit)
        complete = np.ones((n, n))
        np.fill_diagonal(complete, 0.0)
        for base, form in ((path_matrix(n).data, "sparse"), (complete, "dense")):
            # past the largest feasible x_tilde, at the int16 sentinel, and
            # where a cast to int16 would wrap to a negative entry
            for x_tilde in (limit, limit + 1, UNREACHABLE16, 2**15 + 1):
                a = base.copy()
                a[0, 1] = a[1, 0] = x_tilde
                m = DistMatrix(a)
                if x_tilde == limit:
                    assert (_scan(m).csr is not None) == (form == "sparse")
                    distance_product(m)
                    continue
                tracemalloc.start()
                try:
                    with pytest.raises(FeasibilityError, match=f"x_tilde={x_tilde} "):
                        power_law_bound(m)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                # refused before any n x n float64 array was allocated
                assert peak < a.nbytes, (form, x_tilde, peak)


class TestSolveOptions:
    """The solve takes no options: the density rule routes every epoch and
    a proof picks every dense epoch's arithmetic."""

    @pytest.mark.parametrize(
        "removed",
        [
            "kernel_choice",
            "diameter_hint",
            "trust_hint",
            "max_epochs",
            "enforce_precision",
            "trusted_diameter",
            "width",
            "kernel",
        ],
    )
    def test_removed_options_rejected(self, p3, removed):
        assert not hasattr(minplus_apsp, "SolveOptions")
        for solve in (power_law_bound, fixed_squaring, distance_product):
            with pytest.raises(TypeError):
                solve(p3, None)
            with pytest.raises(TypeError):
                solve(p3, **{removed: None})


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
