import numpy as np
import pytest

from minplus_apsp import (
    INF,
    DensityReport,
    DistMatrix,
    FeasibilityError,
    choose_kernel,
    distance_product,
    kernels,
)
from minplus_apsp.solver import (
    _EDGE_DIVISOR,
    _bound_proves_converged,
    _epoch_budget,
)

P3_ROWS = [[0, 1, INF], [1, 0, 1], [INF, 1, 0]]
P3_SOLVED = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


@pytest.fixture
def p3():
    """Path graph 0-1-2 in distance form."""
    return DistMatrix.from_rows(P3_ROWS)


@pytest.fixture
def force_kernel(monkeypatch):
    """force_kernel(kind) routes every later epoch of the test to one kernel
    by moving the density rule's threshold: "dense" below every density,
    "sparse" above every density (densities lie in (0, 1]), and "auto" back
    to kernels.SPARSE_THRESHOLD. choose_kernel reads the threshold at each
    call."""
    thresholds = {"auto": kernels.SPARSE_THRESHOLD, "dense": 0.0, "sparse": 2.0}

    def force(kind: str) -> None:
        monkeypatch.setattr(kernels, "SPARSE_THRESHOLD", thresholds[kind])

    return force


def minplus_square(m: DistMatrix, rows: int = 64) -> DistMatrix:
    """Direct min-plus product oracle, straight from the definition:
    c[i, j] = min over k of a[i, k] + a[k, j].

    Runs over blocks of rows, so the temporary holds rows * n * n entries
    (128 MB at n = 512) instead of n ** 3.
    """
    a = m.data
    c = np.empty_like(a)
    for i in range(0, m.n, rows):
        c[i : i + rows] = np.min(a[i : i + rows, :, None] + a[None, :, :], axis=1)
    return DistMatrix(c)


def floyd_warshall(w: DistMatrix) -> DistMatrix:
    """Ground-truth triple-loop relaxation (vectorized over the inner pair)."""
    d = w.data.copy()
    n = w.n
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return DistMatrix(d)


def random_dist_matrix(rng, n, *, max_weight=4, density=0.3, directed=False) -> DistMatrix:
    a = np.full((n, n), INF)
    np.fill_diagonal(a, 0.0)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    weights = rng.integers(1, max_weight + 1, size=(n, n)).astype(np.float64)
    a[mask] = weights[mask]
    if not directed:
        a = np.minimum(a, a.T)
    return DistMatrix(a)


def dense_state_solve(w: DistMatrix):
    """Reference solve loop with a dense state: every epoch squares the whole
    DistMatrix with distance_product and compares it with its input entry by
    entry, where power_law_bound keeps CSR parts while epochs run
    sparse and compares summaries. After a dense epoch that the bound does
    not settle, the edge stop checks the Bellman-Ford condition of the
    matrix against w's finite off-diagonal entries directly
    (d[u, :] <= w[u, v] + d[v, :] for each), when there are at most
    n * n // _EDGE_DIVISOR of them, and relaxes nothing.

    Returns (distances, [(kernel, max_element, finite_before, finite_after,
    proof) per epoch], converged). When an epoch's x_tilde is refused,
    distances is None and the records are those of the epochs before it.
    """
    n = w.n
    current = w
    finite = int(np.count_nonzero(np.isfinite(w.data)))
    off = ~np.eye(n, dtype=bool)
    # the smallest off-diagonal entry, inf when there is none
    w_min = float(w.data[off].min()) if n > 1 else INF
    u, v = np.nonzero(np.isfinite(w.data) & off)
    keep_edges = len(u) <= n * n // _EDGE_DIVISOR
    records = []
    m = 1
    for _ in range(_epoch_budget(n) + 1):
        kind = choose_kernel(DensityReport(finite, n * n))
        # current holds `finite` finite entries, so its product runs kind too
        try:
            nxt = distance_product(current)
        except FeasibilityError:
            return None, records, False
        fin = nxt.data[np.isfinite(nxt.data)]
        records.append((kind, int(fin.max()), finite, fin.size, None))
        same = np.array_equal(current.data, nxt.data)
        current = nxt
        finite_before, finite, top = finite, fin.size, int(fin.max())
        if same:
            return current, records, True
        m *= 2
        d = current.data
        if _bound_proves_converged(n, m, w_min, finite, finite_before, top):
            proof = "bound"
        elif kind == "dense" and keep_edges and np.all(d[u] <= w.data[u, v][:, None] + d[v]):
            proof = "edges"
        else:
            continue
        records.append((None, top, finite, finite, proof))
        return current, records, True
    return current, records, False


def clustered_dist_matrix(rng, n, *, parts, max_weight=4, density=0.3, directed=False):
    """random_dist_matrix on each of `parts` disjoint blocks of nodes, with
    no edge between blocks, so that a solve can end with few finite pairs."""
    a = np.full((n, n), INF)
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(parts, n) - 1, replace=False))
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
        block = random_dist_matrix(
            rng, hi - lo, max_weight=max_weight, density=density, directed=directed
        )
        a[lo:hi, lo:hi] = block.data
    return DistMatrix(a)
