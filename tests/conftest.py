import numpy as np
import pytest

from minplus_apsp import INF, DistMatrix

P3_ROWS = [[0, 1, INF], [1, 0, 1], [INF, 1, 0]]
P3_SOLVED = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


@pytest.fixture
def p3():
    """Path graph 0-1-2 in distance form."""
    return DistMatrix.from_rows(P3_ROWS)


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
