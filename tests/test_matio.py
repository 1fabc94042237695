import numpy as np

from minplus_apsp import INF, DistMatrix
from minplus_apsp.matio import distance_csv


def per_entry_csv(m: DistMatrix) -> str:
    """Reference formatter: one Python conversion per entry."""
    lines = []
    for row in m.data:
        lines.append(",".join("INF" if not np.isfinite(x) else str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def random_rows(rng, n, top):
    a = rng.integers(0, top + 1, size=(n, n)).astype(np.float64)
    a[rng.random((n, n)) < 0.2] = INF
    np.fill_diagonal(a, 0.0)
    return DistMatrix(a)


class TestDistanceCsv:
    def test_by_hand(self):
        m = DistMatrix.from_rows([[0, 12, INF], [3, 0, 105], [INF, INF, 0]])
        assert distance_csv(m) == "0,12,INF\n3,0,105\nINF,INF,0\n"

    def test_matches_per_entry_formatter(self):
        rng = np.random.default_rng(17)
        # 12x12 with entries up to 100: multi-digit tokens from the 0..top table
        # 6x6 with entries up to 10**12: distinct values beyond the matrix size
        for n, top in ((1, 0), (2, 1), (12, 100), (40, 9), (6, 10**12)):
            m = random_rows(rng, n, top)
            assert distance_csv(m) == per_entry_csv(m)
