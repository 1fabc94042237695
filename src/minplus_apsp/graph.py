"""Graph ingestion and conversion to/from distance-matrix form."""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

_VALIDATION_ROWS = 64

_HEADER_RE = re.compile(r"#n\s+(\d+)\s*$")


class GraphFormatError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True)
class Graph:
    """Simple weighted graph with dense 0-based node ids."""

    n: int
    edges: list[tuple[int, int, int]]
    directed: bool = False

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"node count must be positive, got {self.n}")
        n = self.n
        for u, v, w in self.edges:
            try:
                # | refuses a float id, which to_distance_matrix would truncate
                in_range = (u | v) >= 0 and u < n and v < n
            except TypeError:
                raise ValueError(f"edge ({u},{v}) has a non-integer node id") from None
            if not in_range:
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            # the chained test also refuses inf and NaN before int() sees them
            if not 1 <= w < INF or int(w) != w:
                raise ValueError(f"edge ({u},{v}) has invalid weight {w}")


@dataclass(frozen=True)
class DistMatrix:
    """Square matrix of shortest-path state: nonnegative integers, inf = unreachable.

    Stored as float64 so that ``np.inf`` is the unreachable sentinel; all
    finite entries are integral. Treated as immutable after construction.
    """

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.dtype != np.float64:
            raise ValueError(f"expected float64 entries, got {a.dtype}")
        if np.isnan(a.diagonal()).any() or (a.diagonal() != 0).any():
            raise ValueError("diagonal entries must be exactly 0")
        # NaN fails both tests; inf equals its own floor, -inf is negative
        if not np.amin(a, initial=0.0) >= 0:
            raise ValueError("entries must be nonnegative integers or inf (no NaN)")
        # row blocks through one small buffer: an n x n temporary would
        # cost more in fresh pages than the comparison itself
        buf = np.empty((_VALIDATION_ROWS, self.n))
        for i in range(0, self.n, _VALIDATION_ROWS):
            rows = a[i : i + _VALIDATION_ROWS]
            if not np.array_equal(np.floor(rows, out=buf[: len(rows)]), rows):
                raise ValueError("finite entries must be nonnegative integers")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def _trusted(cls, data: np.ndarray) -> "DistMatrix":
        """Wrap a float64 array that codec or solver built integral by
        construction, without validating it."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", data)
        return m

    @classmethod
    def from_rows(cls, rows) -> "DistMatrix":
        return cls(np.array(rows, dtype=np.float64))


@dataclass(frozen=True)
class DensityReport:
    """Fraction of entries with a finite value, diagonal included."""

    finite_count: int
    n_squared: int
    density: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "density", self.finite_count / self.n_squared)
        if not 0 < self.density <= 1:
            raise ValueError(f"density {self.density} out of (0, 1]")


def parse_edge_list(text: str, directed: bool = False) -> Graph:
    """Parse "u v" / "u v w" lines into a Graph.

    Lines starting with "#" are comments; an optional "#n <count>" header
    fixes the node count (otherwise 1 + max node id). Duplicate edges
    collapse to the minimum weight.
    """
    declared_n = None
    best: dict[tuple[int, int], int] = {}
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                declared_n = int(m.group(1))
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 'u v' or 'u v w', got {raw!r}")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer token in {raw!r}") from None
        u, v = nums[0], nums[1]
        w = nums[2] if len(nums) == 3 else 1
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative node id")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at node {u}")
        if w < 1:
            raise GraphFormatError(f"line {lineno}: weight must be >= 1, got {w}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise GraphFormatError(
                f"line {lineno}: node id >= declared count {declared_n}"
            )
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in best:
            best[key] = min(best[key], w)
        else:
            best[key] = w
        max_id = max(max_id, u, v)

    if not best:
        raise GraphFormatError("empty graph: no edges found")
    n = declared_n if declared_n is not None else max_id + 1
    edges = [(u, v, w) for (u, v), w in best.items()]
    return Graph(n=n, edges=edges, directed=directed)


def to_distance_matrix(g: Graph) -> DistMatrix:
    """Adjacency in distance form: 0 diagonal, edge weights, inf elsewhere."""
    a = np.full((g.n, g.n), INF, dtype=np.float64)
    np.fill_diagonal(a, 0.0)
    if g.edges:
        src, dst, weight = zip(*g.edges)
        src, dst = np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)
        weight = np.array(weight, dtype=np.float64)
        if not g.directed:
            src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
            weight = np.concatenate((weight, weight))
        # minimum.at keeps the lightest of duplicate edges
        np.minimum.at(a, (src, dst), weight)
    return DistMatrix(a)


def density(m: DistMatrix) -> DensityReport:
    finite_count = int(np.isfinite(m.data).sum())
    return DensityReport(finite_count=finite_count, n_squared=m.n * m.n)
