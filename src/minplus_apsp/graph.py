"""Graph ingestion and conversion to/from distance-matrix form."""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

# rows in one block of a pass over an n x n array: 800 KiB of float64 at n = 1600
BLOCK_ROWS = 64

_COUNT_RE = re.compile(r"-?\d+")


class GraphFormatError(ValueError):
    """Malformed edge-list input."""


class EdgeError(ValueError):
    """An edge that breaks a Graph invariant; ``index`` is its position in
    the edge arrays."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Graph:
    """Weighted graph with dense 0-based node ids, held as three parallel
    read-only int64 edge arrays. Parallel edges are allowed:
    ``to_distance_matrix`` keeps the lightest.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    directed: bool = False

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"node count must be positive, got {self.n}")
        src, dst, weight = (np.asarray(a) for a in (self.src, self.dst, self.weight))
        if src.ndim != 1 or not src.shape == dst.shape == weight.shape:
            raise ValueError(
                f"edge arrays must be 1-D and of equal length, got shapes "
                f"{src.shape}, {dst.shape}, {weight.shape}"
            )
        if len(src):  # an empty list converts to float64; it holds no edge to check
            for ids in (src, dst):
                # a float id would be truncated by to_distance_matrix
                if ids.dtype.kind not in "iu":
                    raise ValueError(f"non-integer node id dtype {ids.dtype}")
            _check_edges(self.n, src, dst, weight)
        for name, a in (("src", src), ("dst", dst), ("weight", weight)):
            # a private read-only copy, so the checked edges cannot change
            a = a.astype(np.int64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _check_edges(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> None:
    """Raise EdgeError naming the first edge with an id outside [0, n), a
    self-loop, or a weight that is not an integer >= 1."""
    in_range = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    loop = src == dst
    good_weight = weight >= 1
    if weight.dtype.kind == "f":
        # refuses inf, NaN, fractions and values past int64
        good_weight &= (weight < 2.0**63) & (np.floor(weight) == weight)
    bad = ~in_range | loop | ~good_weight
    if not bad.any():
        return
    i = int(bad.argmax())
    u, v = src[i], dst[i]
    if not in_range[i]:
        raise EdgeError(i, f"edge ({u},{v}) out of range for n={n}")
    if loop[i]:
        raise EdgeError(i, f"self-loop at node {u}")
    raise EdgeError(i, f"edge ({u},{v}) has invalid weight {weight[i]}")


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
        buf = np.empty((BLOCK_ROWS, self.n))
        for i in range(0, self.n, BLOCK_ROWS):
            rows = a[i : i + BLOCK_ROWS]
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

    A line whose first token is "#n" is a header and must read
    "#n <count>" with a positive integer count; it fixes the node count
    (otherwise 1 + max node id), and text with a header may have no edge
    line. Other lines starting with "#" are comments. A line without a
    weight has weight 1. Duplicate edges are kept as parallel edges.
    Every rejection of a line names it.
    """
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
        raise GraphFormatError(_token_error(lines, linenos, tokens)) from None
    n = declared_n if declared_n is not None else max(int(edges[:, :2].max()) + 1, 1)
    try:
        return Graph(n, edges[:, 0], edges[:, 1], edges[:, 2], directed=directed)
    except EdgeError as exc:
        raise GraphFormatError(f"line {linenos[exc.index]}: {exc}") from None
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _token_error(lines: list[str], linenos: list[int], tokens: list[str]) -> str:
    """Name the first edge line whose tokens are not all int64 integers."""
    for k, lineno in enumerate(linenos):
        try:
            np.array(tokens[3 * k : 3 * k + 3], dtype=np.int64)
        except ValueError:
            return f"line {lineno}: non-integer token in {lines[lineno - 1]!r}"
        except OverflowError:
            return f"line {lineno}: integer outside the int64 range in {lines[lineno - 1]!r}"
    return "non-integer token"


def to_distance_matrix(g: Graph) -> DistMatrix:
    """Adjacency in distance form: 0 diagonal, edge weights, inf elsewhere."""
    a = np.full((g.n, g.n), INF, dtype=np.float64)
    np.fill_diagonal(a, 0.0)
    src, dst, weight = g.src, g.dst, g.weight.astype(np.float64)
    if not g.directed:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
        weight = np.concatenate((weight, weight))
    # the one duplicate rule: the lightest of parallel edges wins
    np.minimum.at(a, (src, dst), weight)
    # every entry is 0, inf or the weight of an edge Graph has checked
    return DistMatrix._trusted(a)


def density(m: DistMatrix) -> DensityReport:
    finite_count = int(np.isfinite(m.data).sum())
    return DensityReport(finite_count=finite_count, n_squared=m.n * m.n)
