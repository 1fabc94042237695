"""Graph ingestion and conversion to/from distance-matrix form."""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

# rows in one block of a pass over an n x n array: 800 KiB of float64 at n = 1600
BLOCK_ROWS = 64

# The edge-list grammar by byte, for bytes.translate: the ASCII line breaks
# of str.splitlines become b"\n", the rest of the ASCII whitespace that
# str.split splits on b" ", every other control byte DEL; all other bytes,
# non-ASCII ones too, stand for themselves
_CLASSES = bytes(
    10 if b in b"\n\v\f\r\x1c\x1d\x1e" else 32 if b in b"\t\x1f" else 127 if b < 32 else b
    for b in range(256)
)
_BREAK, _SPACE, _HASH, _PLUS, _MINUS, _ZERO, _N = b"\n #+-0n"
_COUNT_RE = re.compile(rb"-?[0-9]+")
# place values of a 19-digit integer, the longest int64 holds, and its range
_POW10 = 10 ** np.arange(18, -1, -1, dtype=np.uint64)
_INT64_MAX = np.uint64(2**63 - 1)


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

    The grammar: the text is UTF-8, and tokens are split on ASCII
    whitespace. Lines end at "\\n", "\\r\\n" or "\\r" (and at the other
    ASCII line breaks of ``str.splitlines``: "\\v", "\\f" and "\\x1c" to
    "\\x1e"). An integer is an optional sign followed by ASCII digits. A
    line whose first token starts with "#" is a comment, except that a
    first token of exactly "#n" makes a header, which must read
    "#n <count>" with a positive count; a header may sit on any line, the
    last one wins, and it fixes the node count (otherwise 1 + max node id).
    Text with a header may have no edge line. Every other line that holds a
    token must hold two or three integers; a line without a weight has
    weight 1. Non-ASCII characters are allowed only in comments. Duplicate
    edges are kept as parallel edges. Every rejection of a line names it:
    the first malformed line or header, else the first token that is not
    an integer or does not fit in int64, else the first edge that breaks a
    Graph invariant.
    """
    data = text.encode("utf-8", "surrogatepass")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")  # one line break
    c = np.frombuffer(data.translate(_CLASSES), dtype=np.uint8)
    bounds = np.flatnonzero(np.diff(c > _SPACE, prepend=False, append=False))
    starts, ends = bounds[::2], bounds[1::2]
    # line breaks and token starts in order: the tokens of line k are
    # cuts[k] to cuts[k + 1] - 1
    events = c == _BREAK
    events[starts] = True
    is_break = c[np.flatnonzero(events)] == _BREAK
    before = np.flatnonzero(is_break) - np.arange(np.count_nonzero(is_break))
    cuts = np.concatenate(([0], before, [len(starts)]))
    size = np.diff(cuts)
    filled = np.flatnonzero(size)
    hashed = c[starts[cuts[filled]]] == _HASH
    comments, edge_lines = filled[hashed], filled[~hashed]

    # the first malformed line or header, by line, fails; headers are few
    per_line = size[edge_lines]
    malformed = edge_lines[(per_line < 2) | (per_line > 3)]
    stop = malformed[0] if len(malformed) else len(size)
    two = comments[ends[cuts[comments]] - starts[cuts[comments]] == 2]
    declared_n = None
    for k in two[c[starts[cuts[two]] + 1] == _N].tolist():
        if k > stop:
            break
        h = cuts[k] + 1
        count = data[starts[h] : ends[h]] if size[k] == 2 else b""
        if not _COUNT_RE.fullmatch(count):
            raise GraphFormatError(
                f"line {k + 1}: expected '#n <count>', got {_line_text(data, c, k)!r}"
            )
        declared_n = int(count)
        if declared_n <= 0:
            raise GraphFormatError(f"line {k + 1}: node count must be positive, got {declared_n}")
    if len(malformed):
        raise GraphFormatError(
            f"line {stop + 1}: expected 'u v' or 'u v w', got {_line_text(data, c, stop)!r}"
        )
    if not len(edge_lines) and declared_n is None:
        raise GraphFormatError("empty graph: no edge lines and no '#n' header")

    # then the first token of an edge line that is not an optional sign and
    # digits, or lies outside int64
    odd = np.flatnonzero((c > _SPACE) & (c - _ZERO > 9))
    owner = np.searchsorted(starts, odd, side="right") - 1
    sign = (c[odd] == _PLUS) | (c[odd] == _MINUS)
    sign &= (odd == starts[owner]) & (ends[owner] > odd + 1)  # first, and digits follow
    junk = owner[~sign]
    past = np.flatnonzero(ends - starts >= 19)  # only these can lie outside int64
    if len(past):
        past = past[_past_int64(c, starts[past], ends[past])]
    in_comment = np.zeros(len(size), dtype=bool)
    in_comment[comments] = True
    bad = np.concatenate((junk, past))
    bad = bad[~in_comment[np.searchsorted(cuts, bad, side="right") - 1]]
    if len(bad):
        k = bad.min()
        line = np.searchsorted(cuts, k, side="right") - 1
        what = "non-integer token" if k in junk else "integer outside the int64 range"
        raise GraphFormatError(f"line {line + 1}: {what} in {_line_text(data, c, line)!r}")

    if len(comments):
        # blank the comment lines, so that only edge tokens are read
        c = c.copy()
        lo, hi = starts[cuts[comments]], ends[cuts[comments + 1] - 1]
        length = hi - lo
        c[np.arange(length.sum()) + np.repeat(lo - (np.cumsum(length) - length), length)] = _SPACE
    values = np.fromstring(c.tobytes(), dtype=np.int64, sep=" ")
    head = np.cumsum(per_line) - per_line  # each edge line's first value
    src, dst = values[head], values[head + 1]
    weight = np.ones(len(head), dtype=np.int64)
    weight[per_line == 3] = values[head[per_line == 3] + 2]
    n = declared_n if declared_n is not None else max(int(max(src.max(), dst.max())) + 1, 1)
    try:
        return Graph(n, src, dst, weight, directed=directed)
    except EdgeError as exc:
        raise GraphFormatError(f"line {edge_lines[exc.index] + 1}: {exc}") from None
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _line_text(data: bytes, c: np.ndarray, k: int) -> str:
    """Line ``k`` (0-based) of the UTF-8 text ``data``, without its line
    break; ``c`` is its bytes translated by ``_CLASSES``."""
    breaks = np.flatnonzero(c == _BREAK)
    start = breaks[k - 1] + 1 if k else 0
    end = breaks[k] if k < len(breaks) else len(data)
    return data[start:end].decode("utf-8", "surrogatepass")


def _past_int64(c: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which of the tokens ``c[starts:ends]``, each an optional sign and
    ASCII digits, lie outside the int64 range."""
    negative = c[starts] == _MINUS
    body = starts + (negative | (c[starts] == _PLUS))
    nonzero = np.append(np.flatnonzero((c > _ZERO) & (c - _ZERO <= 9)), len(c))
    lead = np.minimum(nonzero[np.searchsorted(nonzero, body)], ends)
    past = ends - lead > 19
    at = np.flatnonzero(ends - lead == 19)
    value = ((c[lead[at, None] + np.arange(19)] - _ZERO) * _POW10).sum(axis=1)
    past[at] = value > _INT64_MAX + negative[at]
    return past


def to_distance_matrix(g: Graph) -> DistMatrix:
    """Adjacency in distance form: 0 diagonal, edge weights, inf elsewhere."""
    a = np.full((g.n, g.n), INF, dtype=np.float64)
    np.fill_diagonal(a, 0.0)
    src, dst, weight = g.src, g.dst, g.weight.astype(np.float64)
    if not g.directed:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
        weight = np.concatenate((weight, weight))
    # the one duplicate rule: the lightest of parallel edges wins
    np.minimum.at(a.reshape(-1), src * g.n + dst, weight)
    # every entry is 0, inf or the weight of an edge Graph has checked
    return DistMatrix._trusted(a)


def density(m: DistMatrix) -> DensityReport:
    finite_count = int(np.isfinite(m.data).sum())
    return DensityReport(finite_count=finite_count, n_squared=m.n * m.n)
