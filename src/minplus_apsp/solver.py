"""Repeated-squaring distance product with sparseness and convergence
judgments, and per-epoch statistics.

One epoch = select kernel by density -> encode -> multiply -> decode. The
squared matrix doubles the path-edge budget, so convergence needs at most
ceil(log2(n - 1)) improving epochs plus one confirming epoch. The solve
stops without the confirming product when a proof that needs none fires
first: a bound on path weights, or relaxation of the distances over the
input edges to the Bellman-Ford fixed point (_relax_edges), which can stand
in for the last improving products too. The relaxation is tried after every
dense epoch, and after a sparse epoch of a weighted graph whose bound
cannot fire after the next product either (_relax_cap).

The solve holds every distance as an int16, UNREACHABLE16 for unreachable,
between epochs; one scan (_scan), the only reader of the caller's float64
matrix, converts it, and the float64 result is built once, at the end, by
codec's conversions. While epochs run sparse, the state is the CSR parts of
the finite entries: each sparse epoch encodes only the stored values, and
the decoded product feeds the next epoch unchanged. An n x n matrix is
built from CSR parts in one way only, by one scatter into a matrix filled
with the value of unreachable (_densify): zeros, the code of unreachable,
when the first dense epoch builds E from the codes of the stored values,
inf in the float64 result when the solve ends sparse, and the relaxation's
sentinel in its working copy when it starts from them. That copy is uint8
where the relaxation's start proves it safe, recast into a new int16 state
at the end, and int16 otherwise (_relax_edges). Every row-block change of
type and sentinel between a dense state, the relaxation's copy and the
result is one codec.recast.
Convergence compares two summaries, the finite count and the sum of the
finite entries, in place of the two matrices (see _unchanged). The same
scan finds the input's smallest off-diagonal entry, and keeps its edges for
the relaxation when there are few enough of them (_EDGE_DIVISOR).

A dense epoch of an input whose kept edges equal their transpose, weights
included, multiplies E @ E.T, which numpy runs as BLAS syrk with half the
multiplies (_symmetric); every other input, and every input whose edges are
not kept, multiplies E @ E.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .codec import UNREACHABLE16, EncodedMatrix, EncodeParams, base_for, decode_values
from .codec import encode_table, from_int16, gather_code_rows, gather_codes, recast, to_int16
from .graph import BLOCK_ROWS, INF, DensityReport, DistMatrix
from .kernels import DENSE, SPARSE

# Keep the input's edges, and so relax over them, only when there are at
# most n * n // _EDGE_DIVISOR of them. A relaxation gathers n entries per
# edge it relaxes, uint8 where its start allows (_relax_edges), and its cap,
# counted in edge relaxations, depends on the state it starts from. On a
# 2-vCPU Xeon a uint8 relaxation costs 0.31-0.33 ns per gathered entry, its
# copy and its recast to int16 included (wsf1600's: 53 143 edge relaxations
# at n = 1600 in 0.027-0.028 s); in int16 it cost 0.6-1.0 ns. The caps were
# set for int16 and are kept.
# - After a dense epoch the cap is n * n // _EDGE_DIVISOR edges, n**3 / 64
#   entries: about 0.045 s in int16 at n = 1600, no more than one float32
#   dense epoch (0.04-0.08 s) and about a third of a float64 one
#   (0.12-0.13 s), the kind a successful relaxation saves on weighted graphs.
# - After a sparse epoch it is n * n // _SPARSE_CAP_DIVISOR edges, n**3 / 16
#   entries. Such an attempt is made only where the next product cannot be
#   the last one, so a success saves that product and at least one more
#   product or relaxation (_relax_cap). At n = 1600, a random digraph of
#   12 out-edges solved 3.9x slower with a cap of n**3 / 32, from give-ups.
# A relaxation gives up as soon as its next pass is sure to pass its cap,
# and the solve squares on: the give-ups after the dense epochs of unit-weight
# rings of 400 and 800 nodes took 0.005 and 0.013 s in all.
_EDGE_DIVISOR = 64
_SPARSE_CAP_DIVISOR = 16
# sources, and edges, in one block of a relaxation pass (_pass_plan): 512
# int16 rows are 1.6 MB at n = 1600, 512 uint8 rows 0.8 MB
_PULL_SOURCES = 32
_PULL_ROWS = 512


@dataclass
class EpochStats:
    """Per-epoch convergence record.

    kernel names the kernel of the epoch's product and arithmetic its
    float type, "float32" or "float64"; both are None only on the last
    epoch, when a proof settles it without a product. proof names that
    proof, "bound" (the path-weight bound) or "edges" (relaxation over the
    input edges to the fixed point), and is None on every epoch that ran a
    product (see power_law_bound). A "bound" record repeats the matrix of
    the epoch before; an "edges" record holds the relaxed matrix, so its
    delta may be positive. convergence_quantity/_pct are defined against
    the final unreachable set and are back-filled once the solve finishes.
    """

    epoch: int
    max_element: int
    finite_before: int
    finite_after: int
    convergence_quantity: int | None = None
    convergence_pct: float | None = None
    kernel: str | None = None
    arithmetic: str | None = None
    proof: str | None = None

    @property
    def delta(self) -> int:
        return self.finite_after - self.finite_before

    def finalize(self, unreachable_count: int, n: int) -> None:
        self.convergence_quantity = self.finite_after + unreachable_count
        self.convergence_pct = 100.0 * self.convergence_quantity / (n * n)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve: distances, one record per epoch, and whether the
    solve proved that the distances are the shortest ones: by an epoch that
    changed nothing, or by the proof that the last record names
    (EpochStats.proof)."""

    distances: DistMatrix
    epochs: list[EpochStats]
    converged: bool


EPOCH_CSV_COLUMNS = (
    "epoch",
    "max_element",
    "finite_before",
    "finite_after",
    "delta",
    "convergence_quantity",
    "convergence_pct",
)


def epoch_stats_csv(epochs: list[EpochStats]) -> str:
    """Epoch records as CSV, one row per epoch."""
    lines = [",".join(EPOCH_CSV_COLUMNS)]
    for st in epochs:
        pct = "" if st.convergence_pct is None else f"{st.convergence_pct:.3f}"
        q = "" if st.convergence_quantity is None else str(st.convergence_quantity)
        lines.append(
            f"{st.epoch},{st.max_element},{st.finite_before},{st.finite_after},"
            f"{st.delta},{q},{pct}"
        )
    return "\n".join(lines) + "\n"


class _Summary(NamedTuple):
    """Finite entry count, largest finite entry and sum of the finite entries
    of a distance matrix."""

    finite: int
    top: int
    total: int


def _unchanged(before: _Summary, after: _Summary) -> bool:
    """True iff an epoch that turned a matrix summarised by before into one
    summarised by after left every entry as it was.

    Exact for a min-plus square D (x) D of a matrix D with a zero diagonal:
    it is <= D entrywise, so its finite set contains D's and an equal finite
    count means an equal finite set, on which an equal sum then leaves no
    entry smaller. The sums of int16 entries are taken in int64, so they
    are exact.
    """
    return before.finite == after.finite and before.total == after.total


def _summary(values: np.ndarray) -> _Summary:
    """Summary of a matrix from its finite entries; the diagonal is among
    them, so there is at least one."""
    return _Summary(len(values), int(values.max()), int(values.sum()))


def _dense_summary(a: np.ndarray, sentinel: int = UNREACHABLE16) -> _Summary:
    """Summary of a dense matrix, int16 or the relaxation's uint8, whose
    entries at sentinel are unreachable."""
    top = a.max()
    # a maximum below the sentinel means every pair is reachable
    if top < sentinel:
        return _Summary(a.size, int(top), int(a.sum()))
    # compressed copies of row blocks: no n x n temporary, and faster than
    # masked reductions over the whole matrix
    blocks = (a[i : i + BLOCK_ROWS] for i in range(0, len(a), BLOCK_ROWS))
    parts = [_summary(b[b < sentinel]) for b in blocks]
    return _Summary(
        sum(q.finite for q in parts), max(q.top for q in parts), sum(q.total for q in parts)
    )


class _Edges(NamedTuple):
    """The input's finite off-diagonal entries, in row-major order."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray


class _State:
    """Distances between epochs, their summary, and the input's edges and
    smallest off-diagonal entry w_min (inf when it has none).

    While epochs run sparse the state is the CSR parts (indptr, indices,
    int16 values) of the finite entries, and no n x n array exists; once
    they run dense it is an n x n int16 matrix, UNREACHABLE16 where
    unreachable. edges, int16 weights too, is None when the input has more
    than n * n // _EDGE_DIVISOR of them. symmetric tells whether every state
    of the solve is symmetric; the first dense epoch decides it (_symmetric),
    and it is None before.
    """

    def __init__(self, n: int):
        self.n = n
        self.dense: np.ndarray | None = None
        self.csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.summary: _Summary | None = None
        self.edges: _Edges | None = None
        self.w_min: float = INF
        self.symmetric: bool | None = None

    def set_sparse(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        self.dense = None
        self.csr = (indptr, indices, values)
        self.summary = _summary(values)

    def set_dense(self, d: np.ndarray) -> None:
        self.csr = None
        self.dense = d
        self.summary = _dense_summary(d)

    def distances(self) -> DistMatrix:
        """The distances as a new float64 DistMatrix, inf for unreachable,
        cast from the dense state or the CSR parts scattered into inf."""
        if self.dense is not None:
            return from_int16(self.dense)
        return DistMatrix._trusted(_densify(*self.csr, np.full((self.n, self.n), INF)))


def _kernel_for(finite: int, n: int) -> str:
    return kernels.choose_kernel(DensityReport(finite, n * n))


def _scan(w: DistMatrix) -> _State:
    """The first epoch's state, the input's edges and w_min, from w in row
    blocks. The first pass collects the CSR parts of w's finite entries; it
    stops where the finite count, which only grows, rules out the sparse
    kernel and keeping the edges. When the first epoch runs sparse, the
    parts are its state and give w_min; otherwise a second pass writes w in
    int16 and takes w_min from each block, its diagonal set aside. to_int16
    refuses an entry int16 cannot hold, before any n x n float64 array."""
    n = w.n
    a = w.data
    limit = n * n // _EDGE_DIVISOR
    indptr = np.empty(n + 1, np.int64)
    # (column indices, values) of each row block, while they may be kept
    parts: list | None = []
    finite = 0
    buf = np.empty((BLOCK_ROWS, n), bool)
    for i in range(0, n, BLOCK_ROWS):
        b = a[i : i + BLOCK_ROWS]
        # entries are nonnegative integers or inf
        flat = np.flatnonzero(np.less(b, INF, out=buf[: len(b)]))
        # flat positions are sorted, so a row starts at the first one >= its offset
        indptr[i : i + len(b)] = finite + np.searchsorted(flat, np.arange(0, len(b) * n, n))
        finite += len(flat)
        parts.append((flat % n, b.reshape(-1)[flat]))
        # with every diagonal entry finite, finite - (i + len(b)) counts the edges
        if finite - (i + len(b)) > limit and _kernel_for(finite, n) != SPARSE:
            parts = None
            break
    st = _State(n)
    if parts is not None:
        indptr[n] = finite
        dtype = np.int32 if max(finite, n) <= np.iinfo(np.int32).max else np.int64
        indptr = indptr.astype(dtype)
        indices = np.concatenate([c for c, _ in parts]).astype(dtype)
        values = to_int16(np.concatenate([v for _, v in parts]), np.empty(finite, np.int16))
        del parts
        src = np.repeat(np.arange(n), np.diff(indptr))
        off = src != indices
        weights = values[off]
        if finite - n <= limit:
            st.edges = _Edges(src[off], indices[off], weights)
        if _kernel_for(finite, n) == SPARSE:
            st.set_sparse(indptr, indices, values)
            low = int(weights.min(initial=UNREACHABLE16))
    if st.csr is None:
        d = np.empty((n, n), np.int16)
        low = UNREACHABLE16
        for i in range(0, n, BLOCK_ROWS):
            b = to_int16(a[i : i + BLOCK_ROWS], d[i : i + BLOCK_ROWS])
            # the block's row r holds the diagonal at flat position i + r * (n + 1)
            diag = b.reshape(-1)[i :: n + 1]
            diag[:] = UNREACHABLE16
            low = min(low, int(b.min()))
            diag[:] = 0
        st.set_dense(d)
    st.w_min = INF if low == UNREACHABLE16 else low
    return st


def _distance_product(st: _State) -> tuple[str, str]:
    """Replace st by its min-plus square; returns the kernel that ran and
    the float type of its product.

    The product runs in float32 when EncodeParams.is_feasible proves width
    32 exact, in float64 otherwise, whichever kernel runs. A sparse epoch
    encodes, multiplies and decodes only the stored values; the product
    feeds the next epoch as it is. A dense epoch's E is gathered from a
    dense state in blocks of rows, or, after sparse epochs, is the codes of
    the CSR values scattered into a zero-filled matrix, with no int16
    matrix between (route1600: 5.2-5.5 ms against 7.8-8.4 ms through int16,
    2-vCPU Xeon). st's previous distances are dropped once E is built,
    and the product is decoded into a new int16 matrix once E is gone: at
    scale every full matrix is a large fraction of RAM.

    The first dense epoch decides whether the input's kept edges are
    symmetric (_symmetric). If they are, so is every state: each square of
    a symmetric matrix is symmetric, a relaxation that reaches its fixed
    point ends the solve, and one that gives up leaves the state as it was. A symmetric
    state's product is E @ E.T, the second operand the transposed view of
    E's buffer, which numpy's matmul runs as BLAS syrk: on route1600's E it
    took 25 ms against 34 ms for E @ E in float32, and 47 ms against 68 ms
    in float64 (2-vCPU Xeon, OpenBLAS). Its sums run in another order,
    which is_feasible covers, so the distances are the same.
    """
    n = st.n
    p = EncodeParams(base=base_for(n), x_tilde=st.summary.top, width=32)
    p = p if p.is_feasible() else EncodeParams(base=p.base, x_tilde=p.x_tilde, width=64)
    # the table refuses an infeasible x_tilde before any n x n allocation
    table = encode_table(p)
    kind = _kernel_for(st.summary.finite, n)
    if kind == SPARSE:
        # the state is CSR: _scan picks its form by the same kernel rule,
        # and the density that rule reads never falls
        indptr, indices, values = st.csr
        codes = gather_codes(table, values)
        st.csr = None
        del values
        # imported here: scipy.sparse costs a quarter of a second, and a
        # solve whose epochs all run dense never needs it
        import scipy.sparse as sp

        s = sp.csr_array((codes, indices, indptr), shape=(n, n))
        del codes
        prod = kernels.multiply_sparse(s, s)
        del s, indptr, indices
        # every stored product entry is positive, so each decodes to a
        # finite distance
        values = decode_values(prod.data, p)
        st.set_sparse(prod.indptr, prod.indices, values)
        return kind, p.dtype.name
    if st.symmetric is None:
        st.symmetric = _symmetric(st.edges, n)
    if st.dense is not None:
        e = gather_code_rows(table, st.dense)
    else:
        # 0 is the code of unreachable, so the codes of the stored values
        # are scattered into zeros
        e = _densify(*st.csr, np.zeros((n, n), p.dtype), table)
    st.dense = st.csr = None
    enc = EncodedMatrix(e)
    prod = kernels.multiply_dense(enc, EncodedMatrix(e.T) if st.symmetric else enc).data
    del enc, e
    st.set_dense(decode_values(prod, p))
    return kind, p.dtype.name


def _symmetric(edges: _Edges | None, n: int) -> bool:
    """True iff the input's kept edges equal their transpose, weights
    included; False when its edges are not kept (more than
    n * n // _EDGE_DIVISOR of them), so such an input multiplies E @ E even
    when it is symmetric. The edges are in row-major order, so one sort of
    the transposed positions lines the two lists up."""
    if edges is None:
        return False
    src, dst, weight = edges
    pos = src.astype(np.int64) * n + dst
    back = dst.astype(np.int64) * n + src
    order = np.argsort(back)
    return np.array_equal(pos, back[order]) and np.array_equal(weight, weight[order])


def _densify(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    d: np.ndarray,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """d, an n x n matrix filled with the value of unreachable, with the CSR
    parts' values, or their codes from the encode table table, scattered in,
    in d's type; over blocks of rows, so no array as long as nnz is built.
    Codes gathered for all values at once would need a code array and
    take's intp copy of the values, 12 bytes per stored value: 84 MB on
    sf3000's 82 % full state, whose E is 34 MB."""
    n = len(d)
    for i in range(0, n, BLOCK_ROWS):
        j = min(i + BLOCK_ROWS, n)
        # flat position of each stored value: its row's offset plus its column
        pos = np.repeat(np.arange(i * n, j * n, n), np.diff(indptr[i : j + 1]))
        pos += indices[indptr[i] : indptr[j]]
        v = values[indptr[i] : indptr[j]]
        d.reshape(-1)[pos] = v if table is None else gather_codes(table, v)
    return d


def distance_product(l: DistMatrix) -> DistMatrix:
    """Min-plus square of l via the encode/multiply/decode pipeline."""
    st = _scan(l)
    _distance_product(st)
    return st.distances()


def _epoch_budget(n: int) -> int:
    return 0 if n < 3 else math.ceil(math.log2(n - 1))


def _bound_proves_converged(
    n: int, m: int, w_min: float, finite: int, finite_before: int, top: int
) -> bool:
    """True when the matrix after an epoch that covers every path of at most
    m edges already holds every shortest distance.

    Every path of more than m edges weighs at least (m + 1) * w_min, so when
    the largest finite entry is below that, no longer path can improve a
    finite entry. Every reachable pair is already finite when either the
    largest entry is below m * w_min (a pair m hops apart would weigh at least
    that), every entry is finite, or the epoch made no new pair finite (then
    no pair lies more than m / 2 hops apart).
    """
    all_reachable_found = top < m * w_min or finite == n * n or finite == finite_before
    return all_reachable_found and top < (m + 1) * w_min


def _pass_plan(src: np.ndarray, n: int) -> list[tuple[list[int], np.ndarray]]:
    """Blocks of one relaxation pass over edges sorted by source, as a list
    of pairs (ks, e) that together list every edge once.

    Sources are taken in decreasing out-degree, at most _PULL_SOURCES and
    _PULL_ROWS edges to a block; a source with more than _PULL_ROWS edges
    is cut into slices of at most _PULL_ROWS, planned as sources of their
    own, so that each full slice fills a block alone. e holds the positions
    in src of a block's edges, rank-major: for each rank r, the r-th
    out-edge of every slice of the block that has more than r edges, in
    block order, and ks[r] counts them. So ks does not increase, and rank
    r's heads line up with the block's first ks[r] sources.
    """
    counts = np.bincount(src, minlength=n)
    first = np.cumsum(counts) - counts
    pieces = -(-counts // _PULL_ROWS)
    owner = np.repeat(np.arange(n), pieces)
    cut = _PULL_ROWS * (np.arange(len(owner)) - np.repeat(np.cumsum(pieces) - pieces, pieces))
    deg = np.minimum(counts[owner] - cut, _PULL_ROWS)
    order = np.argsort(-deg, kind="stable")
    deg, first = deg[order], (first[owner] + cut)[order]
    # greedy blocks in that order, slices i to j - 1 each; a block's
    # (rank x slice) mask of the edges it holds is rank-major in C order.
    # Planning wsf1600's whole relaxation block by block (8 passes, 327
    # blocks) takes about 3.8 ms on a 2-vCPU Xeon, 1.2 ms more than one
    # layout computed for each whole pass
    ends = np.cumsum(deg).tolist()
    ranks = np.arange(_PULL_ROWS)[:, None]
    plan = []
    i = 0
    while i < len(deg):
        j = bisect.bisect_right(ends, ends[i] - int(deg[i]) + _PULL_ROWS)
        j = min(i + _PULL_SOURCES, j)
        mask = ranks[: deg[i]] < deg[i:j]
        plan.append((mask.sum(axis=1).tolist(), (first[i:j] + ranks[: deg[i]])[mask]))
        i = j
    return plan


def _relax_cap(kind: str, n: int, m: int, w_min: float, top: int) -> int:
    """Edge relaxations a relaxation may spend after an epoch of kind that
    covers every path of at most m edges and whose largest finite entry is
    top; 0 where none is tried.

    After a dense epoch the cap is n * n // _EDGE_DIVISOR. After a sparse
    epoch it is n * n // _SPARSE_CAP_DIVISOR, and a relaxation is tried only
    when the path-weight bound cannot fire after the next product, whose
    largest entry can reach 2 * top (2 * top >= (2m + 1) * w_min). A
    unit-weight graph has top <= m after such an epoch, so it never tries.
    """
    if kind == DENSE:
        return n * n // _EDGE_DIVISOR
    if 2 * top < (2 * m + 1) * w_min:
        return 0
    return n * n // _SPARSE_CAP_DIVISOR


def _relax_edges(st: _State, cap: int) -> bool:
    """Relax st's distances, dense or CSR, over the input edges to the
    Bellman-Ford fixed point; True, with st's distances and summary replaced
    by the shortest distances, when it is reached within cap edge
    relaxations, False with st left as it was otherwise.

    Each pass sets D[u, :] = min(D[u, :], w(u, v) + D[v, :]) for its edges
    u -> v, Gauss-Seidel style: a block of edges reads the rows that earlier
    blocks wrote. The first pass takes every edge; each later one only the
    edges whose head row v changed in the pass before, since only those can
    have lost the condition D[u, :] <= w(u, v) + D[v, :]. So a pass that
    changes nothing leaves the condition holding for every edge, and then
    (Bellman 1958) D[pk, x] = 0 = dist(pk, x) at the end of a shortest path
    u = p0 -> ... -> pk = x, and D[pj, x] <= w(pj, pj+1) + D[pj+1, x]
    <= dist(pj, x) by induction from the end, so D <= dist. Every finite
    entry of an exactly decoded product is the weight of a real walk, and
    so is every entry a relaxation writes, so D >= dist, and D = dist.
    Unreachable pairs need no path: dist = inf there, and D >= dist.

    Runs on a copy of D in the narrowest type its start proves safe: uint8,
    with sentinel s8 = 255 - w_max for unreachable (w_max the largest
    weight), when every finite entry is below s8, and int16 with
    UNREACHABLE16 otherwise. Entries only fall, and the sentinel plus any
    weight stays within the type (255 in uint8; at most 2**14 + 511 in
    int16, since the first epoch's x_tilde bounds the weights), so nothing
    overflows. A finite entry whose sum with a weight reached the sentinel
    would be taken for unreachable; at the fixed point that cannot have
    happened when the largest finite entry plus w_max is below the
    sentinel, which is checked before the copy replaces D. A uint8 fixed
    point that fails the check runs once more in int16 from st, with the
    same cap; a uint8 give-up stands. The copy is a new n x n array of its
    type. A uint8 copy that replaces D is recast into a new int16 state
    once D is dropped, so the state between epochs is always int16, and a
    uint8 relaxation holds one n x n uint8 array beside D or the new state.

    A pass pulls (_pass_plan): a block's edges are gathered and weighted at
    once, min-reduced rank by rank into one candidate row per source, and
    each source's row is compared with its candidate and written back once;
    the sources of a block are distinct, so one fancy assignment writes
    them all. A pass that takes every edge reuses the plan of the first
    one. When a pass changed a row, the copy becomes the dense state; a
    state no pass changed stays as it was, CSR or dense.

    A change to row v puts every edge into v into the next pass, so the
    relaxation counts those edges as rows change, and gives up as soon as
    the next pass is sure to pass the cap: a matrix far from the fixed
    point is dropped early in the first pass or two, not at the cap.
    """
    n = st.n
    w_max = int(st.edges.weight.max(initial=0))
    s8 = 255 - w_max
    # uint8 where the start fits below s8; int16 from the start otherwise,
    # or again after a uint8 fixed point that fails the check
    narrow = [(np.uint8, s8)] if st.summary.top < s8 else []
    for dtype, sentinel in [*narrow, (np.int16, UNREACHABLE16)]:
        d = _fill(st, np.empty((n, n), dtype), sentinel)
        touched = _relax_passes(st.edges, d, cap)
        if touched is None:
            return False
        # a matrix no pass changed keeps its form and summary
        summary = _dense_summary(d, sentinel) if touched else st.summary
        if summary.top + w_max < sentinel:
            break
        # the uint8 copy goes before the int16 one is allocated
        del d
    else:
        return False
    if touched:
        st.csr = st.dense = None
        if d.dtype == np.uint8:
            d = recast(d, np.empty((n, n), np.int16), sentinel, UNREACHABLE16)
        st.dense, st.summary = d, summary
    return True


def _fill(st: _State, d: np.ndarray, sentinel: int) -> np.ndarray:
    """d, an n x n matrix of the relaxation's type, holding st's distances,
    dense or CSR, with sentinel for unreachable; every finite entry of st
    is below sentinel. A dense state is recast: at n = 1600 into uint8 this
    took 0.41 ms, one clipping np.minimum 1.27 ms (2-vCPU Xeon)."""
    if st.dense is not None:
        return recast(st.dense, d, UNREACHABLE16, sentinel)
    d.fill(sentinel)
    return _densify(*st.csr, d)


def _relax_passes(edges: _Edges, d: np.ndarray, cap: int) -> bool | None:
    """The passes of _relax_edges, run on d in place: None when they give up
    at cap edge relaxations, otherwise whether a pass changed d."""
    n = len(d)
    src, dst, weight = edges
    weight = weight.astype(d.dtype)[:, None]
    # edges the cap leaves for passes after the current one
    left = cap - len(src)
    into = np.bincount(dst, minlength=n)
    # buffers for a block's weighted head rows, its sources' rows and
    # their comparison
    through_buf = np.empty((_PULL_ROWS, n), d.dtype)
    own_buf = np.empty((_PULL_SOURCES, n), d.dtype)
    less_buf = np.empty((_PULL_SOURCES, n), bool)
    touched = False
    # the plan of a pass that takes every edge
    whole = None
    active = np.ones(len(src), bool)
    while True:
        if active.all():
            s, t, wt = src, dst, weight
            whole = _pass_plan(s, n) if whole is None else whole
            plan = whole
        else:
            s, t, wt = src[active], dst[active], weight[active]
            plan = _pass_plan(s, n)
        changed = np.zeros(n, bool)
        # edges of the next pass so far
        following = 0
        for ks, e in plan:
            k, m = ks[0], len(e)
            # mode "clip" (the indices are in range) lets take gather straight
            # into out, where "raise" would buffer
            cand = np.take(d, t[e], axis=0, out=through_buf[:m], mode="clip")
            cand += wt[e]
            # fold each rank into the rank-0 slice, then what one source
            # has left in one reduction
            lo = k
            for kr in ks[1:]:
                if kr == 1:
                    break
                np.minimum(cand[:kr], cand[lo : lo + kr], out=cand[:kr])
                lo += kr
            if lo < m:
                np.minimum(cand[0], cand[lo:].min(axis=0), out=cand[0])
            u = s[e[:k]]
            own = np.take(d, u, axis=0, out=own_buf[:k], mode="clip")
            cand = cand[:k]
            better = np.less(cand, own, out=less_buf[:k]).any(axis=1)
            if not better.any():
                continue
            if not better.all():
                u, own, cand = u[better], own[better], cand[better]
            following += int(into[u[~changed[u]]].sum())
            if following > left:
                return None
            d[u] = np.minimum(own, cand, out=cand)
            changed[u] = True
        if not changed.any():
            return touched
        left -= following
        touched = True
        active = changed[dst]


def power_law_bound(w: DistMatrix) -> SolveResult:
    """Solve APSP by repeated min-plus squaring with convergence detection.

    Stops when an epoch leaves the matrix unchanged, when a proof shows
    that the matrix holds the shortest distances, or when the epoch budget
    runs out (converged=False on the partial result in that case). The
    proofs are the path-weight bound (_bound_proves_converged), tried after
    every epoch that changed the matrix, and, when it fails on an input
    with kept edges, relaxation over those edges to the Bellman-Ford fixed
    point (_relax_edges), which may lower entries and make pairs finite.
    The relaxation is tried after every dense epoch, and after a sparse
    epoch, from the CSR parts, when the bound cannot fire after the next
    product either (_relax_cap); only weighted graphs meet that. A
    relaxation that gives up at its work cap leaves the product's matrix as
    it was, and squaring goes on. A stop by a proof
    records one more epoch, with kernel=arithmetic=None, proof naming the
    proof ("bound" or "edges") and the final matrix's summary, but runs no
    product for it.
    """
    n = w.n
    total = _epoch_budget(n) + 1  # room for the confirming epoch
    stats: list[EpochStats] = []
    is_converged = False
    st = _scan(w)
    m = 1
    for epoch in range(1, total + 1):
        before = st.summary
        kind, arithmetic = _distance_product(st)
        after = st.summary
        stats.append(
            EpochStats(
                epoch=epoch,
                max_element=after.top,
                finite_before=before.finite,
                finite_after=after.finite,
                kernel=kind,
                arithmetic=arithmetic,
            )
        )
        if _unchanged(before, after):
            is_converged = True
            break
        m *= 2
        if _bound_proves_converged(n, m, st.w_min, after.finite, before.finite, after.top):
            proof = "bound"
        elif st.edges is None:
            continue
        else:
            cap = _relax_cap(kind, n, m, st.w_min, after.top)
            if not (cap and _relax_edges(st, cap)):
                continue
            proof = "edges"
        stats.append(
            EpochStats(
                epoch=epoch + 1,
                max_element=st.summary.top,
                finite_before=after.finite,
                finite_after=st.summary.finite,
                proof=proof,
            )
        )
        is_converged = True
        break
    unreachable = n * n - st.summary.finite
    for rec in stats:
        rec.finalize(unreachable, n)
    return SolveResult(distances=st.distances(), epochs=stats, converged=is_converged)


def fixed_squaring(w: DistMatrix) -> tuple[DistMatrix, int]:
    """Non-reusing baseline: exactly ceil(log2(n - 1)) squarings, no
    convergence short-circuit. Returns (distances, iterations)."""
    iterations = max(1, _epoch_budget(w.n))
    st = _scan(w)
    for _ in range(iterations):
        _distance_product(st)
    return st.distances(), iterations
