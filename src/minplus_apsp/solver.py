"""Repeated-squaring distance product with sparseness and convergence
judgments, and per-epoch statistics.

One epoch = select kernel by density -> encode -> multiply -> decode. The
squared matrix doubles the path-edge budget, so convergence needs at most
ceil(log2(n - 1)) improving epochs plus one confirming epoch. The confirming
epoch runs no product when a proof that needs none fires first: a bound on
path weights, or, after a dense epoch, the Bellman-Ford fixed-point check of
the distances against the input edges (_edges_prove_converged).

While epochs run sparse, the state is the CSR parts of the finite entries:
one finite scan of the input builds them, each sparse epoch encodes only the
stored values, and the decoded product feeds the next epoch unchanged. The
first dense epoch scatters the encoded values into a zero-filled matrix; an
n x n distance matrix is built from CSR parts only when the solve ends
sparse. Convergence compares two summaries, the finite count and the sum of
the finite entries, in place of the two matrices (see _unchanged). The
same scan keeps the input's edges for the fixed-point check when there are
few enough of them (_EDGE_DIVISOR).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .codec import EncodedMatrix, EncodeParams, decode_values, encode, encode_table
from .graph import INF, DensityReport, DistMatrix
from .kernels import DENSE, SPARSE

_BLOCK_ROWS = 64

# Keep the input's edges, and so run the fixed-point check, only when there
# are at most n * n // _EDGE_DIVISOR of them. A passing check reads n int16
# entries per edge at about 0.65 ns each, so at the limit it costs
# n**3 / 64 * 0.65 ns: 0.04 s at n = 1600, about one sgemm, and less than
# the float64 product it saves.
_EDGE_DIVISOR = 64
# edges per gather of the fixed-point check
_EDGE_CHUNK = 64
# stands for inf in the check's int16 copy of the distances: it exceeds
# every finite entry plus a weight (at most 2 * 512 + 512), and with any
# weight added it stays below 2**15
_UNREACHABLE16 = 2**14


@dataclass
class EpochStats:
    """Per-epoch convergence record.

    kernel names the kernel of the epoch's product and arithmetic its
    float type, "float32" or "float64"; both are None only on a confirming
    epoch that a proof settles without a product. proof names that proof,
    "bound" (the path-weight bound) or "edges" (the fixed-point check
    against the input edges), and is None on every epoch that ran a product
    (see power_law_bound). convergence_quantity/_pct are defined against
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
    solve proved that no further product can change the distances: by an
    epoch that changed nothing, or by the proof that the last record names
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
    entry smaller. Every finite entry is an integer of at most 2 * 512
    (twice the largest feasible x_tilde), so for every n below 2.9e6 each
    sum stays below 2**53 and is exact in float64.
    """
    return before.finite == after.finite and before.total == after.total


def _summary(values: np.ndarray) -> _Summary:
    """Summary of a matrix from its finite entries; the diagonal is among
    them, so there is at least one."""
    return _Summary(len(values), int(values.max()), int(values.sum()))


def _dense_summary(a: np.ndarray) -> _Summary:
    top = a.max()
    # a finite maximum means every pair is reachable
    if top < INF:
        return _Summary(a.size, int(top), int(a.sum()))
    # compressed copies of row blocks: no n x n temporary, and faster than
    # masked reductions over the whole matrix
    blocks = (a[i : i + _BLOCK_ROWS] for i in range(0, len(a), _BLOCK_ROWS))
    parts = [_summary(b[np.isfinite(b)]) for b in blocks]
    return _Summary(
        sum(q.finite for q in parts), max(q.top for q in parts), sum(q.total for q in parts)
    )


class _Edges(NamedTuple):
    """The input's finite off-diagonal entries, in row-major order."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray


class _State:
    """Distances between epochs, their summary, and the input's edges.

    While epochs run sparse the state is the CSR parts (indptr, indices,
    decoded values) of the finite entries, and no n x n array exists; once
    they run dense it is a dense matrix. edges is None when the input has
    more than n * n // _EDGE_DIVISOR of them.
    """

    def __init__(self, n: int):
        self.n = n
        self.dense: DistMatrix | None = None
        self.csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.summary: _Summary | None = None
        self.edges: _Edges | None = None

    def set_sparse(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        self.dense = None
        self.csr = (indptr, indices, values)
        self.summary = _summary(values)

    def set_dense(self, m: DistMatrix) -> None:
        self.csr = None
        self.dense = m
        self.summary = _dense_summary(m.data)

    def distances(self) -> DistMatrix:
        if self.dense is not None:
            return self.dense
        out = np.full((self.n, self.n), INF)
        return DistMatrix._trusted(_scatter_rows(out, *self.csr))


def _kernel_for(finite: int, n: int) -> str:
    return kernels.choose_kernel(DensityReport(finite, n * n))


def _scan(w: DistMatrix) -> _State:
    """The first epoch's state and summary, and the input's edges, from one
    finite scan of w in row blocks: CSR parts of w's finite entries when
    that epoch runs sparse, w otherwise."""
    n = w.n
    a = w.data
    limit = n * n // _EDGE_DIVISOR
    indptr = np.empty(n + 1, np.int64)
    # (column indices, values) of each row block, while they may be kept
    parts: list | None = []
    finite = 0
    buf = np.empty((_BLOCK_ROWS, n), bool)
    for i in range(0, n, _BLOCK_ROWS):
        b = a[i : i + _BLOCK_ROWS]
        # entries are nonnegative integers or inf
        mask = np.less(b, INF, out=buf[: len(b)])
        if parts is None:
            finite += int(np.count_nonzero(mask))
            continue
        flat = np.flatnonzero(mask)
        # flat positions are sorted, so a row starts at the first one >= its offset
        indptr[i : i + len(b)] = finite + np.searchsorted(flat, np.arange(0, len(b) * n, n))
        finite += len(flat)
        parts.append((flat % n, b.reshape(-1)[flat]))
        # the finite count only grows: once it rules out both the sparse
        # kernel and keeping the edges (every diagonal entry is finite), the
        # parts are not needed
        if finite - (i + len(b)) > limit and _kernel_for(finite, n) != SPARSE:
            parts = None
    st = _State(n)
    if parts is not None:
        indptr[n] = finite
        dtype = np.int32 if max(finite, n) <= np.iinfo(np.int32).max else np.int64
        indptr = indptr.astype(dtype)
        indices = np.concatenate([c for c, _ in parts]).astype(dtype)
        values = np.concatenate([v for _, v in parts])
        del parts
        if finite - n <= limit:
            src = np.repeat(np.arange(n), np.diff(indptr))
            off = src != indices
            st.edges = _Edges(src[off], indices[off], values[off])
    if _kernel_for(finite, n) == SPARSE:
        st.set_sparse(indptr, indices, values)
    else:
        st.set_dense(w)
    return st


def _distance_product(st: _State) -> tuple[str, str]:
    """Replace st by its min-plus square; returns the kernel that ran and
    the float type of its product.

    A sparse epoch encodes, multiplies and decodes only the stored values,
    in float64; the product feeds the next epoch as it is. A dense epoch
    runs in float32 when EncodeParams.is_feasible proves width 32 exact, in
    float64 otherwise. Its E is encoded from a dense state, or, after sparse
    epochs, scattered from the CSR parts into zeros. st's previous
    distances are dropped once E is built and before the product's array
    is touched: at scale every full matrix is a large fraction of RAM. A
    float32 epoch allocates no full array beyond the distances it returns.
    """
    n = st.n
    p = EncodeParams(base=n + 1, x_tilde=st.summary.top)
    kind = _kernel_for(st.summary.finite, n)
    if kind == SPARSE:
        # the state is CSR: _scan picks its form by the same kernel rule,
        # and the density that rule reads never falls
        indptr, indices, values = st.csr
        codes = encode_table(p)[values.astype(np.int16)]
        st.csr = None
        del values
        # imported here: scipy.sparse costs a quarter of a second, and a
        # solve whose epochs all run dense never needs it
        import scipy.sparse as sp

        s = sp.csr_array((codes, indices, indptr), shape=(n, n))
        del codes
        prod = kernels.multiply_sparse(s, s)
        del s, indptr, indices
        # every stored product entry is positive, so each decodes, in place,
        # to a finite distance
        st.set_sparse(prod.indptr, prod.indices, decode_values(prod.data, p, out=prod.data))
        return kind, p.dtype.name
    p32 = EncodeParams(base=n + 1, x_tilde=st.summary.top, width=32)
    p = p32 if p32.is_feasible() else p
    # the table refuses an infeasible x_tilde, so it comes before any n x n
    # allocation
    table = encode_table(p)
    if p.width == 32:
        # E, the float32 product and the decoded distances share one float64
        # array: E fills the first half of its bytes, the product the
        # second, and decode_values writes the distances over both
        dist = np.empty((n, n))
        e, out = dist.reshape(-1).view(np.float32).reshape(2, n, n)
        if st.dense is None:
            e.fill(0)
    else:
        # the product gets its own array and is decoded in place
        e = np.empty((n, n)) if st.dense is not None else np.zeros((n, n))
        dist = out = None
    if st.dense is not None:
        encode(st.dense, p, out=e)
    else:
        _scatter_rows(e, *st.csr, table)
    st.dense = st.csr = None
    enc = EncodedMatrix(e)
    prod = kernels.multiply_dense(enc, enc, out=out).data
    del enc, e
    st.set_dense(DistMatrix._trusted(decode_values(prod, p, out=prod if dist is None else dist)))
    return kind, p.dtype.name


def _scatter_rows(
    out: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    vals: np.ndarray,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """Write CSR parts into the n x n array out; with table, each value a
    is written as its code table[a].

    Works over blocks of rows, so no row-index array and no encoded copy as
    long as nnz is built.
    """
    n = out.shape[0]
    flat = out.reshape(-1)
    for i in range(0, n, _BLOCK_ROWS):
        j = min(i + _BLOCK_ROWS, n)
        lo, hi = indptr[i], indptr[j]
        # flat position of each stored value: its row's offset plus its column
        pos = np.repeat(np.arange(i * n, j * n, n), np.diff(indptr[i : j + 1]))
        pos += indices[lo:hi]
        v = vals[lo:hi]
        flat[pos] = v if table is None else table[v.astype(np.int16)]
    return out


def distance_product(l: DistMatrix) -> DistMatrix:
    """Min-plus square of l via the encode/multiply/decode pipeline."""
    st = _scan(l)
    _distance_product(st)
    return st.distances()


def _epoch_budget(n: int) -> int:
    return 0 if n < 3 else math.ceil(math.log2(n - 1))


def _min_off_diagonal(w: DistMatrix) -> float:
    """Smallest off-diagonal entry (inf when there is none or all are inf)."""
    n = w.n
    # in row-major order the diagonal sits every n + 1 entries, so the n - 1
    # rows of this (n - 1, n + 1) view hold the diagonal in column 0 only
    off = w.data.reshape(-1)[:-1].reshape(n - 1, n + 1)[:, 1:]
    return float(off.min()) if off.size else INF


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


def _edges_prove_converged(a: np.ndarray, edges: _Edges) -> bool:
    """True when the distance matrix a, the decoded result of a dense epoch
    of the solve of an input whose finite off-diagonal entries are edges,
    already holds every shortest distance, so that a (x) a = a.

    This is the Bellman-Ford optimality condition (Bellman 1958), checked
    in row form: a[u, :] <= w(u, v) + a[v, :] for every edge u -> v. Every
    finite entry of an exactly decoded product is the weight of a real
    walk, so a >= dist. If the condition holds, take a shortest path
    u = p0 -> p1 -> ... -> pk = x: a[pk, x] = 0 = dist(pk, x) (the diagonal
    is 0), and a[pj, x] <= w(pj, pj+1) + a[pj+1, x] <= dist(pj, x) by
    induction from the end. So a <= dist, a = dist, and a (x) a = a since
    dist is closed under the min-plus product. Unreachable pairs need no
    path: dist = inf there, and a >= dist.

    Runs on an int16 copy of a with inf mapped to _UNREACHABLE16, which is
    exact: after a feasible epoch every finite entry is at most 2 * 512 and
    every weight at most 512 (the first epoch's x_tilde bounds them), so
    the sentinel plus a weight stays below 2**15 and above every finite
    entry plus a weight. Gathers whole rows for chunks of _EDGE_CHUNK edges
    and returns at the first chunk that fails; the first chunk is checked
    in float64, where inf needs no sentinel, before the copy is made.
    """
    src, dst, weight = edges
    # a matrix that is not final yet almost always fails on the first
    # chunk, so test that one on a itself before making the int16 copy
    head = slice(0, _EDGE_CHUNK)
    if (a[src[head]] > a[dst[head]] + weight[head, None]).any():
        return False
    d = np.empty(a.shape, np.int16)
    np.minimum(a, _UNREACHABLE16, out=d, casting="unsafe")
    weight = weight.astype(np.int16)[:, None]
    for lo in range(0, len(src), _EDGE_CHUNK):
        hi = lo + _EDGE_CHUNK
        through = d[dst[lo:hi]]
        through += weight[lo:hi]
        if (d[src[lo:hi]] > through).any():
            return False
    return True


def power_law_bound(w: DistMatrix) -> SolveResult:
    """Solve APSP by repeated min-plus squaring with convergence detection.

    Stops when an epoch leaves the matrix unchanged, when a proof shows
    that the next epoch would change nothing, or when the epoch budget runs
    out (converged=False on the partial result in that case). The proofs are
    the path-weight bound (_bound_proves_converged), tried after every epoch
    that changed the matrix, and, when it fails after a dense epoch of an
    input with kept edges, the fixed-point check against those edges
    (_edges_prove_converged). A stop by a proof still records the confirming
    epoch, with no change, kernel=arithmetic=None and proof naming the
    proof ("bound" or "edges"), but runs no product for it.
    """
    n = w.n
    total = _epoch_budget(n) + 1  # room for the confirming epoch
    stats: list[EpochStats] = []
    is_converged = False
    st = _scan(w)
    if st.edges is not None:
        w_min = float(st.edges.weight.min(initial=INF))
    else:
        w_min = _min_off_diagonal(w)
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
        if _bound_proves_converged(n, m, w_min, after.finite, before.finite, after.top):
            proof = "bound"
        elif kind == DENSE and st.edges is not None and _edges_prove_converged(
            st.dense.data, st.edges
        ):
            proof = "edges"
        else:
            continue
        stats.append(
            EpochStats(
                epoch=epoch + 1,
                max_element=after.top,
                finite_before=after.finite,
                finite_after=after.finite,
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
