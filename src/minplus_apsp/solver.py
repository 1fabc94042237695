"""Repeated-squaring distance product with sparseness and convergence
judgments, plus a Floyd-Warshall oracle and per-epoch statistics.

One epoch = encode -> select kernel by density -> multiply -> decode. The
squared matrix doubles the path-edge budget, so convergence needs at most
ceil(log2(n - 1)) improving epochs plus one confirming epoch. The confirming
epoch is skipped when a bound on path weights already proves convergence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import kernels
from .codec import EMAX, EncodeParams, decode, decode_values, encode
from .graph import INF, DensityReport, DistMatrix
from .kernels import KERNEL_NAMES, SPARSE

_SCATTER_ROWS = 64


@dataclass
class SolveOptions:
    """Knobs for the solve loop.

    width (32 or 64) caps the exponent budget of every epoch; the arithmetic
    is float64 at either width. kernel is "auto" (the density rule of
    kernels.choose_kernel) or names the one kernel every epoch runs.
    trusted_diameter D stops the solve, reported converged, as soon as the
    doubled path budget reaches D, with no confirming epoch. D is not
    checked: below the true diameter, the result holds distances that are
    too long, or inf, and still reads converged=True.
    """

    width: int = 64
    kernel: str = "auto"
    trusted_diameter: int | None = None

    def __post_init__(self):
        if self.width not in EMAX:
            raise ValueError(f"width must be 32 or 64, got {self.width}")
        if self.kernel not in KERNEL_NAMES:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.trusted_diameter is not None and self.trusted_diameter < 1:
            raise ValueError("trusted_diameter must be >= 1")


@dataclass
class EpochStats:
    """Per-epoch convergence record.

    convergence_quantity/_pct are defined against the final unreachable set
    and are back-filled once the solve finishes.
    """

    epoch: int
    max_element: int
    finite_before: int
    finite_after: int
    convergence_quantity: int | None = None
    convergence_pct: float | None = None

    @property
    def delta(self) -> int:
        return self.finite_after - self.finite_before

    def finalize(self, unreachable_count: int, n: int) -> None:
        self.convergence_quantity = self.finite_after + unreachable_count
        self.convergence_pct = 100.0 * self.convergence_quantity / (n * n)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    kernel_trace names the kernel of every distance product that ran. An epoch
    confirmed by the path-weight bound (see power_law_bound) has an entry in
    epochs but none in kernel_trace.
    """

    distances: DistMatrix
    epochs: list[EpochStats]
    converged: bool
    kernel_trace: list[str]


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


def converged(before: DistMatrix, after: DistMatrix) -> bool:
    """True iff every entry is equal (inf counts as equal to inf)."""
    if before.n != after.n:
        raise ValueError(f"dimension mismatch: {before.n} vs {after.n}")
    return bool(np.array_equal(before.data, after.data))


def _finite_summary(m: DistMatrix) -> tuple[int, int]:
    """(finite entry count, largest finite entry) of m from one isfinite pass."""
    a = m.data
    mask = np.isfinite(a)
    return int(np.count_nonzero(mask)), int(np.amax(a, initial=0.0, where=mask))


def _distance_product(
    l: DistMatrix, opts: SolveOptions, summary: tuple[int, int] | None = None
) -> tuple[DistMatrix, str, tuple[int, int]]:
    """One epoch's product, its kernel and its (finite count, max).

    summary is l's (finite count, max) when known.
    """
    n = l.n
    finite, top = summary if summary is not None else _finite_summary(l)
    p = EncodeParams(base=n + 1, x_tilde=top, width=opts.width)
    if opts.kernel == "auto":
        kind = kernels.choose_kernel(DensityReport(finite, n * n))
    else:
        kind = opts.kernel
    enc = encode(l, p)
    # free each intermediate as soon as possible: at scale every full matrix
    # is a large fraction of RAM
    if kind == SPARSE:
        s = sp.csr_array(enc.data)
        del enc
        prod = kernels.multiply_sparse(s, s)
        del s
        # every stored product entry is positive, so each decodes, in place,
        # to a finite distance
        vals = decode_values(prod.data, p, out=prod.data)
        result = _scatter_rows(prod.indptr, prod.indices, vals, n)
        return result, kind, (len(vals), int(vals.max()))
    prod = kernels.multiply_dense(enc, enc)
    del enc
    result = decode(prod, p)
    del prod
    # a finite maximum means every pair is reachable
    top = result.data.max()
    if top < INF:
        return result, kind, (n * n, int(top))
    return result, kind, _finite_summary(result)


def _scatter_rows(
    indptr: np.ndarray, indices: np.ndarray, vals: np.ndarray, n: int
) -> DistMatrix:
    """Dense n x n distances from CSR parts, inf where no value is stored.

    Works over blocks of rows, so no row-index array as long as nnz is built.
    """
    out = np.full((n, n), INF)
    flat = out.reshape(-1)
    for i in range(0, n, _SCATTER_ROWS):
        j = min(i + _SCATTER_ROWS, n)
        lo, hi = indptr[i], indptr[j]
        # flat position of each stored value: its row's offset plus its column
        pos = np.repeat(np.arange(i * n, j * n, n), np.diff(indptr[i : j + 1]))
        pos += indices[lo:hi]
        flat[pos] = vals[lo:hi]
    return DistMatrix._trusted(out)


def distance_product(l: DistMatrix, opts: SolveOptions | None = None) -> DistMatrix:
    """Min-plus square of l via the encode/multiply/decode pipeline."""
    result, _, _ = _distance_product(l, opts or SolveOptions())
    return result


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


def power_law_bound(w: DistMatrix, opts: SolveOptions | None = None) -> SolveResult:
    """Solve APSP by repeated min-plus squaring with convergence detection.

    Stops when an epoch leaves the matrix unchanged, when the doubled path
    budget reaches the trusted diameter, when the path-weight bound proves
    that the next epoch would change nothing, or when the epoch budget runs
    out (converged=False on the partial result in that case). A stop by the
    bound still records the confirming epoch, with no change, in epochs, but
    runs no product for it.
    """
    opts = opts or SolveOptions()
    n = w.n
    total = _epoch_budget(n) + 1  # room for the confirming epoch
    stats: list[EpochStats] = []
    trace: list[str] = []
    is_converged = False
    current = w
    finite, top = _finite_summary(w)
    w_min = _min_off_diagonal(w)
    m = 1
    for epoch in range(1, total + 1):
        nxt, kind, (nxt_finite, nxt_top) = _distance_product(current, opts, (finite, top))
        trace.append(kind)
        stats.append(
            EpochStats(
                epoch=epoch, max_element=nxt_top, finite_before=finite, finite_after=nxt_finite
            )
        )
        same = converged(current, nxt)
        current = nxt
        finite_before, finite, top = finite, nxt_finite, nxt_top
        if same:
            is_converged = True
            break
        m *= 2
        if opts.trusted_diameter is not None and m >= opts.trusted_diameter:
            is_converged = True
            break
        if _bound_proves_converged(n, m, w_min, finite, finite_before, top):
            stats.append(
                EpochStats(
                    epoch=epoch + 1, max_element=top, finite_before=finite, finite_after=finite
                )
            )
            is_converged = True
            break
    unreachable = n * n - finite
    for st in stats:
        st.finalize(unreachable, n)
    return SolveResult(
        distances=current, epochs=stats, converged=is_converged, kernel_trace=trace
    )


def fixed_squaring(w: DistMatrix, opts: SolveOptions | None = None) -> tuple[DistMatrix, int]:
    """Non-reusing baseline: exactly ceil(log2(n - 1)) squarings, no
    convergence short-circuit. Returns (distances, iterations)."""
    opts = opts or SolveOptions()
    iterations = max(1, _epoch_budget(w.n))
    current = w
    for _ in range(iterations):
        current, _, _ = _distance_product(current, opts)
    return current, iterations

