"""Spans around the library's layer boundaries, recorded from outside.

The library source is not touched. ``install`` replaces public functions in
the namespace where their caller looks them up: ``solver`` binds
``encode``, ``decode``, ``max_finite``, ``density``, ``epoch_stats`` and
``converged`` by name, and reaches kernels as ``kernels.<name>``; the CLI
binds ``parse_edge_list``, ``to_distance_matrix`` and ``power_law_bound``
by name and reaches output as ``matio.<name>``. A wrapper records a span
(solve id, name, start, end, parent, epoch) only while the recorder is
active, so an installed but inactive recorder costs one attribute test per
call.

Self time is a span's duration minus the durations of its direct children,
so nested calls (``epoch_stats`` calling ``max_finite``) are not counted
twice and the self times of one solve add up to the root span. Counts that
need a pass over a matrix (decode margin, SpGEMM multiplications) are taken
by probes that run after the measured call returns, inside their own
``trace.probe`` span, so no layer is charged for them.
"""
from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

PROBE = "trace.probe"


@dataclass
class Span:
    solve: int
    name: str
    start: float
    end: float
    parent: int | None
    epoch: int
    self_s: float


class Recorder:
    """In-memory span and note store; written out once the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: list[tuple[int, int, str, float]] = []  # solve, epoch, key, value
        self.active = False
        self.solve = 0
        self.epoch = 0
        self._open: list[tuple[int, list[float]]] = []  # span index, child time

    def begin_solve(self) -> None:
        self.solve += 1
        self.epoch = 0
        self.active = True

    def end_solve(self) -> None:
        self.active = False

    def open(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else None
        self._open.append((len(self.spans), [0.0]))
        self.spans.append(Span(self.solve, name, time.perf_counter(), 0.0, parent, self.epoch, 0.0))

    def close(self) -> None:
        end = time.perf_counter()
        idx, child = self._open.pop()
        span = self.spans[idx]
        span.end = end
        dur = end - span.start
        span.self_s = dur - child[0]
        if self._open:
            self._open[-1][1][0] += dur

    def note(self, key: str, value: float) -> None:
        self.notes.append((self.solve, self.epoch, key, float(value)))

    def dump(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "notes": self.notes}


def _wrap(rec: Recorder, fn, name: str, probe=None, new_epoch: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if new_epoch:
            rec.epoch += 1
        rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close()
        if probe is not None:
            rec.open(PROBE)
            try:
                probe(rec, args, out)
            finally:
                rec.close()
        return out

    return wrapper


# ---- probes: counts taken after the measured call, outside its span ----


def _probe_encode(rec, args, out):
    from minplus_apsp.codec import EMAX

    p = args[1]
    bits = p.exponent_budget()
    rec.note("exponent_bits", bits)
    rec.note("exponent_frac", bits / EMAX[p.width])


def _probe_decode(rec, args, out):
    c_prime, p = args[0], args[1]
    v = np.asarray(c_prime.data, dtype=np.float64)
    v = v[v > 0]
    if v.size == 0:
        return
    from minplus_apsp import codec

    # a decode without an additive guard is measured against log_base(v) itself
    guard = getattr(codec, "FLOOR_LOG_GUARD", {}).get(c_prime.width, 0.0)
    x = np.log(v) / math.log(p.base) + guard
    frac = x - np.floor(x)
    # distance to the boundary floor() just passed, and to the next one up
    below, above = float(frac.min()), float((1.0 - frac).min())
    rec.note("decode_margin", min(below, above))
    rec.note("decode_margin_up", above)


def _probe_density(rec, args, out):
    rec.note("density", out.density)


def _nnz_profile(x):
    """Per-row and per-column nonzero counts of a CSR-like or dense operand.

    Accepts the library's CsrMatrix, a scipy sparse matrix or a dense
    EncodedMatrix, so the count survives a change of the sparse kernel's
    operand type (a change that claims a gain may not edit the benchmark).
    """
    if hasattr(x, "row_ptr"):
        n = x.n
        return np.diff(x.row_ptr), np.bincount(x.col_idx, minlength=n)
    if hasattr(x, "indptr"):
        x = x.tocsr()
        return np.diff(x.indptr), np.bincount(x.indices, minlength=x.shape[1])
    nz = np.asarray(getattr(x, "data", x)) != 0
    return nz.sum(axis=1), nz.sum(axis=0)


def _nnz(x) -> int:
    if hasattr(x, "values"):
        return len(x.values)
    if hasattr(x, "nnz"):
        return int(x.nnz)
    return int(np.count_nonzero(getattr(x, "data", x)))


def _probe_sparse(rec, args, out):
    a, b = args[0], args[1]
    _, a_cols = _nnz_profile(a)
    b_rows, _ = _nnz_profile(b)
    # scalar multiplications of a Gustavson SpGEMM: sum_k nnz(col k of a) * nnz(row k of b)
    rec.note("sparse_mults", float(np.dot(a_cols.astype(np.float64), b_rows.astype(np.float64))))
    rec.note("sparse_nnz_out", _nnz(out))


def _probe_dense(rec, args, out):
    rec.note("dense_n", args[0].data.shape[0])


def _probe_converged(rec, args, out):
    rec.note("converged", bool(out))


def install(rec: Recorder, *, cli: bool = False):
    """Wrap the layer boundaries; returns a function that restores them."""
    import minplus_apsp.kernels as kernels
    import minplus_apsp.matio as matio
    import minplus_apsp.solver as solver

    targets = [
        (solver, "_distance_product", "solver.distance_product", None, True),
        (solver, "encode", "codec.encode", _probe_encode, False),
        (solver, "decode", "codec.decode", _probe_decode, False),
        (solver, "max_finite", "codec.max_finite", None, False),
        (solver, "density", "graph.density", _probe_density, False),
        (solver, "epoch_stats", "solver.epoch_stats", None, False),
        (solver, "converged", "solver.converged", _probe_converged, False),
        (kernels, "to_csr", "kernels.to_csr", None, False),
        (kernels, "from_csr", "kernels.from_csr", None, False),
    ]
    for attr in dir(kernels):
        if attr.startswith("multiply_") and callable(getattr(kernels, attr)):
            if "sparse" in attr:
                targets.append((kernels, attr, "kernels.sparse", _probe_sparse, False))
            else:
                targets.append((kernels, attr, "kernels.dense", _probe_dense, False))
    if cli:
        import minplus_apsp.cli as cli_mod

        targets += [
            (cli_mod, "parse_edge_list", "graph.parse", None, False),
            (cli_mod, "to_distance_matrix", "graph.to_matrix", None, False),
            (cli_mod, "power_law_bound", "solver.power_law_bound", None, False),
            (matio, "write_distance_csv", "matio.write_csv", None, False),
            (matio, "distance_csv", "matio.csv", None, False),
        ]
    saved = []
    for mod, attr, name, probe, new_epoch in targets:
        # a boundary a later version of the library removed is simply not traced
        if not hasattr(mod, attr):
            continue
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, _wrap(rec, fn, name, probe, new_epoch))

    def restore():
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)

    return restore


# ---- aggregation ----

_SOLVE_LAYERS = {
    "graph.density_s": ("graph.density",),
    "codec.encode_s": ("codec.encode",),
    "codec.decode_s": ("codec.decode",),
    "codec.max_finite_s": ("codec.max_finite",),
    "kernels.dense_s": ("kernels.dense",),
    "kernels.sparse_s": ("kernels.sparse",),
    "kernels.csr_convert_s": ("kernels.to_csr", "kernels.from_csr"),
    "solver.stats_s": ("solver.epoch_stats",),
    "solver.converged_s": ("solver.converged",),
    "solver.self_s": ("solver.power_law_bound", "solver.distance_product"),
}


def solve_layers(spans: list[Span], notes, solve: int) -> dict[str, float]:
    """Per-layer self times and counts of one traced solve."""
    mine = [s for s in spans if s.solve == solve]
    self_by = defaultdict(float)
    calls = defaultdict(int)
    for s in mine:
        self_by[s.name] += s.self_s
        calls[s.name] += 1
    out = {k: sum(self_by[n] for n in names) for k, names in _SOLVE_LAYERS.items()}
    out["trace.probe_s"] = self_by[PROBE]
    out["trace.layer_sum_s"] = sum(out[k] for k in _SOLVE_LAYERS)

    by_key = defaultdict(list)
    for sid, epoch, key, value in notes:
        if sid == solve:
            by_key[key].append((epoch, value))

    out["kernels.dense_calls"] = calls["kernels.dense"]
    out["kernels.sparse_calls"] = calls["kernels.sparse"]
    flops = sum(2.0 * n**3 for _, n in by_key["dense_n"])
    out["kernels.dense_gflops"] = flops / out["kernels.dense_s"] / 1e9 if out["kernels.dense_s"] else 0.0
    out["kernels.sparse_mults"] = sum(v for _, v in by_key["sparse_mults"])
    out["kernels.sparse_nnz_out"] = sum(v for _, v in by_key["sparse_nnz_out"])
    dense_epochs = sorted({s.epoch for s in mine if s.name == "kernels.dense"})
    density = dict(by_key["density"])
    out["kernels.switch_density"] = density.get(dense_epochs[0], 0.0) if dense_epochs else 0.0

    epochs = [s for s in mine if s.name == "solver.distance_product"]
    checks = [s for s in mine if s.name == "solver.converged"]
    verdicts = [v for _, v in by_key["converged"]]
    out["solver.epochs"] = len(epochs)
    out["solver.dense_epochs"] = len(dense_epochs)
    out["solver.improving_epochs"] = sum(1 for v in verdicts if not v)
    # the last epoch confirms when it left the matrix unchanged
    if epochs and checks and verdicts and verdicts[-1]:
        out["solver.confirm_s"] = checks[-1].end - epochs[-1].start
    else:
        out["solver.confirm_s"] = 0.0

    out["codec.exponent_bits"] = max((v for _, v in by_key["exponent_bits"]), default=0.0)
    out["codec.exponent_frac"] = max((v for _, v in by_key["exponent_frac"]), default=0.0)
    out["codec.decode_margin"] = min((v for _, v in by_key["decode_margin"]), default=0.0)
    out["codec.decode_margin_up"] = min((v for _, v in by_key["decode_margin_up"]), default=0.0)
    return out


def cli_layers(dump: dict) -> dict[str, float]:
    """CLI-side numbers from one traced CLI process."""
    spans = [Span(**s) for s in dump["spans"]]
    total = defaultdict(float)
    self_by = defaultdict(float)
    for s in spans:
        total[s.name] += s.end - s.start
        self_by[s.name] += s.self_s
    return {
        "cli.import_s": dump["import_s"],
        # probes only run inside the solve; they are tracing cost, not solve time
        "cli.solve_s": total["solver.power_law_bound"] - self_by[PROBE],
        "matio.csv_s": self_by["matio.write_csv"] + self_by["matio.csv"],
    }


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}
