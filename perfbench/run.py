"""Benchmark of the APSP pipeline: edge list -> DistMatrix -> power_law_bound
-> output, on fixed seeded graphs, checked against scipy csgraph Dijkstra.

One workload run, from the root of a checkout:

    python3 perfbench/run.py --workload route1600 --seed 1 --seconds 20 --trace 0

prints one ``name value unit`` line per metric, the environment, and as its
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics from a traced run.

Every metric of a workload set, each workload in its own process:

    python3 perfbench/run.py --report smoke             # tiny graphs, seconds
    python3 perfbench/run.py --report bench --seconds 25
    python3 perfbench/run.py --report sf6000 --seconds 1

See perfbench/README.md for the workloads, the metrics and what each layer
metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 15
MIN_SOLVES = 3
CHILD_TIMEOUT_S = 150
KINDS = ("end_to_end", "per_layer")  # metric kind reported, indexed by --trace


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(2, nproc())


def blas_env() -> dict[str, str]:
    return {var: str(blas_threads()) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **blas_env())
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = {}
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "numba_importable": has_numba,
        "nproc": nproc(),
        "ram_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "machine": platform.machine(),
        "cpu": model,
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it.

    With n samples that is the (n-10)/n quantile; with 10 or fewer no
    percentile has 10 beyond it and the slowest sample is reported.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of {n} samples (n <= 10)"
    note = f"p{100 * (n - 10) / n:.0f} of {n} samples, 10 beyond"
    if n < 20:
        note += "; with fewer than 20 samples this lies below the median"
    return s[n - 11], note


def parse_csv(text: str, n: int):
    import numpy as np

    flat = np.fromstring(text.strip().replace("\n", ",").replace("INF", "inf"), sep=",")
    return flat.reshape(n, n) if flat.size == n * n else None


def cli_solve(i: int, inst, workdir: Path, traced: bool) -> tuple[float, Path | None, Path]:
    """One fresh-process `minplus-apsp solve EDGES -o OUT.csv`. Returns the
    wall seconds, the output path (None when the process failed) and the path
    of its span dump (written only when traced)."""
    out = workdir / f"out-{i}.csv"
    dump = workdir / f"cli-spans-{i}.json"
    args = ["solve", str(workdir / "edges.txt"), "-o", str(out)] + (["--directed"] if inst.directed else [])
    if traced:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(dump)] + args
    else:
        cmd = [sys.executable, "-m", "minplus_apsp.cli"] + args
    start = time.perf_counter()
    try:
        ok = subprocess.run(
            cmd, env=child_env(), cwd=workdir, capture_output=True, timeout=CHILD_TIMEOUT_S
        ).returncode == 0
    except subprocess.TimeoutExpired:
        ok = False
    return time.perf_counter() - start, out if ok and out.exists() else None, dump


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path):
    import gate as gate_mod
    import spans
    import workloads
    from minplus_apsp import parse_edge_list, power_law_bound, to_distance_matrix

    wl = workloads.WORKLOADS[name]
    units = declared_units(KINDS[traced])
    lines = [gate_mod.self_check()]
    inst = workloads.build(wl, seed)
    (workdir / "edges.txt").write_text(inst.text)

    parse_t, matrix_t = [], []

    def setup():
        t0 = time.perf_counter()
        g = parse_edge_list(inst.text, directed=inst.directed)
        t1 = time.perf_counter()
        m = to_distance_matrix(g)
        parse_t.append(t1 - t0)
        matrix_t.append(time.perf_counter() - t1)
        return m

    w = setup()
    gate = gate_mod.Gate()
    rec = spans.Recorder()
    restore = spans.install(rec) if traced else None

    def traced_solve():
        rec.begin_solve()
        rec.open("solver.power_law_bound")
        try:
            return power_law_bound(w)
        finally:
            rec.close()
            rec.end_solve()

    # one untimed warm-up: the first solve in a process pays first-touch costs
    _, result = gate_mod.solve_checked(lambda: power_law_bound(w))
    gate_mod.record_result(gate, result)
    del result

    # The machine's speed drifts over seconds, so the setup repeats and CLI
    # runs are spread across the timed loop instead of measured in one burst:
    # every metric then samples the whole run.
    plain, with_trace, layer_rows, cli = [], [], [], []
    solving = 0.0
    i = 0

    def interleave(progress: float):
        while len(parse_t) < SETUP_REPEATS and progress >= len(parse_t) / SETUP_REPEATS:
            setup()
        while len(cli) < wl.cli_runs and progress >= (len(cli) + 0.5) / wl.cli_runs:
            cli.append(cli_solve(len(cli), inst, workdir, traced))

    while i < MIN_SOLVES or solving < seconds:
        # the traced run alternates untraced and traced solves
        use_trace = traced and i % 2 == 1
        dt, result = gate_mod.solve_checked(traced_solve if use_trace else lambda: power_law_bound(w))
        solving += dt
        (with_trace if use_trace else plain).append(dt)
        if use_trace:
            row = spans.solve_layers(rec.spans, rec.notes, rec.solve)
            row["trace.solve_s"] = dt
            # probes run inside the traced solve but belong to no layer
            row["trace.accounted_frac"] = row["trace.layer_sum_s"] / (dt - row["trace.probe_s"])
            layer_rows.append(row)
        gate_mod.record_result(gate, result)
        del result
        i += 1
        interleave(solving / seconds)
    interleave(1.0)
    # read before the reference check allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if restore:
        restore()

    ref, dijkstra_s = gate_mod.dijkstra(inst.n, inst.src, inst.dst, inst.weight, inst.directed)
    cli_walls, cli_dumps = [], []
    for wall, out, dump in cli:
        cli_walls.append(wall)
        gate.record(parse_csv(out.read_text(), inst.n) if out else None)
        if traced and out:
            cli_dumps.append(json.loads(dump.read_text()))
    gate.verify(ref)

    solve_s = statistics.median(plain)
    setup_t = [p + m for p, m in zip(parse_t, matrix_t)]
    metrics: dict[str, float] = {}
    if traced:
        layers = spans.median_by_key(layer_rows)
        metrics.update({k: v for k, v in layers.items() if k in units})
        metrics["graph.parse_s"] = statistics.median(parse_t)
        metrics["graph.to_matrix_s"] = statistics.median(matrix_t)
        metrics["trace.overhead_s"] = metrics["trace.solve_s"] - solve_s
        metrics["ref.dijkstra_s"] = dijkstra_s
        metrics["ref.solve_over_dijkstra"] = solve_s / dijkstra_s
        metrics.update(spans.median_by_key([spans.cli_layers(d) for d in cli_dumps]))
        metrics["wrong_pairs"] = gate.wrong_pairs
        metrics["failed_frac"] = gate.failed_frac
    else:
        tail_s, tail_note = tail(plain)
        metrics["solve_s"] = solve_s
        metrics["solve_s.tail"] = tail_s
        metrics["setup_s"] = statistics.median(setup_t)
        metrics["peak_rss_mb"] = peak_rss_mb
        if cli_walls:
            metrics["cli_s"] = statistics.median(cli_walls)
        lines.append(f"solve_s.tail is the {tail_note}")
    missing = [k for k in units if k not in metrics]
    if missing:
        lines.append(f"not measured on {name}: {', '.join(missing)}")
    lines.append(
        f"gate: {gate.attempted} solves attempted ({len(plain) + len(with_trace)} timed, "
        f"1 warm-up, {len(cli_walls)} CLI), {gate.failed} failed, "
        f"wrong_pairs={gate.wrong_pairs}, failed_frac={gate.failed_frac:.4g}"
    )
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units if k in metrics},
    }
    details = {
        "samples": {"solve_s": plain, "trace.solve_s": with_trace, "setup_s": setup_t, "cli_s": cli_walls},
        "spans": rec.dump() if traced else None,
        "cli_spans": cli_dumps,
    }
    return result, lines, details


def workload_main(args) -> int:
    # BLAS reads its thread count when numpy is first imported, below
    os.environ.update(blas_env())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        result, lines, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    env = environment()
    record = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result, **details}))
    for line in lines:
        print(line)
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env))
    print(f"record written to {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def report_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.SETS.get(args.report, tuple(args.report.split(",")))
    status = 0
    for name in names:
        for traced in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            print(f"== {name} trace={traced} exit={proc.returncode}")
            out = proc.stdout.strip().splitlines()
            for line in out[:-1]:
                print("   " + line)
            if proc.returncode != 0 or not out:
                print(proc.stderr)
                status = 1
                continue
            result = json.loads(out[-1])
            if not result["correct"] or set(result["metrics"]) != set(declared_units(KINDS[traced])):
                status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="workload name (see perfbench/workloads.py)")
    p.add_argument("--seed", type=int, default=1, help="relabels nodes and shuffles edge lines")
    p.add_argument("--seconds", type=float, default=2.0, help="length of the timed solve loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", metavar="SET", help="smoke, bench, all, or comma-separated workloads")
    args = p.parse_args(argv)
    if not (SRC / "minplus_apsp" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.report:
        return report_main(args)
    if not args.workload:
        p.error("give --workload or --report")
    return workload_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
