"""Command-line front end: solve, check, gen."""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import matio
from .codec import (
    DecodeError,
    EncodeParams,
    FeasibilityError,
    base_for,
    largest_float32_x_tilde,
    precision_limits,
)
from .graph import GraphFormatError, parse_edge_list, to_distance_matrix
from .netgen import GenSpec, diameter, estimate_diameter, generate_scale_free
from .solver import epoch_stats_csv, power_law_bound


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="minplus-apsp",
        description="All-pairs shortest paths via exponentially encoded "
        "matrix products with repeated squaring.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve APSP for an edge-list file")
    solve.add_argument("input", help="edge-list file")
    solve.add_argument("-o", "--output", help="distance matrix output path (default: stdout)")
    solve.add_argument("--directed", action="store_true", help="treat edges as directed")
    solve.add_argument("--oracle", action="store_true", help="cross-check against scipy's Dijkstra")
    solve.add_argument("--format", choices=("csv", "bin"), default="csv")
    solve.add_argument("--stats", metavar="PATH", help="write per-epoch statistics CSV")

    check = sub.add_parser("check", help="print precision limits for a node count")
    check.add_argument("n", type=int)

    gen = sub.add_parser("gen", help="generate a scale-free edge list")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m-attach", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", help="edge-list output path (default: stdout)")
    gen.add_argument("--solve", action="store_true", help="also solve and report the diameter")

    return p


def cmd_solve(args) -> int:
    if args.format == "bin" and not args.output:
        print("error: --format bin requires --output", file=sys.stderr)
        return 1
    # refuse, before any work, a target that can never be opened for writing
    for target in filter(None, (args.output, args.stats)):
        path = Path(target)
        if path.is_dir() or not path.parent.is_dir():
            what = "is a directory" if path.is_dir() else f"{path.parent} is not a directory"
            print(f"error: cannot write output: {target}: {what}", file=sys.stderr)
            return 1
    try:
        # the bytes as they are: the parser reads every line ending itself
        text = Path(args.input).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    try:
        graph = parse_edge_list(text, directed=args.directed)
        w = to_distance_matrix(graph)
        start = time.perf_counter()
        result = power_law_bound(w)
        elapsed = time.perf_counter() - start
    except (GraphFormatError, FeasibilityError, DecodeError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.format == "bin":
            matio.write_distance_binary(result.distances, args.output)
        elif args.output:
            matio.write_distance_csv(result.distances, args.output)
        else:
            sys.stdout.writelines(matio.distance_csv_blocks(result.distances))
        if args.stats:
            Path(args.stats).write_text(epoch_stats_csv(result.epochs))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1

    kinds = [st.kernel for st in result.epochs if st.kernel]
    # what ended the solve: an epoch that changed nothing, a proof, or the budget
    if result.converged:
        stop = result.epochs[-1].proof or "unchanged"
    else:
        stop = "budget"
    print(
        f"n={graph.n} edges={len(graph.src)} epochs={len(result.epochs)} "
        f"converged={result.converged} kernels={','.join(kinds)} stop={stop} "
        f"wall={elapsed:.3f}s"
    )
    if not result.converged:
        print("error: did not converge within the epoch budget", file=sys.stderr)
        return 1
    if args.oracle:
        # imported here: csgraph adds about 0.1 s to every CLI start
        from scipy.sparse.csgraph import shortest_path

        reference = shortest_path(w.data, method="D", directed=args.directed)
        if np.array_equal(result.distances.data, reference):
            print("MATCH")
        else:
            print("MISMATCH")
            return 1
    return 0


def cmd_check(args) -> int:
    try:
        est = estimate_diameter(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"n={args.n} estimated_diameter={est:.1f}")
    for width in (32, 64):
        lim = precision_limits(args.n, width)
        # safe_limit is the exponent half of the proof; x_tilde 0 tests the rounding half
        rounding = EncodeParams(base=base_for(args.n), x_tilde=0, width=width).is_feasible()
        verdict = "FEASIBLE" if rounding and est <= lim.safe_limit else "INFEASIBLE"
        print(
            f"width={width} paper_limit={lim.paper_limit:.1f} "
            f"safe_limit={lim.safe_limit:.1f} {verdict}"
        )
    # products up to this x_tilde run exact in float32, on either kernel
    top = largest_float32_x_tilde(args.n)
    print(f"float32_products={'none' if top is None else f'x_tilde<={top}'}")
    return 0


def cmd_gen(args) -> int:
    try:
        spec = GenSpec(n=args.n, m_attach=args.m_attach, seed=args.seed)
        graph = generate_scale_free(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = matio.edge_list_text(graph)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    print(f"n={graph.n} edges={len(graph.src)}", file=sys.stderr)
    if args.solve:
        try:
            result = power_law_bound(to_distance_matrix(graph))
        except (FeasibilityError, DecodeError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        diam = diameter(result.distances)
        est = estimate_diameter(graph.n)
        print(
            f"diameter={diam.value} disconnected={diam.disconnected} "
            f"estimate={est:.1f} within_2x_estimate={diam.value <= 2 * est}",
            file=sys.stderr,
        )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "check": cmd_check,
        "gen": cmd_gen,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
