"""Traced fresh-process CLI run.

    python3 cli_child.py SPANS_JSON solve EDGES -o OUT.csv [--directed]

Times the import of ``minplus_apsp.cli``, wraps the CLI's and the solver's
layer boundaries, runs ``main`` with the remaining arguments and writes the
spans to SPANS_JSON. The untraced CLI runs use ``python3 -m
minplus_apsp.cli`` directly; this script is only for the traced run.
"""
import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import minplus_apsp.cli as cli

    import_s = time.perf_counter() - start
    import spans

    rec = spans.Recorder()
    spans.install(rec, cli=True)
    rec.begin_solve()
    rec.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        rec.close()
        rec.end_solve()
    dump = rec.dump()
    dump["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
