import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minplus_apsp
from minplus_apsp import cli, matio, solver
from minplus_apsp.cli import main
from minplus_apsp.matio import read_distance_binary

P3_TEXT = "0 1\n1 2\n"

# solve flags that are gone, each with a value it once accepted
REMOVED_FLAGS = {
    "--sparse-threshold": "2",
    "--diameter": "2",
    "--trust-diameter": "2",
    "--width": "64",
    "--kernel": "dense",
}


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    return str(path)


class TestSolve:
    def test_stdout_csv_and_summary(self, p3_file, capsys):
        assert main(["solve", p3_file]) == 0
        out = capsys.readouterr().out
        assert "0,1,2\n1,0,1\n2,1,0\n" in out
        assert "epochs=2" in out
        assert "converged=True" in out

    def test_oracle_match(self, p3_file, capsys):
        assert main(["solve", p3_file, "--oracle"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_output_file(self, p3_file, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["solve", p3_file, "-o", str(out)]) == 0
        assert out.read_text() == "0,1,2\n1,0,1\n2,1,0\n"

    def test_binary_round_trip(self, p3_file, tmp_path):
        out = tmp_path / "d.bin"
        assert main(["solve", p3_file, "--format", "bin", "-o", str(out)]) == 0
        m = read_distance_binary(out)
        assert m.data.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_binary_requires_output(self, p3_file, capsys):
        assert main(["solve", p3_file, "--format", "bin"]) == 1
        assert "requires --output" in capsys.readouterr().err

    def test_binary_without_output_rejected_before_parsing(self, tmp_path, monkeypatch, capsys):
        def no_parse(text, directed=False):
            raise AssertionError("input parsed before the options were checked")

        monkeypatch.setattr(cli, "parse_edge_list", no_parse)
        missing = str(tmp_path / "missing.txt")
        assert main(["solve", missing, "--format", "bin"]) == 1
        assert capsys.readouterr().err == "error: --format bin requires --output\n"

    @pytest.mark.parametrize("flag", ["-o", "--stats"])
    def test_unwritable_output_reported(self, p3_file, tmp_path, flag, capsys):
        target = str(tmp_path / "no_such_dir" / "out")
        assert main(["solve", p3_file, flag, target]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and "no_such_dir" in err

    @pytest.mark.parametrize("flag", ["-o", "--stats"])
    @pytest.mark.parametrize("where", ["missing_dir", "is_dir"])
    def test_unwritable_output_rejected_before_parsing(
        self, p3_file, tmp_path, monkeypatch, flag, where, capsys
    ):
        def no_parse(text, directed=False):
            raise AssertionError("input parsed before the output was checked")

        monkeypatch.setattr(cli, "parse_edge_list", no_parse)
        target = tmp_path / "no_such_dir" / "out" if where == "missing_dir" else tmp_path
        assert main(["solve", p3_file, flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and str(target) in err

    def test_edges_counts_edge_lines(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("# comment\n0 1 3\n\n1 0 2\n1 2\n")
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0,2,3\n2,0,1\n3,1,0\n" in out
        assert "n=3 edges=3 " in out

    def test_stats_csv(self, p3_file, tmp_path):
        stats = tmp_path / "stats.csv"
        assert main(["solve", p3_file, "--stats", str(stats)]) == 0
        lines = stats.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,max_element")
        assert len(lines) == 3

    def test_infeasible_diameter(self, tmp_path, capsys):
        # one edge of weight 600 at n = 2 (base 8, k = 3) needs exponents up
        # to 1201 * 3 - 1022 = 2581; x_tilde 340 is the float64 limit there
        path = tmp_path / "heavy.txt"
        path.write_text("0 1 600\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "x_tilde=600 needs exponents up to 2581, above the 64-bit limit 1024" in err
        path.write_text("0 1 340\n")
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.startswith("0,340\n340,0\n")
        path.write_text("0 1 341\n")
        assert main(["solve", str(path)]) == 1
        assert "x_tilde=341 needs exponents up to 1027, above" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", REMOVED_FLAGS)
    def test_removed_tuning_flags_rejected(self, p3_file, flag):
        with pytest.raises(SystemExit) as exc:
            main(["solve", p3_file, flag, REMOVED_FLAGS[flag]])
        assert exc.value.code != 0

    def test_unsafe_precision_removed(self, p3_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", p3_file, "--unsafe-precision"])
        assert exc.value.code != 0

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.txt")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 zebra\n")
        assert main(["solve", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_edgeless_graph_solves(self, tmp_path, capsys):
        path = tmp_path / "edgeless.txt"
        path.write_text("#n 4\n")
        assert main(["solve", str(path), "--oracle"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == [",".join("0" if j == i else "INF" for j in range(4)) for i in range(4)]
        assert out[4].startswith("n=4 edges=0 epochs=1 converged=True ")
        assert out[5] == "MATCH"

    def test_directed(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("0 1\n")
        assert main(["solve", str(path), "--directed"]) == 0
        assert "0,1\nINF,0\n" in capsys.readouterr().out

    def test_unconverged_solve_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(solver, "_unchanged", lambda before, after: False)
        monkeypatch.setattr(solver, "_bound_proves_converged", lambda *args: False)
        path = tmp_path / "path9.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(8)))
        assert main(["solve", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "epochs=4 converged=False" in out
        assert "error: did not converge within the epoch budget" in err

    def test_summary_names_the_stop(self, p3_file, tmp_path, monkeypatch, capsys):
        def stop_of(argv):
            code = main(argv)
            return code, capsys.readouterr().out.split("stop=")[1].split()[0]

        edge = tmp_path / "edge.txt"
        edge.write_text("0 1\n")
        # weighted directed n=400 graph with 2382 edges, below n * n // 64:
        # three dense epochs, then the fixed-point check settles the fourth
        g = minplus_apsp.generate_scale_free(minplus_apsp.GenSpec(n=400, m_attach=3, seed=7))
        rng = np.random.default_rng(7)
        src, dst = np.r_[g.src, g.dst], np.r_[g.dst, g.src]
        weighted = tmp_path / "weighted.txt"
        weighted.write_text(
            matio.edge_list_text(
                minplus_apsp.Graph(400, src, dst, rng.integers(1, 10, len(src)), True)
            )
        )
        out = str(tmp_path / "d.csv")
        assert stop_of(["solve", str(edge), "--directed", "-o", out]) == (0, "unchanged")
        assert stop_of(["solve", p3_file, "-o", out]) == (0, "bound")
        # --oracle exits 1 unless the distances match Dijkstra's
        weighted_argv = ["solve", str(weighted), "--directed", "-o", out, "--oracle"]
        assert stop_of(weighted_argv) == (0, "edges")
        monkeypatch.setattr(solver, "_unchanged", lambda before, after: False)
        monkeypatch.setattr(solver, "_bound_proves_converged", lambda *args: False)
        assert stop_of(["solve", p3_file, "-o", out]) == (1, "budget")

    def test_failed_write_reported(self, p3_file, tmp_path, monkeypatch, capsys):
        def full_disk(m, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(matio, "write_distance_csv", full_disk)
        assert main(["solve", p3_file, "-o", str(tmp_path / "d.csv")]) == 1
        assert "error: cannot write output: [Errno 28] No space left on device" in (
            capsys.readouterr().err
        )

    def test_oracle_mismatch_exits_nonzero(self, p3_file, monkeypatch, capsys):
        def one_entry_raised(w):
            result = solver.power_law_bound(w)
            d = result.distances.data.copy()
            d[0, 2] += 1
            return dataclasses.replace(result, distances=minplus_apsp.DistMatrix(d))

        monkeypatch.setattr(cli, "power_law_bound", one_entry_raised)
        assert main(["solve", p3_file, "--oracle", "-o", os.devnull]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "MISMATCH"

    def test_out_of_memory_reported(self, p3_file, monkeypatch, capsys):
        def no_memory(graph):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(cli, "to_distance_matrix", no_memory)
        assert main(["solve", p3_file]) == 1
        assert "error: Unable to allocate 298. GiB" in capsys.readouterr().err


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["gen", "--n", "100", "--m-attach", "2", "--seed", "7", "-o", str(a)]) == 0
        assert main(["gen", "--n", "100", "--m-attach", "2", "--seed", "7", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tree_edge_count(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["gen", "--n", "5", "--m-attach", "1", "-o", str(out)]) == 0
        assert "edges=4" in capsys.readouterr().err
        assert sum(1 for line in out.read_text().splitlines() if not line.startswith("#")) == 4

    def test_generated_file_solves(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "--n", "60", "--m-attach", "2", "-o", str(out)]) == 0
        assert main(["solve", str(out), "--oracle"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_solve_flag_reports_diameter(self, tmp_path, capsys):
        assert main(["gen", "--n", "200", "--m-attach", "3", "--solve",
                     "-o", str(tmp_path / "g.txt")]) == 0
        err = capsys.readouterr().err
        assert "diameter=" in err and "within_2x_estimate=" in err

    def test_solve_out_of_memory_reported(self, monkeypatch, capsys):
        def no_memory(graph):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(cli, "to_distance_matrix", no_memory)
        assert main(["gen", "--n", "10", "--solve"]) == 1
        assert "error: Unable to allocate 298. GiB" in capsys.readouterr().err

    def test_invalid_spec(self, capsys):
        assert main(["gen", "--n", "2", "--m-attach", "5"]) == 1

    def test_unwritable_output_reported(self, tmp_path, capsys):
        target = str(tmp_path / "no_such_dir" / "g.txt")
        assert main(["gen", "--n", "10", "-o", target]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output")


class TestCheck:
    def test_actors_network(self, capsys):
        assert main(["check", "8508"]) == 0
        out = capsys.readouterr().out
        assert "paper_limit=9.8" in out
        assert "paper_limit=78.4" in out

    def test_n10(self, capsys):
        assert main(["check", "10"]) == 0
        assert "paper_limit=296.0" in capsys.readouterr().out

    def test_n1(self, capsys):
        assert main(["check", "1"]) == 0
        out = capsys.readouterr().out
        assert "paper_limit=127.9" in out and "paper_limit=1024.0" in out

    def test_float32_products(self, capsys):
        # route1600's dense epoch (x_tilde 2) and sf6000's (x_tilde 4) run
        # float32, wsf1600's (x_tilde 29..36) float64
        assert main(["check", "1600"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "float32_products=x_tilde<=10"
        assert main(["check", "6000"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "float32_products=x_tilde<=8"

    def test_rounding_bound_refuses_a_width(self, capsys):
        # the float32 exponent range admits x_tilde 4 on both sides of
        # n = 2**23, but the rounding bound (n < 2**23) refuses float32
        # products above it
        assert main(["check", str(2**23 - 1)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "width=32 paper_limit=5.6 safe_limit=4.8 INFEASIBLE"
        assert lines[-1] == "float32_products=x_tilde<=4"
        assert main(["check", str(2**23)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "width=32 paper_limit=5.6 safe_limit=4.6 INFEASIBLE"
        assert lines[2].endswith(" FEASIBLE")
        assert lines[-1] == "float32_products=none"

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_n_reported(self, n, capsys):
        assert main(["check", n]) == 1
        assert capsys.readouterr().err == f"error: n must be >= 1, got {n}\n"


def test_bench_subcommand_removed():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "48"])
    assert exc.value.code != 0


def test_dense_only_solve_never_imports_scipy_sparse(p3_file):
    # scipy.sparse costs a quarter of a second per CLI start; only a sparse
    # epoch needs it, and every epoch of P3 runs dense
    code = (
        "import sys\n"
        "from minplus_apsp.cli import main\n"
        f"assert main(['solve', {p3_file!r}]) == 0\n"
        "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse imported'\n"
    )
    src = str(Path(minplus_apsp.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert "epochs=2" in done.stdout
