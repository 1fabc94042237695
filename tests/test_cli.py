import numpy as np
import pytest

from minplus_apsp import cli
from minplus_apsp.cli import main
from minplus_apsp.matio import read_distance_binary

P3_TEXT = "0 1\n1 2\n"


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

    @pytest.mark.parametrize("flag", ["-o", "--stats", "--heatmap"])
    def test_unwritable_output_reported(self, p3_file, tmp_path, flag, capsys):
        target = str(tmp_path / "no_such_dir" / "out")
        assert main(["solve", p3_file, flag, target]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and "no_such_dir" in err

    @pytest.mark.parametrize("flag", ["-o", "--stats", "--heatmap"])
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

    def test_heatmap_pgm(self, p3_file, tmp_path):
        pgm = tmp_path / "d.pgm"
        assert main(["solve", p3_file, "--heatmap", str(pgm)]) == 0
        blob = pgm.read_bytes()
        assert blob.startswith(b"P5\n3 3\n255\n")
        assert len(blob) == len(b"P5\n3 3\n255\n") + 9

    def test_width32_infeasible_diameter(self, tmp_path, capsys):
        # path of 30 nodes: distances reach 29, beyond the 32-bit safe limit
        path = tmp_path / "long.txt"
        path.write_text("".join(f"{i} {i+1}\n" for i in range(29)))
        assert main(["solve", str(path), "--width", "32"]) == 1
        assert "limit" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sparse-threshold", "--diameter"])
    def test_removed_tuning_flags_rejected(self, p3_file, flag):
        with pytest.raises(SystemExit) as exc:
            main(["solve", p3_file, flag, "2"])
        assert exc.value.code != 0

    def test_unsafe_precision_removed(self, p3_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", p3_file, "--unsafe-precision"])
        assert exc.value.code != 0

    def test_kernel_override(self, p3_file, capsys):
        assert main(["solve", p3_file, "--kernel", "dense"]) == 0
        out = capsys.readouterr().out
        assert "0,1,2\n1,0,1\n2,1,0\n" in out
        listed = out.split("kernels=")[1].split()[0].split(",")
        assert listed and all(kind == "dense" for kind in listed)

    def test_removed_kernel_rejected(self, p3_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", p3_file, "--kernel", "strassen"])
        assert exc.value.code != 0

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.txt")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 zebra\n")
        assert main(["solve", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_directed(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("0 1\n")
        assert main(["solve", str(path), "--directed"]) == 0
        assert "0,1\nINF,0\n" in capsys.readouterr().out

    def test_trust_diameter(self, p3_file, capsys):
        assert main(["solve", p3_file, "--trust-diameter", "2"]) == 0
        assert "epochs=1" in capsys.readouterr().out

    def test_trust_diameter_below_one(self, p3_file, capsys):
        assert main(["solve", p3_file, "--trust-diameter", "0"]) == 1
        assert "trusted_diameter must be >= 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_n_reported(self, n, capsys):
        assert main(["check", n]) == 1
        assert capsys.readouterr().err == f"error: n must be >= 1, got {n}\n"


def test_bench_subcommand_removed():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "48"])
    assert exc.value.code != 0
