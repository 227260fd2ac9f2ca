import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from rasphy import (Alignment, BinningParams, RateDistribution,
                    RegularityParams, generate_random_regular,
                    simulate_alignment)
from rasphy import io as rio
from rasphy.cli import main


def run_cli(args):
    """Invoke the CLI in-process, capturing the exit code."""
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse usage failures
        return exc.code


class TestRatesGrammar:
    def test_round_trips(self):
        for spec in ("constant", "discrete:0.5,0.5;1.5,0.5",
                     "gamma:2.0", "lognormal:0.6"):
            rates = rio.parse_rates_spec(spec)
            again = rio.parse_rates_spec(rio.format_rates_spec(rates))
            assert again.kind == rates.kind

    def test_atom_at_zero_rejected(self):
        with pytest.raises(ValueError, match="atom at 0"):
            rio.parse_rates_spec("discrete:0,0.5;2,0.5")

    def test_bad_grammar_rejected(self):
        for bad in ("", "discrete", "discrete:1", "weird:3", "gamma:x"):
            with pytest.raises(ValueError):
                rio.parse_rates_spec(bad)


class TestFileFormats:
    def test_alignment_round_trip(self, tmp_path, jc):
        tree = generate_random_regular(6, RegularityParams(0.1, 0.2, 1.2), 0)
        aln = simulate_alignment(tree, jc, RateDistribution.constant(), 40, 1)
        path = tmp_path / "aln.txt"
        rio.write_alignment(path, aln)
        header = path.read_text().splitlines()[0]
        assert header == "40 6 4"
        again = rio.read_alignment(path)
        assert np.array_equal(again.data, aln.data)
        assert again.data.dtype == np.uint8
        assert again.r == 4 and again.hidden_lambdas is None

    def test_alignment_round_trip_above_256_states(self, tmp_path):
        data = np.random.default_rng(0).integers(0, 300, (20, 4))
        data[0, 0] = 299
        path = tmp_path / "aln.txt"
        rio.write_alignment(path, Alignment(data, 300))
        again = rio.read_alignment(path)
        assert again.r == 300
        assert np.array_equal(again.data, data)

    @pytest.mark.parametrize("r, k, n", [
        (2, 5, 3), (4, 40, 6), (20, 30, 7), (256, 40, 9), (300, 20, 4),
        (4, 0, 5), (4, 1, 5), (3, 1, 3), (2, 3, 0),
        (4, 600, 2048),  # more than one block of rows
    ])
    def test_alignment_text_matches_row_formatter(self, tmp_path, r, k, n):
        def write_rows(path, aln):
            # the oracle: one str() per state, one line per row
            with open(path, "w") as fh:
                fh.write(f"{aln.k} {aln.n} {aln.r}\n")
                for row in aln.data:
                    fh.write(" ".join(map(str, row.tolist())) + "\n")

        dtype = np.uint8 if r <= 256 else np.int64
        data = np.random.default_rng(r + k + n).integers(0, r, (k, n))
        if k * n:
            data.flat[0] = r - 1  # the widest state is always present
        aln = Alignment(data.astype(dtype), r)
        rio.write_alignment(tmp_path / "fast.txt", aln)
        write_rows(tmp_path / "rows.txt", aln)
        assert ((tmp_path / "fast.txt").read_bytes()
                == (tmp_path / "rows.txt").read_bytes())
        again = rio.read_alignment(tmp_path / "fast.txt")
        assert again.r == r and again.data.shape == (k, n)
        assert np.array_equal(again.data, aln.data)

    @pytest.mark.parametrize("text", [
        "2 3 4\r\n0 1 2\r\n3 0 1\r\n",  # CRLF
        "2 3 4\n0\t1 2\n3 0 1\n",  # a tab
        "2 3 4\n0  1 2\n3 0 1\n",  # a double space
        "2 3 4\n0 1 2 \n3 0 1\n",  # a trailing space
        "2 3 4\n0 1 2\n3 0 1",  # no final newline
        "2 3 4\n0 1 2\n3 0 1\n2 2 2\n9 9\n",  # rows after k are ignored
    ])
    def test_alignment_grammar_beyond_fixed_width(self, tmp_path, text):
        path = tmp_path / "aln.txt"
        path.write_bytes(text.encode())
        aln = rio.read_alignment(path)
        assert aln.r == 4 and aln.data.dtype == np.uint8
        assert np.array_equal(aln.data, [[0, 1, 2], [3, 0, 1]])

    @pytest.mark.parametrize("text, match", [
        ("2 3 4\n0 1\n3 0 1\n", "columns"),  # a ragged row
        ("2 3 4\n0 1 2\n3 0\n", "columns"),
        ("2 3 4\n0 1 2\n", "does not match"),  # too few rows
        ("2 3 4\n0 1 4\n3 0 1\n", r"\[0, r\)"),  # a state >= r
        ("2 0 4\n\n1\n", "does not match"),  # states in an n=0 body
        ("2 0 4\r\n1\r\n\r\n", "does not match"),
        ("2 0 4\n\n", "does not match"),
    ])
    def test_malformed_alignment_rejected(self, tmp_path, text, match):
        path = tmp_path / "aln.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=match):
            rio.read_alignment(path)

    @pytest.mark.parametrize("text", [b"2 0 4\n\n\n", b"2 0 4\r\n\r\n\r\n"])
    def test_alignment_without_leaves_reads_in_either_line_end(
            self, tmp_path, text):
        path = tmp_path / "aln.txt"
        path.write_bytes(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aln = rio.read_alignment(path)
        assert aln.data.shape == (2, 0) and aln.r == 4

    def test_alignment_read_memory_bounded(self, tmp_path):
        # the body is read through one reused block of about 1 MiB
        data = np.random.default_rng(0).integers(0, 4, (20_000, 512))
        path = tmp_path / "aln.txt"
        rio.write_alignment(path, Alignment(data.astype(np.uint8), 4))
        tracemalloc.start()
        try:
            aln = rio.read_alignment(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(aln.data, data)
        assert peak - aln.data.nbytes <= 4 * 2**20

    def test_lambda_sidecar_round_trip(self, tmp_path):
        lams = np.array([0.5, 1.5, 1.5, 0.5])
        path = tmp_path / "lams.txt"
        rio.write_lambdas(path, lams)
        assert np.array_equal(rio.read_lambdas(path), lams)

    def test_distance_matrix_round_trip_with_inf(self, tmp_path):
        values = np.array([[0.0, 1.25, np.inf],
                           [1.25, 0.0, 0.5],
                           [np.inf, 0.5, 0.0]])
        path = tmp_path / "dist.txt"
        rio.write_distance_matrix(path, values, ["x", "y", "z"])
        got, labels = rio.read_distance_matrix(path)
        assert labels == ["x", "y", "z"]
        assert np.array_equal(got, values)

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_distance_matrix_text_matches_cell_formatter(self, tmp_path, n):
        def write_cells(path, values, labels):
            # the oracle: one isinf test and one repr per cell
            with open(path, "w") as fh:
                fh.write(f"{n}\n")
                for i in range(n):
                    cells = " ".join(
                        "inf" if np.isinf(values[i, j])
                        else repr(float(values[i, j]))
                        for j in range(n))
                    fh.write(f"{labels[i]} {cells}\n")

        rng = np.random.default_rng(n)
        values = rng.exponential(size=(n, n)) * 10.0 ** rng.integers(
            -8, 18, size=(n, n))
        special = [np.inf, np.finfo(float).tiny, 1e-5, 1e17, 0.5, 7.0]
        values.flat[1:1 + len(special)] = special[:max(0, n * n - 1)]
        values = np.triu(values, 1)
        values = values + values.T  # symmetric, with a zero diagonal
        labels = [f"leaf_{i}" for i in range(n)]
        rio.write_distance_matrix(tmp_path / "fast.txt", values, labels)
        write_cells(tmp_path / "cells.txt", values, labels)
        assert ((tmp_path / "fast.txt").read_bytes()
                == (tmp_path / "cells.txt").read_bytes())

    def test_pairset_lines(self, tmp_path):
        from rasphy import PairSet
        path = tmp_path / "pairs.txt"
        rio.write_pairset(path, PairSet(((0, 2), (1, 3))), ["a", "b", "c", "d"])
        assert path.read_text() == "a c\nb d\n"

    def test_config_grammar(self):
        text = "# comment\nk = 500\nrates = constant  # trailing\n\nf=0.1\n"
        got = rio.parse_config_text(text)
        assert got == {"k": "500", "rates": "constant", "f": "0.1"}
        with pytest.raises(ValueError, match="key = value"):
            rio.parse_config_text("nonsense line")

    def test_statistics_csv(self, tmp_path):
        path = tmp_path / "u.csv"
        rio.write_statistics_csv(path, [0.25, 0.75], [0.5, 1.5])
        lines = path.read_text().splitlines()
        assert lines[0] == "site,U_value,hidden_lambda"
        assert lines[1].startswith("0,0.25,")

    def test_reconstruction_from_distance_file(self, tmp_path):
        # the distance matrix file is a full interface to reconstruction
        from rasphy import (ReconstructionConfig, reconstruct_topology,
                            robinson_foulds, tree_metric)
        tree = generate_random_regular(12, RegularityParams(0.1, 0.2, 1.2), 4)
        path = tmp_path / "d.txt"
        rio.write_distance_matrix(path, tree_metric(tree), tree.labels)
        values, labels = rio.read_distance_matrix(path)
        topo = reconstruct_topology(
            values, ReconstructionConfig(trust_cap=np.inf, tau=0.0),
            labels=labels)
        assert robinson_foulds(topo, tree) == 0


class TestSimulateCommand:
    def test_happy_path_writes_three_files(self, tmp_path):
        out = tmp_path / "run1"
        code = run_cli([
            "simulate", "--complete-h", "4", "--mu", "0.2",
            "--rates", "discrete:0.5,0.5;1.5,0.5", "--k", "50",
            "--r", "4", "--seed", "7", "--out-dir", str(out)])
        assert code == 0
        for name in ("alignment.txt", "lambdas.txt", "tree.nwk",
                     "config.txt"):
            assert (out / name).exists()
        aln = rio.read_alignment(out / "alignment.txt")
        assert aln.k == 50 and aln.n == 16

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["simulate", "--complete-h", "3", "--mu", "0.2",
                "--rates", "constant", "--k", "20", "--r", "2",
                "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out-dir", str(out1)]) == 0
        assert run_cli(args + ["--out-dir", str(out2)]) == 0
        for name in ("alignment.txt", "lambdas.txt", "tree.nwk"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_atom_at_zero_is_model_error(self, tmp_path, capsys):
        code = run_cli([
            "simulate", "--complete-h", "3", "--mu", "0.2",
            "--rates", "discrete:0,0.5;2,0.5", "--k", "10",
            "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "atom at 0" in capsys.readouterr().err

    def test_assumption_failure_reports_value(self, tmp_path, capsys):
        code = run_cli([
            "simulate", "--complete-h", "3", "--mu", "0.2",
            "--rates", "constant", "--k", "10", "--big-m", "1.0",
            "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "phi_inverse" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2 ** 63, 2 ** 63 + 5])
    def test_seed_from_2_63_is_input_error(self, tmp_path, capsys, seed):
        out = tmp_path / "x"
        code = run_cli([
            "simulate", "--complete-h", "3", "--mu", "0.2",
            "--rates", "constant", "--k", "10", "--seed", str(seed),
            "--out-dir", str(out)])
        assert code == 2
        assert "2**63" in capsys.readouterr().err
        assert not out.exists()

    def test_r_above_256_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run_cli([
            "simulate", "--complete-h", "3", "--mu", "0.2",
            "--rates", "constant", "--k", "10", "--r", "300",
            "--out-dir", str(out)])
        assert code == 2
        assert "at most 256" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_source_is_usage_error(self, tmp_path):
        code = run_cli(["simulate", "--rates", "constant", "--k", "10",
                        "--out-dir", str(tmp_path / "x")])
        assert code == 1

    def test_big_m_with_tree_needs_g(self, tmp_path, capsys):
        tree = tmp_path / "t.nwk"
        tree.write_text("((a:0.2,b:0.2):0.2,(c:0.2,d:0.2):0.2);\n")
        args = ["simulate", "--tree", str(tree), "--big-m", "0.3",
                "--rates", "constant", "--k", "10",
                "--out-dir", str(tmp_path / "x")]
        assert run_cli(args) == 1
        assert "--big-m with --tree requires --g" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        # with --g the assumption is checked, and fails
        assert run_cli(args + ["--g", "0.2"]) == 2
        assert "phi_inverse" in capsys.readouterr().err

    def test_config_txt_replays_run(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli([
            "simulate", "--n", "12", "--f", "0.1", "--g", "0.2",
            "--big-m", "1.5", "--rates", "discrete:1,0.3;3,0.7",
            "--k", "300", "--r", "2", "--seed", "0",
            "--out-dir", str(out)]) == 0
        echoed = (out / "config.txt").read_text().splitlines()
        assert "seed = 0" in echoed and "big-m = 1.5" in echoed
        assert "rates = discrete:1,0.3;3,0.7" in echoed
        assert any(line.startswith("# resolved_rates = discrete:")
                   for line in echoed)
        again = tmp_path / "again"
        assert run_cli(["simulate", "--config", str(out / "config.txt"),
                        "--out-dir", str(again)]) == 0
        for name in ("alignment.txt", "lambdas.txt", "tree.nwk"):
            assert (out / name).read_bytes() == (again / name).read_bytes()

    def test_hash_in_value_is_usage_error(self, tmp_path, capsys):
        # config.txt cuts a value at its '#', so it could not replay the run
        out = tmp_path / "d#1"
        assert run_cli(["simulate", "--complete-h", "2", "--mu", "0.2",
                        "--k", "10", "--out-dir", str(out)]) == 1
        assert "cannot hold '#'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_explicit_flag_at_default_beats_file(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("r = 2\n")
        out = tmp_path / "x"
        assert run_cli(["simulate", "--complete-h", "3", "--mu", "0.2",
                        "--k", "10", "--r", "4", "--config", str(cfg),
                        "--out-dir", str(out)]) == 0
        assert (out / "alignment.txt").read_text().splitlines()[0] \
            == "10 8 4"

    def test_required_flags_from_file(self, tmp_path):
        out = tmp_path / "x"
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"complete-h = 3\nmu = 0.2\nk = 10\n"
                       f"out-dir = {out}\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 0
        assert rio.read_alignment(out / "alignment.txt").data.shape == (10, 8)

    @pytest.mark.parametrize("text", [
        "r = four\n",  # a bad value
        "k = 10\nnonsense\n",  # a malformed line
        "bogus = 1\n",  # an unknown key
        "config = other.txt\n",  # a file may not name another
    ])
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        out = tmp_path / "x"
        assert run_cli(["simulate", "--complete-h", "3", "--mu", "0.2",
                        "--k", "10", "--config", str(cfg),
                        "--out-dir", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestPipelineCommand:
    @pytest.fixture
    def sim_dir(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli([
            "simulate", "--n", "32", "--f", "0.1", "--g", "0.2",
            "--rates", "discrete:0.5,0.5;1.5,0.5", "--k", "20000",
            "--r", "4", "--seed", "21", "--out-dir", str(out)]) == 0
        return out

    def test_full_run_reports_rf_zero(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "pipe"
        code = run_cli([
            "pipeline", "--alignment", str(sim_dir / "alignment.txt"),
            "--f", "0.1", "--g", "0.2", "--big-m", "1.5",
            "--rates", "discrete:0.5,0.5;1.5,0.5",
            "--truth", str(sim_dir / "tree.nwk"),
            "--out-dir", str(out)])
        assert code == 0
        assert "rf=0" in capsys.readouterr().out
        for name in ("report.txt", "reconstructed.nwk", "u_values.csv",
                     "bins.csv", "params.txt", "pairs.txt", "distances.txt",
                     "config.txt"):
            assert (out / name).exists()
        report = (out / "report.txt").read_text()
        assert "ok=True" in report and "rf=0" in report
        # bins.csv flags exactly the bins at the abundance threshold, and
        # the selected bin is one of them
        params = dict(line.split("=", 1) for line in
                      (out / "params.txt").read_text().splitlines())
        bp = BinningParams(**{key: float(value) for key, value in
                              params.items()})
        threshold = bp.abundance_threshold(20_000)
        rows = (out / "bins.csv").read_text().splitlines()
        assert rows[0] == "bin_index,lower_edge,upper_edge,count,is_abundant"
        abundant = set()
        for row in rows[2:]:
            j, _, _, count, flag = row.split(",")
            assert flag == str(int(count) >= threshold)
            if flag == "True":
                abundant.add(j)
        chosen = [line.split("=", 1)[1] for line in report.splitlines()
                  if line.startswith("abundant_bin=")]
        assert len(chosen) == 1 and chosen[0] in abundant

    def test_truth_of_other_leaf_count_is_input_error(self, sim_dir,
                                                       tmp_path, capsys):
        truth = tmp_path / "tree16.nwk"
        rio.write_tree(truth, generate_random_regular(
            16, RegularityParams(0.1, 0.2, 1.5), seed=0))
        out = tmp_path / "pipe"
        code = run_cli([
            "pipeline", "--alignment", str(sim_dir / "alignment.txt"),
            "--f", "0.1", "--g", "0.2", "--big-m", "1.5",
            "--truth", str(truth), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "16 leaves" in err and "has 32" in err
        assert not (out / "pairs.txt").exists()

    def test_missing_big_m_is_usage_error(self, sim_dir, tmp_path):
        code = run_cli([
            "pipeline", "--alignment", str(sim_dir / "alignment.txt"),
            "--f", "0.1", "--g", "0.2",
            "--out-dir", str(tmp_path / "pipe")])
        assert code == 1

    def test_stats_only_stops_early(self, sim_dir, tmp_path):
        out = tmp_path / "stats"
        code = run_cli([
            "pipeline", "--alignment", str(sim_dir / "alignment.txt"),
            "--f", "0.1", "--g", "0.2", "--big-m", "1.5",
            "--stats-only", "--out-dir", str(out)])
        assert code == 0
        assert (out / "u_values.csv").exists()
        assert not (out / "reconstructed.nwk").exists()
        lines = (out / "u_values.csv").read_text().splitlines()
        assert lines[0] == "site,U_value"
        assert len(lines) == 20001
        report = (out / "report.txt").read_text().splitlines()
        assert "site_statistics.status=ok" in report
        for key in ("bin_size", "abundant_bin", "reconstruct_topology"):
            assert not any(key in line for line in report), key

    def test_config_file_supplies_defaults(self, sim_dir, tmp_path):
        cfg = tmp_path / "defaults.txt"
        cfg.write_text("f = 0.1\ng = 0.2\nbig-m = 1.5\n")
        out = tmp_path / "pipe2"
        code = run_cli([
            "pipeline", "--alignment", str(sim_dir / "alignment.txt"),
            "--config", str(cfg), "--stats-only", "--out-dir", str(out)])
        assert code == 0
        echoed = (out / "config.txt").read_text().splitlines()
        assert "big-m = 1.5" in echoed and "stats-only = true" in echoed

    @pytest.mark.parametrize("extra", [[], ["--stats-only"]])
    def test_config_txt_replays_run(self, sim_dir, tmp_path, extra):
        out = tmp_path / "pipe"
        assert run_cli([
            "pipeline", "--alignment", str(sim_dir / "alignment.txt"),
            "--f", "0.1", "--g", "0.2", "--big-m", "1.5",
            "--rates", "discrete:0.5,0.5;1.5,0.5", "--tau", "0.0",
            "--truth", str(sim_dir / "tree.nwk"), *extra,
            "--out-dir", str(out)]) == 0
        again = tmp_path / "again"
        assert run_cli(["pipeline", "--config", str(out / "config.txt"),
                        "--out-dir", str(again)]) == 0
        names = ("pairs.txt", "u_values.csv", "bins.csv", "params.txt",
                 "distances.txt", "reconstructed.nwk")
        written = [name for name in names if (out / name).exists()]
        assert written == (["u_values.csv"] if extra else list(names))
        assert written == [name for name in names if (again / name).exists()]
        for name in written:
            assert (out / name).read_bytes() == (again / name).read_bytes()

    def test_hash_in_value_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "pipe"
        assert run_cli([
            "pipeline", "--alignment", str(tmp_path / "aln.txt"),
            "--f", "0.1", "--g", "0.2", "--big-m", "1.5",
            "--truth", str(tmp_path / "t#1.nwk"), "--out-dir", str(out)]) == 1
        assert "--truth" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_tau_is_input_error(self, tmp_path, capsys):
        aln = tmp_path / "aln.txt"
        aln.write_text("4 4 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
        out = tmp_path / "pipe"
        code = run_cli([
            "pipeline", "--alignment", str(aln), "--f", "0.1", "--g", "0.2",
            "--big-m", "1.5", "--tau", "nan", "--out-dir", str(out)])
        assert code == 2
        assert "tau" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("extra", [[], ["--stats-only"]])
    def test_stage_failure_is_reported(self, tmp_path, capsys, extra):
        # no two leaves ever agree, so no pair is close
        aln = tmp_path / "aln.txt"
        aln.write_text("4 4 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
        out = tmp_path / "pipe"
        code = run_cli([
            "pipeline", "--alignment", str(aln), "--f", "0.1", "--g", "0.2",
            "--big-m", "1.5", *extra, "--out-dir", str(out)])
        assert code == 2
        assert "pipeline: stage 'sparsify' failed" in capsys.readouterr().err
        assert "sparsify.status=failed" in (out / "report.txt").read_text()
        assert not (out / "pairs.txt").exists()


class TestEvalCommand:
    def test_rf_identical(self, tmp_path, capsys):
        t = tmp_path / "t.nwk"
        t.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        assert run_cli(["eval", "rf", "--tree1", str(t),
                        "--tree2", str(t)]) == 0
        assert capsys.readouterr().out.strip() == "rf=0"

    def test_rf_two_quartets(self, tmp_path, capsys):
        t1 = tmp_path / "t1.nwk"
        t2 = tmp_path / "t2.nwk"
        t1.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        t2.write_text("((a:1,c:1):1,(b:1,d:1):1);\n")
        assert run_cli(["eval", "rf", "--tree1", str(t1),
                        "--tree2", str(t2)]) == 0
        assert capsys.readouterr().out.strip() == "rf=2"

    def test_tv_witness_positive(self, tmp_path, capsys):
        t1 = tmp_path / "t1.nwk"
        t2 = tmp_path / "t2.nwk"
        t1.write_text("((a:0.1,b:0.2):0.15,(c:0.12,d:0.18):0.11,e:0.14);\n")
        t2.write_text("((a:0.1,c:0.2):0.15,(b:0.12,d:0.18):0.11,e:0.14);\n")
        out = tmp_path / "result.txt"
        code = run_cli(["eval", "tv", "--tree1", str(t1), "--tree2", str(t2),
                        "--rates1", "discrete:0.5,0.5;1.5,0.5",
                        "--rates2", "discrete:0.5,0.5;1.5,0.5",
                        "--r", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith("tv=")
        assert float(printed[3:]) > 0.0
        assert out.read_text().strip() == printed

    def test_mismatched_leaves_is_model_error(self, tmp_path, capsys):
        t1 = tmp_path / "t1.nwk"
        t2 = tmp_path / "t2.nwk"
        t1.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        t2.write_text("((a:1,b:1):1,(c:1,x:1):1);\n")
        assert run_cli(["eval", "rf", "--tree1", str(t1),
                        "--tree2", str(t2)]) == 2

    def test_entry_point_runs_as_module(self, tmp_path):
        # neither the import nor a run without the lognormal law loads
        # scipy.integrate, which more than doubles start time and memory
        t = tmp_path / "t.nwk"
        t.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "rasphy", "eval", "rf",
             "--tree1", str(t), "--tree2", str(t)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "rf=0"
        # -X importtime lists every module the run imports on stderr
        assert "rasphy.cli" in proc.stderr
        assert "scipy.integrate" not in proc.stderr
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rasphy; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"
