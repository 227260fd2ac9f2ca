import hashlib
import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasphy import (Alignment, BinningParams, RateDistribution,
                    RegularityParams, generate_random_regular, run_pipeline,
                    simulate_alignment)
from rasphy import cli
from rasphy import io as rio
from rasphy.cli import main
from rasphy.distances import MIN_POSITIVE_DISTANCE

# bit patterns of -0.0, 0.0, +-inf, 5e-324, the smallest normal, 1e16 and
# 1e-5 (where repr switches notation), a quiet NaN, a NaN with the sign bit
# set and a NaN with a payload
_NAMED_BITS = [int(b) for b in np.array(
    [-0.0, 0.0, np.inf, -np.inf, 5e-324, MIN_POSITIVE_DISTANCE, 1e16, 1e-5,
     np.nan]).view(np.uint64)] + [0xFFF8000000000000, 0x7FF0000000000001]


def run_cli(args):
    """Invoke the CLI in-process, capturing the exit code."""
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse usage failures
        return exc.code


class TestRatesGrammar:
    def test_round_trips(self):
        # a trailing ';' leaves an empty atom, which is skipped
        for spec in ("constant", "discrete:0.5,0.5;1.5,0.5",
                     "gamma:2.0", "lognormal:0.6",
                     "discrete:0.1,0.3;1.7,0.7;", "gamma:2.000000001"):
            rates = rio.parse_rates_spec(spec)
            again = rio.parse_rates_spec(rio.format_rates_spec(rates))
            assert again.kind == rates.kind
            assert (again.shape, again.sigma) == (rates.shape, rates.sigma)
            if rates.kind == "discrete":
                # rescaling to mean 1 is not exact: within 1 ulp
                np.testing.assert_array_max_ulp(again.support, rates.support)
                np.testing.assert_array_max_ulp(again.probs, rates.probs)

    @pytest.mark.parametrize("law", [
        RateDistribution.constant(),
        RateDistribution.discrete([0.5, 1.0, 2.5], [0.2, 0.3, 0.5]),
        RateDistribution.gamma(4),
        RateDistribution.lognormal(0.5),
    ], ids=["constant", "discrete", "gamma", "lognormal"])
    def test_repr_is_the_spec(self, law):
        spec = rio.format_rates_spec(law)
        assert repr(law) == f"RateDistribution({spec})"
        again = rio.parse_rates_spec(spec)
        assert again.kind == law.kind
        for name in ("support", "probs", "shape", "sigma"):
            want = getattr(law, name)
            if want is None:
                assert getattr(again, name) is None
            else:
                np.testing.assert_allclose(getattr(again, name), want,
                                           rtol=1e-12, atol=0)

    def test_atom_at_zero_rejected(self):
        with pytest.raises(ValueError, match="atom at 0"):
            rio.parse_rates_spec("discrete:0,0.5;2,0.5")

    def test_bad_grammar_rejected(self):
        for bad in ("", "discrete", "discrete:1", "weird:3", "gamma:x",
                    "gamma:nan", "gamma:inf", "lognormal:nan",
                    "lognormal:inf", "discrete:nan,1", "discrete:1,nan",
                    "discrete:inf,1", "discrete:1,inf"):
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
        "2 3 4\n0 1 2\n\n3 0 1\n \n",  # blank lines among and after rows
        "2 3 4\n# a note\n0 1 2\n3 0 1 # a note\n",  # comments
    ])
    def test_alignment_grammar_beyond_fixed_width(self, tmp_path, text):
        path = tmp_path / "aln.txt"
        path.write_bytes(text.encode())
        aln = rio.read_alignment(path)
        assert aln.r == 4 and aln.data.dtype == np.uint8
        assert np.array_equal(aln.data, [[0, 1, 2], [3, 0, 1]])

    @pytest.mark.parametrize("text, match", [
        ("2 3\n0 1 2\n3 0 1\n", "header must be 'k n r'"),
        ("2 3 4\n0 1\n3 0 1\n", "columns"),  # a ragged row
        ("2 3 4\n0 1 2\n3 0\n", "columns"),
        ("2 3 4\n0 1 2\n", "does not match"),  # too few rows
        ("2 3 4\n0 1 4\n3 0 1\n", r"\[0, r\)"),  # a state >= r
        ("2 0 4\n\n1\n", "does not match"),  # states in an n=0 body
        ("2 0 4\r\n1\r\n\r\n", "does not match"),
        ("2 0 4\n\n", "does not match"),
        # rows beyond the header's k, in the fixed-width layout, with a
        # double space, beyond a blank line and at n=0
        ("2 4 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n", "text after row 2"),
        ("2 4 4\n0  1 2 3\n1 2 3 0\n2 3 0 1\n", "text after row 2"),
        ("2 3 4\n0 1 2\n3 0 1\n2 2 2\n9 9\n", "text after row 2"),
        ("2 3 4\n0 1 2\n\n3 0 1\n\n9\n", "text after row 2"),
        ("2 0 4\n\n\n1\n", "text after row 2"),
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

    def test_float_rows_named_values(self):
        # repeated three times, so each distinct value is formatted once
        values = np.array(_NAMED_BITS * 3, dtype=np.uint64).view(float)
        values = values.reshape(3, -1)
        assert rio._float_rows(values, " ") == [
            " ".join(map(repr, row)) for row in values.tolist()]
        assert rio._float_rows(values, " ")[0].split()[:2] == ["-0.0", "0.0"]
        for shape in ((0, 0), (1, 1), (1, 0), (2, 0), (0, 3)):
            assert rio._float_rows(np.ones(shape), ",") == (
                [""] * shape[0] if shape[1] == 0 else
                [",".join(["1.0"] * shape[1])] * shape[0])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_float_rows_match_repr(self, data):
        # any float64 bit pattern: NaNs with payloads or a set sign bit,
        # subnormals, both zeros; drawn from a small pool as often as
        # not, so arrays range from few distinct values to all distinct
        shape = data.draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
        pool = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                                  max_size=4))
        bits = data.draw(st.lists(
            st.sampled_from(pool) | st.integers(0, 2**64 - 1)
            | st.sampled_from(_NAMED_BITS),
            min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        values = np.array(bits, dtype=np.uint64).view(float).reshape(shape)
        assert rio._float_rows(values, " ") == [
            " ".join(map(repr, row)) for row in values.tolist()]

    def test_writers_match_repr_across_blocks(self, tmp_path):
        # 300 rows are 5 blocks of 54 and one of 30; the first rows hold
        # few distinct values, the rest are mostly distinct
        n = 300
        rng = np.random.default_rng(3)
        values = rng.exponential(size=(n, n))
        values[:100] = -np.log(rng.integers(1, 60, size=(100, n)) / 60.0)
        # symmetric, since the writer refuses asymmetry
        values = np.triu(values) + np.triu(values, 1).T
        values[7, 3] = values[3, 7] = -0.0
        values[8, 5] = values[5, 8] = np.nan
        labels = [f"t{i}" for i in range(n)]
        rio.write_distance_matrix(tmp_path / "d.txt", values, labels)
        assert (tmp_path / "d.txt").read_text() == f"{n}\n" + "".join(
            f"{label} {' '.join(map(repr, row))}\n"
            for label, row in zip(labels, values.tolist()))
        u = rng.choice([0.25, -0.0, 0.5, np.nan], size=20_001)
        lams = rng.gamma(4.0, 0.25, size=20_001)
        rio.write_statistics_csv(tmp_path / "u.csv", u, lams)
        assert (tmp_path / "u.csv").read_text() == (
            "site,U_value,hidden_lambda\n" + "".join(
                f"{i},{a!r},{b!r}\n"
                for i, (a, b) in enumerate(zip(u.tolist(), lams.tolist()))))
        rio.write_lambdas(tmp_path / "lams.txt", lams)
        assert (tmp_path / "lams.txt").read_text() == "".join(
            f"{lam!r}\n" for lam in lams.tolist())

    @pytest.mark.parametrize("distinct", [False, True])
    def test_distance_matrix_write_memory_bounded(self, tmp_path, distinct):
        # in units of n^2 float64: a block of rows at a time, never the
        # whole matrix's text (about 4 units cell by cell)
        n = 1024
        rng = np.random.default_rng(0)
        values = (rng.exponential(size=(n, n)) if distinct else
                  -np.log(rng.integers(1, 900, size=(n, n)) / 900.0))
        # symmetric, since the writer refuses asymmetry
        values = np.triu(values) + np.triu(values, 1).T
        labels = [f"leaf_{i}" for i in range(n)]
        tracemalloc.start()
        try:
            rio.write_distance_matrix(tmp_path / "d.txt", values, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) < 1

    def test_statistics_csv_length_mismatch_writes_nothing(self, tmp_path):
        path = tmp_path / "u.csv"
        with pytest.raises(ValueError, match="differ in length"):
            rio.write_statistics_csv(path, [0.25, 0.75], [0.5])
        assert not path.exists()

    @pytest.mark.parametrize("labels", [["x", "y"], ["x", "y", "z", "w"]])
    def test_distance_matrix_label_mismatch_writes_nothing(self, tmp_path,
                                                           labels):
        path = tmp_path / "d.txt"
        with pytest.raises(ValueError, match="labels for 3 rows"):
            rio.write_distance_matrix(path, np.zeros((3, 3)), labels)
        assert not path.exists()

    @pytest.mark.parametrize("values, message", [
        (np.zeros((3, 4)), "distance matrix must be square"),
        (np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.5, 0.5, 0.0]]),
         "distance matrix must be symmetric"),
    ], ids=["non-square", "asymmetric"])
    def test_distance_matrix_refused_values_write_nothing(
            self, tmp_path, values, message):
        # what read_distance_matrix would refuse is never written
        path = tmp_path / "d.txt"
        with pytest.raises(ValueError, match=message):
            rio.write_distance_matrix(path, values, ["x", "y", "z"])
        assert not path.exists()

    def test_pairset_lines(self, tmp_path):
        from rasphy import PairSet
        path = tmp_path / "pairs.txt"
        rio.write_pairset(path, PairSet(((0, 2), (1, 3))), ["a", "b", "c", "d"])
        assert path.read_text() == "a c\nb d\n"

    def test_pairset_label_shortfall_leaves_file_untouched(self, tmp_path):
        from rasphy import PairSet
        path = tmp_path / "pairs.txt"
        path.write_text("old\n")
        with pytest.raises(ValueError, match="3 labels for leaf index 3"):
            rio.write_pairset(path, PairSet(((0, 1), (2, 3))), list("abc"))
        assert path.read_text() == "old\n"

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

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        # a complete tree draws nothing before the simulator, so the
        # simulator's own check refuses the seed
        out = tmp_path / "x"
        code = run_cli([
            "simulate", "--complete-h", "3", "--mu", "0.2",
            "--rates", "constant", "--k", "10", "--seed", "-1",
            "--out-dir", str(out)])
        assert code == 2
        assert ("seed must be an integer in [0, 2**63), got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("source, rates, message", [
        (["--n", "8", "--f", "0.1", "--g", "0.2", "--big-m", "1.5"],
         "gamma:nan", "positive shape"),
        (["--tree", "{tree}"], "constant",
         "branch length overflows to inf (at character 12)"),
        (["--complete-h", "3", "--mu", "0.2", "--big-m", "1.0"], "constant",
         "phi_inverse"),
        (["--n", "8", "--f", "0.1", "--g", "0.2", "--big-m", "inf"],
         "constant", "distance_cap < inf, got f=0.1, g=0.2, M=inf"),
    ], ids=["gamma-nan", "length-1e999", "big-m-too-small", "big-m-inf"])
    def test_bad_input_writes_nothing(self, tmp_path, capsys, source, rates,
                                      message):
        tree = tmp_path / "t.nwk"
        tree.write_text("(a:1,b:1,(c:1e999,d:1):1);\n")
        out = tmp_path / "x"
        code = run_cli(["simulate"]
                       + [arg.format(tree=tree) for arg in source]
                       + ["--rates", rates, "--k", "10",
                          "--out-dir", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
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

    @pytest.mark.parametrize("source, message", [
        (["--complete-h", "3"], "--complete-h requires --mu"),
        (["--n", "8", "--g", "0.2"], "--n requires --f and --g"),
        (["--n", "8", "--f", "0.1"], "--n requires --f and --g"),
    ], ids=["complete-h-no-mu", "n-no-f", "n-no-g"])
    def test_incomplete_source_is_usage_error(self, tmp_path, capsys, source,
                                              message):
        out = tmp_path / "x"
        code = run_cli(["simulate"] + source
                       + ["--rates", "constant", "--k", "10",
                          "--out-dir", str(out)])
        assert code == 1
        assert f"simulate: {message}" in capsys.readouterr().err
        assert not out.exists()

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
        assert "[params]" in report
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
                  if line.startswith("select_abundant.abundant_bin=")]
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
        assert not out.exists()

    def test_assumption_failure_keeps_earlier_run(self, sim_dir, tmp_path,
                                                  capsys):
        # an input refused inside run_pipeline touches no file of --out-dir
        out = tmp_path / "pipe"

        def pipeline(rates):
            return run_cli([
                "pipeline", "--alignment", str(sim_dir / "alignment.txt"),
                "--f", "0.1", "--g", "0.2", "--big-m", "1.5",
                "--rates", rates, "--out-dir", str(out)])

        assert pipeline("discrete:0.5,0.5;1.5,0.5") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert pipeline("discrete:0.01,0.5;1.99,0.5") == 2
        assert "assumption" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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

    def test_alignment_without_sites_is_input_error(self, tmp_path, capsys):
        # no sites at all is bad input, not a statistical failure
        aln = tmp_path / "aln.txt"
        aln.write_text("0 5 4\n")
        out = tmp_path / "pipe"
        code = run_cli([
            "pipeline", "--alignment", str(aln), "--f", "0.1", "--g", "0.2",
            "--big-m", "1.5", "--out-dir", str(out)])
        assert code == 2
        assert ("rasphy pipeline: alignment has no sites"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_infinite_big_m_is_input_error(self, tmp_path, capsys):
        # data that reaches binning, where an infinite cap divided by zero
        sim = tmp_path / "sim"
        assert run_cli([
            "simulate", "--n", "8", "--f", "0.1", "--g", "0.2",
            "--big-m", "1.5", "--rates", "constant", "--k", "200",
            "--out-dir", str(sim)]) == 0
        out = tmp_path / "pipe"
        code = run_cli([
            "pipeline", "--alignment", str(sim / "alignment.txt"),
            "--f", "0.1", "--g", "0.2", "--big-m", "inf",
            "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "distance_cap < inf, got f=0.1, g=0.2, M=inf" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--trust-cap", "0", "trust_cap must exceed 4 * tau"),
        ("--gamma-u", "10", "violates the rate-pinning inequalities"),
        ("--witness-count", "1",
         "witness_count must be an integer of at least 2"),
        ("--witness-count", "4", None),
    ])
    def test_reconstruction_and_binning_flags(self, tmp_path, capsys, flag,
                                              value, message):
        # an out-of-range value is refused by its config before --out-dir
        # is made; an in-range one reaches the run
        sim = tmp_path / "sim"
        assert run_cli([
            "simulate", "--n", "16", "--f", "0.1", "--g", "0.2",
            "--big-m", "1.5", "--rates", "constant", "--k", "5000",
            "--seed", "3", "--out-dir", str(sim)]) == 0
        out = tmp_path / "pipe"
        code = run_cli([
            "pipeline", "--alignment", str(sim / "alignment.txt"),
            "--f", "0.1", "--g", "0.2", "--big-m", "1.5",
            "--truth", str(sim / "tree.nwk"), flag, value,
            "--out-dir", str(out)])
        captured = capsys.readouterr()
        if message is None:
            assert code == 0
            assert "rf=0" in captured.out
        else:
            assert code == 2
            assert captured.err.startswith("rasphy pipeline: ")
            assert message in captured.err
            assert not out.exists()

    @pytest.mark.parametrize("second", ["failing", "stats-only"])
    def test_rerun_leaves_only_its_own_files(self, tmp_path, capsys, second):
        def simulate(k):
            sim = tmp_path / f"sim{k}"
            assert run_cli([
                "simulate", "--n", "16", "--f", "0.1", "--g", "0.2",
                "--big-m", "1.5", "--rates", "constant", "--k", str(k),
                "--seed", "3", "--out-dir", str(sim)]) == 0
            return sim

        def pipeline(out, sim, *extra):
            return run_cli([
                "pipeline", "--alignment", str(sim / "alignment.txt"),
                "--f", "0.1", "--g", "0.2", "--big-m", "1.5",
                "--truth", str(sim / "tree.nwk"), *extra,
                "--out-dir", str(out)])

        good = simulate(5000)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("not the pipeline's\n")
        assert pipeline(out, good) == 0
        assert "rf=0" in capsys.readouterr().out
        # a full run writes every file of the list
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(cli._PIPELINE_FILES + ("notes.txt",))
        if second == "failing":
            sim, extra, code = simulate(30), (), 2
        else:
            sim, extra, code = good, ("--stats-only",), 0
        assert pipeline(out, sim, *extra) == code
        alone = tmp_path / "alone"
        assert pipeline(alone, sim, *extra) == code
        assert sorted(p.name for p in out.iterdir()) == \
            sorted([p.name for p in alone.iterdir()] + ["notes.txt"])
        assert not (out / "reconstructed.nwk").exists()
        assert (out / "notes.txt").read_text() == "not the pipeline's\n"

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

    @pytest.mark.parametrize("case", ["ok", "failing", "stats-only"])
    def test_report_files_hold_the_record(self, sim_dir, tmp_path,
                                          monkeypatch, case):
        reports = []

        def spy(*args, **kwargs):
            reports.append(run_pipeline(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run_pipeline", spy)
        if case == "failing":  # no two leaves ever agree, as above
            aln = tmp_path / "aln.txt"
            aln.write_text("4 4 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
            args, code = ["--alignment", str(aln)], 2
        else:
            args = ["--alignment", str(sim_dir / "alignment.txt"),
                    "--rates", "discrete:0.5,0.5;1.5,0.5",
                    "--truth", str(sim_dir / "tree.nwk")]
            args, code = args + ["--stats-only"] * (case == "stats-only"), 0
        out = tmp_path / "pipe"
        assert run_cli(["pipeline", *args, "--f", "0.1", "--g", "0.2",
                        "--big-m", "1.5", "--out-dir", str(out)]) == code
        [report] = reports
        record = report.to_record()
        assert json.loads((out / "report.json").read_text()) == record
        assert record["summary"]["ok"] is (case != "failing")
        # each report.txt line is one value of the record, and each value
        # one line: "[section]", then "key.key=value" down its key path
        lines = (out / "report.txt").read_text().splitlines()
        assert [line[1:-1] for line in lines if line.startswith("[")] == \
            list(record)
        values = []  # (section, last key, text) of each value line
        for line in lines:
            if line.startswith("["):
                name = line[1:-1]
                section = record[name]
                continue
            path, text = line.split("=", 1)
            value = section
            for key in path.split("."):
                value = value[key]
            assert text == str(value) and not isinstance(value, dict)
            values.append((name, key, text))
        todo, leaves = [record], 0
        while todo:
            value = todo.pop()
            if isinstance(value, dict):
                todo.extend(value.values())
            else:
                leaves += 1
        assert len(values) == leaves
        # a decision's count sits under its stage only
        counts = {key for stage in record["stages"].values()
                  for key in stage}
        assert set(record["summary"]).isdisjoint(counts)
        assert "bin_size" in counts or case != "ok"
        # and no certificate key but its own verdict, ok, repeats a value
        # that another section holds under the same name
        certified = {(key, text) for name, key, text in values
                     if name == "certificate" and key != "ok"}
        assert certified or case == "failing"
        assert certified.isdisjoint((key, text) for name, key, text in values
                                    if name != "certificate")


class TestFloatTextPins:
    """sha256 of the float text the CLI writes, from ``rasphy simulate``
    then ``rasphy pipeline --truth`` at n=32, k=2e4 under ``gamma:4``.
    With g=0.5 and seed 12 the run recovers the tree and ``distances.txt``
    holds ``inf`` entries, so the pins cover finite, infinite and zero
    cells, the lambda sidecar, the bin edges and the binning constants."""

    PINS = {
        "lambdas.txt":
            "47014bceeeb6540c2b79e75228b440b81b94d1d0f29a0e938e09948f084a5bd7",
        "u_values.csv":
            "5c8bc44a730b665d8c16bccaff43092507f71b544131cb92234b98d27ee1725d",
        "distances.txt":
            "b095d254e2498038eec3ed15f96cca46bfcc8e65ce4dec103060271abd00e132",
        "bins.csv":
            "687289a9752e9280427bdf6d42eb933e6105204d9c3fa240a3e95f0000a29b77",
        "params.txt":
            "fa0a4fd83e7a33682803cd287e4607685b157b9c8640ec96970f4f10eb51c202",
    }

    def test_digests(self, tmp_path, capsys):
        common = ["--f", "0.1", "--g", "0.5", "--big-m", "4.5",
                  "--rates", "gamma:4"]
        sim, out = tmp_path / "sim", tmp_path / "pipe"
        assert run_cli(["simulate", "--n", "32", *common, "--k", "20000",
                        "--r", "4", "--seed", "12",
                        "--out-dir", str(sim)]) == 0
        assert run_cli(["pipeline", "--alignment", str(sim / "alignment.txt"),
                        *common, "--truth", str(sim / "tree.nwk"),
                        "--out-dir", str(out)]) == 0
        assert "rf=0" in capsys.readouterr().out
        assert "inf" in (out / "distances.txt").read_text()
        got = {name: hashlib.sha256(
                   ((sim if name == "lambdas.txt" else out) / name)
                   .read_bytes()).hexdigest() for name in self.PINS}
        assert got == self.PINS


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

    def test_tv_without_rates_is_usage_error(self, tmp_path, capsys):
        t = tmp_path / "t.nwk"
        t.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        for rates in ([], ["--rates1", "constant"], ["--rates2", "constant"]):
            assert run_cli(["eval", "tv", "--tree1", str(t),
                            "--tree2", str(t)] + rates) == 1
            assert "eval tv: --rates1 and --rates2 are required" in \
                capsys.readouterr().err

    def test_mismatched_leaves_is_model_error(self, tmp_path, capsys):
        t1 = tmp_path / "t1.nwk"
        t2 = tmp_path / "t2.nwk"
        t1.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        t2.write_text("((a:1,b:1):1,(c:1,x:1):1);\n")
        assert run_cli(["eval", "rf", "--tree1", str(t1),
                        "--tree2", str(t2)]) == 2

    def test_entry_point_runs_as_module(self, tmp_path):
        # neither the import nor a run without the lognormal law loads any
        # scipy module: scipy.integrate more than doubles start time and
        # memory, and scipy.linalg alone takes 0.2 s to import
        t = tmp_path / "t.nwk"
        t.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "rasphy", "eval", "rf",
             "--tree1", str(t), "--tree2", str(t)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "rf=0"
        # -X importtime lists every module the run imports on stderr
        imported = [line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "rasphy.cli" in imported
        assert [m for m in imported if m.partition(".")[0] == "scipy"] == []
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rasphy; print(sorted(m for m in sys.modules"
             " if m.partition('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"
