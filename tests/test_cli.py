import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partitest import load_table
from partitest.cli import main

from helpers import render_v1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def exact_table(tmp_path, capsys):
    path = tmp_path / "exact.pnt"
    code, out, err = run_cli(
        capsys,
        "nulltable",
        "--problem",
        "ksample",
        "--groups",
        "2,2",
        "--family",
        "sum",
        "--score",
        "lr",
        "--m-max",
        "4",
        "--B",
        "500",
        "--seed",
        "3",
        "--out",
        str(path),
    )
    assert code == 0, err
    return path


@pytest.fixture()
def exact_table_v1(exact_table):
    """The exact table rewritten as v1 text, for tests that edit its lines."""
    exact_table.write_bytes(render_v1(load_table(str(exact_table))))
    return exact_table


class TestNulltableCommand:
    def test_exact_trigger_and_header(self, exact_table, capsys):
        header = exact_table.read_bytes().split(b"#body=f8le\n")[0].decode("utf-8")
        assert "#exact=1\n" in header
        assert "#B=6\n" in header

    def test_pearson_grid_past_exact_limit_exits_1(self, tmp_path, capsys):
        out_path = tmp_path / "t.pnt"
        code, out, err = run_cli(
            capsys, "nulltable", "--problem", "independence", "--n", "6801",
            "--family", "adp-sum", "--score", "pearson", "--B", "100", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == "error: Pearson grid sums are exact only for N <= 6800, got N=6801\n"
        assert not out_path.exists()

    def test_rerun_is_byte_identical(self, exact_table, tmp_path, capsys):
        other = tmp_path / "again.pnt"
        code, _, _ = run_cli(
            capsys,
            "nulltable",
            "--problem",
            "ksample",
            "--groups",
            "2,2",
            "--family",
            "sum",
            "--score",
            "lr",
            "--m-max",
            "4",
            "--B",
            "500",
            "--seed",
            "3",
            "--out",
            str(other),
        )
        assert code == 0
        assert other.read_bytes() == exact_table.read_bytes()

    def test_independence_table(self, tmp_path, capsys):
        path = tmp_path / "ind.pnt"
        code, out, _ = run_cli(
            capsys,
            "nulltable",
            "--problem",
            "independence",
            "--n",
            "4",
            "--family",
            "adp-sum",
            "--B",
            "100",
            "--out",
            str(path),
        )
        assert code == 0
        assert "B=24" in out

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "nulltable", "--problem", "ksample", "--out", "x.pnt")
        assert code == 1
        assert "groups" in err

    def test_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "nulltable",
            "--problem",
            "ksample",
            "--groups",
            "2,2",
            "--B",
            "100",
            "--out",
            str(tmp_path / "no" / "t.pnt"),
        )
        assert code == 3

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_exits_1(self, tmp_path, capsys):
        out_path = tmp_path / "t.pnt"
        code, out, err = run_cli(
            capsys, "nulltable", "--problem", "ksample", "--groups", "550,550", "--B", "100",
            "--out", str(out_path),
        )
        assert code == 1
        assert out == "" and not out_path.exists()
        assert "overflows double precision from m=" in err and len(err.strip().split("\n")) == 1


class TestTestCommand:
    def test_exact_pvalue_matches_library(self, exact_table, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("# label value\n1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n")
        code, out, _ = run_cli(
            capsys,
            "test",
            "--data",
            str(data),
            "--table",
            str(exact_table),
            "--format",
            "jsonl",
        )
        assert code == 0
        rec = json.loads(out)
        from partitest import GroupedSample, load_table, run_test

        gs = GroupedSample.from_values([1, 1, 2, 2], [0.1, 0.4, 0.2, 0.9], 0)
        res = run_test(gs, load_table(str(exact_table)), "minp")
        assert rec["final_pvalue"] == pytest.approx(res.final_pvalue)
        assert rec["per_m_pvalues"] == pytest.approx(list(res.per_m_pvalues))

    def test_incompatible_size_exits_2(self, exact_table, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n1\t0.5\n2\t0.6\n")
        code, _, err = run_cli(capsys, "test", "--data", str(data), "--table", str(exact_table))
        assert code == 2
        assert "table incompatible" in err

    def test_malformed_row_reports_line(self, exact_table, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("1\t0.1\n1\tnope_a_number_not\n")
        code, _, err = run_cli(capsys, "test", "--data", str(data), "--table", str(exact_table))
        assert code == 4
        assert ":2" in err

    def test_missing_header_key_exits_4(self, exact_table_v1, tmp_path, capsys):
        exact_table = exact_table_v1
        lines = exact_table.read_text().split("\n")
        exact_table.write_text("\n".join(ln for ln in lines if not ln.startswith("#seed=")))
        data = tmp_path / "d.tsv"
        data.write_text("1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(exact_table))
        assert code == 4
        assert out == ""
        assert "missing header key: seed" in err and len(err.strip().split("\n")) == 1

    def test_non_finite_table_exits_4(self, exact_table_v1, tmp_path, capsys):
        exact_table = exact_table_v1
        lines = exact_table.read_text().split("\n")
        first = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
        lines[first] = "nan\tnan\tnan"
        exact_table.write_text("\n".join(lines))
        data = tmp_path / "d.tsv"
        data.write_text("1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(exact_table))
        assert code == 4
        assert out == ""
        assert "non-finite" in err

    def test_truncated_exact_table_exits_4(self, exact_table_v1, tmp_path, capsys):
        exact_table = exact_table_v1
        lines = exact_table.read_text().split("\n")
        assert "#B=6" in lines and "#exact=1" in lines
        last = max(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
        lines = [("#B=5" if ln == "#B=6" else ln) for i, ln in enumerate(lines) if i != last]
        exact_table.write_text("\n".join(lines))
        data = tmp_path / "d.tsv"
        data.write_text("1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(exact_table))
        assert code == 4
        assert out == ""
        assert "exact table holds B=5 rows" in err and len(err.strip().split("\n")) == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_observed_sum_exits_4(self, tmp_path, capsys):
        from partitest import NullTable, NullTableMeta, save_table

        meta = NullTableMeta(
            problem="ksample", family="sum", score="lr", n=1100, group_sizes=(550, 550),
            m_max=400, b=100, seed=0,
        )
        table = tmp_path / "t.pnt"
        save_table(NullTable(meta=meta, data=np.ones((100, 399))), str(table))
        data = tmp_path / "d.tsv"
        data.write_text("".join(f"{1 + i % 2}\t{i}\n" for i in range(1100)))
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(table))
        assert code == 4
        assert out == ""
        assert "overflows double precision from m=382" in err and len(err.strip().split("\n")) == 1

    def test_independence_table_path(self, tmp_path, capsys):
        table_path = tmp_path / "ind.pnt"
        code, _, _ = run_cli(
            capsys,
            "nulltable",
            "--problem",
            "independence",
            "--n",
            "4",
            "--family",
            "ddp-sum",
            "--B",
            "100",
            "--out",
            str(table_path),
        )
        assert code == 0
        data = tmp_path / "xy.tsv"
        data.write_text("0.3\t1.5\n0.1\t0.2\n0.9\t0.7\n0.5\t2.0\n")
        code, out, _ = run_cli(
            capsys, "test", "--data", str(data), "--table", str(table_path), "--format", "jsonl"
        )
        assert code == 0
        rec = json.loads(out)
        assert 1.0 / 25.0 <= rec["final_pvalue"] <= 1.0
        assert rec["family"] == "ddp_sum"

    def test_tsv_format_row_count(self, exact_table, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n")
        code, out, _ = run_cli(
            capsys, "test", "--data", str(data), "--table", str(exact_table), "--format", "tsv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        data_rows = [ln for ln in lines if ln and not ln.startswith(("#", "m\t"))]
        assert len(data_rows) == 3  # m = 2, 3, 4
        assert any(ln.startswith("#final_pvalue=") for ln in lines)


def _quiet_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# table family -> (nulltable options, test data, simulate scenario options)
_COMBINE_CASES = {
    "sum": (("--problem", "ksample", "--groups", "2,2", "--family", "sum"),
            "1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n", ("--scenario", "null-equal", "--groups", "2,2")),
    "max": (("--problem", "ksample", "--groups", "2,2", "--family", "max"),
            "1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n", ("--scenario", "null-equal", "--groups", "2,2")),
    "adp_sum": (("--problem", "independence", "--n", "4", "--family", "adp-sum"),
                "0.3\t1.5\n0.1\t0.2\n0.9\t0.7\n0.5\t2.0\n", ("--scenario", "null-uniform")),
    "ddp_sum": (("--problem", "independence", "--n", "4", "--family", "ddp-sum"),
                "0.3\t1.5\n0.1\t0.2\n0.9\t0.7\n0.5\t2.0\n", ("--scenario", "null-uniform")),
}


@pytest.fixture(scope="module")
def combine_tables(tmp_path_factory):
    """One exact N=4 table and one data file per table family."""
    root = tmp_path_factory.mktemp("combine")
    paths = {}
    for family, (options, data, _) in _COMBINE_CASES.items():
        table, data_path = root / f"{family}.pnt", root / f"{family}.tsv"
        code, _, err = _quiet_main("nulltable", *options, "--B", "100", "--out", str(table))
        assert code == 0, err
        data_path.write_text(data)
        paths[family] = (str(table), str(data_path))
    return paths


class TestCombineAndPrior:
    """Every --combine x --prior x table family is either run or refused as usage (exit 1)."""

    @pytest.mark.parametrize("family", sorted(_COMBINE_CASES))
    @pytest.mark.parametrize("prior", [None, "poisson", "uniform:3", "binomial:0.5", "ds:1"])
    @pytest.mark.parametrize("combine", ["minp", "fisher", "penalized"])
    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_exit_code(self, combine_tables, command, combine, prior, family):
        table, data = combine_tables[family]
        if command == "test":
            argv = ["test", "--data", data]
        else:
            argv = ["simulate", *_COMBINE_CASES[family][2], "--n", "4", "--R", "3"]
        argv += ["--table", table, "--combine", combine]
        if prior is not None:
            argv += ["--prior", prior]
        code, out, err = _quiet_main(*argv)
        if combine != "penalized":
            expected_error = None if prior is None else f"not {combine}"
        elif prior is None:
            expected_error = "needs --prior"
        elif prior.startswith("ds:") and family != "max":
            expected_error = f"family is {family}"
        else:
            expected_error = None
        refused = expected_error is not None
        assert code == (1 if refused else 0), err
        assert len(err.splitlines()) <= 1
        if refused:
            assert out == "" and err.startswith("error: ")
            assert expected_error in err

    @pytest.mark.parametrize("combine", ["minp", "fisher"])
    def test_prior_without_penalized_test_exits_1(self, combine_tables, combine):
        table, data = combine_tables["max"]
        argv = ["test", "--data", data, "--table", table, "--combine", combine, "--prior", "ds:1"]
        assert _quiet_main(*argv) == (
            1, "", f"error: --prior applies to --combine penalized only, not {combine}\n"
        )

    @pytest.mark.parametrize("combine", ["minp", "fisher"])
    def test_prior_without_penalized_simulate_exits_1(self, combine_tables, combine):
        table, _ = combine_tables["max"]
        argv = ["simulate", *_COMBINE_CASES["max"][2], "--n", "4", "--R", "3", "--table", table,
                "--combine", combine, "--prior", "poisson"]
        assert _quiet_main(*argv) == (
            1, "", f"error: --prior applies to --combine penalized only, not {combine}\n"
        )


class TestMiCommand:
    def test_mi_reports_value(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "xy.tsv"
        rows = "\n".join(f"{a:.6f}\t{b:.6f}" for a, b in rng.normal(size=(30, 2)))
        data.write_text(rows + "\n")
        code, out, _ = run_cli(
            capsys,
            "mi",
            "--data",
            str(data),
            "--estimator",
            "ddp",
            "--m",
            "3",
            "--miller-madow",
            "--format",
            "jsonl",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["estimator"] == "ddp" and rec["miller_madow"] is True
        assert np.isfinite(rec["value_nats"])

    def test_m_too_large_rejected(self, tmp_path, capsys):
        data = tmp_path / "xy.tsv"
        data.write_text("0.1\t0.2\n0.3\t0.1\n0.2\t0.4\n")
        code, _, err = run_cli(capsys, "mi", "--data", str(data), "--m", "4")
        assert code == 4
        assert "2..N" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_4(self, tmp_path, capsys, bad):
        data = tmp_path / "xy.tsv"
        data.write_text(f"0.1\t0.2\n0.3\t{bad}\n0.2\t0.4\n0.5\t0.3\n")
        code, out, err = run_cli(capsys, "mi", "--data", str(data), "--m", "2")
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "non-finite" in err
        assert len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("command", ["mi", "test"])
    def test_non_utf8_data_exits_4(self, exact_table, tmp_path, capsys, command):
        data = tmp_path / "xy.tsv"
        data.write_bytes(b"1\t0.1\n1\t0.4\n2\t0.2\xff\xfe\n2\t0.9\n")
        argv = ["--data", str(data), "--m", "2"] if command == "mi" else [
            "--data", str(data), "--table", str(exact_table)
        ]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8" in err
        assert len(err.strip().split("\n")) == 1

    def test_emitted_mixture_pipes_into_mi(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "gauss-mixture-2d",
            "--n",
            "120",
            "--seed",
            "6",
            "--emit",
        )
        assert code == 0
        data = tmp_path / "xy.tsv"
        data.write_text(out)
        code, out, _ = run_cli(
            capsys,
            "mi",
            "--data",
            str(data),
            "--estimator",
            "hist",
            "--m",
            "6",
            "--miller-madow",
            "--format",
            "jsonl",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["n"] == 120 and np.isfinite(rec["value_nats"])
        assert rec["value_nats"] > 0.0


class TestSimulateCommand:
    def test_emit_roundtrip(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "gauss-mixture-2d",
            "--n",
            "25",
            "--seed",
            "2",
            "--emit",
        )
        assert code == 0
        rows = [ln.split("\t") for ln in out.strip().split("\n")]
        assert len(rows) == 25 and all(len(r) == 2 for r in rows)
        floats = [float(v) for r in rows for v in r]
        assert all(np.isfinite(floats))

    def test_unknown_scenario_lists_builtins(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "nope", "--n", "10")
        assert code == 1
        assert "gauss-shift" in err

    def test_power_run_with_per_m_output(self, exact_table, tmp_path, capsys):
        per_m = tmp_path / "perm.tsv"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "null-equal",
            "--n",
            "4",
            "--groups",
            "2,2",
            "--table",
            str(exact_table),
            "--R",
            "8",
            "--seed",
            "4",
            "--per-m-out",
            str(per_m),
            "--format",
            "jsonl",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["replicates"] == 8
        lines = per_m.read_text().strip().split("\n")
        assert lines[0] == "m\trejection_rate"
        assert len(lines) == 1 + 3

    def test_seed_changes_data_not_table(self, exact_table, capsys):
        code_a, out_a, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "null-equal",
            "--n",
            "4",
            "--groups",
            "2,2",
            "--table",
            str(exact_table),
            "--R",
            "6",
            "--seed",
            "4",
            "--format",
            "jsonl",
        )
        code_b, out_b, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "null-equal",
            "--n",
            "4",
            "--groups",
            "2,2",
            "--table",
            str(exact_table),
            "--R",
            "6",
            "--seed",
            "5",
            "--format",
            "jsonl",
        )
        assert code_a == code_b == 0
        assert json.loads(out_a)["scenario"] == json.loads(out_b)["scenario"]

    def test_non_positive_definite_covariance_exits_4(self, tmp_path, capsys):
        params = tmp_path / "scn.txt"
        params.write_text(
            "name=bad\nproblem=independence\nfamily=mixture2d\nn=20\nweight1=0.5\n"
            "mean1=0,0\ncov1=1,2,1\nmean2=1,1\ncov2=1,0,1\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--params", str(params), "--emit")
        assert code == 4
        assert out == ""
        assert "cov1 is not a positive-definite covariance" in err
        assert len(err.strip().split("\n")) == 1

    def test_table_required_without_emit(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "null-equal", "--n", "8")
        assert code == 1
        assert "--table" in err


BOM = b"\xef\xbb\xbf"
SCENARIO_TEXT = (
    "name=fz\nproblem=independence\nfamily=shape\nshape=sine\nnoise=0.5\nfrequency=2\nn=12\n"
)


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file changes nothing."""

    def run_pair(self, capsys, tmp_path, text, argv_for):
        results = []
        for prefix in (b"", BOM):
            path = tmp_path / f"in{len(prefix)}.txt"
            path.write_bytes(prefix + text.encode("utf-8"))
            results.append(run_cli(capsys, *argv_for(str(path))))
        return results

    def test_mi_data(self, tmp_path, capsys):
        text = "0.1\t0.2\n0.3\t0.1\n0.2\t0.4\n0.5\t0.3\n0.4\t0.6\n"
        plain, bom = self.run_pair(
            capsys, tmp_path, text, lambda p: ("mi", "--data", p, "--m", "2", "--format", "jsonl")
        )
        assert plain[0] == 0
        assert bom == plain

    def test_test_data(self, exact_table, tmp_path, capsys):
        text = "1\t0.5\n2\t1.5\n1\t2.5\n2\t3.5\n"
        plain, bom = self.run_pair(
            capsys, tmp_path, text, lambda p: ("test", "--data", p, "--table", str(exact_table))
        )
        assert plain[0] == 0
        assert bom == plain

    def test_scenario_file(self, tmp_path, capsys):
        plain, bom = self.run_pair(
            capsys, tmp_path, SCENARIO_TEXT, lambda p: ("simulate", "--params", p, "--emit")
        )
        assert plain[0] == 0 and plain[1].count("\n") == 12
        assert bom == plain


class TestScenarioSizes:
    @pytest.mark.parametrize(
        "edit",
        [("n=12", "n=-3"), ("n=12", "n=0")],
    )
    def test_non_positive_n_exits_4(self, tmp_path, capsys, edit):
        params = tmp_path / "scn.txt"
        params.write_text(SCENARIO_TEXT.replace(*edit))
        code, out, err = run_cli(capsys, "simulate", "--params", str(params), "--emit")
        assert code == 4
        assert out == ""
        assert err.startswith("error: bad scenario file: n must be positive")
        assert err.count("\n") == 1

    def test_negative_group_exits_4(self, tmp_path, capsys):
        params = tmp_path / "scn.txt"
        params.write_text(
            "name=g\nproblem=ksample\nfamily=gauss\nn=10\ngroups=-5,15\n"
            "mu1=0\nsigma1=1\nmu2=1\nsigma2=1\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--params", str(params), "--emit")
        assert code == 4
        assert out == ""
        assert err == "error: bad scenario file: group sizes must be positive\n"

    # numpy refuses the 72.8 TiB request before it touches memory.
    def test_huge_n_option_exits_1_with_one_line(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "gauss-shift", "--n", "10000000000000", "--emit"
        )
        assert (code, out) == (1, "")
        assert err == "error: n=10000000000000 values do not fit in memory\n"

    def test_huge_n_in_file_exits_4_with_one_line(self, tmp_path, capsys):
        params = tmp_path / "scn.txt"
        params.write_text(SCENARIO_TEXT.replace("n=12", "n=10000000000000"))
        code, out, err = run_cli(capsys, "simulate", "--params", str(params), "--emit")
        assert (code, out) == (4, "")
        assert err == "error: n=10000000000000 values do not fit in memory\n"

    def test_negative_n_option_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "null-equal", "--n", "-4", "--emit"
        )
        assert code == 1
        assert out == ""
        assert err == "error: n must be positive, got -4\n"


GAUSS_TEXT = (
    "name=g\nproblem=ksample\nfamily=gauss\nn=6\ngroups=3,3\nmu1=0\nsigma1=1\nmu2=1\nsigma2=2\n"
)
MIXTURE_TEXT = (
    "name=m\nproblem=independence\nfamily=mixture2d\nn=8\nweight1=0.5\n"
    "mean1=0,0\ncov1=1,0.5,1\nmean2=1,1\ncov2=1,0,1\n"
)


class TestScenarioSchema:
    """A family belongs to one problem, and a gauss family has one group per mu entry."""

    def test_gauss_with_three_groups_exits_1(self, capsys):
        result = run_cli(
            capsys, "simulate", "--scenario", "gauss-shift", "--n", "90", "--groups", "30,30,30",
            "--emit",
        )
        assert_clean_exit(*result, {1})
        assert result[2] == "error: family 'gauss' needs 2 group sizes, got 3\n"

    def test_gauss_file_for_independence_exits_4(self, tmp_path, capsys):
        params = tmp_path / "scn.txt"
        params.write_text(GAUSS_TEXT.replace("problem=ksample", "problem=independence"))
        result = run_cli(capsys, "simulate", "--params", str(params), "--emit")
        assert_clean_exit(*result, {4})
        assert "family 'gauss' belongs to the ksample problem" in result[2]

    @pytest.mark.parametrize("run", ["emit", "power"])
    def test_mixture_file_for_ksample_exits_4(self, exact_table, tmp_path, capsys, run):
        params = tmp_path / "scn.txt"
        params.write_text(
            MIXTURE_TEXT.replace("problem=independence", "problem=ksample").replace(
                "n=8", "n=4\ngroups=2,2"
            )
        )
        argv = ["--emit"] if run == "emit" else ["--table", str(exact_table), "--R", "2"]
        result = run_cli(capsys, "simulate", "--params", str(params), *argv)
        assert_clean_exit(*result, {4})
        assert "family 'mixture2d' belongs to the independence problem" in result[2]

    @pytest.mark.parametrize("key", ["frequency", "shape", "mu1", "groups"])
    def test_missing_family_key_exits_4(self, tmp_path, capsys, key):
        text = SCENARIO_TEXT if key in ("frequency", "shape") else GAUSS_TEXT
        params = tmp_path / "scn.txt"
        kept = [line for line in text.splitlines() if not line.startswith(f"{key}=")]
        params.write_text("".join(f"{line}\n" for line in kept))
        result = run_cli(capsys, "simulate", "--params", str(params), "--emit")
        assert_clean_exit(*result, {4})
        assert result[2] == (
            f"error: bad scenario file: scenario file missing required key: '{key}'\n"
        )

    def test_uniform_independent_file_loads(self, tmp_path, capsys):
        params = tmp_path / "scn.txt"
        params.write_text(
            "name=null-uniform\nproblem=independence\nfamily=uniform-independent\nn=9\n"
        )
        from_file = run_cli(capsys, "simulate", "--params", str(params), "--emit")
        builtin = run_cli(capsys, "simulate", "--scenario", "null-uniform", "--n", "9", "--emit")
        assert from_file[0] == 0 and from_file[1].count("\n") == 9
        assert from_file == builtin

    def test_groups_for_an_independence_scenario_exits_1(self, capsys):
        result = run_cli(
            capsys, "simulate", "--scenario", "null-uniform", "--n", "10", "--groups", "3,3",
            "--emit",
        )
        assert_clean_exit(*result, {1})
        assert result[2] == (
            "error: 'null-uniform' is an independence scenario and takes no group sizes\n"
        )

    @pytest.mark.parametrize(
        "options,named",
        [
            (["--n", "50"], "--n"),
            (["--groups", "25,25"], "--groups"),
            (["--scenario", "gauss-shift"], "--scenario"),
            (["--n", "6", "--groups", "3,3"], "--n, --groups"),
        ],
    )
    def test_option_the_params_file_sets_exits_1(self, tmp_path, capsys, options, named):
        params = tmp_path / "scn.txt"
        params.write_text(GAUSS_TEXT)
        result = run_cli(capsys, "simulate", "--params", str(params), *options, "--emit")
        assert_clean_exit(*result, {1})
        assert result[2] == f"error: {named} cannot be combined with --params\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (GAUSS_TEXT + "mu1=7\n", "10: repeated key 'mu1', first set on line 6"),
            (GAUSS_TEXT.replace("n=6\n", "n=6\nn=8\n"),
             "5: repeated key 'n', first set on line 4"),
            (GAUSS_TEXT + "noise=1\n", "10: key 'noise' is not read by a gauss scenario"),
            (MIXTURE_TEXT + "groups=4,4\n",
             "10: key 'groups' is not read by a mixture2d scenario"),
            (SCENARIO_TEXT.replace("sine", "circle"),
             "6: key 'frequency' is not read by a shape scenario"),
        ],
    )
    def test_repeated_or_unread_key_exits_4(self, tmp_path, capsys, text, message):
        params = tmp_path / "scn.txt"
        params.write_text(text)
        result = run_cli(capsys, "simulate", "--params", str(params), "--emit")
        assert_clean_exit(*result, {4})
        assert result[2] == f"error: bad scenario file: {params}:{message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["nulltable", "--problem", "ksample", "--groups", "5"],
            ["nulltable", "--problem", "ksample", "--groups", "0,5"],
            ["simulate", "--scenario", "null-equal", "--n", "5", "--groups", "5", "--emit"],
        ],
    )
    def test_group_counts_checked_by_the_types(self, tmp_path, capsys, argv):
        if argv[0] == "nulltable":
            argv = argv + ["--out", str(tmp_path / "t.pnt")]
        assert_clean_exit(*run_cli(capsys, *argv), {1})


# Reader fuzz: data and scenario files with edited tokens, tabs and lines,
# stray bytes, a byte-order mark and other line endings.
FUZZ_VALUES = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "", " ", "x", "0", "-0", "-3", "1", "2", "3",
     "0.5", " 2.5 ", "1e-400", "0x10", "1,5", "#"]
)
FUZZ_READER_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("value"), st.integers(0, 10**6), st.integers(0, 3), FUZZ_VALUES),
        st.tuples(st.just("tab"), st.integers(0, 10**6), st.integers(0, 40)),
        st.tuples(st.just("untab"), st.integers(0, 10**6)),
        st.tuples(
            st.just("insert"),
            st.integers(0, 10**6),
            st.sampled_from(
                ["", " ", "\t", "#", "# note", "#x=1", "=", "x\ty\tz", "mu1=7", "noise=1"]
            ),
        ),
        st.tuples(
            st.just("bytes"),
            st.integers(0, 10**6),
            st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\x00"]),
        ),
        st.tuples(st.just("empty_body")),
    ),
    max_size=4,
)


def mutated_reader_bytes(text, separator, edits, bom, newline):
    """``text``'s lines with values (split at ``separator``), tabs, lines or bytes edited."""
    lines = text.split("\n")[:-1]
    raw_edits = []
    for edit in edits:
        kind = edit[0]
        if kind == "empty_body":
            lines = []
        elif kind == "bytes":
            raw_edits.append(edit)
        elif kind == "insert":
            lines.insert(edit[1] % (len(lines) + 1), edit[2])
        elif lines:
            i = edit[1] % len(lines)
            if kind == "value":
                parts = lines[i].split(separator)
                parts[edit[2] % len(parts)] = edit[3]
                lines[i] = separator.join(parts)
            elif kind == "tab":
                at = edit[2] % (len(lines[i]) + 1)
                lines[i] = lines[i][:at] + "\t" + lines[i][at:]
            else:
                lines[i] = lines[i].replace("\t", "", 1)
    data = "".join(line + newline for line in lines).encode("utf-8")
    for _, pos, junk in raw_edits:
        at = pos % (len(data) + 1)
        data = data[:at] + junk + data[at:]
    return (BOM if bom else b"") + data


@pytest.fixture(scope="module")
def fuzz_tables(tmp_path_factory):
    """A two-sample exact table (N=4) and an independence table (N=4)."""
    out = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, argv in (
        ("ksample", ["--problem", "ksample", "--groups", "2,2", "--m-max", "3", "--B", "100"]),
        (
            "independence",
            ["--problem", "independence", "--family", "adp-sum", "--n", "4"]
            + ["--m-max", "2", "--B", "100"],
        ),
    ):
        paths[name] = str(out / f"{name}.pnt")
        with redirect_stdout(io.StringIO()):
            assert main(["nulltable", *argv, "--seed", "1", "--out", paths[name]]) == 0
    return paths


FUZZ_DATA = {
    "ksample": "1\t0.5\n2\t1.5\n1\t2.5\n2\t3.5\n",
    "independence": "1\t4\n2\t3\n3\t1\n4\t2\n",
}
FUZZ_SCENARIOS = [SCENARIO_TEXT, GAUSS_TEXT, MIXTURE_TEXT]


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err, allowed):
    """Exit 0 with a silent stderr, or a documented code with one error line."""
    assert code in allowed, (code, err)
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class TestReaderFuzz:
    @settings(max_examples=120, deadline=None)
    @given(
        problem=st.sampled_from(sorted(FUZZ_DATA)),
        command=st.sampled_from(["test", "mi"]),
        edits=FUZZ_READER_EDITS,
        bom=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    @example(problem="independence", command="mi", edits=[], bom=True, newline="\r\n")
    @example(problem="ksample", command="test", edits=[("empty_body",)], bom=True, newline="\n")
    @example(
        problem="independence", command="test", edits=[("value", 1, 1, "1e400")], bom=False,
        newline="\n",
    )
    @example(
        problem="independence", command="mi", edits=[("bytes", 5, b"\xff")], bom=True, newline="\n"
    )
    @example(problem="ksample", command="test", edits=[("tab", 0, 1)], bom=False, newline="\n")
    @example(problem="ksample", command="test", edits=[("untab", 2)], bom=False, newline="\n")
    def test_data_files(self, fuzz_tables, problem, command, edits, bom, newline):
        data = mutated_reader_bytes(FUZZ_DATA[problem], "\t", edits, bom, newline)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.tsv")
            with open(path, "wb") as fh:
                fh.write(data)
            if command == "test":
                result = run_main(["test", "--data", path, "--table", fuzz_tables[problem]])
                allowed = {0, 2, 4}
            else:
                result = run_main(["mi", "--data", path, "--m", "2"])
                allowed = {0, 4}
        assert_clean_exit(*result, allowed)

    @settings(max_examples=120, deadline=None)
    @given(
        case=st.sampled_from(range(len(FUZZ_SCENARIOS))),
        edits=FUZZ_READER_EDITS,
        bom=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    @example(case=0, edits=[], bom=True, newline="\r\n")
    @example(case=1, edits=[("empty_body",)], bom=False, newline="\n")
    @example(case=0, edits=[("value", 6, 1, "-0")], bom=False, newline="\n")
    @example(case=0, edits=[("value", 6, 1, "-3")], bom=False, newline="\n")
    @example(case=2, edits=[("value", 5, 1, "1e400")], bom=False, newline="\n")
    @example(case=1, edits=[("bytes", 0, b"\xc3")], bom=True, newline="\n")
    # problem, family and group count swapped
    @example(case=1, edits=[("value", 1, 1, "independence")], bom=False, newline="\n")
    @example(case=1, edits=[("value", 4, 1, "2,2,2")], bom=False, newline="\n")
    @example(
        case=2, edits=[("value", 1, 1, "ksample"), ("insert", 0, "groups=4,4")], bom=False,
        newline="\n",
    )
    @example(case=0, edits=[("value", 1, 1, "ksample")], bom=False, newline="\n")
    @example(case=2, edits=[("value", 2, 1, "gauss")], bom=False, newline="\n")
    # a repeated key, and a key the family does not read
    @example(case=1, edits=[("insert", 9, "mu1=7")], bom=False, newline="\n")
    @example(case=1, edits=[("insert", 3, "noise=1")], bom=False, newline="\r\n")
    def test_scenario_files(self, case, edits, bom, newline):
        data = mutated_reader_bytes(FUZZ_SCENARIOS[case], "=", edits, bom, newline)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            result = run_main(["simulate", "--params", path, "--emit"])
        assert_clean_exit(*result, {0, 4})


@pytest.mark.parametrize(
    "argv,code",
    [
        (["simulate", "--scenario", "gauss-shift", "--n", "10", "--seed", "-1", "--emit"], 1),
        (["simulate", "--scenario", "gauss-shift", "--n", "10", "--replicate", "-1", "--emit"], 1),
        (["simulate", "--params", "{scenario}", "--emit"], 4),
        (["simulate", "--params", "{scenario}", "--table", "{ksample}", "--R", "5"], 4),
        (["test", "--data", "{ksample_data}", "--table", "{ksample}", "--tie-seed", "-1"], 1),
        (["mi", "--data", "{independence_data}", "--m", "2", "--tie-seed", "-1"], 1),
    ],
    ids=["seed", "replicate", "file-emit", "file-power", "test-tie-seed", "mi-tie-seed"],
)
def test_negative_seed_exits_with_one_error_line(tmp_path, fuzz_tables, argv, code):
    files = dict(fuzz_tables)
    for name, text in (
        ("scenario", GAUSS_TEXT + "seed=-3\n"),
        ("ksample_data", FUZZ_DATA["ksample"]),
        ("independence_data", FUZZ_DATA["independence"]),
    ):
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    result = run_main([arg.format(**files) for arg in argv])
    assert_clean_exit(*result, {code})
    assert result[2].endswith("must be non-negative\n")


# Generated-input fuzz: data and scenario files written from scratch, not
# edited from a valid file.  Integer fields draw negative values too.
GEN_TOKENS = st.one_of(
    st.integers(-(10**25), 10**25).map(str),
    st.integers(-3, 4).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "x", "1e400", "-0", "0x10", "1,5", "#", "=", " 2.5 ", "١"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), max_size=4),
)


def ints(low, high):
    return st.integers(low, high).map(str)


def int_lists(low, high, min_size=1, max_size=4):
    return st.lists(st.integers(low, high), min_size=min_size, max_size=max_size).map(
        lambda v: ",".join(map(str, v))
    )


def texts(*values):
    return st.sampled_from(values)


# The values each scenario-file field usually takes, and odd ones.  Integer
# fields usually draw negative values too, and seeds values beyond 64 bits.
SCENARIO_FIELDS = {
    "name": (texts("g", "s x", ""), texts("")),
    "problem": (texts("ksample", "independence"), texts("both", "")),
    "family": (texts("gauss", "mixture2d", "shape", "uniform-independent"), texts("nope")),
    "n": (ints(-2, 12), texts("1.5", "x", "")),
    "groups": (int_lists(-1, 6, 2, 2), int_lists(-2, 6)),
    "seed": (st.one_of(ints(-3, -1), ints(0, 9), ints(2**63, 2**70)), texts("1.5", "")),
    "replicates": (ints(-2, 5), texts("1e3")),
    "alpha": (texts("0.05", "0.5"), texts("0", "1", "nan")),
    "mu1": (ints(-2, 2), texts("inf", "")),
    "mu2": (ints(-2, 2), texts("1,2")),
    "sigma1": (ints(1, 2), ints(-1, 0)),
    "sigma2": (ints(1, 2), ints(-1, 0)),
    "weight1": (texts("0", "0.5", "1"), texts("2", "-1")),
    "mean1": (int_lists(-2, 2, 2, 2), int_lists(-2, 2, 1, 3)),
    "mean2": (int_lists(-2, 2, 2, 2), int_lists(-2, 2, 1, 3)),
    "cov1": (texts("1,0,1", "1,0.5,1"), texts("1,2,1", "0,0,0", "1,1")),
    "cov2": (texts("1,0,1", "2,-1,2"), texts("-1,0,1", "1")),
    "shape": (texts("circle", "sine", "line"), texts("square")),
    "noise": (texts("0", "0.5"), texts("-1", "inf")),
    "frequency": (texts("1", "2.5"), texts("nan")),
}
FAMILY_KEYS = {
    "gauss": ("ksample", ["groups", "mu1", "sigma1", "mu2", "sigma2"]),
    "mixture2d": ("independence", ["weight1", "mean1", "cov1", "mean2", "cov2"]),
    "shape": ("independence", ["shape", "noise"]),
    "uniform-independent": ("independence", []),
}


@st.composite
def generated_text(draw, lines):
    """``lines`` with comments and blanks between them, in some encoding dress."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(texts("", "# c", " ")))
    newline = draw(texts("\n", "\r\n", "\r"))
    bom = BOM if draw(st.booleans()) else b""
    return bom + "".join(text + newline for text in lines).encode("utf-8")


@st.composite
def scenario_line(draw):
    """One line of any key, known or not, with any value of its kind or any token."""
    key = draw(st.one_of(st.sampled_from(sorted(SCENARIO_FIELDS)), GEN_TOKENS))
    value = draw(st.one_of(*SCENARIO_FIELDS.get(key, ()), GEN_TOKENS))
    return draw(texts(f"{key}={value}", f" {key} = {value} ", key))


@st.composite
def scenario_files(draw):
    """A scenario file of some family with up to two faults, lines in any order.

    A fault is an odd value, a missing key, a stray line or a changed
    problem; a gauss file's groups split n in halves unless a fault says not.
    """
    faults = draw(st.lists(texts("value", "drop", "stray", "problem"), max_size=2))
    family = draw(SCENARIO_FIELDS["family"][0])
    problem, keys = FAMILY_KEYS[family]
    keys = ["name", "family", "n", *keys, "seed", *draw(st.sets(texts("replicates", "alpha")))]
    fields = {key: draw(SCENARIO_FIELDS[key][0]) for key in keys}
    fields["problem"] = problem
    if fields.get("shape") == "sine":
        fields["frequency"] = draw(SCENARIO_FIELDS["frequency"][0])
    if "groups" in fields:
        n = int(fields["n"])
        fields["groups"] = f"{n // 2},{n - n // 2}"
    for fault in faults:
        key = draw(st.sampled_from(sorted(fields)))
        if fault == "value":
            fields[key] = draw(SCENARIO_FIELDS[key][1])
        elif fault == "drop":
            fields.pop(key, None)
        elif fault == "problem":
            fields["problem"] = draw(st.one_of(*SCENARIO_FIELDS["problem"]))
    lines = [f"{key}={value}" for key, value in fields.items()]
    lines += [draw(scenario_line()) for fault in faults if fault == "stray"]
    return draw(generated_text(draw(st.permutations(lines))))


def data_files(problem):
    """A data file of rows: mostly two cells, mostly numbers (labels 1 and 2 for K samples)."""
    number = st.one_of(st.floats(allow_nan=False).map(repr), ints(-5, 5))
    value = st.one_of(number, number, GEN_TOKENS)
    label = st.one_of(ints(1, 2), ints(1, 2), GEN_TOKENS) if problem == "ksample" else value
    two = st.tuples(label, value).map("\t".join)
    line = st.one_of(two, two, two, st.lists(GEN_TOKENS, max_size=3).map("\t".join))
    rows = st.one_of(st.lists(two, min_size=4, max_size=4), st.lists(line, max_size=8))
    return rows.flatmap(generated_text)


class TestGeneratedInputFuzz:
    """Every generated input ends in a documented exit code with at most one stderr line."""

    @settings(max_examples=150, deadline=None)
    @given(
        problem=st.sampled_from(sorted(FUZZ_DATA)),
        command=st.sampled_from(["test", "mi"]),
        data=st.data(),
    )
    def test_data_files(self, tmp_path_factory, fuzz_tables, problem, command, data):
        path = tmp_path_factory.mktemp("gen") / "d.tsv"
        path.write_bytes(data.draw(data_files(problem)))
        if command == "test":
            result = run_main(["test", "--data", str(path), "--table", fuzz_tables[problem]])
            allowed = {0, 2, 4}
        else:
            result = run_main(["mi", "--data", str(path), "--m", "2"])
            allowed = {0, 4}
        assert_clean_exit(*result, allowed)

    @settings(max_examples=200, deadline=None)
    @given(text=scenario_files())
    def test_scenario_files(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("gen") / "s.txt"
        path.write_bytes(text)
        assert_clean_exit(*run_main(["simulate", "--params", str(path), "--emit"]), {0, 4})
