import json

import numpy as np
import pytest

from partitest.cli import main


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


class TestNulltableCommand:
    def test_exact_trigger_and_header(self, exact_table, capsys):
        text = exact_table.read_text()
        assert "#exact=1" in text
        assert "#B=6" in text

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

    def test_missing_header_key_exits_4(self, exact_table, tmp_path, capsys):
        lines = exact_table.read_text().split("\n")
        exact_table.write_text("\n".join(ln for ln in lines if not ln.startswith("#seed=")))
        data = tmp_path / "d.tsv"
        data.write_text("1\t0.1\n1\t0.4\n2\t0.2\n2\t0.9\n")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(exact_table))
        assert code == 4
        assert out == ""
        assert "missing header key: seed" in err and len(err.strip().split("\n")) == 1

    def test_non_finite_table_exits_4(self, exact_table, tmp_path, capsys):
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

    def test_truncated_exact_table_exits_4(self, exact_table, tmp_path, capsys):
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
