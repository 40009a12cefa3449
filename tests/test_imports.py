"""What a fresh process imports: no partitest path loads scipy.

Each test starts a new interpreter, so modules the test session already
holds do not hide an import.  ``-X importtime`` is inherited by worker
processes, so their imports are seen too.
"""

import io
import multiprocessing
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from partitest.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
# The console script's entry point, run in a fresh interpreter.
CONSOLE = "import sys; from partitest.cli import main; sys.exit(main())"


def _python(*argv, code=CONSOLE):
    """Run ``python -X importtime -c code *argv``; (stdout, modules imported)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    errors = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
    assert proc.returncode == 0, "\n".join(errors)
    return proc.stdout, imported


def _scipy(imported) -> list:
    return [name for name in imported if name.partition(".")[0] == "scipy"]


def _in_process(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """K-sample sum and max tables and a data file, and an independence data file."""
    root = tmp_path_factory.mktemp("imports")
    tables = {}
    for family in ("sum", "max"):
        tables[family] = str(root / f"{family}.pnt")
        _in_process("nulltable", "--problem", "ksample", "--groups", "10,10", "--m-max", "4",
                    "--family", family, "--B", "200", "--seed", "5", "--out", tables[family])
    ksample = root / "k.tsv"
    ksample.write_text("".join(f"{1 + i % 2}\t{(i * 7) % 20 + i % 2 / 2}\n" for i in range(20)))
    pairs = root / "xy.tsv"
    pairs.write_text("".join(f"{(i * 3) % 20}\t{(i * i) % 23}\n" for i in range(20)))
    return {"tables": tables, "ksample": str(ksample), "pairs": str(pairs), "root": root}


def test_import_partitest_loads_no_scipy():
    code = "import sys, partitest; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out, imported = _python(code=code)
    assert out == "[]\n" and _scipy(imported) == []


@pytest.mark.parametrize(
    "combine",
    [
        "minp",
        "fisher",
        "penalized --prior poisson",
        "penalized --prior uniform:3",
        "penalized --prior binomial:0.5",
        "penalized --prior ds:1",
    ],
)
def test_test_loads_no_scipy(files, combine):
    family = "max" if combine.endswith("ds:1") else "sum"  # ds applies to max tables only
    argv = ("test", "--data", files["ksample"], "--table", files["tables"][family],
            "--format", "jsonl", "--combine", *combine.split())
    out, imported = _python(*argv)
    assert _scipy(imported) == []
    assert out == _in_process(*argv)


@pytest.mark.parametrize(
    "problem",
    [("ksample", "--groups", "3,3"), ("independence", "--n", "5", "--family", "adp-sum")],
)
def test_nulltable_loads_no_scipy(files, problem):
    out_path = files["root"] / f"{problem[0]}-fresh.pnt"
    _, imported = _python("nulltable", "--problem", *problem, "--B", "100", "--out", str(out_path))
    assert _scipy(imported) == []
    assert out_path.stat().st_size > 0


@pytest.mark.parametrize("estimator", ["adp", "ddp", "hist"])
def test_mi_loads_no_scipy(files, estimator):
    argv = ("mi", "--data", files["pairs"], "--estimator", estimator, "--m", "3", "--miller-madow")
    out, imported = _python(*argv)
    assert _scipy(imported) == []
    assert out == _in_process(*argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("--scenario", "gauss-shift", "--n", "20", "--groups", "10,10", "--R", "12", "--seed", "3"),
        ("--scenario", "gauss-shift", "--n", "20", "--groups", "10,10", "--R", "12", "--seed", "3",
         "--combine", "penalized", "--prior", "poisson"),
        ("--scenario", "gauss-shift", "--n", "20", "--seed", "4", "--emit"),
        ("--scenario", "gauss-mixture-2d", "--n", "25", "--seed", "2", "--emit"),
    ],
    ids=["power-minp", "power-penalized", "emit-gauss", "emit-mixture"],
)
def test_simulate_loads_no_scipy(files, argv):
    argv = ("simulate", *argv) + (() if "--emit" in argv else ("--table", files["tables"]["sum"]))
    out, imported = _python(*argv)
    assert _scipy(imported) == []
    assert out == _in_process(*argv)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="checked with forked workers, which inherit -X importtime and stderr",
)
def test_power_study_in_workers_loads_no_scipy(files):
    # With two cores the parent draws no dataset, so a "statistics" import
    # (the normal quantile's module) is a worker's: their imports are traced.
    code = textwrap.dedent(f"""
        import sys
        import partitest as pt

        spec = pt.make_scenario("gauss-shift", n=20, group_sizes=(10, 10), seed=1, replicates=16)
        report = pt.power_study(spec, pt.load_table({files["tables"]["sum"]!r}), threads=2)
        print(report.rejections, sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    out, imported = _python(code=code)
    assert out.split(maxsplit=1)[1] == "[]\n"
    assert _scipy(imported) == []
    assert "statistics" in imported
