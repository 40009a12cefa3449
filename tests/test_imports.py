"""What a fresh process imports: scipy loads only for the priors and the scenario draws.

Each test starts a new interpreter, so modules the test session already
holds do not hide an import.
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
    """Run ``python -X importtime -c code *argv``; (stdout, scipy modules imported)."""
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
    return proc.stdout, [name for name in imported if name.partition(".")[0] == "scipy"]


def _in_process(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A K-sample table and data file, and an independence data file."""
    root = tmp_path_factory.mktemp("imports")
    table = root / "t.pnt"
    _in_process("nulltable", "--problem", "ksample", "--groups", "10,10", "--m-max", "4",
                "--B", "200", "--seed", "5", "--out", str(table))
    ksample = root / "k.tsv"
    ksample.write_text("".join(f"{1 + i % 2}\t{(i * 7) % 20 + i % 2 / 2}\n" for i in range(20)))
    pairs = root / "xy.tsv"
    pairs.write_text("".join(f"{(i * 3) % 20}\t{(i * i) % 23}\n" for i in range(20)))
    return {"table": str(table), "ksample": str(ksample), "pairs": str(pairs), "root": root}


def test_import_partitest_loads_no_scipy():
    code = "import sys, partitest; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out, scipy = _python(code=code)
    assert out == "[]\n" and scipy == []


@pytest.mark.parametrize("combine", ["minp", "fisher"])
def test_test_without_prior_loads_no_scipy(files, combine):
    argv = ("test", "--data", files["ksample"], "--table", files["table"], "--combine", combine)
    out, scipy = _python(*argv)
    assert scipy == []
    assert out == _in_process(*argv)


@pytest.mark.parametrize(
    "problem",
    [("ksample", "--groups", "3,3"), ("independence", "--n", "5", "--family", "adp-sum")],
)
def test_nulltable_loads_no_scipy(files, problem):
    out_path = files["root"] / f"{problem[0]}-fresh.pnt"
    _, scipy = _python("nulltable", "--problem", *problem, "--B", "100", "--out", str(out_path))
    assert scipy == []
    assert out_path.stat().st_size > 0


@pytest.mark.parametrize("estimator", ["adp", "ddp", "hist"])
def test_mi_loads_no_scipy(files, estimator):
    argv = ("mi", "--data", files["pairs"], "--estimator", estimator, "--m", "3", "--miller-madow")
    out, scipy = _python(*argv)
    assert scipy == []
    assert out == _in_process(*argv)


@pytest.mark.parametrize("prior", ["poisson", "binomial:0.5"])
def test_penalized_test_loads_scipy_on_demand(files, prior):
    argv = ("test", "--data", files["ksample"], "--table", files["table"],
            "--combine", "penalized", "--prior", prior, "--format", "jsonl")
    out, scipy = _python(*argv)
    assert "scipy.special" in scipy
    assert out == _in_process(*argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("--scenario", "gauss-shift", "--n", "20", "--groups", "10,10", "--R", "12", "--seed", "3"),
        ("--scenario", "gauss-mixture-2d", "--n", "25", "--seed", "2", "--emit"),
    ],
)
def test_simulate_loads_scipy_on_demand(files, argv):
    argv = ("simulate", *argv) + (() if "--emit" in argv else ("--table", files["table"]))
    out, scipy = _python(*argv)
    assert "scipy.special" in scipy
    assert out == _in_process(*argv)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the parent's modules only when forked",
)
def test_power_study_imports_scipy_once_in_the_parent(files):
    # Every dataset draw records its process and whether scipy.special was
    # already loaded there; forked workers must inherit it from the parent.
    log = files["root"] / "draws.txt"
    code = textwrap.dedent(f"""
        import os, sys
        import partitest as pt
        from partitest import simulate

        draw = simulate.generate_scenario

        def logged(spec, index):
            with open({str(log)!r}, "a") as fh:
                fh.write(f"{{os.getpid()}} {{int('scipy.special' in sys.modules)}}\\n")
            return draw(spec, index)

        simulate.generate_scenario = logged
        spec = pt.make_scenario("gauss-shift", n=20, group_sizes=(10, 10), seed=1, replicates=16)
        report = pt.power_study(spec, pt.load_table({files["table"]!r}), threads=2)
        print(os.getpid(), report.rejections)
    """)
    out, scipy = _python(code=code)
    parent = out.split()[0]
    draws = [line.split() for line in log.read_text().splitlines()]
    assert len(draws) == 16
    assert all(loaded == "1" for _, loaded in draws)
    if (os.cpu_count() or 1) >= 2:
        assert parent not in {pid for pid, _ in draws}  # the draws ran in workers
    assert scipy.count("scipy.special") == 1
