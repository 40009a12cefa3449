"""Run one workload of the partitest benchmark and print its metrics.

    python3 perfbench/run.py --workload ksample-build --seed 0 --seconds 6 --trace 0

Run it from the root of a source checkout: it imports partitest from
``src/`` in one process, pins BLAS to one thread, and derives every input
from ``--seed``.  The workloads and metrics are listed in BENCHMARK.json and
explained in perfbench/README.md.  The last line of standard output is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(from in-memory spans) with ``--trace 1``.  Lines before it give the
provenance, the host's slowness during the run and every metric with its
unit.  Run records and spans are written under perfbench/out/.

The timed end-to-end metrics, all but setup_s and peak_rss_mb, are given in
seconds at a fixed host speed: each call's time is divided by the host's
slowness around it, measured with a fixed kernel (see harness.py).  The
host's cores are shared and it flips between a fast and a 1.4x slower mode,
so raw times of the same code spread by 0.2-0.4 from run to run.  The run
record keeps the metrics from raw times too (``end_to_end_raw``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
BLAS_THREADS = "1"
REFERENCE_RTOL = 1e-12


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help=f"store this run's deterministic outputs in {REFERENCE.name} (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--record-reference needs --seed {DEFAULT_SEED}")
    return args


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the library's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "partitest").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def _reference_layer(key: str) -> str:
    group = key.partition(".")[0]
    if group == "sweep":
        return "mi" if ".mi_" in key else "independence"
    return {"build": "ksample", "query": "nulltable"}[group]


def check_reference(rec, outputs, seed: int) -> None:
    """Compare with the outputs pinned for the default seed."""
    if seed != DEFAULT_SEED:
        return
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for kind, produced in (("close", outputs.close), ("exact", outputs.exact)):
        for key, got in produced.items():
            want = ref[kind].get(key)
            if want is None:
                continue
            with rec.unit("bench.check.reference", probe=True):
                if kind == "exact":
                    ok = got == want
                else:
                    ok = len(got) == len(want) and all(
                        abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b), 1e-300)
                        for a, b in zip(got, want)
                    )
                rec.expect(ok, _reference_layer(key), f"{key} differs from {REFERENCE.name}")


def record_reference(outputs) -> None:
    ref = {"seed": DEFAULT_SEED, "close": {}, "exact": {}}
    if REFERENCE.exists():
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref["close"].update(outputs.close)
    ref["exact"].update(outputs.exact)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def measure(args, import_s: float, workdir: str) -> tuple:
    import families
    import harness

    rec = harness.Recorder(traced=bool(args.trace))
    outputs = families.Outputs()
    fams = {name: cls(rec, args.seed, workdir, outputs) for name, cls in families.FAMILIES.items()}
    home = fams[args.workload]

    start = perf_counter()
    home.prepare()
    setup_s = import_s + perf_counter() - start
    home.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for fam in fams.values():
        if fam is not home:
            fam.prepare()
            fam.run(None)
    families.check_oracles(rec, args.seed)
    efficiency = families.check_thread_identity(rec, args.seed, workdir)
    check_reference(rec, outputs, args.seed)
    wall = perf_counter() - start

    e2e = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    raw = dict(e2e)
    layer = {}
    for fam in fams.values():
        e2e.update(fam.metrics())
        fam.steady = False
        raw.update(fam.metrics())
        if rec.traced:
            layer.update(fam.layer_metrics())
    if rec.traced:
        seconds, calls, probe_s = rec.layer_totals()
        workload_s = wall - probe_s  # the time not spent on probes and host samples
        layer["ksample.busy_frac"] = seconds["ksample"] / workload_s
        layer["independence.busy_frac"] = seconds["independence"] / workload_s
        layer["nulltable.parallel_eff.threads2"] = efficiency
        for name in harness.LAYERS:
            layer[f"{name}.calls"] = float(calls[name])
            layer[f"{name}.failed"] = float(rec.layer_failed[name])
            layer[f"{name}.self_s"] = seconds[name]
    return rec, outputs, e2e, raw, layer


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "partitest" / "__init__.py").is_file():
        print(f"error: partitest sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import partitest  # noqa: F401  (timed: import is part of set-up)

    import_s = perf_counter() - start

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    try:
        rec, outputs, e2e, raw, layer = measure(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    reported = layer if args.trace else e2e
    expected = {m["name"] for m in spec[section]}
    if set(reported) != expected:
        print(f"error: metrics differ from BENCHMARK.json {section}: "
              f"missing {sorted(expected - set(reported))}, extra {sorted(set(reported) - expected)}",
              file=sys.stderr)
        return 1
    if args.record_reference:
        record_reference(outputs)

    prov = provenance(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if rec.traced:
        rec.write_spans(OUT / f"spans-{stem}.jsonl")
    record = {
        "provenance": prov,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "ops_failed_frac": rec.failed / rec.attempted,
        "errors": rec.errors,
        "host_slowness": rec.slowness(),
        "host_samples": len(rec.host_samples),
        "extra_threads": rec.extra_threads,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "per_layer": layer,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, value in prov.items():
        print(f"# {key}: {value}")
    print(f"# host_slowness: {rec.slowness():.3f} (median of {len(rec.host_samples)} timings "
          f"of a fixed kernel over its nominal time; threads besides the main one: "
          f"{rec.extra_threads})")
    print(f"# ops: attempted {rec.attempted}, failed {rec.failed}, "
          f"ops_failed_frac {rec.failed / rec.attempted}")
    for name, value in e2e.items():
        print(f"{name:40s} {value:16.6f} {units[name]:8s} raw {raw[name]:.6f}")
    for name, value in layer.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]} for name in sorted(reported)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
