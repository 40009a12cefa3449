"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --runs 10 --traced 3 --record "label"

For every workload in BENCHMARK.json it runs ``run.py`` once per seed
(workloads interleaved, so slow spells of the host spread over all of them),
then prints each end-to-end metric's median, quartiles and spread (the
quartile distance as a share of the median) next to the spread of the same
metric from raw, unsteadied times and the metric's bound; ``!`` marks a
spread above a third of the bound.  The runs' host slowness
(see run.py) is shown with them, to tell a slow spell from a slow program.
Traced runs add the per-layer metrics and the tracing overhead: the traced
runs' end-to-end medians against the untraced ones.  A per-layer metric whose
quartiles straddle 0 is marked unresolved.  With ``--record`` the
summary is appended to perfbench/baseline.json, newest entry last; the
medians are also compared with the previous entry's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8")
    )
    return result, record


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL", help="append the summary to baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [args.first_seed + i for i in range(max(args.runs, args.traced))]

    runs = {w: {"untraced": [], "traced": []} for w in workloads}
    provenance = None
    for i, seed in enumerate(seeds):
        for trace, key, count in ((0, "untraced", args.runs), (1, "traced", args.traced)):
            if i >= count:
                continue
            for w in workloads:
                result, record = run_once(w, seed, seconds, trace)
                if not result["correct"]:
                    print(f"{w} seed {seed} trace {trace}: incorrect, errors {record['errors']}")
                runs[w][key].append(record)
                provenance = provenance or record["provenance"]
                print(f"done {w} seed {seed} trace {trace}: {result['failed']} of "
                      f"{result['attempted']} failed", flush=True)

    entry = {"label": args.record, "seconds": seconds, "seeds": seeds,
             "provenance": {k: v for k, v in provenance.items()
                            if k not in ("workload", "seed", "trace")},
             "workloads": {}}
    for w in workloads:
        untraced, traced = runs[w]["untraced"], runs[w]["traced"]
        e2e = {m: summary([r["end_to_end"][m] for r in untraced]) for m in bounds}
        out = {"runs": len(untraced), "traced_runs": len(traced),
               "ops_failed_frac": max(r["ops_failed_frac"] for r in untraced + traced),
               "host_slowness": summary([r["host_slowness"] for r in untraced]),
               "end_to_end": e2e,
               "end_to_end_raw": {m: summary([r["end_to_end_raw"][m] for r in untraced])
                                  for m in bounds}}
        if traced:
            out["per_layer"] = {m: summary([r["per_layer"][m] for r in traced])
                                for m in traced[0]["per_layer"]}
            out["trace_overhead"] = {
                m: statistics.median(r["end_to_end"][m] for r in traced) / e2e[m]["median"] - 1.0
                for m in bounds
            }
        entry["workloads"][w] = out

    previous = None
    history = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else []
    if history:
        previous = history[-1]
    for w, out in entry["workloads"].items():
        slow = out["host_slowness"]
        print(f"\n== {w}: {out['runs']} runs, {out['traced_runs']} traced, "
              f"ops_failed_frac {out['ops_failed_frac']}, host slowness median {slow['median']:.3f} "
              f"[{slow['q1']:.3f}, {slow['q3']:.3f}]")
        print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
              f"{'raw':>6s} {'bound':>6s} {'vs prev':>8s} {'trace+':>7s}")
        for m, s in out["end_to_end"].items():
            flag = " !" if s["spread"] > bounds[m] / 3 else ""
            prev = ""
            if previous and w in previous["workloads"]:
                old = previous["workloads"][w]["end_to_end"][m]["median"]
                prev = f"{s['median'] / old - 1.0:+8.3f}"
            over = f"{out['trace_overhead'][m]:+7.3f}" if "trace_overhead" in out else ""
            print(f"{m:28s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:7.3f} {out['end_to_end_raw'][m]['spread']:6.3f} {bounds[m]:6.2f} {prev:>8s} {over:>7s}{flag}")
        for m, s in out.get("per_layer", {}).items():
            # a difference of two timings whose quartiles straddle 0 resolves nothing
            mark = "  unresolved" if s["q1"] < 0 < s["q3"] else ""
            print(f"  {m:38s} {s['median']:14.6g} [{s['q1']:.6g}, {s['q3']:.6g}]{mark}")
    if args.record:
        history.append(entry)
        BASELINE.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
