"""The three operation families the benchmark measures, and the cross-checks.

Every run measures all three families, because every run reports every
end-to-end metric.  The run's workload names its home family: that family
is prepared during set-up and gets the run's ``--seconds``; the other two run
only their fixed minimum, afterwards.  Each family records, besides its metrics,
the deterministic outputs that ``reference.json`` pins for the default seed.

End-to-end metrics are medians of per-call times, each divided by the host's
slowness around that call (see harness); with ``steady`` off, of the raw
times.  Per-layer metrics use raw times.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

import partitest as pt
from partitest import cli, oracle

LR = "lr"
POISSON = pt.PriorSpec.poisson_sqrt_n()


def derive_seed(seed: int, *tags: int) -> int:
    """A non-negative seed for one input stream of the run."""
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1)[0])


def tie_seed(spec_seed: int, replicate: int, axis: int) -> int:
    # Same rule as partitest.simulate uses inside power_study, so the
    # benchmark's own test loop and power_study see identical datasets.
    ss = np.random.SeedSequence((spec_seed, replicate, 0x7155 + axis))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def median(values) -> float:
    return float(statistics.median(values))


class Outputs:
    """Deterministic results kept for the reference comparison."""

    def __init__(self):
        self.close: dict[str, list[float]] = {}  # compared with rtol 1e-12
        self.exact: dict[str, list] = {}  # compared for equality

    def add_close(self, key: str, values) -> None:
        self.close.setdefault(key, [float(v) for v in np.ravel(values)])

    def add_exact(self, key: str, values) -> None:
        self.exact.setdefault(key, [v.item() if hasattr(v, "item") else v for v in values])


def _close(a, b, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class Family:
    name = ""
    steady = True  # metrics() from per-call steadied times, else from raw ones

    def __init__(self, rec, seed: int, workdir: str, outputs: Outputs):
        self.rec = rec
        self.seed = seed
        self.workdir = workdir
        self.outputs = outputs

    def prepare(self) -> None:
        """Make the inputs; for the home family this is the run's set-up."""

    def run(self, seconds: float | None) -> None:
        """Measure the fixed minimum, and on until ``seconds`` have passed if given."""
        raise NotImplementedError

    def clock(self, timer) -> float:
        return self.rec.steady(timer) if self.steady else timer.seconds

    def metrics(self) -> dict[str, float]:
        raise NotImplementedError

    def layer_metrics(self) -> dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ksample-build: Monte Carlo table builds (the write path)


class TableBuilds(Family):
    name = "build"
    ROWS = 250  # a short build is bracketed closely by host samples
    KINDS = {
        "sum": dict(family="sum", n=200, group_sizes=(100, 100)),
        "max": dict(family="max", n=100, group_sizes=(40, 30, 30)),
    }
    M_MAX = 29
    MIN_ITERATIONS = 5

    def prepare(self):
        self.built = {kind: [] for kind in self.KINDS}  # timer of each build
        self.row_ms = {kind: [] for kind in self.KINDS}
        self.build_self = []  # each sum build's share not spent scoring rows (traced)
        self.save_s = []
        self.save_bytes = 0
        self.iteration = 0

    def _meta(self, kind: str, index: int) -> pt.NullTableMeta:
        return pt.NullTableMeta(
            problem="ksample",
            score=LR,
            m_max=self.M_MAX,
            b=self.ROWS,
            seed=derive_seed(self.seed, 1, index),
            **self.KINDS[kind],
        )

    def _build(self, kind: str, index: int) -> None:
        rec = self.rec
        meta = self._meta(kind, index)
        path = os.path.join(self.workdir, f"build-{kind}.pnt")
        with rec.unit(f"bench.build.{kind}") as unit:
            with rec.span("nulltable.generate_null_table") as build:
                table = pt.generate_null_table(meta, threads=1)
            with rec.span("nulltable.save_table") as save:
                pt.save_table(table, path)
            with rec.span("nulltable.load_table", probe=True):
                loaded = pt.load_table(path)
            rec.expect(
                loaded.meta == table.meta and np.array_equal(loaded.data, table.data),
                "nulltable",
                f"{kind} table changed in a save/load round trip",
            )
            rescore_s = self._check_rows(kind, meta, table)
            rec.attribute(build, "ksample", rescore_s, meta.b)
        if unit.failed:
            return
        self.built[kind].append(build)
        if kind == "sum":
            self.build_self.append(1.0 - rescore_s / build.seconds)
            self.save_s.append(save.seconds)
            self.save_bytes = os.path.getsize(path)
        if index == 0:
            self.outputs.add_close(f"build.{kind}.rows0-2", table.data[:3])
            self.outputs.add_close(
                f"build.{kind}.column_fsums",
                [math.fsum(col) for col in table.data.T.tolist()],
            )

    def _check_rows(self, kind, meta, table) -> float:
        """Rescore rows through the ksample entry point; they must match bit for bit.

        A traced run rescores every row, so the seconds returned are the
        build's ksample share measured on the same inputs.
        """
        rec = self.rec
        fn = pt.ksample_sum_all_m if kind == "sum" else pt.ksample_max_all_m
        identity = pt.RankedSample(np.arange(1, meta.n + 1), meta.n, 0)
        base = np.repeat(np.arange(1, len(meta.group_sizes) + 1), meta.group_sizes)
        rows = range(meta.b) if rec.traced else (0, meta.b - 1)
        times = []
        for b in rows:
            # replicate b's label permutation, drawn as generate_null_table draws it
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((meta.seed, b))))
            sample = pt.GroupedSample(rng.permutation(base), identity, meta.group_sizes)
            with rec.span(f"ksample.{kind}_all_m", probe=True) as row:
                stats = fn(sample, LR, meta.m_max)
            times.append(row.seconds)
            rec.expect(
                np.array_equal(stats.values, table.data[b]),
                "ksample",
                f"{kind} table row {b} differs from its rescored statistic",
            )
        self.row_ms[kind].extend(1e3 * t for t in times)
        return math.fsum(times)

    def run(self, seconds):
        start = perf_counter()
        while True:
            for kind in self.KINDS:
                self._build(kind, self.iteration)
            self.iteration += 1
            if self.iteration >= self.MIN_ITERATIONS and (
                seconds is None or perf_counter() - start >= seconds
            ):
                break

    def metrics(self):
        return {
            "sum_table_rows_per_s": self.ROWS / median(map(self.clock, self.built["sum"])),
            "max_table_rows_per_s": self.ROWS / median(map(self.clock, self.built["max"])),
        }

    def layer_metrics(self):
        return {
            "ksample.sum_row_ms.n200": median(self.row_ms["sum"]),
            "ksample.max_row_ms.k3": median(self.row_ms["max"]),
            "nulltable.build_self_frac": median(self.build_self),
            "nulltable.save_s": median(self.save_s),
            "nulltable.save_bytes": float(self.save_bytes),
        }


# ---------------------------------------------------------------------------
# ksample-query: tests against one stored table (the read path)


class TestStream(Family):
    name = "query"
    N, GROUPS, M_MAX, B = 100, (50, 50), 29, 10_000
    SCENARIOS = ("gauss-shift", "gauss-scale", "null-equal")
    KINDS = ("minp", "fisher", "penalized")
    WINDOW = 100  # tests per throughput sample
    TAIL_CHUNK = 1000  # tests per p90 sample
    COLD_EVERY = 5  # windows between two cold CLI calls
    MIN_WINDOWS = 30
    POWER_REPS = 100
    ALPHA = 0.05
    REFERENCE_TESTS = 27

    def prepare(self):
        rec = self.rec
        meta = pt.NullTableMeta(
            problem="ksample", family="sum", score=LR, n=self.N, group_sizes=self.GROUPS,
            m_max=self.M_MAX, b=self.B, seed=derive_seed(self.seed, 2),
        )
        self.path = os.path.join(self.workdir, "query.pnt")
        with rec.unit("bench.query.table"):
            with rec.span("nulltable.generate_null_table") as self.table_build:
                self.table = pt.generate_null_table(meta, threads=1)
            with rec.span("nulltable.save_table"):
                pt.save_table(self.table, self.path)
            for kind in self.KINDS:  # a warm table: later tests reuse these
                self.table.combined_null(kind, self._prior(kind))
            self.outputs.add_close("query.table.row0", self.table.data[0])
            self.outputs.add_close(
                "query.table.column_fsums", [math.fsum(c) for c in self.table.data.T.tolist()]
            )
        self.specs = [pt.make_scenario(name, self.N, seed=self.seed) for name in self.SCENARIOS]
        self.cold_inputs = []
        for j, spec in enumerate(self.specs):
            # replicates far beyond the stream's, so the CLI sees fresh data
            labels, values = pt.generate_scenario(spec, 10**6 + j)
            data_path = os.path.join(self.workdir, f"query-{j}.tsv")
            with open(data_path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{int(a)}\t{v:.17g}\n" for a, v in zip(labels, values))
            self.cold_inputs.append((data_path, pt.GroupedSample.from_values(labels, values, 0)))
        self.count = 0
        self.latency = []  # timer of each test
        self.windows: list[tuple[int, int]] = []  # latency slice of each window
        self.rejections = {k: 0 for k in range(3)}  # diagonal combo -> count
        self.cold = []  # timer of each cold CLI call
        self.layer = {key: [] for key in (
            "from_values", "generate", "row", "run_test_self", "load", "cli_self",
            "minp", "fisher", "penalized")}
        self.row_timers = []  # (timer, rows inside it) of calls that score rows

    @staticmethod
    def _prior(kind):
        return POISSON if kind == "penalized" else None

    def _test(self, i: int) -> None:
        """Test i cycles scenarios fastest, then combination kinds."""
        rec = self.rec
        scen, kind_ix, rep = i % 3, (i // 3) % 3, i // 9
        spec, kind = self.specs[scen], self.KINDS[kind_ix]
        with rec.unit("bench.query.test") as unit:
            with rec.span("simulate.generate_scenario") as gen:
                labels, values = pt.generate_scenario(spec, rep)
            with rec.span("core.from_values") as fv:
                sample = pt.GroupedSample.from_values(labels, values, tie_seed(spec.seed, rep, 0))
            with rec.span("nulltable.run_test") as rt:
                result = pt.run_test(sample, self.table, kind, self._prior(kind))
            rec.expect(
                0.0 < result.final_pvalue <= 1.0 and len(result.per_m_pvalues) == self.M_MAX - 1,
                "nulltable",
                "run_test returned an invalid p-value vector",
            )
        if unit.failed:
            return
        self.latency.append(unit)
        if scen == kind_ix and rep < self.POWER_REPS:
            self.rejections[scen] += int(result.final_pvalue <= self.ALPHA)
        if i < self.REFERENCE_TESTS:
            self.outputs.add_exact(f"query.test{i}.pvalues", [result.final_pvalue, *result.per_m_pvalues])
            self.outputs.add_close(f"query.test{i}.combined", [result.combined_statistic])
        if rec.traced:
            self.layer["generate"].append(gen.seconds)
            self.layer["from_values"].append(fv.seconds)
            self.row_timers.append((rt, 1))
            if i % 10 == 0:
                self._inner_row(sample, result, rt)

    def _inner_row(self, sample, result, run_test_timer) -> None:
        """Time the observed statistic run_test computes, on the same sample."""
        rec = self.rec
        with rec.span("ksample.sum_all_m", probe=True) as row:
            stats = pt.ksample_sum_all_m(sample, LR, self.M_MAX)
        cols = self.table.sorted_columns()
        pvals = [pt.p_value(v, cols[:, j]) for j, v in enumerate(stats.values)]
        rec.expect(
            pvals == [float(p) for p in result.per_m_pvalues],
            "ksample",
            "observed statistic does not reproduce run_test's per-m p-values",
        )
        self.layer["row"].append(row.seconds)
        self.layer["run_test_self"].append(run_test_timer.seconds - row.seconds)

    def _cold(self, c: int) -> None:
        """One in-process `partitest test` call: load, test, print jsonl."""
        rec = self.rec
        data_path, sample = self.cold_inputs[c % 3]
        kind = self.KINDS[(c // 3) % 3]
        argv = ["test", "--data", data_path, "--table", self.path, "--combine", kind,
                "--format", "jsonl"]
        if kind == "penalized":
            argv += ["--prior", "poisson"]
        out = io.StringIO()
        with rec.unit("bench.query.cold_test") as unit:
            with redirect_stdout(out):
                with rec.span("cli.main") as main:
                    code = cli.main(argv)
            rec.expect(code == 0, "cli", f"partitest test exited with {code}")
            record = json.loads(out.getvalue().splitlines()[-1])
            with rec.span("nulltable.run_test", probe=True):
                lib = pt.run_test(sample, self.table, kind, self._prior(kind))
            rec.expect(
                record["per_m_pvalues"] == [float(p) for p in lib.per_m_pvalues]
                and record["final_pvalue"] == lib.final_pvalue
                and record["combined_statistic"] == lib.combined_statistic,
                "cli",
                "CLI jsonl p-values differ from the library's run_test",
            )
            if rec.traced:
                self._cold_layers(sample, kind, main)
        if not unit.failed:
            self.cold.append(main)

    def _cold_layers(self, sample, kind, main) -> None:
        """Repeat the CLI call's load and cold run_test right after it, on its inputs."""
        rec = self.rec
        with rec.span("nulltable.load_table", probe=True) as load:
            fresh = pt.load_table(self.path)
        with rec.span("nulltable.run_test", probe=True) as rt:
            pt.run_test(sample, fresh, kind, self._prior(kind))
        self.layer["load"].append(load.seconds)
        self.layer["cli_self"].append(main.seconds - load.seconds - rt.seconds)
        row = median(self.layer["row"])  # the stream's tests have timed rows by now
        rec.attribute(main, "nulltable", load.seconds + rt.seconds - row, 2)
        rec.attribute(main, "ksample", row)
        for k in self.KINDS:
            with rec.span("nulltable.combined_null_distribution", probe=True) as cn:
                pt.combined_null_distribution(fresh, k, self._prior(k))
            self.layer[k].append(cn.seconds)

    def run(self, seconds):
        start = perf_counter()
        windows = 0
        while True:
            first = len(self.latency)
            for _ in range(self.WINDOW):
                self._test(self.count)
                self.count += 1
            self.windows.append((first, len(self.latency)))
            windows += 1
            if windows % self.COLD_EVERY == 0:
                self._cold(windows // self.COLD_EVERY - 1)
            if windows >= self.MIN_WINDOWS and (
                seconds is None or perf_counter() - start >= seconds
            ):
                break
        self._power_studies()
        if self.rec.traced:  # every row scored inside these calls, at the median row time
            row = median(self.layer["row"])
            self.row_timers.append((self.table_build, self.B))
            for timer, rows in self.row_timers:
                self.rec.attribute(timer, "ksample", rows * row, rows)

    def _power_studies(self) -> None:
        """power_study must reject exactly as often as the test loop did."""
        rec = self.rec
        self.power = [0, 0.0]
        for k, name in enumerate(self.SCENARIOS):
            kind = self.KINDS[k]
            spec = pt.make_scenario(
                name, self.N, seed=self.seed, replicates=self.POWER_REPS, alpha=self.ALPHA
            )
            with rec.unit("bench.query.power_study") as unit:
                with rec.span("simulate.power_study") as ps:
                    report = pt.power_study(spec, self.table, kind, self._prior(kind), threads=1)
                rec.expect(
                    report.rejections == self.rejections[k],
                    "simulate",
                    f"power_study rejected {report.rejections} of {name}/{kind}, "
                    f"the test loop {self.rejections[k]}",
                )
            self.row_timers.append((ps, spec.replicates))
            if not unit.failed:
                self.power[0] += spec.replicates
                self.power[1] += ps.seconds
                self.outputs.add_exact(f"query.power.{name}.{kind}", [report.rejections])

    def metrics(self):
        lat = [self.clock(t) for t in self.latency]
        chunks = range(0, len(lat) - self.TAIL_CHUNK + 1, self.TAIL_CHUNK)
        p90 = [statistics.quantiles(lat[i : i + self.TAIL_CHUNK], n=10)[8] for i in chunks]
        return {
            "tests_per_s": median((b - a) / math.fsum(lat[a:b]) for a, b in self.windows),
            "test_latency_p50_ms": 1e3 * median(lat),
            # median over 1000-test chunks, so one burst of host stalls moves one chunk
            "test_latency_p90_ms": 1e3 * median(p90),
            "cold_test_s": median(map(self.clock, self.cold)),
        }

    def layer_metrics(self):
        row = median(self.layer["row"])
        return {
            "core.from_values_us": 1e6 * median(self.layer["from_values"]),
            "ksample.sum_row_ms.n100": 1e3 * row,
            "nulltable.run_test_self_us": 1e6 * median(self.layer["run_test_self"]),
            "nulltable.load_s": median(self.layer["load"]),
            "nulltable.load_bytes": float(os.path.getsize(self.path)),
            "nulltable.combined_null_ms.minp": 1e3 * median(self.layer["minp"]),
            "nulltable.combined_null_ms.fisher": 1e3 * median(self.layer["fisher"]),
            "nulltable.combined_null_ms.penalized": 1e3 * median(self.layer["penalized"]),
            "simulate.generate_us.ksample": 1e6 * median(self.layer["generate"]),
            "simulate.power_study_reps_per_s": self.power[0] / self.power[1],
            "cli.test_self_ms": 1e3 * median(self.layer["cli_self"]),
        }


# ---------------------------------------------------------------------------
# indep-sweep: the O(N^4) independence sums and the MI estimators


class Sweeps(Family):
    """One set is every sum on both datasets, twice, then both MI
    estimators twice on the mixture, the MI benchmark's data; the minimum
    leaves out the second dataset.  Each metric is the median call on a
    dataset, averaged over the datasets measured."""

    name = "sweep"
    DATASETS = ("gauss-mixture-2d", "null-uniform")
    N, N_MI, M_MI = 100, 150, 12
    SUM_REPEATS = 2
    MI_REPEATS = 2
    SUMS = (
        ("adp_sum_lr_s", "adp_sum_all_m", LR),
        ("adp_sum_pearson_s", "adp_sum_all_m", "pearson"),
        ("ddp_sum_lr_s", "ddp_sum_all_m", LR),
        ("ddp_sum_pearson_s", "ddp_sum_all_m", "pearson"),
    )
    MIS = (("mi_adp_s", "mi_adp"), ("mi_ddp_s", "mi_ddp"))

    def _ranked(self, name: str, n: int):
        spec = pt.make_scenario(name, n, seed=self.seed)
        xv, yv = pt.generate_scenario(spec, 0)
        x = pt.rank_with_random_ties(xv, tie_seed(spec.seed, 0, 0))
        y = pt.rank_with_random_ties(yv, tie_seed(spec.seed, 0, 1))
        return x, y, xv, yv

    def prepare(self):
        self.data = {name: self._ranked(name, self.N) for name in self.DATASETS}
        self.mi_data = self._ranked(self.DATASETS[0], self.N_MI)
        self.times = {}  # (metric, dataset) -> timer of each call
        self.layer = {key: [] for key in (
            "grid", "hhg", "ddp_max3", "adp_max", "hist", "mixture2d",
            "adp_self", "adp_mm", "ddp_self", "ddp_mm")}
        self.mi_inner = {}  # MI function -> seconds of its LR sum, last timed

    def _call(self, metric: str, dataset: str, layer_fn: str, fn, *args):
        rec = self.rec
        with rec.unit(f"bench.sweep.{metric}") as unit:
            with rec.span(layer_fn) as call:
                result = fn(*args)
            value = result.value if isinstance(result, pt.MIEstimate) else result.values
            rec.expect(
                bool(np.all(np.isfinite(value))),
                layer_fn.split(".")[0],
                f"{layer_fn} returned a non-finite value",
            )
        if unit.failed:
            return None, call
        self.times.setdefault((metric, dataset), []).append(call)
        self.outputs.add_close(f"sweep.{dataset}.{metric}", np.ravel(value))
        return result, call

    def _set(self, datasets) -> None:
        rec = self.rec
        for dataset in datasets * self.SUM_REPEATS:
            x, y, _, _ = self.data[dataset]
            for metric, fn_name, score in self.SUMS:
                fn = getattr(pt, fn_name)
                self._call(metric, dataset, f"independence.{fn_name}", fn, x, y, score)
        x2, y2, _, _ = self.mi_data
        for repeat in range(self.MI_REPEATS):
            for metric, fn_name in self.MIS:
                fn = getattr(pt, fn_name)
                _, call = self._call(metric, self.DATASETS[0], f"mi.{fn_name}", fn, x2, y2,
                                     self.M_MI, True)
                if rec.traced:
                    if repeat == 0:
                        self._mi_layers(fn_name, fn, x2, y2, call)
                    rec.attribute(call, "independence", self.mi_inner[fn_name])
        if rec.traced:
            self._guards()

    def _mi_layers(self, fn_name, fn, x, y, mm_call) -> None:
        """MI self time and Miller-Madow cost, from the same data.

        Without the correction an MI value is the LR sum statistic scaled by
        its partition count; the sum call is the MI call's independence work.
        """
        rec = self.rec
        kind = fn_name[3:]
        n, m = self.N_MI, self.M_MI
        with rec.unit(f"bench.sweep.{fn_name}_layers", probe=True):
            with rec.span(f"mi.{fn_name}") as off:
                plain = fn(x, y, m, False)
            sum_fn = pt.adp_sum_all_m if kind == "adp" else pt.ddp_sum_all_m
            with rec.span(f"independence.{kind}_sum_all_m") as inner:
                stats = sum_fn(x, y, LR, m)
            if kind == "adp":
                expect = stats.value(m) / (n * math.comb(n - 1, m - 1) ** 2)
            else:
                expect = stats.value(m) / ((n - m + 1) * math.comb(n, m - 1))
            rec.expect(_close(plain.value, expect, 1e-12), "mi",
                       f"{fn_name} disagrees with its LR sum statistic")
        self.layer[f"{kind}_self"].append(mm_call.seconds - inner.seconds)
        self.layer[f"{kind}_mm"].append(mm_call.seconds - off.seconds)
        self.mi_inner[fn_name] = inner.seconds

    def _guards(self) -> None:
        rec = self.rec
        x, y, xv, yv = self.data[self.DATASETS[0]]
        x2, y2, _, _ = self.mi_data
        with rec.unit("bench.sweep.guards", probe=True):
            with rec.span("core.cumulative_count_grid") as t:
                pt.cumulative_count_grid(x, y)
            self.layer["grid"].append(t.seconds)
            with rec.span("independence.hhg_univariate") as t:
                hhg = pt.hhg_univariate(xv, yv)
            self.layer["hhg"].append(t.seconds)
            with rec.span("independence.ddp_max") as t:
                dmax = pt.ddp_max(x, y, LR, 3)
            self.layer["ddp_max3"].append(t.seconds)
            with rec.span("independence.adp_max_2x2") as t:
                amax = pt.adp_max_2x2(x, y, LR)
            self.layer["adp_max"].append(t.seconds)
            with rec.span("mi.mi_histogram") as t:
                hist = pt.mi_histogram(x2, y2, self.M_MI, True)
            self.layer["hist"].append(t.seconds)
            spec = pt.make_scenario("gauss-mixture-2d", self.N_MI, seed=self.seed)
            with rec.span("simulate.generate_scenario") as t:
                pt.generate_scenario(spec, 1)
            self.layer["mixture2d"].append(t.seconds)
            rec.expect(
                all(math.isfinite(v) for v in (hhg, dmax, amax, hist.value)),
                "independence",
                "a guard statistic is not finite",
            )

    def run(self, seconds):
        if seconds is None:
            self._set(self.DATASETS[:1])
            return
        start = perf_counter()
        while True:
            self._set(self.DATASETS)
            if perf_counter() - start >= seconds:
                break

    def metrics(self):
        out = {}
        for metric, *_ in self.SUMS + self.MIS:
            per_dataset = [median(map(self.clock, v)) for (m, _), v in self.times.items() if m == metric]
            out[metric] = statistics.fmean(per_dataset)
        return out

    def layer_metrics(self):
        lay = self.layer
        return {
            "core.grid_ms": 1e3 * median(lay["grid"]),
            "independence.hhg_ms": 1e3 * median(lay["hhg"]),
            "independence.ddp_max3_ms": 1e3 * median(lay["ddp_max3"]),
            "independence.adp_max_2x2_ms": 1e3 * median(lay["adp_max"]),
            "mi.adp_self_s": median(lay["adp_self"]),
            "mi.ddp_self_s": median(lay["ddp_self"]),
            "mi.mm_extra_s.adp": median(lay["adp_mm"]),
            "mi.mm_extra_s.ddp": median(lay["ddp_mm"]),
            "mi.hist_us": 1e6 * median(lay["hist"]),
            "simulate.generate_us.mixture2d": 1e6 * median(lay["mixture2d"]),
        }


FAMILIES = {"ksample-build": TableBuilds, "ksample-query": TestStream, "indep-sweep": Sweeps}


# ---------------------------------------------------------------------------
# Checks that every run makes, whatever its workload


def check_oracles(rec, seed: int) -> None:
    """Fast paths against the brute-force oracles at small N (never timed)."""
    rng = np.random.default_rng(derive_seed(seed, 3))
    with rec.unit("bench.check.oracle", probe=True):
        n = 8
        labels = np.concatenate(([1, 2, 3], rng.integers(1, 4, size=n - 3)))
        sample = pt.GroupedSample.from_values(labels, rng.normal(size=n), 1)
        x = pt.RankedSample(rng.permutation(7) + 1, 7, 0)
        y = pt.RankedSample(rng.permutation(7) + 1, 7, 0)
        xv, yv = rng.normal(size=12), rng.integers(0, 4, size=12).astype(float)
        pairs = [(pt.hhg_univariate(xv, yv), oracle.oracle_hhg(xv, yv), "independence")]
        for score in (LR, "pearson"):
            s = pt.ksample_sum_all_m(sample, score, 4)
            mx = pt.ksample_max_all_m(sample, score, 4)
            adp = pt.adp_sum_all_m(x, y, score, 3)
            ddp = pt.ddp_sum_all_m(x, y, score, 3)
            for m in (2, 3, 4):
                ref_sum, ref_max = oracle.oracle_ksample(sample, score, m)
                pairs += [(s.value(m), ref_sum, "ksample"), (mx.value(m), ref_max, "ksample")]
            for m in (2, 3):
                a_sum, a_max = oracle.oracle_adp(x, y, score, m)
                d_sum, d_max = oracle.oracle_ddp(x, y, score, m)
                pairs += [
                    (adp.value(m), a_sum, "independence"),
                    (ddp.value(m), d_sum, "independence"),
                    (pt.ddp_max(x, y, score, m), d_max, "independence"),
                ]
                if m == 2:
                    pairs.append((pt.adp_max_2x2(x, y, score), a_max, "independence"))
        for got, ref, layer in pairs:
            rec.expect(_close(got, ref, 1e-10), layer, f"fast path {got!r} != oracle {ref!r}")


def check_thread_identity(rec, seed: int, workdir: str) -> float:
    """A threads=2 table must be byte-identical to the threads=1 table.

    Returns the parallel efficiency t1 / (2 * t2), 0 if the check failed;
    this is the only place the benchmark starts a worker pool.
    """
    meta = pt.NullTableMeta(
        problem="ksample", family="sum", score=LR, n=100, group_sizes=(50, 50),
        m_max=29, b=400, seed=derive_seed(seed, 4),
    )
    blobs, seconds = [], []
    with rec.unit("bench.check.threads", probe=True) as unit:
        for threads in (1, 2):
            with rec.span("nulltable.generate_null_table") as build:
                table = pt.generate_null_table(meta, threads=threads)
            seconds.append(build.seconds)
            path = os.path.join(workdir, f"threads-{threads}.pnt")
            pt.save_table(table, path)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        rec.expect(blobs[0] == blobs[1], "nulltable", "threads=2 table bytes differ from threads=1")
    return 0.0 if unit.failed else seconds[0] / (2.0 * seconds[1])
