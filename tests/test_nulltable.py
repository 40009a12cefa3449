import hashlib
import math
import os
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partitest import (
    GroupedSample,
    NullTable,
    NullTableMeta,
    PriorSpec,
    RankedSample,
    adp_sum_all_m,
    combined_null_distribution,
    combined_statistic,
    generate_null_table,
    ksample_sum_all_m,
    load_table,
    p_value,
    run_test,
    save_table,
)
from partitest.nulltable import exact_enumeration_count
from partitest.oracle import oracle_ddp

from helpers import golden_hhg_pair, golden_sweep


def ksample_meta(**kw):
    base = dict(
        problem="ksample",
        family="sum",
        score="lr",
        n=4,
        group_sizes=(2, 2),
        m_max=4,
        b=200,
        seed=5,
    )
    base.update(kw)
    return NullTableMeta(**base)


def indep_meta(**kw):
    base = dict(
        problem="independence",
        family="adp_sum",
        score="lr",
        n=4,
        group_sizes=None,
        m_max=3,
        b=200,
        seed=5,
    )
    base.update(kw)
    return NullTableMeta(**base)


def grouped_from_arrangement(labels_by_rank):
    labels_by_rank = np.asarray(labels_by_rank)
    n = labels_by_rank.size
    sizes = tuple(int(c) for c in np.bincount(labels_by_rank, minlength=3)[1:])
    return GroupedSample(
        labels=labels_by_rank,
        y_ranks=RankedSample(np.arange(1, n + 1), n, 0),
        group_sizes=sizes,
    )


class TestPValue:
    def test_observed_above_all(self):
        col = np.sort(np.arange(9, dtype=float))
        assert p_value(100.0, col) == pytest.approx(1.0 / 10.0)

    def test_observed_below_all(self):
        col = np.sort(np.arange(9, dtype=float))
        assert p_value(-5.0, col) == pytest.approx(1.0)

    def test_tie_counting(self):
        col = np.sort(np.array([0, 1, 2, 3, 4, 5, 7, 7, 7], dtype=float))
        assert p_value(7.0, col) == pytest.approx(4.0 / 10.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=40),
        st.integers(-6, 6),
    )
    def test_counting_property(self, values, observed):
        col = np.sort(np.asarray(values, dtype=float))
        naive = (1 + sum(1 for v in values if v >= observed)) / (len(values) + 1)
        assert p_value(float(observed), col) == pytest.approx(naive)


class TestCombinedStatistic:
    def test_minp(self):
        assert combined_statistic([0.2, 0.05, 0.5], "minp") == pytest.approx(0.05)

    def test_fisher_all_ones(self):
        assert combined_statistic([1.0, 1.0], "fisher") == 0.0

    def test_fisher_direct(self):
        got = combined_statistic([0.1, 0.01], "fisher")
        assert got == pytest.approx(-(math.log(0.1) + math.log(0.01)), rel=1e-12)
        assert got == pytest.approx(6.9078, abs=5e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combined_statistic([], "minp")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            combined_statistic([0.0, 0.5], "minp")


class TestExactMode:
    def test_ksample_exact_rows_match_enumeration(self):
        meta = ksample_meta()
        table = generate_null_table(meta)
        assert table.meta.exact
        assert table.meta.b == 6 == exact_enumeration_count(meta)
        rows = []
        seen = set()
        for perm in permutations([1, 1, 2, 2]):
            if perm in seen:
                continue
            seen.add(perm)
            gs = grouped_from_arrangement(perm)
            rows.append(ksample_sum_all_m(gs, "lr", m_max=4).values)
        rows = np.asarray(sorted(map(tuple, rows)))
        got = np.asarray(sorted(map(tuple, table.data)))
        assert np.allclose(rows, got, rtol=1e-12, atol=0)

    def test_independence_exact_has_all_permutations(self):
        meta = indep_meta()
        table = generate_null_table(meta)
        assert table.meta.exact and table.meta.b == 24
        rows = []
        x = RankedSample(np.arange(1, 5), 4, 0)
        for perm in permutations(range(1, 5)):
            y = RankedSample(np.asarray(perm), 4, 0)
            rows.append(adp_sum_all_m(x, y, "lr", m_max=3).values)
        assert np.allclose(
            np.asarray(sorted(map(tuple, rows))),
            np.asarray(sorted(map(tuple, table.data))),
            rtol=1e-12,
            atol=0,
        )


class TestGeneration:
    def test_b_minimum_enforced(self):
        with pytest.raises(ValueError):
            generate_null_table(ksample_meta(n=40, group_sizes=(20, 20), m_max=10, b=50))

    def test_monte_carlo_reproducible(self):
        meta = ksample_meta(n=20, group_sizes=(10, 10), m_max=6, b=150)
        a = generate_null_table(meta)
        b = generate_null_table(meta)
        assert not a.meta.exact
        assert np.array_equal(a.data, b.data)

    def test_thread_count_invariance(self):
        meta = ksample_meta(n=20, group_sizes=(10, 10), m_max=6, b=150)
        a = generate_null_table(meta, threads=1)
        b = generate_null_table(meta, threads=4)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_rows(self):
        meta = ksample_meta(n=20, group_sizes=(10, 10), m_max=6, b=150)
        a = generate_null_table(meta)
        b = generate_null_table(replace(meta, seed=6))
        assert not np.array_equal(a.data, b.data)

    def test_meta_validation(self):
        with pytest.raises(ValueError):
            ksample_meta(family="adp_sum")
        with pytest.raises(ValueError):
            indep_meta(group_sizes=(2, 2))
        with pytest.raises(ValueError):
            ksample_meta(group_sizes=(1, 2))
        with pytest.raises(ValueError):
            ksample_meta(m_max=9)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        back = load_table(str(path))
        assert back.meta == table.meta
        assert np.array_equal(back.data, table.data)

    def test_bytes_deterministic(self, tmp_path):
        table = generate_null_table(ksample_meta())
        p1, p2 = tmp_path / "a.pnt", tmp_path / "b.pnt"
        save_table(table, str(p1))
        save_table(table, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_shape(self, tmp_path):
        table = generate_null_table(indep_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        raw = path.read_bytes().decode("utf-8")
        lines = raw.split("\n")
        assert lines[0] == "#PNT v1"
        assert "#groups=" in raw
        assert raw.endswith("\n") and "\r" not in raw
        data_lines = [ln for ln in lines if ln and not ln.startswith("#")]
        assert len(data_lines) == 24
        assert all(len(ln.split("\t")) == 2 for ln in data_lines)
        assert all(not ln.endswith((" ", "\t")) for ln in lines)

    def test_unknown_major_version_rejected(self, tmp_path):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        text = path.read_text().replace("#PNT v1", "#PNT v2", 1)
        bad = tmp_path / "bad.pnt"
        bad.write_text(text)
        with pytest.raises(ValueError, match="major version"):
            load_table(str(bad))

    @pytest.mark.parametrize("key", ["problem", "family", "score", "N", "m_max", "B", "seed"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        lines = path.read_text().split("\n")
        path.write_text("\n".join(ln for ln in lines if not ln.startswith(f"#{key}=")))
        with pytest.raises(ValueError, match=f"missing header key: {key}$"):
            load_table(str(path))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_row_rejected(self, tmp_path, token):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        lines = path.read_text().split("\n")
        first = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
        lines[first] = "\t".join([token] * (table.meta.m_max - 1))
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="non-finite"):
            load_table(str(path))

    def test_truncated_exact_table_rejected(self, tmp_path):
        table = generate_null_table(ksample_meta(n=6, group_sizes=(3, 3)))
        assert table.meta.exact and table.meta.b == 20
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        lines = path.read_text().split("\n")
        first = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
        lines = [("#B=15" if ln == "#B=20" else ln) for ln in lines[: first + 15]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="exact table holds B=15 rows, not the full"):
            load_table(str(path))

    def test_no_partial_file_on_failure(self, tmp_path):
        table = generate_null_table(ksample_meta())
        target = tmp_path / "missing-dir" / "t.pnt"
        with pytest.raises(OSError):
            save_table(table, str(target))
        assert not target.exists()


def golden_meta(**kw):
    base = dict(score="lr", group_sizes=None, b=100, seed=11)
    base.update(kw)
    return NullTableMeta(**base)


# SHA-256 of save_table output, recorded when the format and statistics were
# fixed; any change to row scoring, row order or number formatting shows here.
# The last three are the shapes perfbench's ksample workloads build.
KSAMPLE_GOLDEN_TABLES = [
    (
        golden_meta(problem="ksample", family="sum", n=6, group_sizes=(3, 3), m_max=4),
        "bde6fee898b4b8b820fa16baecae6b5fe96c1972e1a7bec391e0e1694f32381b",
    ),
    (
        golden_meta(
            problem="ksample", family="max", n=6, group_sizes=(3, 3), m_max=4, score="pearson"
        ),
        "716d95f09141f878511a486780ac90bcef8f0e5a7fd948e09f3e9faad1190774",
    ),
    (
        golden_meta(problem="ksample", family="sum", n=20, group_sizes=(10, 10), m_max=6, b=120),
        "da33ea95739a2ded1510c53debbccfd79b160f44e3ee408955c11c3471fce19e",
    ),
    (
        golden_meta(
            problem="ksample", family="sum", n=200, group_sizes=(100, 100), m_max=29, b=250
        ),
        "af2501d2d2bb9ed166dbf3b87d2bebdf13679df70c80929535ac4d3de96db278",
    ),
    (
        golden_meta(
            problem="ksample", family="max", n=100, group_sizes=(40, 30, 30), m_max=29, b=250
        ),
        "b13feb478fcce8b57bc42c9300351101f0b3157746f8a22affcff81fec8f5afd",
    ),
    (
        golden_meta(
            problem="ksample", family="sum", n=100, group_sizes=(40, 30, 30), m_max=50, b=250,
            score="pearson",
        ),
        "e0a8fbbe40bcf0091b04aac12353336dc1d6df77b8e5568c5bfaa85001697efe",
    ),
]

INDEPENDENCE_GOLDEN_TABLES = [
    (
        golden_meta(problem="independence", family="adp_sum", n=6, m_max=3),
        "c5b98e0701c4cc7ece27109d7ac363b2484c4ffbf09df291eec98411ecae58ed",
    ),
    (
        golden_meta(problem="independence", family="ddp_sum", n=6, m_max=3, score="pearson"),
        "3ab794e5f5adf4b264b38ff6b191c0fb80e11ce66803718f36dc9448a247b567",
    ),
    (
        golden_meta(problem="independence", family="adp_sum", n=9, m_max=3),
        "6d82f1f29e503ef6a4e8a77aa77fd1a2c60f73ade973c062d329f84c4bb13388",
    ),
    (
        golden_meta(problem="independence", family="ddp_sum", n=9, m_max=3),
        "1f1ed327a981d07ccbe746402b1b1909afbb30c173187f43ca100be51a3ce00c",
    ),
]

# Each case is marked with its problem, so `-m ksample` selects the K-sample
# digests; the order keeps the parameter ids of the first seven cases.
GOLDEN_TABLES = [
    pytest.param(meta, digest, marks=getattr(pytest.mark, meta.problem))
    for meta, digest in (
        KSAMPLE_GOLDEN_TABLES[:3] + INDEPENDENCE_GOLDEN_TABLES + KSAMPLE_GOLDEN_TABLES[3:]
    )
]


class TestGoldenBytes:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("meta,digest", GOLDEN_TABLES)
    def test_table_bytes(self, tmp_path, meta, digest, threads):
        table = generate_null_table(meta, threads=threads)
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCombinedNull:
    def test_identical_column_gives_unit_pvalues(self):
        meta = ksample_meta()
        table = generate_null_table(meta)
        const = NullTable(meta=replace(table.meta), data=np.ones_like(table.data))
        dist = combined_null_distribution(const, "fisher")
        assert np.allclose(dist, 0.0)  # every p_m = 1 -> fisher combined 0
        dist_minp = combined_null_distribution(const, "minp")
        assert np.allclose(dist_minp, 1.0)

    def test_fully_ordered_columns(self):
        meta = ksample_meta(n=20, group_sizes=(10, 10), m_max=3, b=150)
        table = generate_null_table(meta)
        data = np.column_stack([np.arange(150.0), np.arange(150.0)])
        ordered = NullTable(meta=replace(table.meta, b=150), data=data)
        dist = combined_null_distribution(ordered, "minp")
        # row holding the maximum in every column: self-inclusive tail count 1
        assert dist.min() == pytest.approx(2.0 / 151.0)
        assert dist.max() == pytest.approx(1.0)

    def test_exact_table_distribution_matches_direct_enumeration(self):
        table = generate_null_table(ksample_meta())
        b = table.meta.b
        direct = []
        for i in range(b):
            ps = []
            for j in range(table.data.shape[1]):
                geq = int(np.sum(table.data[:, j] >= table.data[i, j]))
                ps.append((1 + geq) / (b + 1))
            direct.append(min(ps))
        assert np.allclose(np.sort(direct), combined_null_distribution(table, "minp"))


class TestRunTest:
    def test_self_consistency_exact_mode(self):
        table = generate_null_table(ksample_meta())
        b = table.meta.b
        seen = set()
        for perm in permutations([1, 1, 2, 2]):
            if perm in seen:
                continue
            seen.add(perm)
            gs = grouped_from_arrangement(perm)
            res = run_test(gs, table, "minp")
            row = ksample_sum_all_m(gs, "lr", m_max=4).values
            for j, m in enumerate(table.ms):
                geq = int(np.sum(table.data[:, j] >= row[j]))
                assert res.per_m_pvalues[j] == pytest.approx((1 + geq) / (b + 1))
            combined = combined_null_distribution(table, "minp")
            leq = int(np.sum(combined <= res.combined_statistic))
            assert res.final_pvalue == pytest.approx((1 + leq) / (b + 1))

    @pytest.mark.parametrize("family", ["adp_sum", "ddp_sum"])
    def test_independence_self_consistency_exact_mode(self, family):
        # points in shuffled order whose y-by-x arrangement is each table row
        n = 5
        table = generate_null_table(indep_meta(family=family, n=n, m_max=4))
        assert table.meta.b == 120
        b = table.meta.b
        combined = combined_null_distribution(table, "minp")
        rng = np.random.default_rng(9)
        for i, perm in enumerate(permutations(range(1, n + 1))):
            xr = rng.permutation(n) + 1
            yr = np.asarray(perm)[xr - 1]
            res = run_test((RankedSample(xr, n, 0), RankedSample(yr, n, 0)), table, "minp")
            row = table.data[i]
            expected = [(1 + int(np.sum(col >= v))) / (b + 1) for col, v in zip(table.data.T, row)]
            assert np.array_equal(res.per_m_pvalues, expected)
            leq = int(np.sum(combined <= res.combined_statistic))
            assert res.final_pvalue == (1 + leq) / (b + 1)

    def test_penalized_ddp_matches_oracle_means(self):
        n = 6
        table = generate_null_table(indep_meta(family="ddp_sum", n=n, m_max=4))
        rng = np.random.default_rng(10)
        x = RankedSample(np.arange(1, n + 1), n, 0)
        y = RankedSample(rng.permutation(n) + 1, n, 0)
        for prior in (PriorSpec.poisson_sqrt_n(), PriorSpec.binomial(0.3)):
            expected = max(
                oracle_ddp(x, y, "lr", m)[0] / math.comb(n, m - 1)
                + prior.log_prior_m(np.array([m]), n)[0]
                for m in (2, 3, 4)
            )
            res = run_test((x, y), table, "penalized", prior)
            assert res.combined_statistic == pytest.approx(expected, rel=1e-10)

    def test_bounds(self):
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), m_max=5, b=120))
        rng = np.random.default_rng(3)
        gs = GroupedSample.from_values(np.repeat([1, 2], 10), rng.normal(size=20), 1)
        res = run_test(gs, table, "minp")
        assert 1.0 / 121.0 <= res.final_pvalue <= 1.0
        assert np.all(res.per_m_pvalues > 0) and np.all(res.per_m_pvalues <= 1)

    def test_fisher_and_penalized_paths(self):
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), m_max=5, b=120))
        rng = np.random.default_rng(4)
        gs = GroupedSample.from_values(np.repeat([1, 2], 10), rng.normal(size=20), 1)
        fisher = run_test(gs, table, "fisher")
        assert fisher.combined_statistic == pytest.approx(
            -np.log(fisher.per_m_pvalues).sum(), rel=1e-12
        )
        pen = run_test(gs, table, "penalized", PriorSpec.poisson_sqrt_n())
        assert 0 < pen.final_pvalue <= 1

    @pytest.mark.parametrize("kind", ["minp", "fisher", "penalized"])
    @pytest.mark.parametrize(
        "family,score,n",
        [
            ("adp_sum", "lr", 6),
            ("ddp_sum", "pearson", 6),
            ("adp_sum", "lr", 9),
            ("ddp_sum", "lr", 9),
        ],
    )
    def test_independence_bit_identical(self, family, score, n, kind):
        # exact tables at N=6, Monte Carlo tables at N=9
        table = generate_null_table(
            indep_meta(family=family, score=score, n=n, m_max=3, b=100, seed=11)
        )
        prior = PriorSpec.poisson_sqrt_n() if kind == "penalized" else None
        res = run_test(golden_hhg_pair(n, "ranks"), table, kind, prior)
        got = {
            "per_m_pvalues": [float(p).hex() for p in res.per_m_pvalues],
            "combined_statistic": res.combined_statistic.hex(),
            "final_pvalue": res.final_pvalue.hex(),
        }
        assert got == golden_sweep()["run_test"][f"{family},{score},n={n},{kind}"]

    def test_penalized_requires_prior(self):
        table = generate_null_table(ksample_meta())
        gs = grouped_from_arrangement([1, 1, 2, 2])
        with pytest.raises(ValueError):
            run_test(gs, table, "penalized")

    def test_incompatible_inputs(self):
        table = generate_null_table(ksample_meta())
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="table incompatible"):
            run_test(
                GroupedSample.from_values([1, 2, 1, 2, 1], rng.normal(size=5), 0),
                table,
                "minp",
            )
        with pytest.raises(ValueError, match="table incompatible"):
            run_test(
                GroupedSample.from_values([1, 1, 1, 2], rng.normal(size=4), 0), table, "minp"
            )
        x = RankedSample(np.arange(1, 5), 4, 0)
        with pytest.raises(ValueError, match="table incompatible"):
            run_test((x, x), table, "minp")
        indep = generate_null_table(indep_meta())
        with pytest.raises(ValueError, match="table incompatible"):
            run_test(grouped_from_arrangement([1, 1, 2, 2]), indep, "minp")

    def test_per_m_monotone_in_observed_statistic(self):
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), m_max=5, b=120))
        cols = table.sorted_columns()
        for j in range(cols.shape[1]):
            lo = p_value(float(cols[10, j]), cols[:, j])
            hi = p_value(float(cols[10, j]) + 1e-9, cols[:, j])
            assert hi <= lo
