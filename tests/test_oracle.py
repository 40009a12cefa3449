import math
import sys

import numpy as np
import pytest

from partitest import (
    CumulativeCountGrid,
    GroupedSample,
    NullTableMeta,
    RankedSample,
    adp_max_2x2,
    adp_sum_all_m,
    ddp_max,
    ddp_sum_all_m,
    generate_null_table,
    ksample_max_all_m,
    ksample_sum_all_m,
    mi_adp,
    mi_ddp,
    run_test,
)
from partitest.oracle import (
    PartitionEnumeration,
    oracle_adp,
    oracle_ddp,
    oracle_hhg,
    oracle_ksample,
    partition_count,
)

from helpers import golden_grouped, golden_shuffled_pair, golden_sweep, random_grouped_labels


class TestEnumeration:
    def test_cardinalities_match_closed_forms(self):
        for n in (4, 6, 9):
            for m in range(2, min(5, n) + 1):
                for kind in ("ksample", "adp", "ddp"):
                    enum = PartitionEnumeration.enumerate(kind, n, m)
                    assert len(enum) == partition_count(kind, n, m)

    def test_counts(self):
        assert partition_count("ksample", 10, 3) == math.comb(9, 2)
        assert partition_count("adp", 10, 3) == math.comb(9, 2) ** 2
        assert partition_count("ddp", 10, 3) == math.comb(10, 2)
        with pytest.raises(ValueError):
            partition_count("nope", 4, 2)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            PartitionEnumeration.enumerate("adp", 40, 12)

    def test_adp_partition_count_n3_m2(self):
        assert len(PartitionEnumeration.enumerate("adp", 3, 2)) == 4

    def test_ddp_partition_count_n5_m3(self):
        assert len(PartitionEnumeration.enumerate("ddp", 5, 3)) == 10


class TestOracleGuards:
    def test_ksample_budget(self):
        labels = np.tile([1, 2], 20)
        gs = GroupedSample.from_values(labels, np.arange(40.0), 0)
        with pytest.raises(ValueError, match="budget"):
            oracle_ksample(gs, "lr", 20)

    def test_hhg_size_limit(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            oracle_hhg(rng.normal(size=201), rng.normal(size=201))

    def test_m_out_of_range(self):
        x = RankedSample(np.array([1, 2, 3]), 3, 0)
        y = RankedSample(np.array([3, 1, 2]), 3, 0)
        with pytest.raises(ValueError):
            oracle_adp(x, y, "lr", 1)
        with pytest.raises(ValueError):
            oracle_ddp(x, y, "lr", 4)


class TestOracleBasics:
    def test_ksample_single_partition_at_m_n(self):
        gs = GroupedSample.from_values([1, 2, 1, 2], [0.1, 0.2, 0.3, 0.4], 0)
        s, m = oracle_ksample(gs, "pearson", 4)
        assert s == pytest.approx(m, rel=1e-12)

    def test_alternating_example(self):
        gs = GroupedSample.from_values([1, 2, 1, 2], [0.1, 0.2, 0.3, 0.4], 0)
        s, m = oracle_ksample(gs, "pearson", 2)
        assert s == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert m == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_hhg_axis_symmetry(self):
        rng = np.random.default_rng(4)
        xv, yv = rng.normal(size=12), rng.normal(size=12)
        assert oracle_hhg(xv, yv) == pytest.approx(oracle_hhg(yv, xv), rel=1e-10)

    def test_ddp_zero_area_cells_ignored(self):
        # adjacent cut ranks leave zero-width interiors that add nothing
        x = RankedSample(np.array([1, 2, 3, 4]), 4, 0)
        y = RankedSample(np.array([1, 2, 3, 4]), 4, 0)
        s, _ = oracle_ddp(x, y, "lr", 4)
        assert np.isfinite(s)


def hexes(values):
    return [float(v).hex() for v in values]


ORACLE_CASES = [
    (score, n, m)
    for score in ("lr", "pearson")
    for n in range(4, 9)
    for m in range(2, min(5, n) + 1)
]


class TestOracleGoldens:
    """float.hex of each oracle's (sum, max), recorded on seeded small cases.

    The oracles use Python floats and ``math.log`` only, so these bits do not
    depend on the BLAS kernel or numpy's SIMD set.
    """

    @pytest.mark.parametrize("score,n,m", ORACLE_CASES)
    def test_recorded_bits(self, score, n, m):
        golden = golden_sweep()["oracle"]
        for k in (2, 3):
            got = oracle_ksample(golden_grouped(n, k), score, m)
            assert hexes(got) == golden["ksample"][f"{score},n={n},k={k},m={m}"]
        x, y = (RankedSample(r, n, 0) for r in golden_shuffled_pair(n))
        assert hexes(oracle_adp(x, y, score, m)) == golden["adp"][f"{score},n={n},m={m}"]
        assert hexes(oracle_ddp(x, y, score, m)) == golden["ddp"][f"{score},n={n},m={m}"]


class TestFastPathsIndependent:
    """The fast paths never call the oracle's cell rule or its grid counts."""

    def test_fast_paths_run_without_them(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("oracle-only helper called")

        for name, mod in list(sys.modules.items()):
            if name.partition(".")[0] != "partitest":
                continue
            if hasattr(mod, "cell_score"):
                monkeypatch.setattr(mod, "cell_score", forbidden)
            # cached tables are rebuilt under the patch
            for attr in vars(mod).values():
                if hasattr(attr, "cache_clear"):
                    attr.cache_clear()
        monkeypatch.setattr(CumulativeCountGrid, "box_count", forbidden)
        monkeypatch.setattr(CumulativeCountGrid, "inner_count", forbidden)

        rng = np.random.default_rng(17)
        gs = GroupedSample.from_values(random_grouped_labels(rng, 11, 3), rng.normal(size=11), 0)
        x, y = (RankedSample(rng.permutation(9) + 1, 9, 0) for _ in range(2))
        with pytest.raises(AssertionError, match="oracle-only"):
            oracle_ksample(gs, "lr", 2)
        with pytest.raises(AssertionError, match="oracle-only"):
            oracle_adp(x, y, "lr", 2)
        with pytest.raises(AssertionError, match="oracle-only"):
            oracle_ddp(x, y, "lr", 2)
        for score in ("lr", "pearson"):
            ksample_sum_all_m(gs, score)
            ksample_max_all_m(gs, score)
            adp_sum_all_m(x, y, score)
            ddp_sum_all_m(x, y, score)
            ddp_max(x, y, score, 3)
            adp_max_2x2(x, y, score)
        for miller_madow in (False, True):
            mi_adp(x, y, 3, miller_madow)
            mi_ddp(x, y, 3, miller_madow)
        ksample = dict(problem="ksample", n=gs.n, group_sizes=gs.group_sizes, m_max=4)
        independence = dict(problem="independence", n=9, group_sizes=None, m_max=3)
        for family, data, fields in (
            ("sum", gs, ksample),
            ("max", gs, ksample),
            ("adp_sum", (x, y), independence),
            ("ddp_sum", (x, y), independence),
        ):
            meta = NullTableMeta(family=family, score="lr", b=100, seed=1, **fields)
            table = generate_null_table(meta)
            # a first minp test counts its tail, the second builds the minp null
            for kind in ("minp", "minp", "fisher"):
                run_test(data, table, kind)
