import io
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partitest import (
    PriorSpec,
    RankedSample,
    ScoreKind,
    adp_max_2x2,
    adp_sum_all_m,
    binomial_table,
    ddp_max,
    ddp_sum_all_m,
    hhg_univariate,
    penalized_adp_sum,
    rank_with_random_ties,
)
from partitest import independence
from partitest.independence import (
    GridCells,
    _cell_terms,
    _grid_m2_partition_scores,
    _point_cell_tables,
    _point_key_fields,
)
from partitest.core import _count_grid, _pair_index_cache, cell_score, cumulative_count_grid
from partitest.oracle import oracle_adp, oracle_ddp, oracle_hhg

from helpers import (
    golden_hhg_pair,
    golden_shuffled_pair,
    golden_sweep,
    random_rank_pair,
    reference_grid_lr_sweep,
    reference_point_cell_tables,
)


def rank_pair(xr, yr):
    xr = np.asarray(xr)
    yr = np.asarray(yr)
    return RankedSample(xr, xr.size, 0), RankedSample(yr, yr.size, 0)


class TestGridSum:
    def test_identity_n3_m2_matches_enumeration(self):
        x, y = rank_pair([1, 2, 3], [1, 2, 3])
        for score in ("pearson", "lr"):
            s_ref, _ = oracle_adp(x, y, score, 2)
            got = adp_sum_all_m(x, y, score, m_max=2).value(2)
            assert got == pytest.approx(s_ref, rel=1e-12)

    def test_m2_equals_direct_partition_scan(self):
        rng = np.random.default_rng(3)
        for n in (4, 7, 10):
            xr, yr = random_rank_pair(rng, n)
            x, y = rank_pair(xr, yr)
            grid = cumulative_count_grid(xr, yr)
            for score in ("pearson", "lr"):
                direct = float(_grid_m2_partition_scores(grid, ScoreKind.parse(score)).sum())
                got = adp_sum_all_m(x, y, score, m_max=2).value(2)
                assert got == pytest.approx(direct, rel=1e-10)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            n = int(rng.integers(4, 9))
            x, y = rank_pair(*random_rank_pair(rng, n))
            for score in ("pearson", "lr"):
                stats = adp_sum_all_m(x, y, score, m_max=min(4, n))
                for m in range(2, min(4, n) + 1):
                    s_ref, _ = oracle_adp(x, y, score, m)
                    assert stats.value(m) == pytest.approx(s_ref, rel=1e-10, abs=1e-12)

    def test_symmetry_in_axes(self):
        rng = np.random.default_rng(6)
        xr, yr = rng.permutation(8) + 1, rng.permutation(8) + 1
        x, y = rank_pair(xr, yr)
        a = adp_sum_all_m(x, y, "lr", m_max=4).values
        b = adp_sum_all_m(y, x, "lr", m_max=4).values
        assert np.allclose(a, b, rtol=1e-12)

    def test_m_max_validation(self):
        x, y = rank_pair([1, 2, 3], [3, 1, 2])
        with pytest.raises(ValueError):
            adp_sum_all_m(x, y, "lr", m_max=4)


def golden_layout(n, layout):
    x = np.arange(1, n + 1)
    if layout == "identity":
        return x, x.copy()
    if layout == "reversed":
        return x, x[::-1].copy()
    return x, np.random.default_rng(1000 + n).permutation(n) + 1


class TestGridSweepGolden:
    @pytest.mark.parametrize("layout", ["random", "identity", "reversed"])
    @pytest.mark.parametrize("n", [2, 3, 7, 30, 100])
    @pytest.mark.parametrize("score", ["lr", "pearson"])
    def test_values_bit_identical(self, score, n, layout):
        x, y = golden_layout(n, layout)
        got = [v.hex() for v in adp_sum_all_m(x, y, score).values]
        assert got == golden_sweep()["adp_sum_all_m"][score][str(n)][layout]


class TestPointAnchoredSum:
    def test_small_m2_matches_enumeration(self):
        x, y = rank_pair([1, 2, 3, 4, 5], [2, 5, 3, 1, 4])
        for score in ("pearson", "lr"):
            s_ref, _ = oracle_ddp(x, y, score, 2)
            got = ddp_sum_all_m(x, y, score, m_max=2).value(2)
            assert got == pytest.approx(s_ref, rel=1e-10)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            n = int(rng.integers(4, 9))
            x, y = rank_pair(*random_rank_pair(rng, n))
            for score in ("pearson", "lr"):
                mm = min(5, n)
                stats = ddp_sum_all_m(x, y, score, m_max=mm)
                for m in range(2, mm + 1):
                    s_ref, _ = oracle_ddp(x, y, score, m)
                    assert stats.value(m) == pytest.approx(s_ref, rel=1e-10, abs=1e-12)

    def test_symmetry_in_axes(self):
        rng = np.random.default_rng(8)
        xr, yr = rng.permutation(8) + 1, rng.permutation(8) + 1
        x, y = rank_pair(xr, yr)
        a = ddp_sum_all_m(x, y, "pearson", m_max=4).values
        b = ddp_sum_all_m(y, x, "pearson", m_max=4).values
        assert np.allclose(a, b, rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_partition_totals_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        x, y = rank_pair(*random_rank_pair(rng, n))
        m = int(rng.integers(2, min(5, n) + 1))
        for score in ("pearson", "lr"):
            s_ref, m_ref = oracle_ddp(x, y, score, m)
            assert m_ref >= -1e-12
            assert s_ref >= -1e-12


class TestPointSweepGolden:
    @pytest.mark.parametrize("layout", ["random", "identity", "reversed"])
    @pytest.mark.parametrize("n", [2, 3, 7, 30, 60])
    @pytest.mark.parametrize("score", ["lr", "pearson"])
    def test_values_bit_identical(self, score, n, layout):
        x, y = golden_layout(n, layout)
        got = [v.hex() for v in ddp_sum_all_m(x, y, score).values]
        assert got == golden_sweep()["ddp_sum_all_m"][score][str(n)][layout]


# The grid and point sums (both scores), both MI estimators with the
# Miller-Madow correction, and both max statistics, as hex.  The max
# statistics run on an N=59 block layout (the first 14 x ranks hold y ranks
# below 26) whose best 2x2 LR score, taken with numpy's log, changed its last
# bits without AVX-512.
SAME_BITS_SCRIPT = """
import numpy as np, partitest as pt
x, y = np.arange(1, 121), np.random.default_rng(120).permutation(120) + 1
xs = pt.RankedSample(np.arange(1, 61), 60, 0)
ys = pt.RankedSample(np.random.default_rng(60).permutation(60) + 1, 60, 0)
rng = np.random.default_rng(59 * 1000 + 14 * 7 + 25)
low = rng.permutation(np.arange(1, 26))
xb, yb = np.arange(1, 60), np.empty(59, dtype=np.int64)
yb[:14] = low[:14]
yb[14:] = rng.permutation(np.concatenate((low[14:], np.arange(26, 60))))
values = [
    *(v for score in ("lr", "pearson") for v in pt.adp_sum_all_m(x, y, score).values),
    *(v for score in ("lr", "pearson") for v in pt.ddp_sum_all_m(xs, ys, score).values),
    *(mi(xs, ys, m, True).value for mi in (pt.mi_adp, pt.mi_ddp) for m in (2, 5)),
    *(pt.adp_max_2x2(xb, yb, score) for score in ("lr", "pearson")),
    *(pt.ddp_max(xb, yb, score, m) for score in ("lr", "pearson") for m in (2, 3)),
]
print(" ".join(v.hex() for v in values))
"""

CPU_ENVIRONMENTS = {
    "blas-threads-1": {"OPENBLAS_NUM_THREADS": "1"},
    "blas-threads-2": {"OPENBLAS_NUM_THREADS": "2"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


@lru_cache(maxsize=None)
def same_bits_here():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(SAME_BITS_SCRIPT, {})
    return out.getvalue()


class TestSameBitsOnEveryCpu:
    @pytest.mark.parametrize("name", list(CPU_ENVIRONMENTS))
    def test_sums_and_mi_match_this_process(self, name):
        src = str(Path(adp_sum_all_m.__code__.co_filename).parents[1])
        env = dict(os.environ, **CPU_ENVIRONMENTS[name])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", SAME_BITS_SCRIPT], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        assert len(run.stdout.split()) == 2 * 9 + 2 * 6 + 4 + 2 + 4
        assert run.stdout == same_bits_here()


LAYOUTS = ["random", "identity", "reversed"]
SWEEP_SIZES = [*range(2, 14), 30]
GRID_TABLE_CASES = [
    *((n, layout, ne) for n in SWEEP_SIZES for layout in LAYOUTS for ne in (False, True)),
    (100, "random", True),
]
POINT_TABLE_CASES = [
    *(
        (n, layout, score, nonempty)
        for n in SWEEP_SIZES
        for layout in LAYOUTS
        for score in ScoreKind
        for nonempty in (False, True)
    ),
    (41, "random", ScoreKind.LIKELIHOOD_RATIO, True),
]

# The point tables again with the chunk budget at its two extremes.
CHUNK_BUDGET_CASES = [
    *POINT_TABLE_CASES,
    (64, "random", ScoreKind.LIKELIHOOD_RATIO, True),
    (100, "random", ScoreKind.PEARSON, False),
]


@lru_cache(maxsize=None)
def point_reference(n, layout, score, nonempty):
    _, yx = golden_layout(n, layout)
    return yx, reference_point_cell_tables(yx, score, nonempty)


def assert_same_tables(got, ref):
    for table, want in zip(got, ref, strict=True):
        assert (table is None) == (want is None)
        if want is not None:
            assert table.tobytes() == want.tobytes()


def traced_peak(fn) -> int:
    """Peak bytes ``fn()`` allocates above what was held before it ran."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestSweepTables:
    """The vectorised sweeps against their per-span loops, byte for byte."""

    @pytest.mark.parametrize("n,layout,nonempty", GRID_TABLE_CASES)
    def test_grid_lr_tables(self, n, layout, nonempty):
        _, yx = golden_layout(n, layout)
        a = _count_grid(yx).a
        p_ref, z_ref = reference_grid_lr_sweep(a, n, nonempty)
        assert GridCells._lr_sweep(a, n).tobytes() == p_ref.tobytes()
        if nonempty:
            assert GridCells._nonempty_counts(yx, a, n).tobytes() == z_ref.tobytes()

    @pytest.mark.parametrize("n,layout,score,nonempty", POINT_TABLE_CASES)
    def test_point_tables(self, n, layout, score, nonempty):
        yx, ref = point_reference(n, layout, score, nonempty)
        assert_same_tables(_point_cell_tables(yx, score, nonempty), ref)

    @pytest.mark.parametrize("budget", [1, 1 << 40], ids=["extent-chunks", "row-cap-chunks"])
    @pytest.mark.parametrize("n,layout,score,nonempty", CHUNK_BUDGET_CASES)
    def test_point_tables_at_chunk_extremes(self, monkeypatch, budget, n, layout, score, nonempty):
        # Budget 1: every extent is its own chunk.  Budget 2^40: a chunk is
        # as many of one rl's extents as the row cap allows.
        yx, ref = point_reference(n, layout, score, nonempty)
        monkeypatch.setattr(independence, "_POINT_CHUNK_CELLS", budget)
        assert_same_tables(_point_cell_tables(yx, score, nonempty), ref)

    def test_point_key_fields_fit_int64(self):
        n = 10**4
        rows, count_shift, bucket_shift = _point_key_fields(n)
        count_bits = bucket_shift - count_shift
        nbuck = 5 * (n + 1)
        # The count field is just wide enough for o <= N, and the length and
        # bucket fields hold a chunk of `rows` extents.
        assert 2 ** (count_bits - 1) <= n < 2**count_bits
        assert rows * (n + 1) <= 2**count_shift
        assert (rows * nbuck - 1) < 2 ** (62 - bucket_shift)
        # The cap binds at this N, and twice the rows would not fit.
        assert 1 <= rows < n
        wider = (2 * rows * (n + 1) - 1).bit_length() + count_bits
        assert wider + (2 * rows * nbuck - 1).bit_length() > 62
        # Extreme parts survive packing, subtraction and unpacking in int64:
        # the hi bucket part of the last row of a chunk, the most negative lo
        # bucket part, and the largest difference of every field.
        lo_parts = [(-(4 * n + 3), 0, 0), (-(4 * n + 3), n, n + 1), (0, n, n + 1)]
        diffs = [(rows * nbuck - 1, n, rows * (n + 1) - 1), (0, 0, 0), (rows * nbuck - 1, 0, 0)]
        lo, hi = [], []
        for (lb, lc, ll), (db, dc, dl) in zip(lo_parts, diffs):
            lo.append((lb << bucket_shift) + (lc << count_shift) + ll)
            hi.append(((lb + db) << bucket_shift) + ((lc + dc) << count_shift) + ll + dl)
        assert all(-(2**63) <= k < 2**63 for k in lo + hi)
        cell = np.array(hi, dtype=np.int64) - np.array(lo, dtype=np.int64)
        assert (cell >> bucket_shift).tolist() == [d[0] for d in diffs]
        assert ((cell >> count_shift) & (2**count_bits - 1)).tolist() == [d[1] for d in diffs]
        assert (cell & (2**count_shift - 1)).tolist() == [d[2] for d in diffs]

    def test_point_sweep_memory_bound(self):
        # One N=150 sweep's allocations peak at 2.7 MB with per-extent
        # scoring; chunk scoring may add chunk buffers, up to 4 MB in all,
        # counting the per-N caches the sweep may fill.
        _, yx = golden_layout(150, "random")
        peak = traced_peak(lambda: _point_cell_tables(yx, ScoreKind.LIKELIHOOD_RATIO, True))
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MB"

    def test_point_sweep_keeps_one_pair_triangle(self):
        _pair_index_cache.cache_clear()
        for n in (20, 30):
            x, y = golden_layout(n, "random")
            ddp_sum_all_m(x, y, "lr")
        assert _pair_index_cache.cache_info().currsize == 2


class TestInvalidCellRule:
    def test_boundary_interior_point_blocks_cell(self):
        # x-ranks 1..4 with y = (1, 3, 2, 4): the box [1,3] x [1,3] has the
        # rank-3 point (3, 2) on its right boundary away from the corners, so
        # no point-anchored partition of any size may use it as a cell.
        xr = np.array([1, 2, 3, 4])
        yr = np.array([1, 3, 2, 4])
        n = 4
        blocked = (1, 3, 1, 3)
        seen = set()
        for m in range(2, n + 1):
            for pts in combinations(range(n), m - 1):
                sel = list(pts)
                bx = [0] + sorted(int(r) for r in xr[sel]) + [n + 1]
                by = [0] + sorted(int(s) for s in yr[sel]) + [n + 1]
                for i in range(m):
                    for j in range(m):
                        seen.add((bx[i], bx[i + 1], by[j], by[j + 1]))
        assert blocked not in seen
        # moving the offending point onto the corner makes the cell reachable
        yr2 = np.array([1, 2, 3, 4])
        seen2 = set()
        for m in range(2, n + 1):
            for pts in combinations(range(n), m - 1):
                sel = list(pts)
                bx = [0] + sorted(int(r) for r in xr[sel]) + [n + 1]
                by = [0] + sorted(int(s) for s in yr2[sel]) + [n + 1]
                for i in range(m):
                    for j in range(m):
                        seen2.add((bx[i], bx[i + 1], by[j], by[j + 1]))
        assert blocked in seen2


class TestMaxStatistics:
    def test_ddp_max_matches_oracle_all_small_m(self):
        rng = np.random.default_rng(9)
        for n in (5, 7, 10):
            x, y = rank_pair(*random_rank_pair(rng, n))
            for score in ("pearson", "lr"):
                for m in (2, 3, 4):
                    _, m_ref = oracle_ddp(x, y, score, m)
                    assert ddp_max(x, y, score, m) == pytest.approx(m_ref, rel=1e-12, abs=1e-12)

    def test_monotone_data_m2(self):
        x, y = rank_pair(*(np.arange(1, 7),) * 2)
        _, m_ref = oracle_ddp(x, y, "lr", 2)
        assert ddp_max(x, y, "lr", 2) == pytest.approx(m_ref, rel=1e-12)

    def test_exponential_regime_rejected(self):
        x, y = rank_pair(*(np.arange(1, 9),) * 2)
        with pytest.raises(ValueError, match="exponential regime"):
            ddp_max(x, y, "lr", 5)

    def test_adp_max_2x2_matches_oracle(self):
        rng = np.random.default_rng(10)
        for n in (3, 8):
            x, y = rank_pair(*random_rank_pair(rng, n))
            for score in ("pearson", "lr"):
                _, m_ref = oracle_adp(x, y, score, 2)
                assert adp_max_2x2(x, y, score) == pytest.approx(m_ref, rel=1e-12)

    @pytest.mark.parametrize("score", ["lr", "pearson"])
    def test_values_bit_identical(self, score):
        golden = golden_sweep()
        for n in (4, 8, 13):
            for m in (2, 3, 4):
                got = ddp_max(*golden_shuffled_pair(n), score, m).hex()
                assert got == golden["ddp_max"][f"{score},n={n},m={m}"]
        for n in (2, 3, 7, 30):
            got = adp_max_2x2(*golden_shuffled_pair(n), score).hex()
            assert got == golden["adp_max_2x2"][f"{score},n={n}"]

    def test_adp_max_single_partition_n2(self):
        # anti-diagonal pair: counts (0,1,1,0) against expected 0.5 each
        x, y = rank_pair([2, 1], [1, 2])
        expected = 4 * (1.0 - 0.5) ** 2 / 0.5
        assert adp_max_2x2(x, y, "pearson") == pytest.approx(expected, rel=1e-12)


class TestSizeLimits:
    """Each documented exactness limit is refused before the count grid is allocated."""

    @staticmethod
    def refuse(sum_all_m, n, score, match):
        x = np.arange(1, n + 1)
        y = x[::-1].copy()

        def call():
            with pytest.raises(ValueError, match=match):
                sum_all_m(x, y, score)

        return traced_peak(call)

    def test_pearson_grid_sums_stop_at_6800(self):
        # The count grid alone would be 370 MB, and the sweep O(N^4).
        peak = self.refuse(adp_sum_all_m, 6801, "pearson", r"N <= 6800, got N=6801")
        assert peak <= 2**20, f"peak {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("score", ["lr", "pearson"])
    def test_point_sums_stop_below_2_pow_19(self, score):
        # The count grid alone would be 2 TiB; the checked inputs take 16 MB.
        peak = self.refuse(ddp_sum_all_m, 2**19, score, r"N < 2\^19, got N=524288")
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.2f} MB"


class TestCellTerms:
    """The max statistics' cell rule against ``core.cell_score``, every small cell."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_cell_score(self, n):
        # Every count a width x length cell of N ranks can hold, zero areas included.
        cells = [
            (o, w, l) for w in range(n + 1) for l in range(n + 1) for o in range(min(w, l) + 1)
        ]
        o, w, l = (np.array(side) for side in zip(*cells))
        for div in {n, *(n - m + 1 for m in range(2, n + 1))}:
            pearson = [cell_score(c, a * b / div, "pearson") for c, a, b in cells]
            assert _cell_terms(o, w, l, n, div, ScoreKind.PEARSON).tolist() == pearson
            ref = np.array([cell_score(c, a * b / div, "lr") for c, a, b in cells])
            err = np.abs(_cell_terms(o, w, l, n, div, ScoreKind.LIKELIHOOD_RATIO) - ref)
            assert err.max() <= 1e-13
            big = np.abs(ref) > 1e-6
            assert (err[big] / np.abs(ref[big])).max() <= 1e-13


class TestPenalizedGridSum:
    def test_uniform_prior_reduction(self):
        rng = np.random.default_rng(11)
        x, y = rank_pair(*random_rank_pair(rng, 8))
        stats = adp_sum_all_m(x, y, "lr", m_max=4)
        binom = binomial_table(8)
        norm = [stats.value(m) / binom.choose(7, m - 1) ** 2 for m in (2, 3, 4)]
        got = penalized_adp_sum(stats, PriorSpec.uniform(5))
        assert got == pytest.approx(max(norm) - math.log(5), rel=1e-12)

    def test_terms_match_oracle_means(self):
        rng = np.random.default_rng(12)
        x, y = rank_pair(*random_rank_pair(rng, 8))
        stats = adp_sum_all_m(x, y, "lr", m_max=3)
        for m in (2, 3):
            s_ref, _ = oracle_adp(x, y, "lr", m)
            mean = s_ref / math.comb(7, m - 1) ** 2
            norm = stats.value(m) / binomial_table(8).choose(7, m - 1) ** 2
            assert norm == pytest.approx(mean, rel=1e-10)

    def test_single_term(self):
        rng = np.random.default_rng(13)
        x, y = rank_pair(*random_rank_pair(rng, 6))
        stats = adp_sum_all_m(x, y, "lr", m_max=2)
        prior = PriorSpec.poisson_sqrt_n()
        expected = stats.value(2) / binomial_table(6).choose(5, 1) ** 2 + float(
            prior.log_prior_m(np.array([2]), 6)[0]
        )
        assert penalized_adp_sum(stats, prior) == pytest.approx(expected, rel=1e-12)

    def test_family_and_prior_validation(self):
        rng = np.random.default_rng(14)
        x, y = rank_pair(*random_rank_pair(rng, 6))
        ddp_stats = ddp_sum_all_m(x, y, "lr", m_max=3)
        with pytest.raises(ValueError):
            penalized_adp_sum(ddp_stats, PriorSpec.uniform(1))
        adp_stats = adp_sum_all_m(x, y, "lr", m_max=3)
        with pytest.raises(ValueError):
            penalized_adp_sum(adp_stats, PriorSpec.ds(1.0))


class TestPairwiseClassification:
    def test_minimal_n3(self):
        xv = np.array([0.0, 1.0, 2.5])
        yv = np.array([1.0, -1.0, 0.5])
        assert hhg_univariate(xv, yv) == pytest.approx(oracle_hhg(xv, yv), rel=1e-12)

    def test_random_no_ties(self):
        rng = np.random.default_rng(15)
        for n in (10, 25, 50):
            xv, yv = rng.normal(size=n), rng.normal(size=n)
            assert hhg_univariate(xv, yv) == pytest.approx(oracle_hhg(xv, yv), rel=1e-9)

    def test_with_ties(self):
        rng = np.random.default_rng(16)
        for n in (12, 30):
            xv = rng.integers(0, 5, size=n).astype(float)
            yv = rng.integers(0, 5, size=n).astype(float)
            assert hhg_univariate(xv, yv) == pytest.approx(oracle_hhg(xv, yv), rel=1e-9)

    def test_rank_variant_shares_implementation(self):
        rng = np.random.default_rng(17)
        xv, yv = rng.normal(size=20), rng.normal(size=20)
        x = rank_with_random_ties(xv, 0)
        y = rank_with_random_ties(yv, 0)
        direct = hhg_univariate(x.ranks.astype(float), y.ranks.astype(float))
        assert hhg_univariate(x, y) == pytest.approx(direct, rel=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            hhg_univariate(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_axis_swap_symmetry(self):
        rng = np.random.default_rng(18)
        xv, yv = rng.normal(size=15), rng.normal(size=15)
        assert hhg_univariate(xv, yv) == pytest.approx(hhg_univariate(yv, xv), rel=1e-9)

    @pytest.mark.parametrize("n", [3, 30, 150])
    @pytest.mark.parametrize("kind", ["untied", "tied", "ranks"])
    def test_values_bit_identical(self, kind, n):
        got = hhg_univariate(*golden_hhg_pair(n, kind)).hex()
        assert got == golden_sweep()["hhg_univariate"][f"{kind},n={n}"]


class TestMonotoneInvariance:
    def test_statistics_depend_only_on_ranks(self):
        rng = np.random.default_rng(19)
        xv, yv = rng.normal(size=9), rng.normal(size=9)
        x1 = rank_with_random_ties(xv, 0)
        y1 = rank_with_random_ties(yv, 0)
        x2 = rank_with_random_ties(np.tanh(xv), 0)
        y2 = rank_with_random_ties(yv**3, 0)
        a = adp_sum_all_m(x1, y1, "lr", 3).values
        b = adp_sum_all_m(x2, y2, "lr", 3).values
        assert a.tolist() == b.tolist()
        c = ddp_sum_all_m(x1, y1, "pearson", 3).values
        d = ddp_sum_all_m(x2, y2, "pearson", 3).values
        assert c.tolist() == d.tolist()
