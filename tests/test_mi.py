import math
from itertools import combinations

import numpy as np
import pytest

from partitest import (
    GroupedSample,
    RankedSample,
    mi_adp,
    mi_ddp,
    mi_histogram,
    mi_ksample,
    miller_madow,
    rank_with_random_ties,
)
from partitest.oracle import PartitionEnumeration, oracle_ddp, oracle_ksample

from helpers import golden_sweep, random_grouped_labels, random_rank_pair


def rank_pair(xr, yr):
    xr = np.asarray(xr)
    yr = np.asarray(yr)
    return RankedSample(xr, xr.size, 0), RankedSample(yr, yr.size, 0)


def grid_partition_cells(xr, yr, cuts_x, cuts_y, n):
    """Counts and margins of one grid partition (half-open rank blocks)."""
    bx = (0,) + tuple(cuts_x) + (n,)
    by = (0,) + tuple(cuts_y) + (n,)
    m = len(cuts_x) + 1
    counts = np.zeros((m, m))
    for px, py in zip(xr, yr):
        i = next(t for t in range(m) if bx[t] < px <= bx[t + 1])
        j = next(t for t in range(m) if by[t] < py <= by[t + 1])
        counts[i, j] += 1
    widths = np.diff(np.asarray(bx))
    lengths = np.diff(np.asarray(by))
    return counts, widths, lengths


def entropy(p):
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


class TestMillerMadowOp:
    def test_all_counts_one_is_identity(self):
        assert miller_madow(0.42, 1, 1, 1, 50) == pytest.approx(0.42)

    def test_saturated_table(self):
        # m^2 joint cells and m-cell margins all occupied
        m, n = 5, 40
        got = miller_madow(1.0, m * m, m, m, n)
        assert got == pytest.approx(1.0 - (m - 1) ** 2 / (2 * n))

    def test_counts_below_one_rejected(self):
        with pytest.raises(ValueError):
            miller_madow(0.1, 0, 1, 1, 10)


class TestGridEstimator:
    def test_small_case_equals_entropy_decomposition_average(self):
        # independent oracle: per-partition MI from explicit entropies
        rng = np.random.default_rng(1)
        n, m = 6, 2
        xr, yr = random_rank_pair(rng, n)
        x, y = rank_pair(xr, yr)
        vals = []
        for cx in combinations(range(1, n), m - 1):
            for cy in combinations(range(1, n), m - 1):
                counts, widths, lengths = grid_partition_cells(xr, yr, cx, cy, n)
                h_joint = entropy(counts.ravel() / n)
                h_x = entropy(widths / n)
                h_y = entropy(lengths / n)
                vals.append(h_x + h_y - h_joint)
        assert mi_adp(x, y, m).value == pytest.approx(np.mean(vals), rel=1e-10, abs=1e-12)

    def test_correction_equals_per_partition_average(self):
        rng = np.random.default_rng(2)
        n, m = 7, 3
        xr, yr = random_rank_pair(rng, n)
        x, y = rank_pair(xr, yr)
        vals = []
        for cx in combinations(range(1, n), m - 1):
            for cy in combinations(range(1, n), m - 1):
                counts, widths, lengths = grid_partition_cells(xr, yr, cx, cy, n)
                plug = entropy(widths / n) + entropy(lengths / n) - entropy(counts.ravel() / n)
                vals.append(miller_madow(plug, int((counts > 0).sum()), m, m, n))
        got = mi_adp(x, y, m, miller_madow=True)
        assert got.miller_madow_applied
        assert got.value == pytest.approx(np.mean(vals), rel=1e-10, abs=1e-12)

    def test_m_out_of_range(self):
        x, y = rank_pair([1, 2, 3], [3, 2, 1])
        with pytest.raises(ValueError):
            mi_adp(x, y, 4)
        with pytest.raises(ValueError):
            mi_adp(x, y, 1)

    def test_near_zero_for_shuffled_y(self):
        rng = np.random.default_rng(3)
        n, m = 100, 3
        x = RankedSample(np.arange(1, n + 1), n, 0)
        vals = [
            mi_adp(x, RankedSample(rng.permutation(n) + 1, n, 0), m, miller_madow=True).value
            for _ in range(20)
        ]
        assert abs(np.mean(vals)) < 3.0 * np.std(vals)

    def test_uncorrected_estimates_biased_upward(self):
        rng = np.random.default_rng(4)
        n, m = 40, 4
        x = RankedSample(np.arange(1, n + 1), n, 0)
        vals = [
            mi_adp(x, RankedSample(rng.permutation(n) + 1, n, 0), m).value for _ in range(10)
        ]
        assert np.mean(vals) > 0

    @pytest.mark.parametrize("miller_madow", [False, True])
    @pytest.mark.parametrize("m", [2, 5])
    def test_bit_identical_to_recorded_values(self, m, miller_madow):
        x, y = rank_pair(np.arange(1, 61), np.random.default_rng(60).permutation(60) + 1)
        got = mi_adp(x, y, m, miller_madow).value.hex()
        assert got == golden_sweep()["mi_adp_n60"][f"m={m},miller_madow={miller_madow}"]


class TestPointAnchoredEstimator:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_nonempty_strips_closed_form(self, n):
        # Cut ranks are any m-1 of 1..N; a strip is nonempty when it holds a rank.
        for m in range(2, n + 1):
            total = 0
            for cuts in PartitionEnumeration.enumerate("ddp", n, m).partitions:
                bounds = (0,) + tuple(c + 1 for c in cuts) + (n + 1,)
                total += sum(hi - lo > 1 for lo, hi in zip(bounds, bounds[1:]))
            assert total == m * math.comb(n - 1, m - 1)

    @pytest.mark.parametrize("miller_madow", [False, True])
    @pytest.mark.parametrize("m", [2, 5])
    def test_matches_recorded_values(self, m, miller_madow):
        x, y = rank_pair(np.arange(1, 61), np.random.default_rng(60).permutation(60) + 1)
        got = mi_ddp(x, y, m, miller_madow).value.hex()
        assert got == golden_sweep()["mi_ddp_n60"][f"m={m},miller_madow={miller_madow}"]

    def test_small_case_equals_oracle_normalization(self):
        rng = np.random.default_rng(5)
        n, m = 6, 2
        x, y = rank_pair(*random_rank_pair(rng, n))
        s_ref, _ = oracle_ddp(x, y, "lr", m)
        expected = s_ref / ((n - m + 1) * math.comb(n, m - 1))
        assert mi_ddp(x, y, m).value == pytest.approx(expected, rel=1e-10)

    def test_correction_equals_per_partition_average(self):
        rng = np.random.default_rng(6)
        n, m = 7, 3
        xr, yr = random_rank_pair(rng, n)
        x, y = rank_pair(xr, yr)
        n_eff = n - m + 1
        vals = []
        for pts in combinations(range(n), m - 1):
            sel = list(pts)
            bx = (0,) + tuple(sorted(int(r) for r in xr[sel])) + (n + 1,)
            by = (0,) + tuple(sorted(int(s) for s in yr[sel])) + (n + 1,)
            counts = np.zeros((m, m))
            for px, py in zip(xr, yr):
                ix = [t for t in range(m) if bx[t] < px < bx[t + 1]]
                iy = [t for t in range(m) if by[t] < py < by[t + 1]]
                if ix and iy:
                    counts[ix[0], iy[0]] += 1
            widths = np.array([bx[t + 1] - bx[t] - 1 for t in range(m)], dtype=float)
            lengths = np.array([by[t + 1] - by[t] - 1 for t in range(m)], dtype=float)
            plug = 0.0
            for i in range(m):
                for j in range(m):
                    o = counts[i, j]
                    if o > 0:
                        e = widths[i] * lengths[j] / n_eff
                        plug += (o / n_eff) * math.log(o / e)
            vals.append(
                miller_madow(
                    plug,
                    int((counts > 0).sum()),
                    int((widths >= 1).sum()),
                    int((lengths >= 1).sum()),
                    n_eff,
                )
            )
        got = mi_ddp(x, y, m, miller_madow=True)
        assert got.value == pytest.approx(np.mean(vals), rel=1e-10, abs=1e-12)

    def test_rank_only_dependence(self):
        rng = np.random.default_rng(7)
        xv, yv = rng.normal(size=12), rng.normal(size=12)
        a = mi_ddp(rank_with_random_ties(xv, 0), rank_with_random_ties(yv, 0), 3).value
        b = mi_ddp(
            rank_with_random_ties(2 * xv - 5, 0), rank_with_random_ties(np.expm1(yv), 0), 3
        ).value
        assert a == b


class TestHistogramEstimator:
    def test_independent_checkerboard_is_zero(self):
        x, y = rank_pair([1, 2, 3, 4], [3, 1, 4, 2])
        assert mi_histogram(x, y, 2).value == pytest.approx(0.0, abs=1e-14)

    def test_hand_case(self):
        # counts [[2,0],[0,2]]: MI = log 2
        x, y = rank_pair([1, 2, 3, 4], [1, 2, 3, 4])
        assert mi_histogram(x, y, 2).value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_correction_direction(self):
        x, y = rank_pair([1, 2, 3, 4], [1, 2, 3, 4])
        plain = mi_histogram(x, y, 2).value
        corrected = mi_histogram(x, y, 2, miller_madow=True).value
        # J=2, Rx=Ry=2: adjustment (1 + 1 - 1)/(2*4)
        assert corrected == pytest.approx(plain + 1.0 / 8.0, rel=1e-12)

    def test_uneven_bin_sizes(self):
        x, y = rank_pair([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        est = mi_histogram(x, y, 2)
        assert np.isfinite(est.value)
        assert est.value > 0


class TestKSampleEstimator:
    def test_matches_oracle_normalization(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(4, 11))
            labels = random_grouped_labels(rng, n, 2)
            gs = GroupedSample.from_values(labels, rng.normal(size=n), 0)
            m = int(rng.integers(2, n + 1))
            s_ref, _ = oracle_ksample(gs, "lr", m)
            expected = s_ref / (n * math.comb(n - 1, m - 1))
            assert mi_ksample(gs, m).value == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_m_validation(self):
        gs = GroupedSample.from_values([1, 2, 1, 2], [0.1, 0.4, 0.2, 0.3], 0)
        with pytest.raises(ValueError):
            mi_ksample(gs, 5)
