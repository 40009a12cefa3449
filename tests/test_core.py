import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partitest import (
    GroupedSample,
    RankedSample,
    ScoreKind,
    binomial_table,
    cell_score,
    cumulative_count_grid,
    ksample_cell_score,
    rank_with_random_ties,
)
from partitest.core import _correctly_rounded_sums, chunk_map, y_by_x


class TestRanking:
    def test_no_ties_order_determined(self):
        assert rank_with_random_ties([3.1, 2.0, 5.5], 17).ranks.tolist() == [2, 1, 3]

    def test_sorted_distinct_is_identity(self):
        values = np.linspace(-2.0, 3.0, 11)
        assert rank_with_random_ties(values, 99).ranks.tolist() == list(range(1, 12))

    def test_tie_breaking_is_deterministic(self):
        values = [1.0, 1.0, 0.5, 1.0]
        a = rank_with_random_ties(values, 5)
        b = rank_with_random_ties(values, 5)
        assert a.ranks.tolist() == b.ranks.tolist()

    def test_tie_breaking_depends_on_seed(self):
        values = [1.0] * 20
        seen = {tuple(rank_with_random_ties(values, s).ranks.tolist()) for s in range(8)}
        assert len(seen) > 1

    def test_result_is_permutation_under_heavy_ties(self):
        values = [2.0, 2.0, 2.0, 1.0, 1.0]
        ranks = rank_with_random_ties(values, 3).ranks
        assert sorted(ranks.tolist()) == [1, 2, 3, 4, 5]
        # the two smallest values get the two smallest ranks
        assert set(ranks[3:].tolist()) == {1, 2}

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            rank_with_random_ties([], 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rank_with_random_ties([1.0, math.nan], 0)

    def test_ranked_sample_validates_permutation(self):
        with pytest.raises(ValueError):
            RankedSample(np.array([1, 1, 3]), 3, 0)
        with pytest.raises(ValueError):
            RankedSample(np.array([0, 1, 2]), 3, 0)


class TestGroupedSample:
    def test_from_values_codes_labels(self):
        gs = GroupedSample.from_values([7, 3, 7, 3, 9], [0.1, 0.5, 0.3, 0.2, 0.9], 0)
        assert gs.k == 3
        assert gs.group_sizes == (2, 2, 1)
        assert gs.n == 5

    def test_labels_by_rank(self):
        # values sorted: 0.1(label 1), 0.2(2), 0.3(1), 0.5(2)
        gs = GroupedSample.from_values([1, 2, 1, 2], [0.1, 0.5, 0.3, 0.2], 0)
        assert gs.labels_by_rank.tolist() == [1, 2, 1, 2]

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            GroupedSample.from_values([1, 1, 1], [0.1, 0.2, 0.3], 0)

    def test_size_mismatch_rejected(self):
        ranked = rank_with_random_ties([0.4, 0.2, 0.6], 0)
        with pytest.raises(ValueError):
            GroupedSample(labels=np.array([1, 2, 2]), y_ranks=ranked, group_sizes=(2, 1))


class TestCellScore:
    def test_pearson_direct(self):
        assert cell_score(3, 1.5, "pearson") == pytest.approx(1.5)

    def test_lr_zero_count_convention(self):
        assert cell_score(0, 2.0, "lr") == 0.0

    def test_perfect_fit(self):
        assert cell_score(4, 4.0, "pearson") == 0.0
        assert cell_score(4, 4.0, "lr") == 0.0

    def test_empty_cell_convention(self):
        assert cell_score(0, 0.0, "pearson") == 0.0
        assert cell_score(0, 0.0, "lr") == 0.0

    def test_impossible_cell(self):
        with pytest.raises(ValueError, match="impossible cell"):
            cell_score(1, 0.0, "pearson")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cell_score(-1, 1.0, "lr")

    def test_score_kind_parsing(self):
        assert ScoreKind.parse("likelihood-ratio") is ScoreKind.LIKELIHOOD_RATIO
        assert ScoreKind.parse(ScoreKind.PEARSON) is ScoreKind.PEARSON
        with pytest.raises(ValueError):
            ScoreKind.parse("banana")


class TestKSampleCellScore:
    def test_pearson_two_groups(self):
        assert ksample_cell_score([2, 0], [1.0, 1.0], "pearson") == pytest.approx(2.0)

    def test_zero_for_perfect_fit(self):
        assert ksample_cell_score([1, 1], [1.0, 1.0], "pearson") == 0.0
        assert ksample_cell_score([1, 1], [1.0, 1.0], "lr") == 0.0

    def test_lr_three_groups(self):
        assert ksample_cell_score([3, 0, 0], [1.0, 1.0, 1.0], "lr") == pytest.approx(
            3 * math.log(3.0)
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ksample_cell_score([1, 2], [1.0], "lr")


class TestBinomialTable:
    def test_small_values(self):
        t = binomial_table(8)
        assert t.choose(4, 2) == 6.0
        assert t.choose(7, 0) == 1.0
        assert t.choose(5, 6) == 0.0

    def test_negative_arguments_are_zero(self):
        t = binomial_table(8)
        assert t.choose(-1, 0) == 0.0
        assert t.choose(3, -1) == 0.0

    def test_array_form(self):
        t = binomial_table(10)
        out = t.choose(np.array([5, 5, -2]), np.array([2, 7, 0]))
        assert out.tolist() == [10.0, 0.0, 0.0]

    def test_oversized_argument_rejected(self):
        with pytest.raises(ValueError):
            binomial_table(4).choose(5, 1)

    def test_exact_up_to_double_precision_boundary(self):
        t = binomial_table(55)
        for u in range(56):
            for v in range(u + 1):
                assert t.choose(u, v) == float(math.comb(u, v))

    def test_relative_error_beyond_exact_range(self):
        t = binomial_table(200)
        for u, v in [(120, 60), (199, 77), (200, 100), (150, 3)]:
            exact = math.comb(u, v)
            assert abs(t.choose(u, v) - exact) <= 1e-12 * exact


class TestYByX:
    def test_y_rank_at_each_x_rank(self):
        rng = np.random.default_rng(1)
        x, y = rng.permutation(9) + 1, rng.permutation(9) + 1
        yx = y_by_x(x, y)
        assert np.array_equal(yx[x - 1], y)
        assert np.array_equal(y_by_x(RankedSample(x, 9, 0), RankedSample(y, 9, 0)), yx)

    @pytest.mark.parametrize(
        "x,y,message",
        [
            ([1, 2], [1, 2, 3], "equal length"),
            ([1, 1, 3], [1, 2, 3], "permutation"),
            ([1, 2, 3], [0, 1, 2], "1..N"),
            ([[1, 2]], [1, 2], "length"),
        ],
    )
    def test_invalid_pairs_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            y_by_x(np.array(x), np.array(y))


class TestCumulativeCountGrid:
    def test_single_point(self):
        g = cumulative_count_grid(np.array([1]), np.array([1]))
        assert g.a[1, 1] == 1
        assert g.a[0, 1] == 0
        assert g.a[1, 0] == 0

    def test_total_mass(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9):
            g = cumulative_count_grid(np.arange(1, n + 1), rng.permutation(n) + 1)
            assert g.a[n, n] == n

    def test_three_point_example(self):
        g = cumulative_count_grid(np.array([1, 2, 3]), np.array([2, 3, 1]))
        assert g.a[2, 2] == 1
        assert g.a[3, 2] == 2
        assert g.a[2, 3] == 2

    def test_box_and_inner_counts(self):
        g = cumulative_count_grid(np.array([1, 2, 3]), np.array([2, 3, 1]))
        assert g.box_count(1, 3, 1, 3) == 3
        assert g.box_count(2, 2, 3, 3) == 1
        assert g.inner_count(0, 4, 0, 4) == 3
        assert g.inner_count(1, 3, 1, 3) == 0  # only the middle; (2,3) is on the border
        assert g.box_count(3, 2, 1, 3) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cumulative_count_grid(np.array([1, 2]), np.array([1, 2, 3]))

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(1, 9))))
    def test_unit_increments(self, perm):
        n = len(perm)
        g = cumulative_count_grid(np.arange(1, n + 1), np.array(perm))
        a = g.a.astype(int)
        inc = a[1:, 1:] - a[:-1, 1:] - a[1:, :-1] + a[:-1, :-1]
        assert set(np.unique(inc)).issubset({0, 1})
        assert inc.sum() == n


class TestRefinementMonotonicity:
    """Splitting any cell with proportionally split expected mass never lowers
    the Pearson cell score, nor the likelihood-ratio partition total."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_splits(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        n = int(rng.integers(6, 14))
        k = int(rng.integers(2, 4))
        labels = rng.integers(1, k + 1, size=n)
        if np.unique(labels).size < k:
            labels[: k] = np.arange(1, k + 1)
        sizes = np.bincount(labels, minlength=k + 1)[1:]
        # one random interval cell, split at a random interior point
        lo = int(rng.integers(1, n))
        hi = int(rng.integers(lo + 1, n + 1))
        mid = int(rng.integers(lo, hi))
        frac = sizes / n

        def cell_counts(a, b):
            return np.array([(labels[a - 1 : b] == g + 1).sum() for g in range(k)])

        for kind in ("pearson", "lr"):
            whole = ksample_cell_score(cell_counts(lo, hi), (hi - lo + 1) * frac, kind)
            left = ksample_cell_score(cell_counts(lo, mid), (mid - lo + 1) * frac, kind)
            right = ksample_cell_score(cell_counts(mid + 1, hi), (hi - mid) * frac, kind)
            assert left + right >= whole - 1e-9


def assert_fsum_bits(rows):
    """Every row sum equals math.fsum of the row, bit for bit."""
    p = np.array(rows, dtype=float)
    got = _correctly_rounded_sums(p)
    assert [v.hex() for v in got.tolist()] == [math.fsum(r).hex() for r in p.tolist()]


# m * 2^e over the whole exponent range of the sums checked here
wide_terms = st.builds(
    math.ldexp, st.floats(-1.0, 1.0, allow_nan=False), st.integers(-1000, 1000)
)


@st.composite
def cancelling_rows(draw):
    """Rows whose terms, from a narrow or a wide exponent window, are partly
    cancelled by negated copies of themselves."""
    width = draw(st.integers(1, 20))
    low = draw(st.integers(-1000, 1000))
    high = draw(st.sampled_from([min(low + 3, 1000), 1000]))
    terms = st.builds(math.ldexp, st.floats(-1.0, 1.0, allow_nan=False), st.integers(low, high))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(terms, min_size=width, max_size=width))
        kept = draw(st.integers(0, width))
        rows.append(row + [-t for t in row[kept:]] + [0.0] * kept)
    return rows


@st.composite
def signed_zero_rows(draw):
    """Rows of +0.0 and -0.0 mixed with wide terms; some rows hold only zeros."""
    width = draw(st.integers(1, 16))
    zero = st.sampled_from([0.0, -0.0])
    cell = st.one_of(zero, zero, wide_terms)
    return [
        draw(st.lists(draw(st.sampled_from([zero, cell])), min_size=width, max_size=width))
        for _ in range(draw(st.integers(1, 4)))
    ]


@st.composite
def halfway_rows(draw):
    """big + half an ulp of big, with or without a tiny tail that breaks the tie."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        big = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(-960, 960)))
        big *= draw(st.sampled_from([1.0, -1.0]))
        half = math.ulp(big) / 2 * draw(st.sampled_from([1.0, -1.0]))
        tail = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.ulp(big) * 2.0**-40
        row = [big, half, tail] + [0.0] * draw(st.integers(0, 5))
        rows.append(draw(st.permutations(row)))
    width = max(len(r) for r in rows)
    return [list(r) + [0.0] * (width - len(r)) for r in rows]


class TestCorrectlyRoundedSums:
    @settings(max_examples=150, deadline=None)
    @given(cancelling_rows())
    def test_heavy_cancellation(self, rows):
        assert_fsum_bits(rows)

    @settings(max_examples=100, deadline=None)
    @given(signed_zero_rows())
    def test_signed_zeros(self, rows):
        assert_fsum_bits(rows)

    @settings(max_examples=150, deadline=None)
    @given(halfway_rows())
    def test_halfway_rows(self, rows):
        assert_fsum_bits(rows)

    def test_halfway_row_takes_fsum(self, monkeypatch):
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(xs) or fsum(xs))
        rows = [[2.0**53, 1.0], [2.0**53, 2.0]]
        got = _correctly_rounded_sums(np.array(rows))
        assert calls == [[2.0**53, 1.0]]  # an exact tie; the second row is certified
        assert got.tolist() == [2.0**53, 2.0**53 + 2.0]

    def test_overflow_is_nan(self):
        got = _correctly_rounded_sums(np.array([[1e308, 1e308], [np.inf, -np.inf], [1.0, 2.0]]))
        assert np.isnan(got[:2]).all() and got[2] == 3.0


class PickleCounter:
    """Payload that counts how often the calling process pickles it."""

    pickles = 0

    def __init__(self, payload):
        self.payload = payload

    def __reduce__(self):
        PickleCounter.pickles += 1
        return PickleCounter, (self.payload,)


def _chunk_sum(counter, start, stop):
    return start, stop, sum(counter.payload[start:stop])


class TestChunkMap:
    def test_args_pickled_at_most_once_per_worker(self):
        PickleCounter.pickles = 0
        parts = chunk_map(_chunk_sum, (PickleCounter(list(range(100))),), 100, 2)
        assert PickleCounter.pickles <= 2
        assert parts[0][0] == 0 and parts[-1][1] == 100
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        assert sum(p[2] for p in parts) == sum(range(100))
