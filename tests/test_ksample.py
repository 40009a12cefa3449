import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partitest import (
    GroupedSample,
    PriorSpec,
    binomial_table,
    ksample_max_all_m,
    ksample_sum_all_m,
    penalized_max,
    penalized_sum,
)
from partitest.core import ScoreKind, partition_count
from partitest.ksample import (
    _cell_scores,
    _max_values,
    _penalty_terms,
    _sum_values,
    penalize,
)
from partitest.oracle import oracle_ksample

from helpers import (
    golden_grouped,
    golden_sweep,
    random_grouped_labels,
    reference_cell_scores,
    reference_max_values,
)


def grouped(labels, values=None, seed=0):
    labels = np.asarray(labels)
    if values is None:
        values = np.arange(labels.size, dtype=float)
    return GroupedSample.from_values(labels, values, seed)


class TestSumStatistic:
    def test_alternating_labels_m2(self):
        # three split points; scores 4/3, 0, 4/3
        stats = ksample_sum_all_m(grouped([1, 2, 1, 2]), "pearson", m_max=2)
        assert stats.value(2) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_blocked_labels_m2(self):
        # splits: 4/3, 4, 4/3
        stats = ksample_sum_all_m(grouped([1, 1, 2, 2]), "pearson", m_max=2)
        assert stats.value(2) == pytest.approx(20.0 / 3.0, rel=1e-12)

    def test_m_equals_n_is_single_partition(self):
        gs = grouped([1, 2, 2, 1, 2])
        for score in ("pearson", "lr"):
            stats = ksample_sum_all_m(gs, score, m_max=5)
            s_ref, m_ref = oracle_ksample(gs, score, 5)
            assert stats.value(5) == pytest.approx(s_ref, rel=1e-12)
            assert s_ref == pytest.approx(m_ref, rel=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(2, 4))
            gs = grouped(random_grouped_labels(rng, n, k), rng.normal(size=n))
            for score in ("pearson", "lr"):
                stats = ksample_sum_all_m(gs, score, m_max=n)
                for m in range(2, n + 1):
                    s_ref, _ = oracle_ksample(gs, score, m)
                    assert stats.value(m) == pytest.approx(s_ref, rel=1e-10, abs=1e-12)

    def test_default_m_max(self):
        stats = ksample_sum_all_m(grouped([1, 2] * 10), "lr")
        assert stats.m_max == 10

    def test_m_max_out_of_range(self):
        with pytest.raises(ValueError):
            ksample_sum_all_m(grouped([1, 2, 1, 2]), "lr", m_max=5)
        with pytest.raises(ValueError):
            ksample_sum_all_m(grouped([1, 2, 1, 2]), "lr", m_max=1)

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_first_m(self):
        # partition counts C(N-1, m-1) leave double range near m = 380 at N = 1100
        gs = grouped([1, 2] * 550)
        with pytest.raises(ValueError, match="overflows double precision from m=382 at N=1100"):
            ksample_sum_all_m(gs, "lr")
        assert np.isfinite(ksample_sum_all_m(gs, "lr", m_max=381).values).all()


class TestMaxStatistic:
    def test_perfect_split(self):
        stats = ksample_max_all_m(grouped([1, 1, 2, 2]), "pearson", m_max=2)
        assert stats.value(2) == pytest.approx(4.0, rel=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(2, 4))
            gs = grouped(random_grouped_labels(rng, n, k), rng.normal(size=n))
            for score in ("pearson", "lr"):
                stats = ksample_max_all_m(gs, score, m_max=n)
                for m in range(2, n + 1):
                    _, m_ref = oracle_ksample(gs, score, m)
                    assert stats.value(m) == pytest.approx(m_ref, rel=1e-10, abs=1e-12)

    def test_lr_nondecreasing_in_m(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n = int(rng.integers(5, 12))
            gs = grouped(random_grouped_labels(rng, n, 2), rng.normal(size=n))
            values = ksample_max_all_m(gs, "lr", m_max=n).values
            assert np.all(np.diff(values) >= -1e-12)

    def test_max_below_sum_for_pearson(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            n = int(rng.integers(5, 12))
            gs = grouped(random_grouped_labels(rng, n, 3), rng.normal(size=n))
            s = ksample_sum_all_m(gs, "pearson", m_max=n).values
            m = ksample_max_all_m(gs, "pearson", m_max=n).values
            assert np.all(m <= s + 1e-12)


class TestInvariance:
    def test_monotone_transform_is_bit_identical(self):
        rng = np.random.default_rng(15)
        values = rng.normal(size=16)
        labels = random_grouped_labels(rng, 16, 2)
        a = GroupedSample.from_values(labels, values, 7)
        b = GroupedSample.from_values(labels, np.exp(values) + 3.0, 7)
        for score in ("pearson", "lr"):
            assert (
                ksample_sum_all_m(a, score, 8).values.tolist()
                == ksample_sum_all_m(b, score, 8).values.tolist()
            )
            assert (
                ksample_max_all_m(a, score, 8).values.tolist()
                == ksample_max_all_m(b, score, 8).values.tolist()
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sum_matches_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        gs = grouped(random_grouped_labels(rng, n, 2), rng.normal(size=n))
        m = int(rng.integers(2, n + 1))
        stats = ksample_sum_all_m(gs, "lr", m_max=n)
        s_ref, _ = oracle_ksample(gs, "lr", m)
        assert stats.value(m) == pytest.approx(s_ref, rel=1e-10, abs=1e-12)


class TestPriors:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorSpec.binomial(1.5)
        with pytest.raises(ValueError):
            PriorSpec.uniform(0)
        with pytest.raises(ValueError):
            PriorSpec.ds(-1.0)
        with pytest.raises(ValueError):
            PriorSpec(variant="nope")

    def test_poisson_log_prior_direct(self):
        n = 10
        rate = math.sqrt(n)
        prior = PriorSpec.poisson_sqrt_n()
        for m in (2, 3, 7):
            expected = math.log(math.exp(-rate) * rate**m / math.factorial(m))
            assert prior.log_prior_m(np.array([m]), n)[0] == pytest.approx(expected, rel=1e-12)

    def test_binomial_log_prior_direct(self):
        n, p = 12, 0.119
        prior = PriorSpec.binomial(p)
        for m in (2, 5):
            expected = math.log(math.comb(n - 1, m - 1) * p**m * (1 - p) ** (n - m))
            assert prior.log_prior_m(np.array([m]), n)[0] == pytest.approx(expected, rel=1e-12)


class TestPenalized:
    def _max_stats(self, n=10, seed=4, score="lr"):
        rng = np.random.default_rng(seed)
        gs = grouped(random_grouped_labels(rng, n, 2), rng.normal(size=n))
        return ksample_max_all_m(gs, score, m_max=n)

    def test_uniform_prior_is_constant_shift(self):
        stats = self._max_stats()
        n = stats.n
        binom = binomial_table(n)
        ms = stats.ms
        base = np.max(stats.values - np.log(binom.choose(n - 1, ms - 1)))
        for levels in (1, 4):
            got = penalized_max(stats, PriorSpec.uniform(levels))
            assert got == pytest.approx(base - math.log(levels), rel=1e-12)

    def test_poisson_prior_direct_evaluation(self):
        stats = self._max_stats(n=10)
        n = stats.n
        rate = math.sqrt(n)
        best = -math.inf
        for m in stats.ms:
            pi_m = math.exp(-rate) * rate ** int(m) / math.factorial(int(m))
            pi_im = 1.0 / math.comb(n - 1, int(m) - 1)
            best = max(best, stats.value(int(m)) + math.log(pi_im * pi_m))
        got = penalized_max(stats, PriorSpec.poisson_sqrt_n())
        assert got == pytest.approx(best, rel=1e-12)

    def test_ds_penalty_term(self):
        # additive term at m on N=100: -lambda0 * log(100) * (m - 1)
        lam = 1.11088
        rng = np.random.default_rng(8)
        gs = grouped(random_grouped_labels(rng, 100, 2), rng.normal(size=100))
        stats = ksample_max_all_m(gs, "lr", m_max=4)
        pen = [stats.value(m) - lam * math.log(100.0) * (m - 1) for m in (2, 3, 4)]
        assert pen[1] - stats.value(3) == pytest.approx(-lam * math.log(100.0) * 2, rel=1e-12)
        got = penalized_max(stats, PriorSpec.ds(lam))
        assert got == pytest.approx(max(pen), rel=1e-12)

    def test_penalized_sum_uniform(self):
        rng = np.random.default_rng(21)
        n = 6
        gs = grouped(random_grouped_labels(rng, n, 2), rng.normal(size=n))
        stats = ksample_sum_all_m(gs, "lr", m_max=n)
        binom = binomial_table(n)
        expected = max(
            stats.value(m) / binom.choose(n - 1, m - 1) for m in range(2, n + 1)
        ) - math.log(3)
        assert penalized_sum(stats, PriorSpec.uniform(3)) == pytest.approx(expected, rel=1e-12)

    def test_penalized_sum_matches_oracle_average(self):
        # each normalized term is the brute-force mean score over partitions
        rng = np.random.default_rng(22)
        n = 6
        gs = grouped(random_grouped_labels(rng, n, 2), rng.normal(size=n))
        stats = ksample_sum_all_m(gs, "lr", m_max=n)
        binom = binomial_table(n)
        prior = PriorSpec.poisson_sqrt_n()
        best = -math.inf
        for m in range(2, n + 1):
            s_ref, _ = oracle_ksample(gs, "lr", m)
            mean = s_ref / math.comb(n - 1, m - 1)
            assert stats.value(m) / binom.choose(n - 1, m - 1) == pytest.approx(mean, rel=1e-10)
            best = max(best, mean + prior.log_prior_m(np.array([m]), n)[0])
        assert penalized_sum(stats, prior) == pytest.approx(best, rel=1e-10)

    def test_penalized_sum_single_term(self):
        stats = ksample_sum_all_m(grouped([1, 2, 1, 2, 1, 2]), "lr", m_max=2)
        prior = PriorSpec.poisson_sqrt_n()
        expected = stats.value(2) / binomial_table(6).choose(5, 1) + prior.log_prior_m(
            np.array([2]), 6
        )[0]
        assert penalized_sum(stats, prior) == pytest.approx(expected, rel=1e-12)

    def test_kind_mismatch_rejected(self):
        sum_stats = ksample_sum_all_m(grouped([1, 2, 1, 2]), "lr", m_max=3)
        max_stats = ksample_max_all_m(grouped([1, 2, 1, 2]), "lr", m_max=3)
        with pytest.raises(ValueError):
            penalized_max(sum_stats, PriorSpec.uniform(1))
        with pytest.raises(ValueError):
            penalized_sum(max_stats, PriorSpec.uniform(1))

    def test_ds_rejected_for_sum(self):
        stats = ksample_sum_all_m(grouped([1, 2, 1, 2]), "lr", m_max=3)
        with pytest.raises(ValueError):
            penalized_sum(stats, PriorSpec.ds(1.0))

    def test_max_penalty_logs_the_partition_count_with_math_log(self):
        # log C(180, 62) is -log pi(I|m) at N=181 for m = 63 and m = 119.  numpy's
        # AVX-512 log gives 0x1.c48b6d2d34524p+6 there and its other kernels
        # and math.log give ...525p+6: math.log, not np.log, has one value on every CPU.
        _, add = _penalty_terms("max", 181, 180, PriorSpec.uniform(1))
        assert add[63 - 2].hex() == add[119 - 2].hex() == "-0x1.c48b6d2d34525p+6"

    @pytest.mark.parametrize("family", ["sum", "max", "adp_sum", "ddp_sum"])
    def test_cached_terms_give_the_direct_bits(self, family):
        # the cached penalty vectors are the expressions penalize would evaluate per call
        n, n_ms = 30, 9
        values = np.random.default_rng(23).gamma(2.0, 50.0, size=(7, n_ms))
        ms = np.arange(2, n_ms + 2)
        priors = [PriorSpec.poisson_sqrt_n(), PriorSpec.binomial(0.2), PriorSpec.uniform(6)]
        if family == "max":
            priors.append(PriorSpec.ds(0.7))
        for prior in priors:
            if prior.variant == "ds":
                direct = np.max(values + -prior.lambda0 * math.log(n) * (ms - 1), axis=-1)
            elif family == "max":
                log_counts = [math.log(c) for c in partition_count(family, n, ms)]
                add = -np.array(log_counts) + prior.log_prior_m(ms, n)
                direct = np.max(values + add, axis=-1)
            else:
                direct = np.max(
                    values / partition_count(family, n, ms) + prior.log_prior_m(ms, n), axis=-1
                )
            for _ in range(2):  # the first call fills the cache, the second reads it
                assert penalize(values, family, n, prior).tobytes() == direct.tobytes()
                assert penalize(values[0], family, n, prior).hex() == float(direct[0]).hex()
            assert not any(
                t.flags.writeable for t in _penalty_terms(family, n, n_ms, prior) if t is not None
            )


GOLDEN_ROWS = [
    (family, score, n, k, m_max)
    for family in ("sum", "max")
    for score in ("lr", "pearson")
    for n in (2, 3, 7, 50, 200)
    for k in (2, 3)
    if k <= n
    for m_max in ((None, n) if n <= 50 else (None,))
]


class TestRowGolden:
    @pytest.mark.parametrize("family,score,n,k,m_max", GOLDEN_ROWS)
    def test_values_bit_identical(self, family, score, n, k, m_max):
        fn = ksample_sum_all_m if family == "sum" else ksample_max_all_m
        got = [v.hex() for v in fn(golden_grouped(n, k), score, m_max).values]
        key = f"{family},{score},n={n},k={k},m_max={'default' if m_max is None else m_max}"
        assert got == golden_sweep()["ksample_all_m"][key]


def differential_samples(k):
    """(labels by rank, group sizes) at N = K..40, 100 and 200.

    Each N has a random sample and, where N > K, one with a one-member group.
    """
    rng = np.random.default_rng(500 + k)
    for n in [*range(max(k, 2), 41), 100, 200]:
        samples = [random_grouped_labels(rng, n, k)]
        if n > k:
            single = 1 + n % k
            others = np.delete(np.arange(1, k + 1), single - 1)
            rest = others[random_grouped_labels(rng, n - 1, k - 1) - 1]
            samples.append(np.insert(rest, rng.integers(n), single))
        for labels in samples:
            yield labels, tuple(np.bincount(labels, minlength=k + 1)[1:].tolist())


class TestAgainstReference:
    """The cell pass and the max DP against their direct forms, by bytes."""

    @pytest.mark.parametrize("score", ["lr", "pearson"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cell_scores(self, k, score):
        score = ScoreKind.parse(score)
        for labels, sizes in differential_samples(k):
            want = reference_cell_scores(labels, sizes, score)
            assert _cell_scores(labels, sizes, score).tobytes() == want.tobytes(), sizes

    @pytest.mark.parametrize("score", ["lr", "pearson"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_max_values(self, k, score):
        score = ScoreKind.parse(score)
        for labels, sizes in differential_samples(k):
            n = labels.size
            for m_max in sorted({2, n // 2 + 1, n}):
                want = reference_max_values(labels, sizes, score, m_max)
                assert _max_values(labels, sizes, score, m_max).tobytes() == want.tobytes(), sizes


class TestSumCertificate:
    # math.fsum calls of _correctly_rounded_sums over 500 seeded rows of each
    # shape at m_max=29 when its bound was taken from sum|r|; only exact ties
    # of the few-term m=2 and m=3 sums fall back
    FALLBACKS = {(200, "lr"): 10, (100, "lr"): 21, (200, "pearson"): 0, (100, "pearson"): 0}

    @pytest.mark.parametrize("n,score", list(FALLBACKS))
    def test_fallbacks_stay_rare(self, monkeypatch, n, score):
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(xs) or fsum(xs))
        base = np.repeat([1, 2], n // 2)
        rng = np.random.default_rng(7)
        sizes, kind = (n // 2, n // 2), ScoreKind.parse(score)
        for _ in range(500):
            _sum_values(rng.permutation(base), sizes, kind, 29)
        assert len(calls) <= self.FALLBACKS[n, score]
