"""K-sample statistics over all interval partitions of the ranked line.

For each partition size m the sum statistic aggregates the partition score
over every one of the C(N-1, m-1) interval partitions, and the max statistic
takes the best partition.  Both are computed for every m at once: the sum via
width-bucketed cell totals weighted by closed-form partition counts (O(N^2)
total), the max via dynamic programming over split positions (O(N^3) total).

Prior-penalized single-number statistics over all m are provided on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .core import (
    GroupedSample,
    PerMStatistics,
    ScoreKind,
    _cell_index_cache,
    _check_m_max,
    _correctly_rounded_sums,
    _freeze,
    _log_table,
    _span_weight_rows,
    _xlogx_table,
    partition_count,
)

__all__ = [
    "PriorSpec",
    "ksample_sum_all_m",
    "ksample_max_all_m",
    "penalized_max",
    "penalized_sum",
]


@dataclass(frozen=True)
class PriorSpec:
    """Prior over partition size used by the penalized statistics.

    Variants: ``poisson-sqrt-n`` (rate sqrt(N)), ``binomial`` (success
    probability ``p``), ``uniform`` over ``k_levels`` sizes, and ``ds`` whose
    additive penalty -lambda0 * log(N) * (m-1) replaces both prior terms.
    """

    variant: str
    p: float | None = None
    k_levels: int | None = None
    lambda0: float | None = None

    def __post_init__(self):
        if self.variant not in ("poisson-sqrt-n", "binomial", "uniform", "ds"):
            raise ValueError(f"unknown prior variant: {self.variant!r}")
        if self.variant == "binomial" and not (self.p is not None and 0.0 < self.p < 1.0):
            raise ValueError("binomial prior needs 0 < p < 1")
        if self.variant == "uniform" and not (self.k_levels is not None and self.k_levels >= 1):
            raise ValueError("uniform prior needs k_levels >= 1")
        if self.variant == "ds" and not (self.lambda0 is not None and self.lambda0 > 0.0):
            raise ValueError("ds prior needs lambda0 > 0")

    @classmethod
    def poisson_sqrt_n(cls) -> "PriorSpec":
        return cls(variant="poisson-sqrt-n")

    @classmethod
    def binomial(cls, p: float) -> "PriorSpec":
        return cls(variant="binomial", p=float(p))

    @classmethod
    def uniform(cls, k_levels: int) -> "PriorSpec":
        return cls(variant="uniform", k_levels=int(k_levels))

    @classmethod
    def ds(cls, lambda0: float) -> "PriorSpec":
        return cls(variant="ds", lambda0=float(lambda0))

    def log_prior_m(self, ms, n: int) -> np.ndarray:
        """log pi(m) for an array of partition sizes (not defined for ``ds``)."""
        ms = np.asarray(ms, dtype=float)
        if self.variant == "poisson-sqrt-n":
            rate = math.sqrt(n)
            return ms * math.log(rate) - rate - gammaln(ms + 1.0)
        if self.variant == "binomial":
            logc = gammaln(n) - gammaln(ms) - gammaln(n - ms + 1.0)
            return logc + ms * math.log(self.p) + (n - ms) * math.log1p(-self.p)
        if self.variant == "uniform":
            return np.full(ms.shape, -math.log(self.k_levels))
        raise ValueError("ds prior has no standalone log pi(m); it is an additive penalty")


def penalize(values, family: str, n: int, prior: PriorSpec):
    """Prior-penalized statistic, max over m, per row of per-m values (m = 2, 3, ...).

    The one penalization rule: for max aggregation M_m + log pi(I|m) + log pi(m)
    with pi(I|m) uniform over the family's partitions of size m, or the ``ds``
    additive term -lambda0 * log(N) * (m-1) in place of both prior terms; for
    sum aggregation the per-partition average S_m / #partitions + log pi(m).
    Observed data and null rows go through this same function.
    """
    values = np.asarray(values)
    ms = np.arange(2, values.shape[-1] + 2)
    if family == "max":
        if prior.variant == "ds":
            add = -prior.lambda0 * math.log(n) * (ms - 1)
        else:
            add = -np.log(partition_count(family, n, ms)) + prior.log_prior_m(ms, n)
        return np.max(values + add, axis=-1)
    if prior.variant == "ds":
        raise ValueError("ds prior applies to max aggregation only")
    return np.max(values / partition_count(family, n, ms) + prior.log_prior_m(ms, n), axis=-1)


@lru_cache(maxsize=8)
def _cell_tables(n: int, group_sizes: tuple[int, ...], score: ScoreKind):
    """Per-shape constants of the cell pass: (lo - 1, hi, row, row + width, tables).

    ``tables[g]`` holds group g's cell term for every width w and count o,
    flattened at (w - 1) * (N + 1) + o, and ``row`` is (w - 1) * (N + 1) for
    each cell.  A term is (o - e)^2 / e for Pearson and o log o - o (log w +
    log(N_g / N)) for LR, with expected mass e = w * N_g / N: the same float
    expressions per cell as scoring each cell directly, so the same bits.
    """
    lo, hi, _ = _cell_index_cache(n)
    row = (hi - lo) * (n + 1)
    w = np.arange(1, n + 1)[:, None]
    o = np.arange(n + 1)
    if score is ScoreKind.PEARSON:
        tables = [(o - e) ** 2 / e for e in (w * (ng / n) for ng in group_sizes)]
    else:
        xlogx, logw = _xlogx_table(n), _log_table(n)[w]
        tables = [xlogx - o * (logw + math.log(ng / n)) for ng in group_sizes]
    return (
        _freeze(lo - 1), hi, _freeze(row), _freeze(row + hi - lo + 1),
        tuple(_freeze(t.ravel()) for t in tables),
    )


def _cell_scores(labels_by_rank, group_sizes, score) -> np.ndarray:
    """t_C for every interval cell in ``_cell_index_cache`` order; expected masses w * N_g / N.

    Group terms are added in group order.  No term is -0.0, so starting from
    the first term gives the bits of starting from 0.0.  The last group's
    counts are the width minus the other groups' counts.
    """
    n = labels_by_rank.size
    before, hi, row, row_end, tables = _cell_tables(n, group_sizes, score)
    cum = np.zeros(n + 1, dtype=np.int64)
    for g, table in enumerate(tables[:-1]):
        np.cumsum(labels_by_rank == g + 1, out=cum[1:])
        o = cum[hi] - cum[before]
        if g == 0:
            t, taken = table[row + o], o
        else:
            t += table[row + o]
            taken += o
    t += tables[-1][row_end - taken]
    return t


def _sum_values(labels_by_rank, group_sizes, score, m_max) -> np.ndarray:
    n = labels_by_rank.size
    t = _cell_scores(labels_by_rank, group_sizes, score)
    profile = np.bincount(_cell_index_cache(n)[2], weights=t, minlength=2 * (n + 1))
    # Weights reach C(N-1, m-1) while cell totals stay moderate; a correctly
    # rounded sum per m keeps the values independent of summation order.  Past
    # double range a product is inf or nan, and so is its sum.
    with np.errstate(over="ignore", invalid="ignore"):
        values = _correctly_rounded_sums(_span_weight_rows(n, m_max) * profile)
    overflow = ~np.isfinite(values)
    if overflow.any():
        m = int(np.argmax(overflow)) + 2
        raise ValueError(
            f"sum statistic overflows double precision from m={m} at N={n}; use m_max <= {m - 1}"
        )
    return values


def _max_values(labels_by_rank, group_sizes, score, m_max) -> np.ndarray:
    n = labels_by_rank.size
    lo, hi, _ = _cell_index_cache(n)
    # cell[a, i] = t of cell (a+1 .. i); -inf blocks empty cells so the DP
    # only considers splits that leave every cell non-empty.
    cell = np.full((n + 1, n + 1), -np.inf)
    cell[lo - 1, hi] = _cell_scores(labels_by_rank, group_sizes, score)
    best = cell[0]
    out = np.empty(m_max - 1)
    for j in range(2, m_max + 1):
        best = np.max(best[:, None] + cell, axis=0)
        out[j - 2] = best[n]
    return out


def _statistics(family: str, sample: GroupedSample, score, m_max) -> PerMStatistics:
    score = ScoreKind.parse(score)
    m_max = _check_m_max(m_max, "ksample", sample.n)
    values_fn = _sum_values if family == "sum" else _max_values
    values = values_fn(sample.labels_by_rank, sample.group_sizes, score, m_max)
    return PerMStatistics(
        family=family, score=score, values=values, n=sample.n, group_sizes=sample.group_sizes
    )


def ksample_sum_all_m(sample: GroupedSample, score, m_max: int | None = None) -> PerMStatistics:
    """Sum-aggregated statistic for every partition size 2..m_max at once.

    Width-bucketed cell totals are computed once in O(N^2); each per-m value
    is then a weighted reduction, so the total cost does not depend on how
    many sizes are requested.  ``m_max`` defaults to N // 2.
    """
    return _statistics("sum", sample, score, m_max)


def ksample_max_all_m(sample: GroupedSample, score, m_max: int | None = None) -> PerMStatistics:
    """Max-aggregated statistic for every partition size 2..m_max at once.

    Dynamic program over prefix lengths: the best score that splits the first
    i ranks into j cells extends by one cell at a time, with expected counts
    always taken from full-sample group proportions.
    """
    return _statistics("max", sample, score, m_max)


def penalized_max(stats: PerMStatistics, prior: PriorSpec) -> float:
    """Best penalized max statistic over m: M_m + log pi(I|m) + log pi(m).

    pi(I|m) is uniform over the C(N-1, m-1) partitions of size m.  With the
    ``ds`` prior the additive term -lambda0 * log(N) * (m-1) replaces both
    prior terms.  Canonical with the likelihood-ratio score; other scores are
    accepted but non-canonical.
    """
    if stats.family != "max":
        raise ValueError("penalized_max expects max-aggregated statistics")
    return float(penalize(stats.values, stats.family, stats.n, prior))


def penalized_sum(stats: PerMStatistics, prior: PriorSpec) -> float:
    """Best penalized per-partition average over m: S_m / C(N-1, m-1) + log pi(m)."""
    if stats.family != "sum":
        raise ValueError("penalized_sum expects sum-aggregated statistics")
    return float(penalize(stats.values, stats.family, stats.n, prior))
