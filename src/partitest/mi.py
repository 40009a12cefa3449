"""Mutual-information estimation from partition-sum statistics (nats).

The sum statistics with the likelihood-ratio score, divided by the number of
partitions and the effective sample size, are averages of per-partition
plug-in MI estimates and converge to the mutual information.  A single
equal-count histogram estimator is provided as the classical baseline, and
each estimator can apply the first-order nonempty-cell bias correction per
partition before averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BinomialTable,
    GroupedSample,
    RankedSample,
    ScoreKind,
    binomial_table,
    partition_count,
)
from .independence import GridCells, PointCells
from .ksample import ksample_sum_all_m

__all__ = [
    "MIEstimate",
    "mi_adp",
    "mi_ddp",
    "mi_histogram",
    "mi_ksample",
    "miller_madow",
]


@dataclass(frozen=True)
class MIEstimate:
    """One mutual-information estimate in nats."""

    value: float
    estimator: str
    m: int
    n: int
    miller_madow_applied: bool = False


def _composed_correction(avg_joint: float, avg_x: float, avg_y: float, n_eff: int) -> float:
    """Entropy-level correction composed for MI = Hx + Hy - Hxy.

    Each plug-in entropy gains (nonempty - 1)/(2N), so the MI estimate gains
    the marginal terms and loses the joint one, shrinking the upward-biased
    plug-in value.
    """
    return ((avg_x - 1.0) + (avg_y - 1.0) - (avg_joint - 1.0)) / (2.0 * n_eff)


def miller_madow(plugin_mi: float, nonempty_joint: int, nonempty_x: int, nonempty_y: int, n: int) -> float:
    """First-order nonempty-cell bias correction of a plug-in MI value.

    The standard entropy correction adds (nonempty - 1)/(2N) to each plug-in
    entropy; composed for MI this adds the two marginal terms and subtracts
    the joint one.  The per-partition corrections inside the estimators use
    exactly this rule.
    """
    if min(nonempty_joint, nonempty_x, nonempty_y) < 1:
        raise ValueError("nonempty-cell counts must be at least 1")
    return plugin_mi + _composed_correction(nonempty_joint, nonempty_x, nonempty_y, n)


def _check_pair(x, y, m):
    if not isinstance(x, RankedSample) or not isinstance(y, RankedSample):
        raise ValueError("expected ranked samples")
    if x.n != y.n:
        raise ValueError("x and y must have equal length")
    n = x.n
    if not 2 <= m <= n:
        raise ValueError(f"m must lie in 2..N, got {m} for N={n}")
    return n


def mi_adp(x: RankedSample, y: RankedSample, m: int, miller_madow: bool = False) -> MIEstimate:
    """Average plug-in MI over all m x m grid partitions.

    The likelihood-ratio sum statistic divided by N * C(N-1, m-1)^2.  With
    the correction enabled, every partition's plug-in value is adjusted for
    its nonempty joint cells before averaging; grid margins are always the m
    column and row strips, so the marginal terms are constant.
    """
    n = _check_pair(x, y, m)
    cells = GridCells(x.ranks, y.ranks, ScoreKind.LIKELIHOOD_RATIO, nonempty=miller_madow)
    s_m = float(cells.contract([m])[0])
    npart = partition_count("adp_sum", n, m)
    value = s_m / (n * npart)
    if miller_madow:
        avg_joint = float(cells.contract_nonempty([m])[0]) / npart
        value += _composed_correction(avg_joint, m, m, n)
    return MIEstimate(value=value, estimator="adp", m=m, n=n, miller_madow_applied=miller_madow)


def _ddp_margin_nonempty_sum(n: int, m: int, binom: BinomialTable) -> float:
    """Sum over point-anchored partitions of nonempty strips on one axis.

    A strip is nonempty iff its interior spans at least one rank; the count
    of partitions containing a strip depends only on the ranks it covers.
    """
    total = 0.0
    for width_in in range(1, n - 1):
        positions = n - width_in - 1
        if positions > 0:
            total += positions * binom.choose(n - width_in - 2, m - 3)
    for rh in range(2, n + 1):
        total += binom.choose(n - rh, m - 2)
    for rl in range(1, n):
        total += binom.choose(rl - 1, m - 2)
    return total


def mi_ddp(x: RankedSample, y: RankedSample, m: int, miller_madow: bool = False) -> MIEstimate:
    """Average plug-in MI over all point-anchored partitions.

    The likelihood-ratio sum statistic divided by (N - m + 1) * C(N, m-1);
    only the N - m + 1 points strictly inside cells carry mass.
    """
    n = _check_pair(x, y, m)
    cells = PointCells(x.ranks, y.ranks, ScoreKind.LIKELIHOOD_RATIO, nonempty=miller_madow)
    s_m = float(cells.contract([m])[0])
    npart = partition_count("ddp_sum", n, m)
    n_eff = n - m + 1
    value = s_m / (n_eff * npart)
    if miller_madow:
        avg_joint = float(cells.contract_nonempty([m])[0]) / npart
        avg_margin = _ddp_margin_nonempty_sum(n, m, binomial_table(n)) / npart
        value += _composed_correction(avg_joint, avg_margin, avg_margin, n_eff)
    return MIEstimate(value=value, estimator="ddp", m=m, n=n, miller_madow_applied=miller_madow)


def _equal_count_bins(ranks: np.ndarray, n: int, m: int) -> np.ndarray:
    sizes = np.full(m, n // m, dtype=np.int64)
    sizes[: n % m] += 1
    edges = np.cumsum(sizes)
    return np.searchsorted(edges, ranks, side="left")


def mi_histogram(x: RankedSample, y: RankedSample, m: int, miller_madow: bool = False) -> MIEstimate:
    """Plug-in MI of the single m x m partition with equal-count margins."""
    n = _check_pair(x, y, m)
    ix = _equal_count_bins(x.ranks, n, m)
    iy = _equal_count_bins(y.ranks, n, m)
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (ix, iy), 1)
    rowc = counts.sum(axis=1)
    colc = counts.sum(axis=0)
    nz = counts > 0
    o = counts[nz].astype(float)
    expect = np.outer(rowc, colc)[nz].astype(float) / n
    value = float(np.sum(o / n * np.log(o / expect)))
    if miller_madow:
        value += _composed_correction(
            int(nz.sum()), int((rowc > 0).sum()), int((colc > 0).sum()), n
        )
    return MIEstimate(
        value=value, estimator="histogram", m=m, n=n, miller_madow_applied=miller_madow
    )


def mi_ksample(sample: GroupedSample, m: int) -> MIEstimate:
    """MI between the group label and the response: S_m / (N * C(N-1, m-1))."""
    n = sample.n
    if not 2 <= m <= n:
        raise ValueError(f"m must lie in 2..N, got {m} for N={n}")
    s_m = ksample_sum_all_m(sample, ScoreKind.LIKELIHOOD_RATIO, m).value(m)
    npart = partition_count("sum", n, m)
    return MIEstimate(value=s_m / (n * npart), estimator="ksample", m=m, n=n)
