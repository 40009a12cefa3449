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

from .core import GroupedSample, RankedSample, ScoreKind, partition_count, y_by_x
from .independence import SUM_CELLS
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


def _check_m(m: int, n: int) -> None:
    if not 2 <= m <= n:
        raise ValueError(f"m must lie in 2..N, got {m} for N={n}")


def _partition_average(estimator: str, x, y, m: int, miller_madow: bool) -> MIEstimate:
    """S_m / (n_eff * #partitions) of the family ``estimator``_sum, n_eff the points inside cells.

    Grid strips all hold a rank; over the C(N, m-1) point-anchored cut sets
    m * C(N-1, m-1) strips do (hockey-stick identity).  So the average number
    of nonempty strips per axis is m * n_eff / N in both families.
    """
    family = f"{estimator}_sum"
    yx = y_by_x(x, y)
    n = yx.size
    _check_m(m, n)
    cells = SUM_CELLS[family](yx, ScoreKind.LIKELIHOOD_RATIO, nonempty=miller_madow)
    npart = partition_count(family, n, m)
    n_eff = n if family == "adp_sum" else n - m + 1
    value = float(cells.contract([m])[0]) / (n_eff * npart)
    if miller_madow:
        avg_joint = float(cells.contract_nonempty([m])[0]) / npart
        avg_margin = m * n_eff / n
        value += _composed_correction(avg_joint, avg_margin, avg_margin, n_eff)
    return MIEstimate(value=value, estimator=estimator, m=m, n=n, miller_madow_applied=miller_madow)


def mi_adp(x: RankedSample, y: RankedSample, m: int, miller_madow: bool = False) -> MIEstimate:
    """Average plug-in MI over all m x m grid partitions.

    The likelihood-ratio sum statistic divided by N * C(N-1, m-1)^2.  With
    the correction enabled, every partition's plug-in value is adjusted for
    its nonempty joint cells before averaging; grid margins are always the m
    column and row strips, so the marginal terms are constant.
    """
    return _partition_average("adp", x, y, m, miller_madow)


def mi_ddp(x: RankedSample, y: RankedSample, m: int, miller_madow: bool = False) -> MIEstimate:
    """Average plug-in MI over all point-anchored partitions.

    The likelihood-ratio sum statistic divided by (N - m + 1) * C(N, m-1);
    only the N - m + 1 points strictly inside cells carry mass.
    """
    return _partition_average("ddp", x, y, m, miller_madow)


def _equal_count_bins(ranks: np.ndarray, n: int, m: int) -> np.ndarray:
    sizes = np.full(m, n // m, dtype=np.int64)
    sizes[: n % m] += 1
    edges = np.cumsum(sizes)
    return np.searchsorted(edges, ranks, side="left")


def mi_histogram(x: RankedSample, y: RankedSample, m: int, miller_madow: bool = False) -> MIEstimate:
    """Plug-in MI of the single m x m partition with equal-count margins."""
    yx = y_by_x(x, y)
    n = yx.size
    _check_m(m, n)
    ix = _equal_count_bins(np.arange(1, n + 1), n, m)
    iy = _equal_count_bins(yx, n, m)
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
    _check_m(m, n)
    s_m = ksample_sum_all_m(sample, ScoreKind.LIKELIHOOD_RATIO, m).value(m)
    npart = partition_count("sum", n, m)
    return MIEstimate(value=s_m / (n * npart), estimator="ksample", m=m, n=n)
