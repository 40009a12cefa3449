"""Definitional brute-force statistics used as ground truth in tests.

Every function here enumerates partitions literally from their definitions
and evaluates each one cell by cell: cells are counted through the
cumulative grid's ``box_count``/``inner_count`` and scored by
``core.cell_score``.  No fast path calls either, so the oracles stay
independent of them, and a hard enumeration budget makes accidental use on
large inputs fail fast.  Not built for performance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations, product

import numpy as np

from .core import GroupedSample, RankedSample, ScoreKind, cell_score, cumulative_count_grid

__all__ = [
    "PartitionEnumeration",
    "partition_count",
    "oracle_ksample",
    "oracle_adp",
    "oracle_ddp",
    "oracle_hhg",
]

ENUMERATION_BUDGET = 10**6


def partition_count(problem: str, n: int, m: int) -> int:
    """Closed-form number of partitions of size m for each enumeration kind."""
    if problem == "ksample":
        return math.comb(n - 1, m - 1)
    if problem == "adp":
        return math.comb(n - 1, m - 1) ** 2
    if problem == "ddp":
        return math.comb(n, m - 1)
    raise ValueError(f"unknown enumeration kind: {problem!r}")


def _partitions(problem: str, n: int, m: int):
    """Lazy partitions of size m: cut tuples (interval/grid) or point subsets.

    Raises ValueError unless 2 <= m <= N and the count is within the budget.
    """
    if not 2 <= m <= n:
        raise ValueError("m must lie in 2..N")
    count = partition_count(problem, n, m)
    if count > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {count} > {ENUMERATION_BUDGET}")
    if problem == "ddp":
        return combinations(range(n), m - 1)
    cuts = combinations(range(1, n), m - 1)
    return cuts if problem == "ksample" else product(cuts, repeat=2)


@dataclass(frozen=True)
class PartitionEnumeration:
    """Explicit list of partitions: cut tuples (interval/grid) or point subsets."""

    problem: str
    partitions: tuple

    @classmethod
    def enumerate(cls, problem: str, n: int, m: int) -> "PartitionEnumeration":
        return cls(problem=problem, partitions=tuple(_partitions(problem, n, m)))

    def __len__(self) -> int:
        return len(self.partitions)


def _sum_max(scores) -> tuple[float, float]:
    """Correctly rounded sum and maximum of the partition scores."""
    scores = list(scores)
    return math.fsum(scores), max(scores)


def oracle_ksample(sample: GroupedSample, score, m: int) -> tuple[float, float]:
    """Exhaustive (sum, max) of the partition score over all interval partitions."""
    n = sample.n
    partitions = _partitions("ksample", n, m)
    score = ScoreKind.parse(score)
    labels = sample.labels_by_rank
    groups = range(1, sample.k + 1)
    cum = [list(accumulate((int(lab == g) for lab in labels), initial=0)) for g in groups]
    frac = [ng / n for ng in sample.group_sizes]

    def partition_score(cuts):
        bounds = (0, *cuts, n)
        total = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            for c, f in zip(cum, frac):
                total += cell_score(c[hi] - c[lo], (hi - lo) * f, score)
        return total

    return _sum_max(map(partition_score, partitions))


def oracle_adp(x: RankedSample, y: RankedSample, score, m: int) -> tuple[float, float]:
    """Exhaustive (sum, max) over all m x m grid partitions of the rank plane."""
    n = x.n
    partitions = _partitions("adp", n, m)
    score = ScoreKind.parse(score)
    grid = cumulative_count_grid(x, y)

    def partition_score(cuts):
        bx, by = ((0, *c, n) for c in cuts)
        total = 0.0
        for rl, rh in zip(bx, bx[1:]):
            for sl, sh in zip(by, by[1:]):
                o = grid.box_count(rl + 1, rh, sl + 1, sh)
                total += cell_score(o, (rh - rl) * (sh - sl) / n, score)
        return total

    return _sum_max(map(partition_score, partitions))


def oracle_ddp(x: RankedSample, y: RankedSample, score, m: int) -> tuple[float, float]:
    """Exhaustive (sum, max) over all point-anchored partitions.

    Each subset of m-1 sample points induces cut lines through its ranks;
    cells count only the points strictly inside, with expected counts
    (inner width)(inner length)/(N - m + 1).  A cell of zero area is empty
    and scores 0.
    """
    n = x.n
    partitions = _partitions("ddp", n, m)
    score = ScoreKind.parse(score)
    grid = cumulative_count_grid(x, y)
    div = n - m + 1

    def partition_score(pts):
        sel = list(pts)
        bx, by = ((0, *sorted(int(r) for r in s.ranks[sel]), n + 1) for s in (x, y))
        total = 0.0
        for rl, rh in zip(bx, bx[1:]):
            for sl, sh in zip(by, by[1:]):
                o = grid.inner_count(rl, rh, sl, sh)
                total += cell_score(o, (rh - rl - 1) * (sh - sl - 1) / div, score)
        return total

    return _sum_max(map(partition_score, partitions))


def oracle_hhg(x, y) -> float:
    """Naive O(N^3) pairwise-classification statistic (per-pair 2x2 tables)."""
    xv = x.ranks.astype(float) if isinstance(x, RankedSample) else np.asarray(x, dtype=float)
    yv = y.ranks.astype(float) if isinstance(y, RankedSample) else np.asarray(y, dtype=float)
    n = xv.size
    if n < 3:
        raise ValueError("need at least three observations")
    if n > 200:
        raise ValueError("oracle limited to N <= 200")
    total = 0.0
    nn = float(n - 2)
    for i in range(n):
        dx = np.abs(xv - xv[i])
        dy = np.abs(yv - yv[i])
        for j in range(n):
            if j == i:
                continue
            keep = np.ones(n, dtype=bool)
            keep[i] = False
            keep[j] = False
            mx = (dx < dx[j]) & keep
            my = (dy < dy[j]) & keep
            a11 = float(np.count_nonzero(mx & my))
            r1 = float(np.count_nonzero(mx))
            c1 = float(np.count_nonzero(my))
            den = r1 * (nn - r1) * c1 * (nn - c1)
            if den <= 0:
                continue
            a22 = nn - r1 - c1 + a11
            a12 = r1 - a11
            a21 = c1 - a11
            total += nn * (a11 * a22 - a12 * a21) ** 2 / den
    return total
