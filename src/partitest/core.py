"""Shared primitives: rank transforms, cell scores, binomial tables, count grids.

Everything downstream (the K-sample statistics, the independence statistics,
the null tables) works on integer ranks.  This module owns the rank transform
with deterministic random tie-breaking, the two cell scoring rules, Pascal's
triangle tables of binomial coefficients, and the double-cumulative count grid
that makes every rectangle count an O(1) lookup.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "ScoreKind",
    "RankedSample",
    "GroupedSample",
    "PerMStatistics",
    "BinomialTable",
    "CumulativeCountGrid",
    "rank_with_random_ties",
    "cell_score",
    "ksample_cell_score",
    "binomial_table",
    "cumulative_count_grid",
    "y_by_x",
]


class ScoreKind(Enum):
    """Scoring rule applied to each cell of a partition."""

    PEARSON = "pearson"
    LIKELIHOOD_RATIO = "lr"

    @classmethod
    def parse(cls, value: "ScoreKind | str") -> "ScoreKind":
        if isinstance(value, ScoreKind):
            return value
        key = str(value).strip().lower().replace("_", "-")
        if key in ("pearson", "chisq"):
            return cls.PEARSON
        if key in ("lr", "likelihood-ratio", "loglik"):
            return cls.LIKELIHOOD_RATIO
        raise ValueError(f"unknown score kind: {value!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def seeded_generator(entropy) -> np.random.Generator:
    """The generator of every seeded draw: Philox keyed by ``entropy`` (int or tuple)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _check_permutation(ranks: np.ndarray) -> None:
    n = ranks.size
    if n == 0:
        raise ValueError("empty sample")
    if ranks.min() < 1 or ranks.max() > n:
        raise ValueError("ranks must lie in 1..N")
    counts = np.bincount(ranks, minlength=n + 1)
    if counts[1:].max() != 1:
        raise ValueError("ranks must form a permutation of 1..N")


@dataclass(frozen=True)
class RankedSample:
    """Rank-transformed univariate observations, ties already broken.

    ``ranks`` is a permutation of 1..N; ``tie_seed`` records the seed used to
    break ties so the transform is reproducible.
    """

    ranks: np.ndarray
    n: int
    tie_seed: int

    def __post_init__(self):
        ranks = np.ascontiguousarray(self.ranks, dtype=np.int64)
        if ranks.ndim != 1 or ranks.size != self.n:
            raise ValueError("rank vector length must equal N")
        _check_permutation(ranks)
        object.__setattr__(self, "ranks", _freeze(ranks))


def rank_with_random_ties(values, tie_seed: int = 0) -> RankedSample:
    """Rank a sample into 1..N, breaking ties by a seeded shuffle.

    Untied values are ranked by order.  Tied values are ordered by a seeded
    Fisher-Yates shuffle of the indices, so the same input and seed always
    produce the same ranks and the result is still a true permutation.  The
    shuffle only orders tied values, so untied input skips it.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sample")
    n = arr.size
    if n == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    tie_seed = operator.index(tie_seed)
    if tie_seed < 0:
        raise ValueError("tie_seed must be a non-negative integer")
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    if (ordered[1:] == ordered[:-1]).any():  # equal values, -0.0 and 0.0 included
        order = np.lexsort((seeded_generator(tie_seed).permutation(n), arr))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return RankedSample(ranks=ranks, n=n, tie_seed=tie_seed)


@dataclass(frozen=True)
class GroupedSample:
    """K-sample data: group labels in 1..K paired with ranked responses.

    ``labels[i]`` belongs to the observation whose response rank is
    ``y_ranks.ranks[i]``; the statistics only consume :meth:`labels_by_rank`.
    """

    labels: np.ndarray
    y_ranks: RankedSample
    group_sizes: tuple[int, ...]

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        n = self.y_ranks.n
        if labels.ndim != 1 or labels.size != n:
            raise ValueError("labels length must equal sample size")
        k = len(self.group_sizes)
        if k < 2:
            raise ValueError("need at least two groups")
        if labels.min() < 1 or labels.max() > k:
            raise ValueError("labels must lie in 1..K")
        sizes = np.bincount(labels, minlength=k + 1)[1:]
        if any(s < 1 for s in sizes):
            raise ValueError("every group must be non-empty")
        if tuple(int(s) for s in sizes) != tuple(self.group_sizes):
            raise ValueError("group_sizes do not match the labels")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "group_sizes", tuple(int(s) for s in self.group_sizes))
        by_rank = np.empty(n, dtype=np.int64)
        by_rank[self.y_ranks.ranks - 1] = labels
        object.__setattr__(self, "_labels_by_rank", _freeze(by_rank))

    @classmethod
    def from_values(cls, labels, values, tie_seed: int = 0) -> "GroupedSample":
        """Build from raw labels and responses; labels may be any sortable tokens."""
        raw = np.asarray(labels)
        uniq = np.unique(raw)
        if uniq.size < 2:
            raise ValueError("need at least two groups")
        coded = np.searchsorted(uniq, raw) + 1
        sizes = tuple(int(c) for c in np.bincount(coded, minlength=uniq.size + 1)[1:])
        ranked = rank_with_random_ties(values, tie_seed)
        return cls(labels=coded, y_ranks=ranked, group_sizes=sizes)

    @property
    def n(self) -> int:
        return self.y_ranks.n

    @property
    def k(self) -> int:
        return len(self.group_sizes)

    @property
    def labels_by_rank(self) -> np.ndarray:
        """Group labels reordered so position r holds the label of rank r+1."""
        return self._labels_by_rank


def default_m_max(problem: str, n: int) -> int:
    """Largest partition size computed when none is given (at least 2).

    N // 2 for the K-sample problem, floor(sqrt(N)) for independence.
    """
    return max(2, n // 2 if problem == "ksample" else math.isqrt(n))


def _check_m_max(m_max, problem: str, n: int) -> int:
    m_max = default_m_max(problem, n) if m_max is None else int(m_max)
    if not 2 <= m_max <= n:
        raise ValueError(f"m_max must lie in 2..N, got {m_max} for N={n}")
    return m_max


@dataclass(frozen=True)
class PerMStatistics:
    """Per-m statistic values for one sample (index i -> m = i + 2).

    ``family`` is ``sum`` or ``max`` for the K-sample problem and ``adp_sum``
    or ``ddp_sum`` for independence, where ``group_sizes`` is None.
    """

    family: str
    score: ScoreKind
    values: np.ndarray
    n: int
    group_sizes: tuple[int, ...] | None = None

    @property
    def m_max(self) -> int:
        return self.values.size + 1

    @property
    def ms(self) -> np.ndarray:
        return np.arange(2, self.m_max + 1)

    def value(self, m: int) -> float:
        if not 2 <= m <= self.m_max:
            raise ValueError(f"m={m} outside 2..{self.m_max}")
        return float(self.values[m - 2])


def cell_score(observed: float, expected: float, kind) -> float:
    """Score one cell: Pearson (o-e)^2/e or likelihood ratio o*log(o/e).

    Conventions: a cell with o = e = 0 scores 0, and the likelihood-ratio term
    is 0 whenever o = 0.  A positive count with zero expected mass cannot occur
    for the partitions built here and is rejected as a contract violation.
    """
    kind = ScoreKind.parse(kind)
    o = float(observed)
    e = float(expected)
    if o < 0 or e < 0:
        raise ValueError("counts and expected masses must be non-negative")
    if e == 0.0:
        if o == 0.0:
            return 0.0
        raise ValueError("impossible cell: positive count with zero expected mass")
    if kind is ScoreKind.PEARSON:
        return (o - e) ** 2 / e
    if o == 0.0:
        return 0.0
    return o * math.log(o / e)


def ksample_cell_score(counts_per_group, expected_per_group, kind) -> float:
    """Sum of per-group cell scores for one interval cell of a K-sample partition."""
    o = np.asarray(counts_per_group, dtype=float)
    e = np.asarray(expected_per_group, dtype=float)
    if o.shape != e.shape:
        raise ValueError("observed and expected vectors must have equal length")
    return math.fsum(cell_score(oi, ei, kind) for oi, ei in zip(o, e))


@dataclass(frozen=True)
class BinomialTable:
    """All C(u, v) for 0 <= u, v <= n, stored as doubles.

    Doubles are exact through every value used here and keep relative error
    below 1e-12 elsewhere; all downstream uses are ratios or weights.
    """

    n: int
    table: np.ndarray

    def choose(self, u, v):
        """C(u, v); zero for v > u and for negative arguments (scalar or array)."""
        ua = np.asarray(u, dtype=np.int64)
        va = np.asarray(v, dtype=np.int64)
        if np.any(ua > self.n):
            raise ValueError("argument exceeds table size")
        valid = (ua >= 0) & (va >= 0) & (va <= ua)
        out = np.where(valid, self.table[np.clip(ua, 0, self.n), np.clip(va, 0, self.n)], 0.0)
        if np.isscalar(u) and np.isscalar(v):
            return float(out)
        return out


@lru_cache(maxsize=64)
def _cached_binomial(n: int) -> BinomialTable:
    t = np.zeros((n + 1, n + 1))
    t[:, 0] = 1.0
    with np.errstate(over="ignore"):  # beyond double range an entry is inf
        for u in range(1, n + 1):
            t[u, 1 : u + 1] = t[u - 1, 1 : u + 1] + t[u - 1, 0:u]
    return BinomialTable(n=n, table=_freeze(t))


def binomial_table(n: int) -> BinomialTable:
    """Pascal's-triangle table of C(u, v) for all u, v <= n."""
    if n < 0:
        raise ValueError("table size must be non-negative")
    return _cached_binomial(int(n))


def partition_count(family: str, n: int, ms):
    """Number of partitions of size m a family aggregates over (scalar or array m).

    C(N-1, m-1) interval partitions for the K-sample ``sum``/``max``,
    C(N-1, m-1)^2 grid partitions for ``adp_sum``, C(N, m-1) point-anchored
    partitions for ``ddp_sum``.
    """
    binom = binomial_table(n)
    if family in ("sum", "max"):
        return binom.choose(n - 1, ms - 1)
    if family == "adp_sum":
        return binom.choose(n - 1, ms - 1) ** 2
    if family == "ddp_sum":
        return binom.choose(n, ms - 1)
    raise ValueError(f"unknown family: {family!r}")


@dataclass(frozen=True)
class CumulativeCountGrid:
    """Double-cumulative counts A(r, s) = #{i : x_rank_i <= r and y_rank_i <= s}."""

    a: np.ndarray
    n: int

    def box_count(self, r_lo: int, r_hi: int, s_lo: int, s_hi: int) -> int:
        """Points with r_lo <= x_rank <= r_hi and s_lo <= y_rank <= s_hi."""
        if r_hi < r_lo or s_hi < s_lo:
            return 0
        a = self.a
        r0, s0 = max(r_lo - 1, 0), max(s_lo - 1, 0)
        r1, s1 = min(r_hi, self.n), min(s_hi, self.n)
        return int(a[r1, s1] - a[r0, s1] - a[r1, s0] + a[r0, s0])

    def inner_count(self, r_lo: int, r_hi: int, s_lo: int, s_hi: int) -> int:
        """Points strictly inside the rank box (r_lo, r_hi) x (s_lo, s_hi)."""
        return self.box_count(r_lo + 1, r_hi - 1, s_lo + 1, s_hi - 1)


def y_by_x(x, y) -> np.ndarray:
    """The y rank of the point at each x rank: an independence dataset as one permutation.

    ``x`` and ``y`` are :class:`RankedSample` objects or integer rank arrays,
    each checked once as a permutation of 1..N; their lengths must match.
    Every independence statistic reads only this arrangement and trusts it,
    and a null-table row is one such permutation.
    """
    xr, yr = (s.ranks if isinstance(s, RankedSample) else RankedSample(s, np.size(s), 0).ranks
              for s in (x, y))
    if xr.size != yr.size:
        raise ValueError("x and y must have equal length")
    yx = np.empty(xr.size, dtype=np.int64)
    yx[xr - 1] = yr
    return yx


def _count_grid(yx: np.ndarray) -> CumulativeCountGrid:
    """The cumulative grid of a y-by-x arrangement, taken as valid."""
    n = yx.size
    a = np.zeros((n + 1, n + 1), dtype=np.int64)
    a[np.arange(1, n + 1), yx] = 1
    np.cumsum(a, axis=0, out=a)
    np.cumsum(a, axis=1, out=a)
    return CumulativeCountGrid(a=_freeze(a), n=n)


def cumulative_count_grid(x_ranks, y_ranks) -> CumulativeCountGrid:
    """Build the (N+1) x (N+1) cumulative grid from two rank permutations."""
    return _count_grid(y_by_x(x_ranks, y_ranks))


# Shared lookup tables for the hot vectorized paths.  xlogx(0) := 0 keeps the
# 0*log(0) convention exact in array code.


@lru_cache(maxsize=32)
def _xlogx_table(n: int) -> np.ndarray:
    v = np.arange(n + 1, dtype=float)
    out = np.zeros(n + 1)
    out[1:] = v[1:] * np.log(v[1:])
    return _freeze(out)


@lru_cache(maxsize=32)
def _log_table(n: int) -> np.ndarray:
    out = np.zeros(n + 1)
    out[1:] = np.log(np.arange(1, n + 1, dtype=float))
    return _freeze(out)


@lru_cache(maxsize=32)
def _cell_index_cache(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 1-d rank cells as (lo, hi, bucket) arrays, 1 <= lo <= hi <= n.

    A cell's bucket is its width, plus N+1 if it touches an end of 1..N: the
    column layout of :func:`_span_weight_rows`.
    """
    lo0, hi0 = np.triu_indices(n)
    bucket = hi0 - lo0 + 1 + np.where((lo0 == 0) | (hi0 == n - 1), n + 1, 0)
    return _freeze(lo0 + 1), _freeze(hi0 + 1), _freeze(bucket)


@lru_cache(maxsize=32)
def _packed_cell_cache(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of :func:`_cell_index_cache` column by column: (order, lo - 1, starts).

    ``order`` lists the cells by hi ascending, then lo ascending, so the i
    cells ending at rank i are one run, starting at ``starts[i - 1]``.
    """
    lo, hi, _ = _cell_index_cache(n)
    order = np.lexsort((lo, hi))
    starts = np.arange(n) * np.arange(1, n + 1) // 2
    return _freeze(order), _freeze(lo[order] - 1), _freeze(starts)


@lru_cache(maxsize=64)
def _span_weight_rows(n: int, m_max: int) -> np.ndarray:
    """Partition-count weights per m, concatenated (internal widths, edge widths).

    Row m - 2 holds, for each width w, the number of size-m interval
    partitions of 1..N containing a given span of width w: C(N-2-w, m-3) for
    an internal span, C(N-1-w, m-2) for one touching an end.  choose() returns
    zero whenever an argument goes negative, which kills internal spans at
    m = 2 and the full-width span everywhere.
    """
    binom = binomial_table(n)
    ws = np.arange(n + 1)
    rows = np.empty((m_max - 1, 2 * (n + 1)))
    for m in range(2, m_max + 1):
        rows[m - 2, : n + 1] = binom.choose(n - 2 - ws, m - 3)
        rows[m - 2, n + 1 :] = binom.choose(n - 1 - ws, m - 2)
    return _freeze(rows)


def _correctly_rounded_sums(p: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D float array, bit for bit, from a few array passes.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 2008): with sigma = 2^(k+M),
    2^k > max|p| and 2^M >= J + 2 for J terms, q = (sigma + p) - sigma and
    r = p - q are exact and every q is a multiple of 2^-53 sigma, so sum(q)
    is exact in any order.  Each sigma + p lies below 2 sigma, so rounding it
    leaves |r| <= 2^-53 sigma = 2^(k+M-53), and sum|r| <= J 2^(k+M-53)
    before any pass over r.  Only sum(r) rounds, by at most gamma_J sum|r| <
    2 J^2 2^(k+M-106) whatever order numpy's SIMD kernels add in; that bound
    is a power-of-two scaling, computed without rounding.  (res, e) =
    TwoSum(sum q, sum r) gives res + e = sum(q) + fl(sum r) exactly, so res
    is the correctly rounded total whenever e widened by the bound, plus the
    smallest normal to cover underflow, stays strictly inside the half-gaps
    to res's neighbours.  Rounding is monotone, so comparing the rounded
    e + bound against the exact half-gap decides that exactly.  The bound is
    set before the sum, so it is never tighter than one taken from sum|r|:
    it can only change which rows take the fallback, never a result.

    A row without that certificate — an exact or near tie, a zero or
    near-subnormal total, a non-finite or near-overflow entry — takes
    ``math.fsum``; where that raises (an intermediate overflow, inf - inf)
    the row's value is nan.
    """
    p = np.asarray(p, dtype=float)
    terms = p.shape[1]
    spare = (terms + 1).bit_length()  # 2^spare >= terms + 2
    with np.errstate(all="ignore"):
        q = np.abs(p)  # one buffer for |p|, then q, then r
        _, k = np.frexp(q.max(axis=1, initial=0.0))
        k += spare
        sigma = np.ldexp(1.0, k)[:, None]
        np.add(p, sigma, out=q)
        q -= sigma
        tau1 = q.sum(axis=1)
        tau2 = np.subtract(p, q, out=q).sum(axis=1)
        res = tau1 + tau2
        z = res - tau1
        e = (tau1 - (res - z)) + (tau2 - z)
        bound = np.ldexp(2.0 * terms * terms, k - 106) + np.finfo(float).tiny
        half_up = (np.nextafter(res, np.inf) - res) * 0.5
        half_down = (res - np.nextafter(res, -np.inf)) * 0.5
        certified = (e + bound < half_up) & (bound - e < half_down)
        certified &= np.isfinite(half_up + half_down)
    for i in np.flatnonzero(~certified):
        try:
            res[i] = math.fsum(p[i].tolist())
        except (OverflowError, ValueError):
            res[i] = np.nan
    return res


@lru_cache(maxsize=32)
def _pair_index_cache(npos: int) -> tuple[np.ndarray, np.ndarray]:
    """Strictly increasing index pairs (i < j) over npos positions, in lexicographic order.

    The pairs over the last s positions are the last s(s-1)/2 entries, so one
    triangle serves every smaller one by a shift.
    """
    ii, jj = np.triu_indices(npos, k=1)
    return _freeze(ii), _freeze(jj)


# Set in each worker process by _start_worker; never in the calling process.
_worker_task = None


def _start_worker(fn, args: tuple) -> None:
    global _worker_task
    _worker_task = (fn, args)


def _run_chunk(start: int, stop: int):
    fn, args = _worker_task
    return fn(*args, start, stop)


def chunk_map(fn, args: tuple, count: int, threads: int) -> list:
    """``fn(*args, start, stop)`` over ordered chunks of range(count).

    Results come back in chunk order, so a caller that concatenates or sums
    them gets the same answer for any thread count.  Workers are clamped to
    the core count; with one worker, or fewer than two items per worker, the
    whole range runs in-process as a single chunk.  ``fn`` and ``args`` reach
    each worker once, when it starts; chunks send only their bounds.
    """
    workers = min(int(threads), os.cpu_count() or 1)
    if workers <= 1 or count < 2 * workers:
        return [fn(*args, 0, count)]
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, count, 4 * workers + 1, dtype=int)
    chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(fn, args)
    ) as pool:
        return list(pool.map(_run_chunk, *zip(*chunks)))
