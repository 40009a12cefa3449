"""Independence statistics over exhaustive partitions of the rank plane.

Two partition families are supported.  Grid partitions place m-1 cut lines
per axis anywhere between consecutive ranks, giving C(N-1, m-1)^2 partitions
of size m x m.  Point-anchored partitions are induced by subsets of m-1
sample points whose coordinates become the cut lines, giving C(N, m-1)
partitions whose cells count only the points strictly inside.

Sum aggregation is computed for every m at once by sweeping cells instead of
partitions: each cell's score is weighted by the number of partitions that
contain it, which is a closed-form function of the cell's geometry.  Max
aggregation enumerates partitions directly and is only polynomial for small m.

The pairwise-classification statistic (every ordered pair of points induces a
2x2 table over the remaining N-2 points) is provided with an O(N^2) algorithm.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    CumulativeCountGrid,
    PerMStatistics,
    RankedSample,
    ScoreKind,
    _check_m_max,
    _count_grid,
    _freeze,
    _log_table,
    _pair_index_cache,
    _per_m_sums,
    _point_weight_rows,
    _span_weight_rows,
    _xlogx_table,
    y_by_x,
)
from .ksample import PriorSpec, penalize

__all__ = [
    "adp_sum_all_m",
    "ddp_sum_all_m",
    "ddp_max",
    "adp_max_2x2",
    "penalized_adp_sum",
    "hhg_univariate",
]

ADP_SUM = "adp_sum"
DDP_SUM = "ddp_sum"


# ---------------------------------------------------------------------------
# Grid partitions: the cell layer and sum aggregation

# Bytes of per-width Gram matrices the Pearson kernel holds at once; a small
# block keeps the sweep's peak memory close to that of a per-span loop.
_GRAM_BLOCK_BYTES = 1 << 19


@lru_cache(maxsize=32)
def _span_cover_counts(n: int) -> np.ndarray:
    """Spans of each (class, size) that contain each rank: an (N, 2(N+1)) table.

    Row r - 1 is rank r; columns are internal sizes 0..N, then edge sizes
    0..N.  A span (c, c+s] is internal when 1 <= c and c+s <= N-1, an edge
    span otherwise; the full span (0, N] counts once, as an edge span.
    """
    r = np.arange(1, n + 1)[:, None]
    s = np.arange(n + 1)[None, :]
    internal = np.maximum(np.minimum(r - 1, n - 1 - s) - np.maximum(1, r - s) + 1, 0)
    edge = (r <= s).astype(np.int64) + (r >= n + 1 - s)
    edge[:, n] = 1
    return _freeze(np.concatenate((internal, edge), axis=1).astype(float))


@lru_cache(maxsize=32)
def _lag_sorted_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the strict upper triangle of an n x n matrix, by lag.

    Returns (flat, starts): superdiagonal l occupies flat[starts[l-1]:starts[l]].
    """
    ii, jj = _pair_index_cache(n)
    order = np.argsort(jj - ii, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 1, -1))))
    return _freeze(ii[order] * n + jj[order]), _freeze(starts)


@lru_cache(maxsize=32)
def _pearson_size_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-empty buckets, max(width * length, 1), and the summed expected counts."""
    ws = np.arange(n + 1, dtype=float)
    wl = np.tile(np.outer(ws, ws), (2, 2))
    internal = np.maximum(n - 1 - ws, 0)
    internal[0] = 0
    edge = np.where((ws >= 1) & (ws <= n - 1), 2.0, 0.0)
    spans = np.concatenate((internal, edge))  # spans of each class and size
    expected = np.outer(spans, spans) * wl / n
    return _freeze(wl > 0), _freeze(np.maximum(wl, 1.0)), _freeze(expected)


class GridCells:
    """Every cell of every grid partition, swept once, then contracted per m.

    A grid cell is an x-span (lo, hi] times a y-span (c, d] of the rank
    plane; its count o is the number of points inside.  Spans are internal
    (touching neither end of their axis) or edge spans, and the number of
    size-m partitions containing a cell depends only on the two classes and
    the span sizes.  The sweep therefore totals the cell scores in one
    matrix, row x class * (N+1) + width by column y class * (N+1) + length
    (the column order of ``core._span_weight_rows``); :meth:`contract` then
    weights those totals by partition counts, in O(N^2) per m, in an order
    fixed on every CPU.  The grid-sum statistics, the ``adp_sum`` null-table
    rows and ``mi_adp`` all go through this class, each with a y-by-x
    arrangement ``yx`` (:func:`core.y_by_x`), taken as valid.

    The full-width x-span sits in no partition with an x cut and is skipped.
    Per bucket the sweep keeps sum(o), a closed form over the points (the
    number of spans of each size containing each rank), and the sum of the
    score kernel, for which there are two kernels:

    - Pearson (o^2): for each width w, D = A[w:] - A[:N+1-w] holds the y
      cumulative counts of every x-span of width w, so the y-span (c, d)
      counts are D[:, d] - D[:, c], and summed over the x-spans
      sum(o^2) = G[c, c] + G[d, d] - 2 G[c, d] with the Gram matrix G = D'D.
      Per length l that is two diagonal prefix sums minus twice the l-th
      superdiagonal sum.  Every entry of D and G, and every sum formed from
      them, is an integer of magnitude at most 4 N^4 (G entries are at most
      N^3), below 2^53 for any N up to 6800.  So the floating-point products
      and sums are exact, and the result does not depend on the summation
      order, BLAS blocking or the BLAS thread count.  A larger N is refused
      before the count grid is built.
    - Likelihood ratio (o log o): these float sums keep the order of a plain
      per-cell loop, so the totals have its bits.  For each width w the
      sweep runs over the lower y cut c, vectorised over the y length and
      the x-span; every (x-span, y class, length) total adds its cells in
      ascending c (an edge length: (0, l] first, then (N-l, N]).  The
      x-spans are then added in loop order: lo = 0 then lo = N-w for the
      edge class, lo = 1..N-1-w one after another for the internal class.

    With ``nonempty`` the likelihood-ratio sweep also counts non-empty
    cells, which the Miller-Madow correction of ``mi_adp`` contracts.  Those
    counts are integers, exact in any order: per width, all cells less the
    empty ones, counted from the free runs between a span's y ranks.
    """

    def __init__(self, yx, score: ScoreKind, nonempty: bool = False):
        n = yx.size
        if score is ScoreKind.PEARSON and n > 6800:
            raise ValueError(f"Pearson grid sums are exact only for N <= 6800, got N={n}")
        grid = _count_grid(yx)
        if nonempty and score is not ScoreKind.LIKELIHOOD_RATIO:
            raise ValueError("nonempty-cell counts come from the likelihood-ratio sweep")
        q = self._count_sums(yx, n)
        if score is ScoreKind.LIKELIHOOD_RATIO:
            lg = np.tile(_log_table(n), 2)
            q *= lg[:, None] + lg[None, :] - math.log(n)
            self._totals = np.subtract(self._lr_sweep(grid.a, n), q, out=q)
        else:
            self._totals = self._pearson_totals(self._square_sweep(grid.a, n), q, n)
        self.n = n
        self._nonempty = self._nonempty_counts(yx, grid.a, n) if nonempty else None

    @staticmethod
    def _count_sums(yx, n: int) -> np.ndarray:
        """sum(o) per bucket: over the points, spans containing x times spans containing y."""
        cover = _span_cover_counts(n)
        q = cover.T @ cover[yx - 1]  # integers below 2^53: exact in any BLAS order
        q[-1] = 0.0  # the full-width x-span is not swept
        return q

    @staticmethod
    def _lr_sweep(a: np.ndarray, n: int) -> np.ndarray:
        """sum(o log o) per bucket, every float sum in the order of a per-cell loop."""
        lut = _xlogx_table(n)
        p = np.zeros((2, n + 1, 2, n + 1))
        lens = np.arange(1, n)
        for w in range(1, n):
            # d[c, lo]: the y cumulative count at cut c of the x-span (lo, lo+w].
            d = np.ascontiguousarray((a[w:] - a[: n + 1 - w]).T)
            # Internal y-spans (c, c+l], 1 <= c <= N-1-l, as [length - 1, lo],
            # each total summed in ascending c.
            inner = np.zeros((n - 2, n + 1 - w))
            for c in range(1, n - 1):
                inner[: n - 1 - c] += lut[d[c + 1 : n] - d[c]]
            # Edge y-spans: (0, l] for l = 1..N, then (N-l, N] for l = 1..N-1.
            edge = lut[d[1:] - d[0]]
            edge[: n - 1] += lut[d[n] - d[n - lens]]
            # x-spans in loop order: the edge spans lo = 0, then lo = N-w; the
            # internal spans lo = 1..N-1-w, added one after another.
            for yc, t in ((0, inner), (1, edge)):
                ls = slice(1, 1 + t.shape[0])
                p[1, w, yc, ls] = t[:, 0] + t[:, n - w]
                if n - 1 - w >= 1:
                    p[0, w, yc, ls] = np.cumsum(t[:, 1 : n - w], axis=1)[:, -1]
        return p.reshape(2 * (n + 1), -1)

    @staticmethod
    def _nonempty_counts(yx: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
        """Non-empty cells per bucket: all cells less the empty ones, in O(N^3 log N).

        In an x-span, the y-span (c, c+l] is empty iff l is at most the free
        run above c: the ranks above c and below the span's next y rank.  So
        per x-width the empty cells of length l are the cuts whose free run
        is at least l, a histogram of free runs summed from the top.
        """
        z = np.zeros((2, n + 1, 2, n + 1))
        ls = np.arange(1, n + 1)
        # y-spans of each class and length l = 1..N.
        y_spans = np.array([np.maximum(n - 1 - ls, 0), np.where(ls < n, 2, 1)])
        cuts = np.arange(1, n - 1)[:, None]  # the lower cuts of internal y-spans
        for w in range(1, n):
            nlo = n + 1 - w
            lo = np.arange(nlo)
            d = (a[w:] - a[:nlo]).T
            # ys[lo]: the sorted y ranks of the x-span (lo, lo+w], then N+1.
            ys = np.full((nlo, w + 1), n + 1)
            ys[:, :w] = np.sort(sliding_window_view(yx, w), axis=1)
            # Keys x class * (N+1) + free run; internal y-spans end by rank N-1.
            xkey = np.where((lo >= 1) & (lo <= n - 1 - w), 0, n + 1)
            above = ys[lo, d[1 : n - 1]]
            runs = (
                xkey + np.minimum(above - cuts - 1, n - 1 - cuts),
                np.concatenate((xkey + ys[:, 0] - 1, xkey + n - ys[:, w - 1])),
            )
            x_spans = np.array([[n - 1 - w], [2]])
            for yc, run in enumerate(runs):
                hist = np.bincount(run.ravel(), minlength=2 * (n + 1)).reshape(2, n + 1)
                empty = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]
                z[:, w, yc, 1:] = x_spans * y_spans[yc] - empty[:, 1:]
        return z.reshape(2 * (n + 1), -1)

    @staticmethod
    def _square_sweep(a: np.ndarray, n: int) -> np.ndarray:
        """sum(o^2) per bucket from per-width Gram matrices (exact integers)."""
        af = a[:, 1:].astype(float)
        p = np.zeros((2, n + 1, 2, n + 1))
        flat, starts = _lag_sorted_pairs(n)
        step = max(1, _GRAM_BLOCK_BYTES // (16 * n * n))
        lens = np.arange(1, n)  # y-lengths of the edge spans (N-l, N]
        li = lens[:-1]  # y-lengths of the internal spans
        for w0 in range(1, n, step):
            widths = range(w0, min(w0 + step, n))
            gram = np.empty((2, len(widths), n, n))
            for i, w in enumerate(widths):
                d = af[w:] - af[: n + 1 - w]
                inner = d[1:-1]
                outer = d[:: n - w]
                gram[0, i] = inner.T @ inner
                gram[1, i] = outer.T @ outer
            # Columns are y-ranks 1..N: g[j-1] = G[j, j], last[j-1] = G[j, N],
            # sup[l-1] sums G[j, j+l] over j; all indexed [x class, width].
            g = np.diagonal(gram, axis1=2, axis2=3)
            last = gram[..., n - 1]
            sup = np.add.reduceat(gram.reshape(2, len(widths), n * n)[..., flat], starts, axis=-1)
            cg = np.cumsum(g, axis=-1)
            block = p[:, w0 : w0 + len(widths)]
            # Internal y-spans (c, c+l], 1 <= c <= N-1-l: the l-th superdiagonal
            # sum includes the edge pair (N-l, N], taken back out.
            block[:, :, 0, 1 : n - 1] = (
                cg[..., n - 2 - li]
                + (cg[..., n - 2 : n - 1] - cg[..., li - 1])
                - 2.0 * (sup[..., li - 1] - last[..., n - 1 - li])
            )
            # Edge y-spans: (0, l] for l = 1..N, and (N-l, N] for l = 1..N-1.
            block[:, :, 1, 1:] = g
            block[:, :, 1, 1:n] += (
                g[..., n - 1 : n] + g[..., n - 1 - lens] - 2.0 * last[..., n - 1 - lens]
            )
        return p.reshape(2 * (n + 1), -1)

    @staticmethod
    def _pearson_totals(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
        """sum((o - e)^2 / e) per bucket, e = width * length / N, computed in p."""
        sized, safe, expected = _pearson_size_terms(n)
        p *= n
        p /= safe
        q *= 2.0
        p -= q
        p += expected
        p[~sized] = 0.0
        return p

    def _contract(self, totals: np.ndarray, ms) -> np.ndarray:
        rows = _span_weight_rows(self.n, max(ms))[np.subtract(ms, 2)]
        # Per m, the y weights folded into each x bucket by a pairwise row
        # sum, whose order numpy fixes; then one correctly rounded sum over x.
        with np.errstate(over="ignore", invalid="ignore"):
            fold = np.array([(totals * r).sum(axis=1) for r in rows])
        return _per_m_sums(rows, fold, ms, self.n)

    def contract(self, ms) -> np.ndarray:
        """Sum statistic S_m for each m in ``ms``: the score summed over partitions."""
        return self._contract(self._totals, list(ms))

    def contract_nonempty(self, ms) -> np.ndarray:
        """Non-empty cells summed over all size-m partitions, for each m in ``ms``."""
        if self._nonempty is None:
            raise ValueError("cells were swept without nonempty-cell counts")
        return self._contract(self._nonempty, list(ms))


def adp_sum_all_m(x, y, score, m_max: int | None = None) -> PerMStatistics:
    """Sum-aggregated grid-partition statistic for every m in 2..m_max.

    One O(N^4) sweep of :class:`GridCells` accumulates per-size cell totals;
    every per-m value is then an O(N^2) weighted contraction, with expected
    counts width*length/N.  ``m_max`` defaults to floor(sqrt(N)).
    """
    return _sum_all_m(ADP_SUM, x, y, score, m_max)


# ---------------------------------------------------------------------------
# Point-anchored partitions, sum aggregation


class PointCells:
    """Every valid point-anchored cell, swept once, then contracted per m.

    The sweep buckets cells by (defining points k, outer count), which fixes
    the number of size-m partitions containing a cell; :meth:`contract`
    weights the bucket totals per m, with the expected-count divisor
    N - m + 1 entering only there.  ``ddp_sum_all_m``, the ``ddp_sum``
    null-table rows and ``mi_ddp`` all go through this class, as for
    :class:`GridCells` with a y-by-x arrangement ``yx``.  With
    ``nonempty`` the sweep also counts non-empty cells for the Miller-Madow
    correction of ``mi_ddp``.  The sweep's packed cell keys
    (:func:`_point_key_fields`) fit in int64 only for N < 2^19; a larger N
    is refused before the count grid is built.
    """

    def __init__(self, yx, score: ScoreKind, nonempty: bool = False):
        if yx.size >= 1 << 19:
            raise ValueError(f"point-anchored cell keys fit only for N < 2^19, got N={yx.size}")
        self.n = yx.size
        self.score = score
        *uvw, self._z = _point_cell_tables(yx, score, nonempty)
        self._uvw = np.stack([t for t in uvw if t is not None])[:, None]

    def _contract(self, totals: np.ndarray, ms) -> np.ndarray:
        rows = _point_weight_rows(self.n, max(ms))[np.subtract(ms, 2)]
        return _per_m_sums(rows, totals, ms, self.n)

    def contract(self, ms) -> np.ndarray:
        """Sum statistic S_m for each m in ``ms``: the score summed over partitions."""
        ms = list(ms)
        u, v, *w = self._contract(self._uvw, ms)
        div = self.n + 1 - np.array(ms)
        if self.score is ScoreKind.LIKELIHOOD_RATIO:
            # o*log(o/e) with e = area/div splits into the bucketed numerator
            # plus o*log(div), so the m-dependence is a single scalar.
            return u + _log_table(self.n)[div] * v
        return div * u - 2.0 * v + w[0] / div

    def contract_nonempty(self, ms) -> np.ndarray:
        """Non-empty cells summed over all size-m partitions, for each m in ``ms``."""
        if self._z is None:
            raise ValueError("cells were swept without nonempty-cell counts")
        return self._contract(self._z, list(ms))


# Cells scored at once by one chunk of consecutive extents of the
# point-anchored sweep: enough to make the per-chunk calls few, few enough
# for the chunk buffers to stay small.
_POINT_CHUNK_CELLS = 1 << 14


def _point_key_fields(n: int) -> tuple[int, int, int]:
    """(row cap, count shift, bucket shift) of the packed cell keys of an N-point sweep.

    A key is bucket * 2^bucket_shift + count * 2^count_shift + length.  In a
    chunk of at most ``rows`` extents, a cell of the chunk's i-th extent has a
    key difference holding bucket + i*5(N+1) < rows*5(N+1), a count o <= N
    and length + i*(N+1) < rows*(N+1), each field just wide enough for its
    largest value.  The row cap halves from N until the three fields fit in
    62 bits, so no key and no key difference overflows int64 (any N below
    2^19; :class:`PointCells` refuses a larger N).
    """
    count_bits = n.bit_length()
    rows = n
    while True:
        len_bits = (rows * (n + 1) - 1).bit_length()
        bucket_bits = (rows * 5 * (n + 1) - 1).bit_length()
        if rows == 1 or len_bits + count_bits + bucket_bits <= 62:
            return rows, len_bits, len_bits + count_bits
        rows //= 2


def _point_extent_plan(a: np.ndarray, y_of_x: np.ndarray, max_rows: int):
    """Triangle ends and chunks of every extent (rl, rh), in (rl, rh) order.

    The y bounds of an extent are its bound list; a cut t (the y rank of rl
    or rh) sits at position t less the inner points below it, read from the
    count grid, or 0 for no cut.  The valid pairs are three triangles of
    positions ending at c1 <= c2 <= top = nv + 1, nv being the number of
    points outside the extent.  A chunk is a run of one rl's extents that
    start within the same ``_POINT_CHUNK_CELLS`` cells and the same block of
    ``max_rows`` rows.

    Returns (c1, c2, before, new_chunk, capacity): before counts the cells of
    the earlier extents, new_chunk flags each chunk's first extent, and
    capacity is the most cells of any chunk.
    """
    n = a.shape[0] - 1
    tri_i, tri_j = _pair_index_cache(n + 2)
    is_extent = tri_j - tri_i >= 2
    rls = tri_i[is_extent]
    rhs = tri_j[is_extent]

    def cut_position(x, valid):
        t = y_of_x[x]
        return np.where(valid, t - a[rhs - 1, t - 1] + a[rls, t - 1], 0)

    cu = cut_position(rls, rls >= 1)
    cv = cut_position(rhs, rhs <= n)
    c1 = np.minimum(cu, cv)
    c2 = np.maximum(cu, cv)
    top = n + 2 + rls - rhs
    cells = (c1 * (c1 + 1) + (c2 - c1) * (c2 - c1 + 1) + (top - c2) * (top - c2 + 1)) // 2
    rows = rhs - rls - 2
    before = np.cumsum(cells) - cells
    budget = (before - before[rows == 0][rls]) // _POINT_CHUNK_CELLS
    block = rows // max_rows
    new_chunk = rows == 0
    new_chunk[1:] |= (budget[1:] != budget[:-1]) | (block[1:] != block[:-1])
    starts = np.flatnonzero(new_chunk)
    capacity = int(np.diff(before[starts], append=before[-1] + cells[-1]).max())
    return c1, c2, before, new_chunk, capacity


def _point_bound_keys(a, y_of_x, rl, offsets, count_shift, bucket_shift):
    """Packed parts of a cell bounded below (lo) and above (hi) by each y bound.

    Row i of each (N - rl, N+2) table is the extent (rl, rl + 2 + i); column
    s is the y bound s.  A cell's bucket, count o and y length, packed as in
    :func:`_point_key_fields`, are hi[sh] - lo[sl], and row i of ``hi`` also
    carries offsets[i] in the bucket and length fields.  A cell's bucket is
    k * (N+1) + its outer count.  k counts rl and rh inside the axis, a lower
    y bound s >= 1 and an upper one s <= N, less the bounds that are the y
    ranks of rl or rh; the outer count is the outside points below the lower
    bound and above the upper.  Its count is the inner points with y in
    (sl, sh), and its length sh - sl - 1.
    """
    n = a.shape[0] - 1
    rh = np.arange(rl + 2, n + 2)
    rows = np.arange(rh.size)
    ys = np.arange(n + 2)
    # outside[i, s]: the points with x < rl or x > rh and y <= s.
    outside = a[np.minimum(rh, n)]
    np.subtract(a[n], outside, out=outside)
    if rl >= 1:
        outside += a[rl - 1]
    inner = a[rh - 1]
    inner -= a[rl]
    inner <<= count_shift
    step = n + 1
    lo = np.zeros((rh.size, n + 2), dtype=np.int64)
    lo[:, 1:] = outside
    lo += step * (int(rl >= 1) + (rh <= n))[:, None]
    lo[:, 1:] += step
    hi = np.zeros((rh.size, n + 2), dtype=np.int64)
    hi[:, : n + 1] = outside[:, n:]
    hi[:, : n + 1] -= outside
    hi[:, : n + 1] += step
    hi += (5 * step * offsets)[:, None]
    # Bounds at the y ranks of rl and rh count one defining point less.
    for table in (lo, hi):
        if rl >= 1:
            table[:, y_of_x[rl]] -= step
        table[rows[:-1], y_of_x[rh[:-1]]] -= step
    lo *= -(1 << bucket_shift)
    lo[:, : n + 1] += inner
    lo += ys
    hi *= 1 << bucket_shift
    hi[:, 1:] += inner
    hi += ys - 1
    hi += (step * offsets)[:, None]
    return lo, hi


def _point_cell_tables(yx: np.ndarray, score: ScoreKind, with_nonempty: bool):
    """Valid point-anchored cells bucketed by (defining points k, outer count).

    A candidate cell [rl, rh] x [sl, sh] (0 and N+1 stand for the axis
    boundaries) is a cell of some partition iff each boundary cut passes
    through a sample point whose other coordinate falls outside the open cell
    extent; k is the number of distinct such points (coincidences are corner
    points) and the cell then belongs to C(out, m-1-k) partitions of size m,
    where out counts the sample points strictly inside the four outer corner
    quadrants.

    For each x extent (rl, rh) the y bounds are the y ranks of the points
    outside it, plus 0 and N+1, and a pair of them is valid iff no y cut of
    rl or rh lies strictly between: the pairs of three triangles of bound
    positions, split at the two cuts (:func:`_point_extent_plan`).  Only
    those pairs are enumerated, in lexicographic order.  A cell's bucket,
    count o and y length are one packed key difference, hi-bound key less
    lo-bound key (:func:`_point_bound_keys`), split by shifts and masks.
    Each triangle is one gather per end: the tail of the cached pair
    triangle read through a view of the extent's compacted keys.

    Extents are scored a chunk of consecutive rh at a time.  The hi keys of
    a chunk's i-th extent carry i in the bucket and length fields, so one
    bincount gives every extent's per-bucket sums, and one lookup its
    (width, length) terms.

    Returns flat (5*(N+1),) buckets: for the likelihood ratio U sums
    o*log(o) - o*log(inner_area) and V sums o; for Pearson U sums
    o^2/inner_area, V sums o and W sums inner_area.  Z counts non-empty cells.
    U is summed in the order of a per-cell loop: per (rl, rh), in (rl, rh)
    order, a sum from 0.0 over the extent's cells in lexicographic order is
    added into U.  V, W and Z are sums of integers, exact in any order.
    Cells with empty interior (y length 0) are enumerated too; they add
    exact zeros.
    """
    n = yx.size
    a = _count_grid(yx).a
    lr = score is ScoreKind.LIKELIHOOD_RATIO
    # -1 at the axis boundaries 0 and N+1: no cut there.
    y_of_x = np.full(n + 2, -1, dtype=np.int64)
    y_of_x[1 : n + 1] = yx
    # 0 at the y bounds 0 and N+1, which bound every extent.
    x_of_y = np.zeros(n + 2, dtype=np.int64)
    x_of_y[yx] = np.arange(1, n + 1)
    nbuck = 5 * (n + 1)
    npos = n + 2
    u_acc = np.zeros(nbuck)
    v_acc = np.zeros(nbuck)
    w_acc = np.zeros(nbuck) if not lr else None
    z_acc = np.zeros(nbuck) if with_nonempty else None
    max_rows, count_shift, bucket_shift = _point_key_fields(n)
    count_mask = (1 << (bucket_shift - count_shift)) - 1
    len_mask = (1 << count_shift) - 1
    # Row r of rl's extents has width r + 1, so the (row, length) terms of a
    # chunk starting at row r0 are a view of one table.
    widths = np.arange(1, n + 1)
    if lr:
        lut = _xlogx_table(n)
        len_terms = np.add.outer(_log_table(n)[widths], _log_table(n)).ravel()
    else:
        areas = np.multiply.outer(widths, np.arange(n + 1)).astype(float).ravel()
        divisors = np.where(areas > 0, areas, np.inf)
    c1s, c2s, before, new_chunk, capacity = _point_extent_plan(a, y_of_x, max_rows)
    # The triangle of s positions is the last s(s-1)/2 pairs of this one,
    # shifted down by npos - s.
    tri_i, tri_j = _pair_index_cache(npos)
    ntri = tri_i.size
    # One rl's compacted keys behind npos entries of padding, so that the
    # view of a triangle ending at position hi starts at hi + 1 of its row.
    lo_keys = np.empty(npos + npos * (n + 1) // 2, dtype=np.int64)
    hi_keys = np.empty_like(lo_keys)
    # Chunk buffers.  cell_buf holds hi keys, then cell keys, then length
    # keys, then float terms; buck_buf holds lo keys, then buckets.
    cell_buf = np.empty(capacity, dtype=np.int64)
    buck_buf = np.empty(capacity, dtype=np.int64)
    o_buf = np.empty(capacity, dtype=np.int64)
    g_buf = np.empty(capacity)

    def bucket_rows(buck, weights, nrow):
        # Row i: the chunk's i-th extent, each bucket summed in cell order.
        return np.bincount(buck, weights=weights, minlength=nrow * nbuck).reshape(nrow, nbuck)

    e0 = 0
    for rl in range(n):
        ext = slice(e0, e0 + n - rl)
        e0 = ext.stop
        rows = np.arange(n - rl)
        chunk_row = np.maximum.accumulate(np.where(new_chunk[ext], rows, 0))
        lo, hi = _point_bound_keys(a, y_of_x, rl, rows - chunk_row, count_shift, bucket_shift)
        # The y bounds of (rl, rh): the y ranks of points with x outside it.
        keep = ((x_of_y <= rl) | (x_of_y >= rows[:, None] + rl + 2)).ravel()
        row_len = n + 1 - rows
        stop = npos + int(row_len.sum())
        np.compress(keep, lo.ravel(), out=lo_keys[npos:stop])
        np.compress(keep, hi.ravel(), out=hi_keys[npos:stop])
        # Per nonempty triangle, in sweep order: where its view starts in the
        # compacted keys, where its pairs start in the pair triangle, and the
        # span its cells take in the chunk buffers.
        ends = np.stack((c1s[ext], c2s[ext], n - rows), axis=1)
        steps = np.diff(ends, axis=1, prepend=0)
        tri_cells = (steps * (steps + 1) // 2).ravel()
        live = tri_cells > 0
        view = (np.cumsum(row_len) - row_len)[:, None] + ends + 1
        dest_end = np.cumsum(tri_cells) - np.repeat(before[ext][chunk_row] - before[ext.start], 3)
        triangles = list(
            zip(
                view.ravel()[live].tolist(),
                (ntri - tri_cells[live]).tolist(),
                (dest_end - tri_cells)[live].tolist(),
                dest_end[live].tolist(),
            )
        )
        # Live triangles before each row, and each chunk's first row.
        tri_before = [0, *np.cumsum(live.reshape(-1, 3).sum(axis=1)).tolist()]
        chunk_rows = [*np.flatnonzero(new_chunk[ext]).tolist(), rows.size]
        for r0, r1 in zip(chunk_rows, chunk_rows[1:]):
            # Every index is in range, and mode="wrap" skips the bounds check.
            for v, tail, p, q in triangles[tri_before[r0] : tri_before[r1]]:
                hi_keys[v:].take(tri_j[tail:], out=cell_buf[p:q], mode="wrap")
                lo_keys[v:].take(tri_i[tail:], out=buck_buf[p:q], mode="wrap")
            cell = cell_buf[:q]
            np.subtract(cell, buck_buf[:q], out=cell)
            buck = np.right_shift(cell, bucket_shift, out=buck_buf[:q])
            o = np.right_shift(cell, count_shift, out=o_buf[:q])
            o &= count_mask
            cell &= len_mask
            nrow = r1 - r0
            terms = slice(r0 * (n + 1), None)
            g = g_buf[:q]
            if lr:
                np.take(len_terms[terms], cell, out=g)
                g *= o
            else:
                np.take(areas[terms], cell, out=g)
                w_acc += bucket_rows(buck, g, nrow).sum(axis=0)
                np.take(divisors[terms], cell, out=g)
            # The length keys are spent: cell_buf now holds float terms.
            f = cell.view(np.float64)
            if lr:
                np.take(lut, o, out=f)
                f -= g
            else:
                np.multiply(o, o, out=f)
                f /= g
            for row in bucket_rows(buck, f, nrow):
                u_acc += row
            np.copyto(g, o)
            v_acc += bucket_rows(buck, g, nrow).sum(axis=0)
            if with_nonempty:
                np.greater(o, 0, out=g)
                z_acc += bucket_rows(buck, g, nrow).sum(axis=0)
    return u_acc, v_acc, w_acc, z_acc


# The cell layer of each sum family.
SUM_CELLS = {ADP_SUM: GridCells, DDP_SUM: PointCells}


def ddp_sum_all_m(x, y, score, m_max: int | None = None) -> PerMStatistics:
    """Sum-aggregated point-anchored statistic for every m in 2..m_max.

    :class:`PointCells` classifies cells once by defining-point count and
    outer-quadrant occupancy (O(N^4) sweep); the expected count divisor
    N - m + 1 enters only per m.  ``m_max`` defaults to floor(sqrt(N)).
    """
    return _sum_all_m(DDP_SUM, x, y, score, m_max)


def _sum_all_m(family: str, x, y, score, m_max: int | None) -> PerMStatistics:
    """One sweep of the family's cell layer over the y-by-x arrangement, contracted per m."""
    score = ScoreKind.parse(score)
    yx = y_by_x(x, y)
    n = yx.size
    m_max = _check_m_max(m_max, "independence", n)
    values = SUM_CELLS[family](yx, score).contract(range(2, m_max + 1))
    return PerMStatistics(family=family, score=score, values=values, n=n)


# ---------------------------------------------------------------------------
# Max aggregation (small m only)


def _cell_terms(o, width, length, n: int, div: int, score: ScoreKind):
    """Scores of cells with counts ``o`` and sides ``width`` x ``length``, elementwise.

    The expected count is width * length / div.  The likelihood-ratio term is
    o log o - o (log width + log length - log div), read from the cached log
    tables as in :class:`PointCells`; Pearson is (o - e)^2 / e.  A zero-area
    cell scores 0.
    """
    if score is ScoreKind.LIKELIHOOD_RATIO:
        lg = _log_table(n)
        return _xlogx_table(n)[o] - o * (lg[width] + lg[length] - lg[div])
    e = np.multiply(width, length, dtype=float) / div
    d = (o - e) ** 2  # 0 in a zero-area cell, which holds no points
    return np.divide(d, e, out=d, where=e > 0)


def _partition_scores_from_cuts(a: np.ndarray, xcuts, ycuts, score: ScoreKind, m: int):
    """Partition scores T^I, from count-grid array ``a``, for a batch of point-anchored cut sets.

    ``xcuts``/``ycuts`` are (B, m-1) arrays of sorted cut ranks; counts are
    taken strictly inside cells and expected counts divide by N - m + 1.
    """
    n = len(a) - 1
    low = np.zeros(xcuts.shape[0], dtype=np.int64)
    xb = np.column_stack((low, xcuts, low + n + 1))
    yb = np.column_stack((low, ycuts, low + n + 1))
    total = np.zeros(low.size)
    for rl, rh in zip(xb.T[:-1], xb.T[1:]):
        for sl, sh in zip(yb.T[:-1], yb.T[1:]):
            o = a[rh - 1, sh - 1] - a[rl, sh - 1] - a[rh - 1, sl] + a[rl, sl]
            total += _cell_terms(o, rh - rl - 1, sh - sl - 1, n, n - m + 1, score)
    return total


def ddp_max(x, y, score, m: int) -> float:
    """Max-aggregated point-anchored statistic; only m in {2, 3, 4} is tractable."""
    score = ScoreKind.parse(score)
    yx = y_by_x(x, y)
    n = yx.size
    if m not in (2, 3, 4):
        raise ValueError("exponential regime: max aggregation supports m in {2, 3, 4}")
    if n < m:
        raise ValueError("need at least m observations")
    a = _count_grid(yx).a
    best = -math.inf
    # Each set of m-1 anchor points, by x position: its x cuts come sorted.
    combos = combinations(range(n), m - 1)
    while (block := np.asarray(list(islice(combos, 200_000)), dtype=np.int64)).size:
        ycuts = np.sort(yx[block], axis=1)
        scores = _partition_scores_from_cuts(a, block + 1, ycuts, score, m)
        best = max(best, float(scores.max()))
    return best


def _grid_m2_partition_scores(grid: CumulativeCountGrid, score: ScoreKind) -> np.ndarray:
    """T^I for every 2x2 grid partition, indexed by cut position pair."""
    a = grid.a
    n = grid.n
    # Cut positions; x of the N points lie left of x cut x, and y below y cut y.
    x = np.arange(1, n)[:, None]
    y = np.arange(1, n)[None, :]
    n11 = a[1:n, 1:n]
    cells = (
        (n11, x, y),
        (x - n11, x, n - y),
        (y - n11, n - x, y),
        (n - x - y + n11, n - x, n - y),
    )
    total = np.zeros((n - 1, n - 1))
    for o, width, length in cells:
        total += _cell_terms(o, width, length, n, n, score)
    return total


def adp_max_2x2(x, y, score) -> float:
    """Max-aggregated grid statistic for m = 2 over all (N-1)^2 partitions."""
    score = ScoreKind.parse(score)
    grid = _count_grid(y_by_x(x, y))
    if grid.n < 2:
        raise ValueError("need at least two observations")
    return float(_grid_m2_partition_scores(grid, score).max())


def penalized_adp_sum(stats: PerMStatistics, prior: PriorSpec) -> float:
    """Best penalized per-partition average: S_m / C(N-1, m-1)^2 + log pi(m)."""
    if stats.family != ADP_SUM:
        raise ValueError("penalized_adp_sum expects grid-partition sum statistics")
    return float(penalize(stats.values, stats.family, stats.n, prior))


# ---------------------------------------------------------------------------
# Pairwise-classification statistic


def _axis_windows(uvals: np.ndarray, p: int):
    """Inclusive unique-index window of the open ball around value p, per target q.

    For each target value index q, the window holds every unique value whose
    distance to uvals[p] is strictly below |uvals[q] - uvals[p]|.  Distances
    are compared as computed floats, never recombined, so ties in distance
    behave exactly as in the naive definition.
    """
    nu = uvals.size
    vi = uvals[p]
    # Distances to the values below p (nearest first) and above it; rounding
    # is monotone, so both computed arrays ascend.
    left = vi - uvals[:p][::-1]
    right = uvals[p + 1 :] - vi
    # A target below p opens its window at q + 1, one above closes it at q - 1.
    lo = np.arange(1, nu + 1)
    hi = np.arange(-1, nu - 1)
    lo[p], hi[p] = 0, -1
    lo[p + 1 :] = p - np.searchsorted(left, right, side="left")
    hi[:p] = p + np.searchsorted(right, left[::-1], side="left")
    return lo, hi


def hhg_univariate(x, y) -> float:
    """Pairwise-classification statistic on raw values (or ranks), in O(N^2).

    For every ordered pair (i, j) the remaining points are classified by
    whether their axis distances to point i are strictly below the distances
    from j to i; the Pearson statistic of the resulting 2x2 table is summed
    over all pairs.  Passing :class:`RankedSample` inputs gives the
    distribution-free variant; both share this implementation.
    """
    xv = x.ranks.astype(float) if isinstance(x, RankedSample) else np.asarray(x, dtype=float)
    yv = y.ranks.astype(float) if isinstance(y, RankedSample) else np.asarray(y, dtype=float)
    if xv.size != yv.size:
        raise ValueError("x and y must have equal length")
    n = xv.size
    if n < 3:
        raise ValueError("need at least three observations")
    ux, px = np.unique(xv, return_inverse=True)
    uy, py = np.unique(yv, return_inverse=True)
    ccx = np.zeros(ux.size + 1, dtype=np.int64)
    ccx[1:] = np.cumsum(np.bincount(px, minlength=ux.size))
    ccy = np.zeros(uy.size + 1, dtype=np.int64)
    ccy[1:] = np.cumsum(np.bincount(py, minlength=uy.size))
    a = np.zeros((ux.size + 1, uy.size + 1), dtype=np.int64)
    np.add.at(a, (px + 1, py + 1), 1)
    np.cumsum(a, axis=0, out=a)
    np.cumsum(a, axis=1, out=a)
    nn = float(n - 2)
    total = 0.0
    for i in range(n):
        lox_u, hix_u = _axis_windows(ux, int(px[i]))
        loy_u, hiy_u = _axis_windows(uy, int(py[i]))
        lx = lox_u[px]
        hx = hix_u[px]
        ly = loy_u[py]
        hy = hiy_u[py]
        valid = (hx >= lx) & (hy >= ly)
        cx = np.where(hx >= lx, ccx[hx + 1] - ccx[lx] - 1, 0).astype(float)
        cy = np.where(hy >= ly, ccy[hy + 1] - ccy[ly] - 1, 0).astype(float)
        o11 = a[hx + 1, hy + 1] - a[lx, hy + 1] - a[hx + 1, ly] + a[lx, ly]
        o11 = np.where(valid, o11 - 1, 0).astype(float)
        b = cx - o11
        c = cy - o11
        d = nn - cx - cy + o11
        den = cx * (nn - cx) * cy * (nn - cy)
        num = (o11 * d - b * c) ** 2
        terms = np.where(den > 0, nn * num / np.maximum(den, 1.0), 0.0)
        total += float(np.sum(terms))
    return total
