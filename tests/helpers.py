import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from partitest import (
    GroupedSample,
    NullTable,
    NullTableMeta,
    RankedSample,
    ScoreKind,
    rank_with_random_ties,
)
from partitest.core import _cell_index_cache, _count_grid, _log_table, _xlogx_table
from partitest.nulltable import EXACT_LIMIT, exact_enumeration_count


def random_grouped_labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Random label vector in 1..k with every group non-empty."""
    while True:
        labels = rng.integers(1, k + 1, size=n)
        if np.unique(labels).size == k:
            return labels


def random_rank_pair(rng: np.random.Generator, n: int):
    """An (x, y) pair of rank permutations, x kept as the identity."""
    return np.arange(1, n + 1), rng.permutation(n) + 1


def golden_sweep() -> dict:
    """Recorded float.hex values: sum and max statistics, MI, HHG, `run_test` and the oracles."""
    return json.loads((Path(__file__).parent / "golden_sweep.json").read_text())


def golden_grouped(n: int, k: int) -> GroupedSample:
    """A seeded near-balanced K-sample arrangement, responses ranked 1..N."""
    sizes = [n // k + (g < n % k) for g in range(k)]
    base = np.repeat(np.arange(1, k + 1), sizes)
    labels = np.random.default_rng(2000 + 10 * n + k).permutation(base)
    return GroupedSample(labels, RankedSample(np.arange(1, n + 1), n, 0), tuple(sizes))


def golden_shuffled_pair(n: int):
    """A seeded (x, y) pair of raw rank arrays, both axes shuffled."""
    rng = np.random.default_rng(4000 + n)
    return rng.permutation(n) + 1, rng.permutation(n) + 1


def golden_hhg_pair(n: int, kind: str):
    """A seeded dependent (x, y) pair: ``untied`` or ``tied`` raw values, or ``ranks``."""
    rng = np.random.default_rng(3000 + n)
    if kind == "tied":
        x = rng.integers(0, 6, size=n).astype(float)
        return x, np.round(x + rng.normal(0.0, 2.0, size=n))
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    if kind == "ranks":
        return rank_with_random_ties(x, 1), rank_with_random_ties(y, 2)
    return x, 1e8 + y


def reference_grid_lr_sweep(a: np.ndarray, n: int, nonempty: bool):
    """The grid likelihood-ratio sweep as a loop over x-spans: sum(o log o) per bucket.

    Each x-span scores its y-spans with one bincount over y class * (N+1) +
    length, in lexicographic y-span order, and x-spans are added in loop
    order into row x class * (N+1) + width. ``GridCells`` must reproduce
    these tables byte for byte.
    """
    lut = _xlogx_table(n)
    cc, dd = np.triu_indices(n + 1, k=1)
    keys = np.where((cc == 0) | (dd == n), n + 1, 0) + (dd - cc)
    nk = 2 * (n + 1)
    p = np.zeros((nk, nk))
    z = np.zeros((nk, nk)) if nonempty else None
    for lo in range(n):
        row_lo = a[lo]
        for hi in range(lo + 1, n + (lo > 0)):
            xkey = (0 if (lo >= 1 and hi <= n - 1) else n + 1) + hi - lo
            diff = a[hi] - row_lo
            o = diff[dd] - diff[cc]
            p[xkey] += np.bincount(keys, weights=lut[o], minlength=nk)
            if nonempty:
                z[xkey] += np.bincount(keys[o > 0], minlength=nk)
    return p, z


def reference_point_cell_tables(yx: np.ndarray, score: ScoreKind, with_nonempty: bool):
    """The point-anchored sweep over every candidate cell, masked down to the valid ones.

    Returns the (U, V, W, Z) bucket tables that ``_point_cell_tables`` must
    reproduce byte for byte.
    """
    n = yx.size
    a = _count_grid(yx).a
    lr = score is ScoreKind.LIKELIHOOD_RATIO
    lut = _xlogx_table(n)
    loglen = _log_table(n)
    y_of_x = np.full(n + 2, -1, dtype=np.int64)
    y_of_x[1 : n + 1] = yx
    xs_by_y = np.empty(n, dtype=np.int64)
    xs_by_y[yx - 1] = np.arange(1, n + 1)
    nbuck = 5 * (n + 1)
    u_acc = np.zeros(nbuck)
    v_acc = np.zeros(nbuck)
    w_acc = np.zeros(nbuck) if not lr else None
    z_acc = np.zeros(nbuck) if with_nonempty else None
    a_last = a[n]
    zeros_row = np.zeros(n + 1, dtype=np.int64)
    for rl in range(0, n):
        row_rl = a[rl]
        row_rlm1 = a[rl - 1] if rl >= 1 else zeros_row
        u_cut = y_of_x[rl]
        for rh in range(rl + 2, n + 2):
            width = rh - rl - 1
            v_cut = y_of_x[rh]
            ok = ~((xs_by_y > rl) & (xs_by_y < rh))
            vs = np.flatnonzero(ok) + 1
            nv = vs.size
            svals = np.empty(nv + 2, dtype=np.int64)
            svals[0] = 0
            svals[1 : nv + 1] = vs
            svals[nv + 1] = n + 1
            ii, jj = np.triu_indices(nv + 2, k=1)
            sl = svals[ii]
            sh = svals[jj]
            keep = (sh - sl) >= 2
            iu, iv = np.searchsorted(svals, (u_cut, v_cut))
            keep &= ~((ii < iu) & (jj > iu))
            keep &= ~((ii < iv) & (jj > iv))
            sl = sl[keep]
            sh = sh[keep]
            ii_k = ii[keep]
            jj_k = jj[keep]
            diff = a[rh - 1] - row_rl
            o = diff[sh - 1] - diff[sl]
            outside = row_rlm1 + a_last - a[min(rh, n)]
            out_tot = int(outside[n])
            pad_lo = np.concatenate(([0], outside))
            pad_hi = np.concatenate((outside, [out_tot]))
            out_cnt = pad_lo[sl] + (out_tot - pad_hi[sh])
            k = int(rl >= 1) + int(rh <= n) + (ii_k >= 1) + (jj_k <= nv)
            k = k - (sl == u_cut) - (sh == u_cut) - (sl == v_cut) - (sh == v_cut)
            length = sh - sl - 1
            buck = k * (n + 1) + out_cnt
            if lr:
                val = lut[o] - o * (loglen[width] + loglen[length])
                u_acc += np.bincount(buck, weights=val, minlength=nbuck)
                v_acc += np.bincount(buck, weights=o, minlength=nbuck)
            else:
                area = (width * length).astype(float)
                u_acc += np.bincount(buck, weights=o * o / area, minlength=nbuck)
                v_acc += np.bincount(buck, weights=o, minlength=nbuck)
                w_acc += np.bincount(buck, weights=area, minlength=nbuck)
            if with_nonempty:
                z_acc += np.bincount(buck, weights=(o > 0).astype(float), minlength=nbuck)
    return u_acc, v_acc, w_acc, z_acc


def reference_rank_with_random_ties(values, tie_seed: int):
    """Ranks by a seeded shuffle of every index as the tie-break key: (ranks, tie_seed).

    The fast path of ``rank_with_random_ties`` skips the shuffle for untied
    input and must give these ranks for every input.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(tie_seed)))
    shuffled = rng.permutation(n)
    order = np.lexsort((shuffled, arr))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return ranks, int(tie_seed)


def reference_pvalue_rows(table: NullTable, rows) -> np.ndarray:
    """Per-m p-values (B + 1 - #{v < x}) / (B + 1) of statistic rows: C-contiguous (R, m).

    One ``searchsorted`` per column of the sorted table over all rows; the
    table's own rows (``_self_pvalue_rows``) and each observed row of
    ``run_test`` must give these bits.
    """
    rows = np.atleast_2d(rows)
    columns = np.sort(table.data, axis=0)
    total = table.b + 1.0
    pvals = np.empty(rows.shape)
    for j in range(rows.shape[1]):
        pvals[:, j] = (total - columns[:, j].searchsorted(rows[:, j], side="left")) / total
    return pvals


def render_v1(table: NullTable) -> bytes:
    """A table in the v1 ``.pnt`` text format, as ``save_table`` wrote it before v2.

    UTF-8, LF endings: the version line, nine ``#key=value`` lines, then one
    line per row of tab-separated values printed with 17 significant digits.
    The golden table digests pin these bytes, and so every statistic bit.
    """
    meta = table.meta
    groups = ",".join(str(g) for g in meta.group_sizes) if meta.group_sizes else ""
    header = [
        "#PNT v1",
        f"#problem={meta.problem}",
        f"#family={meta.family}",
        f"#score={meta.score.value}",
        f"#N={meta.n}",
        f"#groups={groups}",
        f"#m_max={meta.m_max}",
        f"#B={meta.b}",
        f"#seed={meta.seed}",
        f"#exact={1 if meta.exact else 0}",
    ]
    rows = ("\t".join(f"{v:.17g}" for v in row) for row in table.data)
    return "".join(f"{line}\n" for line in chain(header, rows)).encode("utf-8")


def reference_load_table(path: str) -> NullTable:
    """Read a v1 ``.pnt`` file one ``float()`` per token.

    ``load_table`` parses v1 rows in one streamed C pass and must give this
    meta and these data bytes, or raise ValueError where this raises it.
    """
    fields: dict[str, str] = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().rstrip("\n")
        if not magic.startswith("#PNT v"):
            raise ValueError("not a null-table file")
        try:
            major = int(magic[len("#PNT v") :].split(".")[0])
        except ValueError as exc:
            raise ValueError("malformed version line") from exc
        if major != 1:
            raise ValueError(f"unsupported format major version {major}")
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                fields[key] = value
            elif line:
                rows.append(np.array([float(tok) for tok in line.split("\t")]))
    for key in ("problem", "family", "score", "N", "m_max", "B", "seed"):
        if key not in fields:
            raise ValueError(f"missing header key: {key}")
    groups = fields.get("groups", "")
    meta = NullTableMeta(
        problem=fields["problem"],
        family=fields["family"],
        score=ScoreKind.parse(fields["score"]),
        n=int(fields["N"]),
        group_sizes=tuple(int(g) for g in groups.split(",")) if groups else None,
        m_max=int(fields["m_max"]),
        b=int(fields["B"]),
        seed=int(fields["seed"]),
        exact=fields.get("exact", "0") == "1",
    )
    if meta.exact and (meta.n > EXACT_LIMIT or meta.b != exact_enumeration_count(meta)):
        raise ValueError(f"exact table holds B={meta.b} rows, not the full enumeration")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("non-finite statistic in table")
    return NullTable(meta=meta, data=data)


def reference_cell_scores(labels_by_rank, group_sizes, score: ScoreKind) -> np.ndarray:
    """Cell scores with one table per group, added per cell in group order.

    Returns t for every cell in ``_cell_index_cache`` order.  The last
    group's count is the width minus the other groups' counts.
    ``ksample._cell_scores`` must give these bytes.
    """
    n = labels_by_rank.size
    lo, hi, _ = _cell_index_cache(n)
    row = (hi - lo) * (n + 1)
    w = np.arange(1, n + 1)[:, None]
    o = np.arange(n + 1)
    if score is ScoreKind.PEARSON:
        tables = [((o - e) ** 2 / e).ravel() for e in (w * (ng / n) for ng in group_sizes)]
    else:
        xlogx, logw = _xlogx_table(n), _log_table(n)[w]
        tables = [(xlogx - o * (logw + math.log(ng / n))).ravel() for ng in group_sizes]
    cum = np.zeros(n + 1, dtype=np.int64)
    for g, table in enumerate(tables[:-1]):
        np.cumsum(labels_by_rank == g + 1, out=cum[1:])
        o = cum[hi] - cum[lo - 1]
        if g == 0:
            t, taken = table[row + o], o
        else:
            t += table[row + o]
            taken += o
    t += tables[-1][row + hi - lo + 1 - taken]
    return t


def reference_max_values(labels_by_rank, group_sizes, score: ScoreKind, m_max: int) -> np.ndarray:
    """The max statistic for m = 2..m_max by a DP over the full (N+1)^2 cell matrix.

    cell[a, i] is the score of cell a+1 .. i, -inf where a >= i; each step
    adds every cell to the best score of its prefix and takes column maxima.
    ``ksample._max_values`` must give these bytes.
    """
    n = labels_by_rank.size
    lo, hi, _ = _cell_index_cache(n)
    cell = np.full((n + 1, n + 1), -np.inf)
    cell[lo - 1, hi] = reference_cell_scores(labels_by_rank, group_sizes, score)
    best = cell[0]
    out = np.empty(m_max - 1)
    for j in range(2, m_max + 1):
        best = np.max(best[:, None] + cell, axis=0)
        out[j - 2] = best[n]
    return out
