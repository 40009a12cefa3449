"""Monte Carlo null tables, persistence, and the combined-p-value tests.

A null table stores one statistic row per random reassignment of a sample of
fixed size: a permutation of one label multiset over the ranks, the group
labels for the K-sample problem and the y ranks (N singleton groups) for
independence.  Because the statistics are rank-based, a table
depends only on (N, group sizes, family, score) and is reusable across
datasets; p-values are tail fractions with the +1 convention.

The combined tests follow a three-step calibration: per-m p-values for the
observed data against the table, the same per-m p-values for every replicate
against the table itself, and a final p-value of the combined statistic
against the combined null distribution.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import re
import stat
import tempfile
from dataclasses import dataclass, field, replace
from itertools import chain, islice

import numpy as np

from . import ksample as _ks
from .core import GroupedSample, ScoreKind, _freeze, chunk_map, seeded_generator, y_by_x
from .independence import SUM_CELLS
from .ksample import PriorSpec, penalize

__all__ = [
    "NullTableMeta",
    "NullTable",
    "TestResult",
    "generate_null_table",
    "save_table",
    "load_table",
    "p_value",
    "combined_statistic",
    "combined_null_distribution",
    "run_test",
    "exact_enumeration_count",
]

EXACT_LIMIT = 10**5

_KSAMPLE_FAMILIES = ("sum", "max")
_INDEP_FAMILIES = ("adp_sum", "ddp_sum")
_COMBINE_KINDS = ("minp", "fisher", "penalized")


@dataclass(frozen=True)
class NullTableMeta:
    """Identity of a null table; two tables with equal meta hold identical data."""

    problem: str
    family: str
    score: ScoreKind
    n: int
    group_sizes: tuple[int, ...] | None
    m_max: int
    b: int
    seed: int
    exact: bool = False

    def __post_init__(self):
        object.__setattr__(self, "score", ScoreKind.parse(self.score))
        if self.problem == "ksample":
            if self.family not in _KSAMPLE_FAMILIES:
                raise ValueError(f"family {self.family!r} invalid for the K-sample problem")
            if not self.group_sizes or len(self.group_sizes) < 2:
                raise ValueError("K-sample tables need at least two group sizes")
            if any(g < 1 for g in self.group_sizes):
                raise ValueError("every group must be non-empty")
            if sum(self.group_sizes) != self.n:
                raise ValueError("group sizes must sum to N")
            object.__setattr__(self, "group_sizes", tuple(int(g) for g in self.group_sizes))
        elif self.problem == "independence":
            if self.family not in _INDEP_FAMILIES:
                raise ValueError(f"family {self.family!r} invalid for the independence problem")
            if self.group_sizes is not None:
                raise ValueError("independence tables carry no group sizes")
        else:
            raise ValueError(f"unknown problem: {self.problem!r}")
        if not 2 <= self.m_max <= self.n:
            raise ValueError("m_max must lie in 2..N")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _label_sizes(meta: NullTableMeta) -> tuple[int, ...]:
    """Multiplicities of the permuted labels: the group sizes, or N ones for independence."""
    return meta.group_sizes or (1,) * meta.n


def exact_enumeration_count(meta: NullTableMeta) -> int:
    """Number of distinct reassignments for this table's sampling problem: N! / prod(g!)."""
    return math.factorial(meta.n) // math.prod(math.factorial(g) for g in _label_sizes(meta))


@dataclass(eq=False)
class NullTable:
    """B null-replicate statistic rows (columns are m = 2..m_max) plus metadata.

    A table caches what every test against it reads: one sorted copy of its
    columns, stored m-major so each m's null sample is one contiguous row, and
    its combined null distributions.  Every statistic must be finite.  A
    caller's writeable array is copied, so it stays the caller's to change.
    """

    meta: NullTableMeta
    data: np.ndarray
    _sorted: np.ndarray | None = field(default=None, repr=False)
    _combined: dict = field(default_factory=dict, repr=False)
    _minp_tested: bool = field(default=False, repr=False)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=float)
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite statistic in table")
        if data.ndim != 2 or data.shape[1] != self.meta.m_max - 1:
            raise ValueError("data shape must be (B, m_max - 1)")
        if data.shape[0] != self.meta.b:
            raise ValueError("row count must match meta.b")
        if data is self.data and data.flags.writeable:
            data = data.copy()
        self.data = _freeze(data)

    @property
    def b(self) -> int:
        return self.meta.b

    @property
    def ms(self) -> np.ndarray:
        return np.arange(2, self.meta.m_max + 1)

    def _sorted_rows(self) -> np.ndarray:
        """Each m's null values in ascending order, as one C-contiguous (m_max - 1, B) array."""
        if self._sorted is None:
            rows = np.array(self.data.T, order="C")
            rows.sort(axis=1)
            self._sorted = _freeze(rows)
        return self._sorted

    def sorted_columns(self) -> np.ndarray:
        """Ascending-sorted columns, shape (B, m_max - 1): a view of the one sorted copy."""
        return self._sorted_rows().T

    def combined_null(self, kind: str, prior: PriorSpec | None = None) -> np.ndarray:
        """The cached combined null; only the penalized one depends on the prior."""
        key = (kind, prior) if kind == "penalized" else kind
        if key not in self._combined:
            self._combined[key] = combined_null_distribution(self, kind, prior)
        return self._combined[key]


def _base_labels(meta: NullTableMeta) -> np.ndarray:
    """The label multiset every arrangement permutes, in ascending order."""
    sizes = _label_sizes(meta)
    return np.repeat(np.arange(1, len(sizes) + 1), sizes)


def _row_statistics(meta: NullTableMeta, arrangement: np.ndarray) -> np.ndarray:
    """Statistic row for one reassignment; the same path scores observed data.

    A K-sample arrangement holds the group label of each response rank; an
    independence arrangement holds the y rank of each x rank (``core.y_by_x``).
    """
    if meta.problem == "ksample":
        if meta.family == "sum":
            return _ks._sum_values(arrangement, meta.group_sizes, meta.score, meta.m_max)
        return _ks._max_values(arrangement, meta.group_sizes, meta.score, meta.m_max)
    cells = SUM_CELLS[meta.family](arrangement, meta.score)
    return cells.contract(range(2, meta.m_max + 1))


def _mc_arrangement(meta: NullTableMeta, index: int, base: np.ndarray) -> np.ndarray:
    return seeded_generator((meta.seed, index)).permutation(base)


def _multiset_permutations(base: list[int]):
    """Distinct arrangements of a multiset in lexicographic order."""
    arr = sorted(base)
    n = len(arr)
    while True:
        yield tuple(arr)
        i = n - 2
        while i >= 0 and arr[i] >= arr[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while arr[j] <= arr[i]:
            j -= 1
        arr[i], arr[j] = arr[j], arr[i]
        arr[i + 1 :] = arr[i + 1 :][::-1]


def _rows(meta: NullTableMeta, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1: replicates by index, or the enumeration in order when exact."""
    base = _base_labels(meta)
    if meta.exact:
        arrangements = islice(_multiset_permutations(base.tolist()), start, stop)
    else:
        arrangements = (_mc_arrangement(meta, b, base) for b in range(start, stop))
    rows = np.empty((stop - start, meta.m_max - 1))
    for i, arr in enumerate(arrangements):
        rows[i] = _row_statistics(meta, np.asarray(arr, dtype=np.int64))
    return rows


def generate_null_table(meta: NullTableMeta, threads: int = 1) -> NullTable:
    """Build the table: exact enumeration when feasible, Monte Carlo otherwise.

    Replicate b draws its RNG from a splittable hash of (seed, b); exact
    mode replaces B with the enumeration count and row b is the b-th
    arrangement of the enumeration.  Either way the rows are scored in
    ordered chunks (worker processes, at most one per core) and assembled in
    replicate order, so the result is bit-identical for any thread count.
    """
    if meta.b < 100:
        raise ValueError("B must be at least 100")
    count = exact_enumeration_count(meta)
    if count <= EXACT_LIMIT:
        meta = replace(meta, b=count, exact=True)
    else:
        meta = replace(meta, exact=False)
    parts = chunk_map(_rows, (meta,), meta.b, threads)
    return NullTable(meta=meta, data=_freeze(np.vstack(parts)))


# ---------------------------------------------------------------------------
# Persistence (.pnt: #key=value header lines, then the statistic rows)
#
# v2, which save_table writes: the version line and the #key=value lines,
# then "#sha256=<hex>" and "#body=f8le", then the B x (m_max - 1) rows as
# little-endian float64 in row-major order, and nothing after them.  The
# digest is the SHA-256 of the file without its #sha256= line, so it covers
# the header as well as the rows.  v1, which load_table still reads: the
# same header lines, then tab-separated decimal rows.

_V2_MAGIC = b"#PNT v2\n"
_V2_DIGEST = b"#sha256="
_V2_BODY = b"#body=f8le\n"
_BODY_DTYPE = np.dtype("<f8")
_HEX_DIGEST = re.compile(rb"[0-9a-f]{64}")


def save_table(table: NullTable, path: str) -> None:
    """Write a v2 file atomically; an interrupted write leaves no partial file.

    The rows are stored as little-endian float64 whatever the host's byte
    order, so the bytes depend only on the table.
    """
    meta = table.meta
    groups = ",".join(str(g) for g in meta.group_sizes) if meta.group_sizes else ""
    header = (
        _V2_MAGIC
        + (
            f"#problem={meta.problem}\n"
            f"#family={meta.family}\n"
            f"#score={meta.score.value}\n"
            f"#N={meta.n}\n"
            f"#groups={groups}\n"
            f"#m_max={meta.m_max}\n"
            f"#B={meta.b}\n"
            f"#seed={meta.seed}\n"
            f"#exact={1 if meta.exact else 0}\n"
        ).encode("utf-8")
    )
    body = np.ascontiguousarray(table.data, dtype=_BODY_DTYPE)
    digest = hashlib.sha256(header)
    digest.update(_V2_BODY)
    digest.update(body)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".pnt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(_V2_DIGEST + digest.hexdigest().encode("ascii") + b"\n")
            fh.write(_V2_BODY)
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _store_field(line: str, fields: dict[str, str]) -> None:
    """Store a ``#key=value`` header line (newline included) in ``fields``."""
    key, _, value = line.rstrip("\n")[1:].partition("=")
    fields[key] = value


def _meta_from_fields(fields: dict[str, str]) -> NullTableMeta:
    """The checked metadata of a header, v1 or v2."""
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
    if meta.b < 1:
        raise ValueError(f"B={meta.b}: a table holds at least one row")
    # Exact tables exist only for enumerations of at most EXACT_LIMIT rows,
    # so N is at most EXACT_LIMIT; checking that first spares computing N!
    # for a header with a huge N.
    if meta.exact and (meta.n > EXACT_LIMIT or meta.b != exact_enumeration_count(meta)):
        raise ValueError(f"exact table holds B={meta.b} rows, not the full enumeration")
    return meta


def _load_v2(fh) -> NullTable:
    """A v2 file from its first line (binary mode)."""
    fh.readline()
    lines = []
    while True:
        line = fh.readline()
        if line.startswith(b"#body="):
            break
        if not (line.startswith(b"#") and line.endswith(b"\n")):
            raise ValueError("header has no #body= line")
        lines.append(line)
    if line != _V2_BODY:
        raise ValueError(f"unsupported body line {line!r}, not {_V2_BODY!r}")
    if not (lines and lines[-1].startswith(_V2_DIGEST)):
        raise ValueError("no #sha256= line before the #body= line")
    stored = lines.pop()[len(_V2_DIGEST) : -1]
    if not _HEX_DIGEST.fullmatch(stored):
        raise ValueError("malformed #sha256= line: want 64 lowercase hex digits")
    digest = hashlib.sha256(_V2_MAGIC)
    fields: dict[str, str] = {}
    for number, line in enumerate(lines, start=2):
        digest.update(line)
        try:
            _store_field(line.decode("utf-8"), fields)
        except UnicodeDecodeError:
            raise ValueError(f"header line {number} is not UTF-8 text") from None
    digest.update(_V2_BODY)
    # the rest of the file, sized by the file and not by the header: one
    # buffer for a regular file, as read() alone would join two
    st = os.fstat(fh.fileno())
    body = fh.read(st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else -1)
    meta = _meta_from_fields(fields)
    expected = meta.b * (meta.m_max - 1) * _BODY_DTYPE.itemsize
    if len(body) != expected:
        raise ValueError(
            f"body holds {len(body)} bytes where B={meta.b} rows of m_max - 1 = "
            f"{meta.m_max - 1} float64 values need {expected}"
        )
    digest.update(body)
    if digest.hexdigest().encode("ascii") != stored:
        raise ValueError("sha256 digest does not match the file's contents")
    data = np.frombuffer(body, dtype=_BODY_DTYPE).reshape(meta.b, meta.m_max - 1)
    return NullTable(meta=meta, data=data)


def _data_lines(fh, fields: dict[str, str]):
    """The statistic lines of an open v1 ``.pnt`` file, after its version line.

    Each ``#key=value`` line, wherever it appears, is stored in ``fields``;
    empty lines are skipped.
    """
    for line in fh:
        if line.startswith("#"):
            _store_field(line, fields)
        elif line != "\n":
            yield line


_RAGGED_ROW = re.compile(
    r"the number of columns changed from (\d+) to (\d+) at row (\d+);.*", re.S
)
_BAD_TOKEN = re.compile(
    r"could not convert string (.*) to float64 at row (\d+), column (\d+)\.", re.S
)


def _row_error(message: str) -> str | None:
    """A loadtxt error as one line naming the data row and column, both from 1.

    Data rows are the statistic lines only.  numpy counts a ragged row from
    1 and a bad token's row from 0, and appends a hint to the ragged one.
    None for any other message.
    """
    if ragged := _RAGGED_ROW.fullmatch(message):
        want, got, row = map(int, ragged.groups())
        where = f"data row {row}, column {min(want, got) + 1}"  # first one missing or extra
        return f"{got} columns where the rows above have {want}, at {where}"
    if bad := _BAD_TOKEN.fullmatch(message):
        token, row, column = bad.groups()
        where = f"data row {int(row) + 1}, column {column}"
        return f"could not convert string {token} to a number at {where}"
    return None


def _load_v1(fh) -> NullTable:
    """A v1 file from its first line (text mode)."""
    fields: dict[str, str] = {}
    fh.readline()
    lines = _data_lines(fh, fields)
    first = next(lines, None)
    if first is None:
        # loadtxt would warn on an empty body; NullTable rejects the 1-D array
        data = np.empty(0)
    else:
        # one streamed C parse, correctly rounded like float(); no line is
        # a comment to it, so a '#' inside a row is a malformed token
        try:
            data = np.loadtxt(chain((first,), lines), delimiter="\t", comments=None, ndmin=2)
        except ValueError as exc:
            message = _row_error(str(exc))
            if message is None:
                raise
            raise ValueError(message) from None
    return NullTable(meta=_meta_from_fields(fields), data=_freeze(data))


def load_table(path: str) -> NullTable:
    """Read a ``.pnt`` file, v2 or v1.

    A malformed header or row, a body whose length or digest does not match
    its header, a non-finite row, or an exact table whose B is not the
    enumeration count raises ValueError.
    """
    with open(path, "rb") as fh:
        head = fh.peek(len(_V2_MAGIC))
        magic = head.split(b"\n", 1)[0].split(b"\r", 1)[0].decode("utf-8", "replace")
        if not magic.startswith("#PNT v"):
            raise ValueError("not a null-table file")
        try:
            major = int(magic[len("#PNT v") :].split(".")[0])
        except ValueError as exc:
            raise ValueError("malformed version line") from exc
        if major == 1:
            with io.TextIOWrapper(fh, encoding="utf-8") as text:
                return _load_v1(text)
        if major != 2:
            raise ValueError(f"unsupported format major version {major}")
        if not head.startswith(_V2_MAGIC):
            raise ValueError("malformed version line: a v2 file starts with '#PNT v2' and LF")
        return _load_v2(fh)


# ---------------------------------------------------------------------------
# P-values and combined statistics


def p_value(observed: float, null_column: np.ndarray) -> float:
    """(1 + #{v >= observed}) / (B + 1) against an ascending-sorted column."""
    col = np.asarray(null_column)
    b = col.size
    geq = b - int(np.searchsorted(col, observed, side="left"))
    return (1.0 + geq) / (b + 1.0)


def combined_statistic(per_m_pvalues, kind: str) -> float | np.ndarray:
    """Combine per-m p-values: ``minp`` takes the minimum, ``fisher`` -sum(log p).

    Reduces along the last axis, so one row gives a float; the observed row
    and the table's own rows both go through here.
    """
    p = np.asarray(per_m_pvalues, dtype=float)
    if p.size == 0:
        raise ValueError("no p-values to combine")
    if np.any(p <= 0) or np.any(p > 1):
        raise ValueError("p-values must lie in (0, 1]")
    if kind == "minp":
        combined = p.min(axis=-1)
    elif kind == "fisher":
        combined = -np.log(p).sum(axis=-1)
    else:
        raise ValueError(f"unknown combination kind: {kind!r}")
    return float(combined) if combined.ndim == 0 else combined


def _tail_pvalues(below: np.ndarray, b: int) -> np.ndarray:
    """(1 + #{v >= x}) / (B + 1) in place, from the counts #{v < x} of a (R, m) array."""
    # b + 1 - #{v < x} is the integer 1 + #{v >= x}, exact in a double
    total = b + 1.0
    np.subtract(total, below, out=below)
    below /= total
    return below


def _below_counts(table: NullTable, values: np.ndarray) -> np.ndarray:
    """#{v < x} of each value of one statistic row in its m's sorted null row: int (1, m)."""
    rows = np.atleast_2d(values)
    null_rows = table._sorted_rows()
    # a scalar search per m, without a 1-element array per call
    searches = map(np.ndarray.searchsorted, null_rows, rows[0].tolist())
    return np.fromiter(searches, dtype=np.intp, count=len(null_rows)).reshape(rows.shape)


def _self_pvalue_rows(table: NullTable) -> np.ndarray:
    """Per-m p-values of the table's own rows, counted from one sort per m.

    The result is C-contiguous (B, m), so a row's combined statistic reduces
    its p-values in the same order as the one observed row of ``run_test``.

    #{v < x} of a value in its own column is the position where its run of
    equal values starts in the column's sorted order.  That position does not
    depend on how the sort orders equal values (-0.0 equals 0.0, as in
    ``searchsorted``), so the counts, and the p-values, are the same bits.
    """
    data = table.data
    b = data.shape[0]
    below = np.empty(data.shape)
    positions = np.arange(b)
    starts = np.empty(b, dtype=np.intp)
    counts = np.empty(b, dtype=np.intp)
    new_run = np.empty(b - 1, dtype=bool)
    for j in range(data.shape[1]):
        column = np.ascontiguousarray(data[:, j])
        order = column.argsort()
        s = column[order]
        np.not_equal(s[1:], s[:-1], out=new_run)
        starts[0] = 0
        np.multiply(new_run, positions[1:], out=starts[1:])
        np.maximum.accumulate(starts, out=starts)
        counts[order] = starts
        below[:, j] = counts
    return _tail_pvalues(below, table.b)


def combined_null_distribution(
    table: NullTable, kind: str, prior: PriorSpec | None = None
) -> np.ndarray:
    """Sorted combined statistic of every replicate, calibrated on the table itself.

    Replicate p-values use the same tail rule as observed data, counted over
    all B rows including the replicate's own, so exact-mode self-tests
    reproduce plain enumeration rank ratios.
    """
    if kind not in _COMBINE_KINDS:
        raise ValueError(f"unknown combination kind: {kind!r}")
    if kind == "penalized":
        if prior is None:
            raise ValueError("penalized combination needs a prior")
        return np.sort(penalize(table.data, table.meta.family, table.meta.n, prior))
    return np.sort(combined_statistic(_self_pvalue_rows(table), kind))


def _minp_tail_count(table: NullTable, below: np.ndarray) -> int:
    """#{replicates whose minp is at most the observed one}, without the minp null.

    ``below`` holds the observed row's per-m counts c_j = #{v < x_j}; its
    minp is (B + 1 - c*)/(B + 1) with c* = max c_j.  That rule is strictly
    decreasing in the integer count, so a replicate's minp is at most the
    observed one exactly when one of its own counts reaches c*, that is,
    when one of its values exceeds the c*-th smallest of its column.  The
    count therefore equals ``searchsorted(combined_null("minp"), minp,
    "right")`` for any finite table, ties and signed zeros included.
    """
    c = int(below.max())
    if c == 0:
        return table.b
    kth = table._sorted_rows()[:, c - 1]
    return int(np.count_nonzero((table.data > kth).any(axis=1)))


@dataclass(frozen=True)
class TestResult:
    """Per-m p-values plus the combined statistic and its final p-value."""

    ms: tuple[int, ...]
    per_m_pvalues: np.ndarray
    combined_kind: str
    combined_statistic: float
    final_pvalue: float

    def pvalue(self, m: int) -> float:
        return float(self.per_m_pvalues[m - 2])


def _observed_arrangement(data, meta: NullTableMeta) -> np.ndarray:
    """The arrangement of observed data, as a table row would hold it."""
    if meta.problem == "ksample":
        if not isinstance(data, GroupedSample):
            raise ValueError("table incompatible: K-sample table needs grouped data")
        if data.n != meta.n or data.group_sizes != meta.group_sizes:
            raise ValueError("table incompatible: sample size or group sizes differ")
        return data.labels_by_rank
    if not (isinstance(data, tuple) and len(data) == 2):
        raise ValueError("table incompatible: independence table needs an (x, y) pair")
    yx = y_by_x(*data)
    if yx.size != meta.n:
        raise ValueError("table incompatible: sample size differs")
    return yx


def run_test(data, table: NullTable, kind: str = "minp", prior: PriorSpec | None = None) -> TestResult:
    """Full combined test of one dataset against a matching null table.

    ``data`` is a :class:`GroupedSample` for K-sample tables or an
    ``(x_ranks, y_ranks)`` pair for independence tables.  The final p-value
    counts null combined values at least as extreme as the observed one:
    small is extreme for ``minp``, large for ``fisher`` and ``penalized``.
    """
    if kind not in _COMBINE_KINDS:
        raise ValueError(f"unknown combination kind: {kind!r}")
    meta = table.meta
    observed = _row_statistics(meta, _observed_arrangement(data, meta))
    below = _below_counts(table, observed)
    pvec = _tail_pvalues(below.astype(float), table.b)[0]
    # a table's first minp test counts its tail directly; its second builds
    # the null, which every later test then searches
    direct = kind == "minp" and not (table._minp_tested or "minp" in table._combined)
    if kind == "minp":
        table._minp_tested = True
    null_combined = None if direct else table.combined_null(kind, prior)
    if kind == "penalized":
        stat = float(penalize(observed, meta.family, meta.n, prior))
    else:
        stat = combined_statistic(pvec, kind)
    b = table.b
    if direct:
        extreme = _minp_tail_count(table, below)
    elif kind == "minp":
        extreme = int(np.searchsorted(null_combined, stat, side="right"))
    else:
        extreme = b - int(np.searchsorted(null_combined, stat, side="left"))
    final = (1.0 + extreme) / (b + 1.0)
    return TestResult(
        ms=tuple(range(2, meta.m_max + 1)),
        per_m_pvalues=pvec,
        combined_kind=kind,
        combined_statistic=stat,
        final_pvalue=final,
    )
