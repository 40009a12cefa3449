import functools
import hashlib
import io
import math
import os
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import islice, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partitest import (
    GroupedSample,
    NullTable,
    NullTableMeta,
    PriorSpec,
    RankedSample,
    adp_sum_all_m,
    combined_null_distribution,
    combined_statistic,
    generate_null_table,
    ksample_max_all_m,
    ksample_sum_all_m,
    load_table,
    make_scenario,
    p_value,
    power_study,
    run_test,
    save_table,
)
from partitest.simulate import dataset_for_test
from partitest.nulltable import (
    _base_labels,
    _below_counts,
    _mc_arrangement,
    _minp_tail_count,
    _multiset_permutations,
    _self_pvalue_rows,
    _tail_pvalues,
    exact_enumeration_count,
)
from partitest.cli import main as cli_main
from partitest.oracle import oracle_ddp

from helpers import (
    golden_hhg_pair,
    golden_sweep,
    reference_pvalue_rows,
    render_v1,
)

DATA_DIR = Path(__file__).parent / "data"


def ksample_meta(**kw):
    base = dict(
        problem="ksample",
        family="sum",
        score="lr",
        n=4,
        group_sizes=(2, 2),
        m_max=4,
        b=200,
        seed=5,
    )
    base.update(kw)
    return NullTableMeta(**base)


def indep_meta(**kw):
    base = dict(
        problem="independence",
        family="adp_sum",
        score="lr",
        n=4,
        group_sizes=None,
        m_max=3,
        b=200,
        seed=5,
    )
    base.update(kw)
    return NullTableMeta(**base)


def grouped_from_arrangement(labels_by_rank):
    labels_by_rank = np.asarray(labels_by_rank)
    n = labels_by_rank.size
    sizes = tuple(int(c) for c in np.bincount(labels_by_rank, minlength=3)[1:])
    return GroupedSample(
        labels=labels_by_rank,
        y_ranks=RankedSample(np.arange(1, n + 1), n, 0),
        group_sizes=sizes,
    )


def table_arrangements(meta, count):
    """The arrangements behind a table's first ``count`` rows."""
    base = _base_labels(meta)
    if meta.exact:
        return list(islice(_multiset_permutations(base.tolist()), count))
    return [_mc_arrangement(meta, b, base) for b in range(count)]


# exact (252 rows), Monte Carlo sum with 28 m, Monte Carlo K=3 max
LAYOUT_TABLES = [
    ksample_meta(n=10, group_sizes=(5, 5), m_max=10),
    ksample_meta(n=60, group_sizes=(30, 30), m_max=29, b=300),
    ksample_meta(family="max", score="pearson", n=30, group_sizes=(10, 10, 10), m_max=15, b=200),
]
LAYOUT_IDS = ["sum-exact", "sum-mc", "max-mc"]


class TestPValue:
    def test_observed_above_all(self):
        col = np.sort(np.arange(9, dtype=float))
        assert p_value(100.0, col) == pytest.approx(1.0 / 10.0)

    def test_observed_below_all(self):
        col = np.sort(np.arange(9, dtype=float))
        assert p_value(-5.0, col) == pytest.approx(1.0)

    def test_tie_counting(self):
        col = np.sort(np.array([0, 1, 2, 3, 4, 5, 7, 7, 7], dtype=float))
        assert p_value(7.0, col) == pytest.approx(4.0 / 10.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=40),
        st.integers(-6, 6),
    )
    def test_counting_property(self, values, observed):
        col = np.sort(np.asarray(values, dtype=float))
        naive = (1 + sum(1 for v in values if v >= observed)) / (len(values) + 1)
        assert p_value(float(observed), col) == pytest.approx(naive)


class TestCombinedStatistic:
    def test_minp(self):
        assert combined_statistic([0.2, 0.05, 0.5], "minp") == pytest.approx(0.05)

    def test_fisher_all_ones(self):
        assert combined_statistic([1.0, 1.0], "fisher") == 0.0

    def test_fisher_direct(self):
        got = combined_statistic([0.1, 0.01], "fisher")
        assert got == pytest.approx(-(math.log(0.1) + math.log(0.01)), rel=1e-12)
        assert got == pytest.approx(6.9078, abs=5e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combined_statistic([], "minp")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            combined_statistic([0.0, 0.5], "minp")


class TestExactMode:
    def test_ksample_exact_rows_match_enumeration(self):
        meta = ksample_meta()
        table = generate_null_table(meta)
        assert table.meta.exact
        assert table.meta.b == 6 == exact_enumeration_count(meta)
        rows = []
        seen = set()
        for perm in permutations([1, 1, 2, 2]):
            if perm in seen:
                continue
            seen.add(perm)
            gs = grouped_from_arrangement(perm)
            rows.append(ksample_sum_all_m(gs, "lr", m_max=4).values)
        rows = np.asarray(sorted(map(tuple, rows)))
        got = np.asarray(sorted(map(tuple, table.data)))
        assert np.allclose(rows, got, rtol=1e-12, atol=0)

    def test_independence_exact_has_all_permutations(self):
        meta = indep_meta()
        table = generate_null_table(meta)
        assert table.meta.exact and table.meta.b == 24
        rows = []
        x = RankedSample(np.arange(1, 5), 4, 0)
        for perm in permutations(range(1, 5)):
            y = RankedSample(np.asarray(perm), 4, 0)
            rows.append(adp_sum_all_m(x, y, "lr", m_max=3).values)
        assert np.allclose(
            np.asarray(sorted(map(tuple, rows))),
            np.asarray(sorted(map(tuple, table.data))),
            rtol=1e-12,
            atol=0,
        )


class TestGeneration:
    def test_b_minimum_enforced(self):
        with pytest.raises(ValueError):
            generate_null_table(ksample_meta(n=40, group_sizes=(20, 20), m_max=10, b=50))

    def test_monte_carlo_reproducible(self):
        meta = ksample_meta(n=20, group_sizes=(10, 10), m_max=6, b=150)
        a = generate_null_table(meta)
        b = generate_null_table(meta)
        assert not a.meta.exact
        assert np.array_equal(a.data, b.data)

    def test_thread_count_invariance(self):
        meta = ksample_meta(n=20, group_sizes=(10, 10), m_max=6, b=150)
        a = generate_null_table(meta, threads=1)
        b = generate_null_table(meta, threads=4)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_rows(self):
        meta = ksample_meta(n=20, group_sizes=(10, 10), m_max=6, b=150)
        a = generate_null_table(meta)
        b = generate_null_table(replace(meta, seed=6))
        assert not np.array_equal(a.data, b.data)

    def test_meta_validation(self):
        with pytest.raises(ValueError):
            ksample_meta(family="adp_sum")
        with pytest.raises(ValueError):
            indep_meta(group_sizes=(2, 2))
        with pytest.raises(ValueError):
            ksample_meta(group_sizes=(1, 2))
        with pytest.raises(ValueError):
            ksample_meta(m_max=9)


# Saved tables the reader fuzz mutates, each with a data file that matches it:
# an exact K-sample table with 3 columns and an exact independence one with 1.
FUZZ_TABLES = [
    (ksample_meta(), "1\t0.5\n2\t1.5\n1\t2.5\n2\t3.5\n"),
    (indep_meta(m_max=2, b=100), "1\t4\n2\t3\n3\t1\n4\t2\n"),
]
FUZZ_LINES = st.one_of(
    st.sampled_from(["", " ", "\t", "  \t ", "\xa0", "#", "# note", "#x=1", "#seed=3"]),
    st.text(alphabet="0123456789.e-# \t=abBN", max_size=10),
)


def outcome(read, path):
    """(meta, data bytes) of a successful read, or the exception it raised."""
    try:
        table = read(path)
    except Exception as exc:  # compared by type below
        return exc
    return table.meta, table.data.tobytes()


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        back = load_table(str(path))
        assert back.meta == table.meta
        assert np.array_equal(back.data, table.data)

    def test_bytes_deterministic(self, tmp_path):
        table = generate_null_table(ksample_meta())
        p1, p2 = tmp_path / "a.pnt", tmp_path / "b.pnt"
        save_table(table, str(p1))
        save_table(table, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_shape(self, tmp_path):
        table = generate_null_table(indep_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        raw = path.read_bytes()
        lines = raw.split(b"\n", 12)
        assert lines[0] == b"#PNT v2"
        assert lines[1:10] == [
            b"#problem=independence", b"#family=adp_sum", b"#score=lr", b"#N=4", b"#groups=",
            b"#m_max=3", b"#B=24", b"#seed=5", b"#exact=1",
        ]
        assert lines[10].startswith(b"#sha256=") and len(lines[10]) == len("#sha256=") + 64
        assert lines[11] == b"#body=f8le"
        body = lines[12]
        assert len(body) == 24 * 2 * 8
        assert body == np.asarray(table.data, dtype="<f8").tobytes()
        without_digest = raw.replace(lines[10] + b"\n", b"", 1)
        assert lines[10][8:].decode() == hashlib.sha256(without_digest).hexdigest()

    def test_unknown_major_version_rejected(self, tmp_path):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        bad = tmp_path / "bad.pnt"
        bad.write_bytes(path.read_bytes().replace(b"#PNT v2", b"#PNT v3", 1))
        with pytest.raises(ValueError, match="unsupported format major version 3$"):
            load_table(str(bad))

    @pytest.mark.parametrize("version", [1, 2])
    def test_reads_from_a_pipe(self, tmp_path, version):
        # a pipe has no size to check the body against, so it is read to its end;
        # a v1 file is refused from its version line, and its 1.2 kB is one
        # atomic pipe write, so the writer never sees the pipe close
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), b=100))
        path, fifo = tmp_path / "t.pnt", tmp_path / "fifo"
        save_table(table, str(path))
        raw = V1_FILE.read_bytes() if version == 1 else path.read_bytes()
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
        writer.start()
        if version == 1:
            with pytest.raises(ValueError, match=f"^{V1_REFUSAL}$"):
                load_table(str(fifo))
        else:
            loaded = load_table(str(fifo))
        writer.join(timeout=30)
        assert not writer.is_alive()
        if version == 2:
            assert loaded.meta == table.meta and loaded.data.tobytes() == table.data.tobytes()

    def test_no_partial_file_on_failure(self, tmp_path):
        table = generate_null_table(ksample_meta())
        target = tmp_path / "missing-dir" / "t.pnt"
        with pytest.raises(OSError):
            save_table(table, str(target))
        assert not target.exists()


def golden_meta(**kw):
    base = dict(score="lr", group_sizes=None, b=100, seed=11)
    base.update(kw)
    return NullTableMeta(**base)


# SHA-256 of each table as v1 text (``render_v1``, the bytes save_table wrote
# before v2), recorded when the format and statistics were fixed, then of its
# v2 file; any change to row scoring, row order, number formatting or the v2
# layout shows here.  So a K-sample v1 file rebuilt from its header has the
# bits it held.  The last three are the shapes perfbench's ksample
# workloads build.
KSAMPLE_GOLDEN_TABLES = [
    (
        golden_meta(problem="ksample", family="sum", n=6, group_sizes=(3, 3), m_max=4),
        "bde6fee898b4b8b820fa16baecae6b5fe96c1972e1a7bec391e0e1694f32381b",
        "6d64e0e406a275368d53206c716d12dea023e092b285b42c7f513d7f71ef619c",
    ),
    (
        golden_meta(
            problem="ksample", family="max", n=6, group_sizes=(3, 3), m_max=4, score="pearson"
        ),
        "716d95f09141f878511a486780ac90bcef8f0e5a7fd948e09f3e9faad1190774",
        "2d9bf35c888120051af50b0e08757ce0bc80c56e294ab1dcb24e59e4fc787ed5",
    ),
    (
        golden_meta(problem="ksample", family="sum", n=20, group_sizes=(10, 10), m_max=6, b=120),
        "da33ea95739a2ded1510c53debbccfd79b160f44e3ee408955c11c3471fce19e",
        "5fc159f1ed30f07ed62c0f730d2734ddcb1e3e4d98d6354188ca0248e351de7b",
    ),
    (
        golden_meta(
            problem="ksample", family="sum", n=200, group_sizes=(100, 100), m_max=29, b=250
        ),
        "af2501d2d2bb9ed166dbf3b87d2bebdf13679df70c80929535ac4d3de96db278",
        "8360422d8c48c0ca7192ac88d7fe30a40948fac7619a6471b2a3edbeb6c4382a",
    ),
    (
        golden_meta(
            problem="ksample", family="max", n=100, group_sizes=(40, 30, 30), m_max=29, b=250
        ),
        "b13feb478fcce8b57bc42c9300351101f0b3157746f8a22affcff81fec8f5afd",
        "584b6ecf05ef2e18017c5ad994daf70a374bde0a1ba3d693f09c2667ff42d91c",
    ),
    (
        golden_meta(
            problem="ksample", family="sum", n=100, group_sizes=(40, 30, 30), m_max=50, b=250,
            score="pearson",
        ),
        "e0a8fbbe40bcf0091b04aac12353336dc1d6df77b8e5568c5bfaa85001697efe",
        "6f7b39e18e9d279afe583bf85c6af78ef88dcd6409a632489a8f0137cfe9b3c5",
    ),
]

INDEPENDENCE_GOLDEN_TABLES = [
    (
        golden_meta(problem="independence", family="adp_sum", n=6, m_max=3),
        "010aa1b8347fa4e2340ef7c64971028f2b28e08a076ccd125ef4cd28f74c7185",
        "768056e02977fd687a1932304b59c5aee739a00358d47649e9aa3ea0eba2de35",
    ),
    (
        golden_meta(problem="independence", family="ddp_sum", n=6, m_max=3, score="pearson"),
        "735526d4fbb5836520b10519051f776900df6c3a0789b2c84f6ef5ecbb953578",
        "1ae380ab44ac6f70d4ef4bdb80f22d8266f7646ce085de142e5bd28a8bab3212",
    ),
    (
        golden_meta(problem="independence", family="adp_sum", n=9, m_max=3),
        "e36a085c92e1a94c24c7f12f97e3f74973ccbc1f7b2f8c1a4cb8d98237b482cf",
        "d54f86814ce3c8420d62064ed1ffa729519bc6c8db09f0f0d0054b483d6d290e",
    ),
    (
        golden_meta(problem="independence", family="ddp_sum", n=9, m_max=3),
        "4ba3921944c63aa44d9cec0afed939431613aa4e1ff1faf8c3cb13b219e20ac6",
        "7a2f0440725f104634fdb953abbaf72036ab68488690c1b93834c629d4d5c1c2",
    ),
]

# The order keeps the parameter ids of the first seven cases.
ALL_GOLDEN_TABLES = (
    KSAMPLE_GOLDEN_TABLES[:3] + INDEPENDENCE_GOLDEN_TABLES + KSAMPLE_GOLDEN_TABLES[3:]
)
GOLDEN_TABLES = [(meta, digest) for meta, digest, _ in ALL_GOLDEN_TABLES]
V2_GOLDEN_TABLES = [(meta, digest) for meta, _, digest in ALL_GOLDEN_TABLES]


@functools.cache
def golden_table(meta, threads):
    return generate_null_table(meta, threads=threads)


class TestGoldenBytes:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("meta,digest", GOLDEN_TABLES)
    def test_table_bytes(self, meta, digest, threads):
        assert hashlib.sha256(render_v1(golden_table(meta, threads))).hexdigest() == digest


class TestGoldenBytesV2:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("meta,digest", V2_GOLDEN_TABLES)
    def test_file_bytes(self, tmp_path, meta, digest, threads):
        path = tmp_path / "t.pnt"
        save_table(golden_table(meta, threads), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def run_cli_test(data_path, table_path):
    """(exit code, stdout, stderr) of one in-process ``partitest test --format jsonl``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(
            ["test", "--data", str(data_path), "--table", str(table_path), "--format", "jsonl"]
        )
    return code, out.getvalue(), err.getvalue()


# A v1 file, `helpers.render_v1` of the first golden K-sample table, and the
# `partitest nulltable` flags the README maps from its #key= lines: an exact
# table takes any --B of at least 100.
V1_FILE = DATA_DIR / "v1-ksample-sum-n6.pnt"
V1_REBUILD = [
    "--problem", "ksample", "--family", "sum", "--score", "lr", "--groups", "3,3",
    "--m-max", "4", "--B", "100", "--seed", "11",
]


V1_REFUSAL = (
    "a v1 table is no longer read; rebuild it with partitest nulltable "
    "from the #key= lines of its header"
)


def test_v1_file_is_refused_and_rebuilt_bit_for_bit(tmp_path):
    with pytest.raises(ValueError, match=f"^{V1_REFUSAL}$"):
        load_table(str(V1_FILE))
    data_path = tmp_path / "d.tsv"
    data_path.write_text("1\t0.5\n2\t1.5\n1\t2.5\n2\t3.5\n1\t4.5\n2\t0.2\n", encoding="utf-8")
    assert run_cli_test(data_path, V1_FILE) == (
        4, "", f"error: bad table file {V1_FILE}: {V1_REFUSAL}\n"
    )
    path = tmp_path / "rebuilt.pnt"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli_main(["nulltable", *V1_REBUILD, "--out", str(path)]) == 0
    assert render_v1(load_table(str(path))) == V1_FILE.read_bytes()


@pytest.mark.parametrize(
    "body",
    ["", "nan\tnan\tnan\n", "1\t2\t3\n1\t2\n", "1\tx\t3\n", "\x1c1\x1c\t2\t3\n"],
    ids=["empty", "non-finite", "ragged", "bad-token", "separator-controls"],
)
def test_v1_file_is_refused_whatever_its_body(tmp_path, body):
    # the version line decides: no v1 row is parsed, so no row error can win
    header = V1_FILE.read_bytes().split(b"\n")[:10]
    path = tmp_path / "t.pnt"
    path.write_bytes(b"\n".join(header) + b"\n" + body.encode("utf-8"))
    with pytest.raises(ValueError, match=f"^{V1_REFUSAL}$"):
        load_table(str(path))


def readme_rebuild_flags(v1_text: bytes) -> list[str]:
    """The ``partitest nulltable`` flags the README maps from a v1 header."""
    fields = dict(
        line[1:].split("=", 1) for line in v1_text.decode("utf-8").split("\n")[1:10]
    )
    flags = [
        "--problem", fields["problem"], "--family", fields["family"].replace("_", "-"),
        "--score", fields["score"], "--m-max", fields["m_max"], "--seed", fields["seed"],
        "--B", "100" if fields["exact"] == "1" else fields["B"],
    ]
    if fields["problem"] == "ksample":
        return flags + ["--groups", fields["groups"]]
    return flags + ["--n", fields["N"]]


@pytest.mark.parametrize("meta,v1_digest,v2_digest", ALL_GOLDEN_TABLES)
def test_readme_flags_rebuild_every_golden_table(tmp_path, meta, v1_digest, v2_digest):
    # the golden v1 digests are a K-sample v1 file's bits; an independence
    # table rebuilds to today's bits, which these digests also hold
    path = tmp_path / "rebuilt.pnt"
    flags = readme_rebuild_flags(render_v1(golden_table(meta, 1)))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli_main(["nulltable", *flags, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == v2_digest
    assert hashlib.sha256(render_v1(load_table(str(path)))).hexdigest() == v1_digest


# A Monte Carlo table, so #B can change without failing the exact-count check.
V2_ERROR_META = ksample_meta(n=20, group_sizes=(10, 10), b=100)
V2_ERROR_DATA = "".join(f"{1 + i % 2}\t{i * 0.37 % 5}\n" for i in range(20))
BODY_LENGTH = "body holds {} bytes where B={} rows of m_max - 1 = {} float64 values need {}"


def flip_byte(raw: bytes, at: int, mask: int = 1) -> bytes:
    return raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]


def digest_line(raw: bytes) -> bytes:
    return raw.split(b"\n")[10] + b"\n"


class TestV2ReaderErrors:
    """Every malformed v2 file is one ValueError line, and exit 4 from ``partitest test``."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda raw: raw[:-8], BODY_LENGTH.format(2392, 100, 3, 2400)),
            (lambda raw: raw[:-2400], BODY_LENGTH.format(0, 100, 3, 2400)),
            (lambda raw: raw[:-2401],
             "unsupported body line b'#body=f8le', not b'#body=f8le\\n'"),
            (lambda raw: raw + b"\n", BODY_LENGTH.format(2401, 100, 3, 2400)),
            (lambda raw: flip_byte(raw, len(raw) - 100),
             "sha256 digest does not match the file's contents"),
            (lambda raw: raw.replace(b"#seed=5\n", b"#seed=4\n"),
             "sha256 digest does not match the file's contents"),
            (lambda raw: raw.replace(digest_line(raw), b""),
             "no #sha256= line before the #body= line"),
            (lambda raw: raw.replace(digest_line(raw), digest_line(raw)[:-2] + b"\n"),
             "malformed #sha256= line: want 64 lowercase hex digits"),
            (lambda raw: raw.replace(digest_line(raw), b"#sha256=" + b"g" * 64 + b"\n"),
             "malformed #sha256= line: want 64 lowercase hex digits"),
            (lambda raw: raw.replace(b"#body=f8le\n", b""), "header has no #body= line"),
            (lambda raw: raw.replace(b"#body=f8le\n", b"#body=f8be\n"),
             "unsupported body line b'#body=f8be\\n', not b'#body=f8le\\n'"),
            (lambda raw: raw.replace(b"#B=100\n", b"#B=99\n"),
             BODY_LENGTH.format(2400, 99, 3, 2376)),
            (lambda raw: raw.replace(b"#m_max=4\n", b"#m_max=3\n"),
             BODY_LENGTH.format(2400, 100, 2, 1600)),
            (lambda raw: raw.replace(b"#B=100\n", b"#B=0\n"),
             "B=0: a table holds at least one row"),
            (lambda raw: raw.replace(b"#N=20\n", b"#N=2\xff\n"),
             "header line 5 is not UTF-8 text"),
            (lambda raw: raw.replace(b"#PNT v2\n", b"#PNT v2\r\n", 1),
             "malformed version line: a v2 file starts with '#PNT v2' and LF"),
        ],
        ids=[
            "truncated", "body-cut", "cut-in-body-line", "trailing-newline",
            "flipped-body-byte", "edited-header", "no-digest", "short-digest", "non-hex-digest", "no-body-line", "other-body-encoding",
            "B-disagrees", "m_max-disagrees", "B-zero", "non-utf8-header",
            "crlf-version-line",
        ],
    )
    def test_one_line_error_and_exit_4(self, tmp_path, edit, message):
        path = tmp_path / "t.pnt"
        save_table(generate_null_table(V2_ERROR_META), str(path))
        path.write_bytes(edit(path.read_bytes()))
        self.assert_rejected(tmp_path, path, message)

    @pytest.mark.parametrize("key", ["problem", "family", "score", "N", "m_max", "B", "seed"])
    def test_missing_header_key(self, tmp_path, key):
        # the meta is checked before the digest, so the file needs no re-signing
        path = tmp_path / "t.pnt"
        save_table(generate_null_table(V2_ERROR_META), str(path))
        raw = path.read_bytes()
        line = next(ln for ln in raw.split(b"\n") if ln.startswith(f"#{key}=".encode()))
        path.write_bytes(raw.replace(line + b"\n", b"", 1))
        self.assert_rejected(tmp_path, path, f"missing header key: {key}")

    def test_exact_table_of_another_row_count(self, tmp_path):
        path = tmp_path / "t.pnt"
        save_table(generate_null_table(ksample_meta(n=6, group_sizes=(3, 3))), str(path))
        path.write_bytes(path.read_bytes().replace(b"#B=20\n", b"#B=15\n"))
        message = "exact table holds B=15 rows, not the full enumeration"
        self.assert_rejected(tmp_path, path, message)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_under_a_correct_digest(self, tmp_path, value):
        # NullTable holds finite values only, so the value is written into the
        # saved body and the digest recomputed over the edited file
        table = generate_null_table(V2_ERROR_META)
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        raw = path.read_bytes()
        at = len(raw) - table.data.nbytes + 8 * (7 * table.data.shape[1] + 1)
        raw = raw[:at] + np.array([value], dtype="<f8").tobytes() + raw[at + 8 :]
        digest = hashlib.sha256(raw.replace(digest_line(raw), b"")).hexdigest()
        path.write_bytes(raw.replace(digest_line(raw), b"#sha256=" + digest.encode() + b"\n"))
        self.assert_rejected(tmp_path, path, "non-finite statistic in table")

    @staticmethod
    def assert_rejected(tmp_path, path, message):
        with pytest.raises(ValueError) as info:
            load_table(str(path))
        assert str(info.value) == message
        data_path = tmp_path / "d.tsv"
        data_path.write_text(V2_ERROR_DATA, encoding="utf-8")
        assert run_cli_test(data_path, path) == (
            4, "", f"error: bad table file {path}: {message}\n"
        )


# v2 fuzz: header lines replaced, dropped, inserted or repeated, then any
# byte flipped and the file cut at any offset.
V2_HEADER_LINES = 12
V2_FUZZ_LINES = st.one_of(
    FUZZ_LINES,
    st.sampled_from(
        ["#PNT v1", "#PNT v2", "#B=5", "#B=7", "#seed=6", "#exact=0", "#m_max=3", "#N=5",
         "#groups=1,3", "#sha256=" + "0" * 64, "#body=f8le", "#body=f8be"]
    ),
)
V2_FUZZ_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("replace"), st.integers(0, 10**6), V2_FUZZ_LINES),
        st.tuples(st.just("insert"), st.integers(0, 10**6), V2_FUZZ_LINES),
        st.tuples(st.just("drop"), st.integers(0, 10**6)),
        st.tuples(st.just("repeat"), st.integers(0, 10**6)),
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    ),
    max_size=3,
)


def mutated_v2_bytes(raw: bytes, edits) -> bytes:
    """A v2 file with header-line edits, then byte flips and cuts, in edit order."""
    header = raw.split(b"\n")[:V2_HEADER_LINES]
    body = raw[sum(len(line) + 1 for line in header) :]
    for edit in (e for e in edits if e[0] in ("replace", "insert", "drop", "repeat")):
        i = edit[1] % len(header) if header else 0
        if edit[0] == "replace" and header:
            header[i] = edit[2].encode("utf-8")
        elif edit[0] == "insert":
            header.insert(edit[1] % (len(header) + 1), edit[2].encode("utf-8"))
        elif edit[0] == "drop" and header:
            del header[i]
        elif header:
            header.insert(i, header[i])
    data = b"".join(line + b"\n" for line in header) + body
    for edit in (e for e in edits if e[0] in ("flip", "truncate")):
        if edit[0] == "flip" and data:
            data = flip_byte(data, edit[1] % len(data), edit[2])
        elif edit[0] == "truncate":
            data = data[: edit[1] % (len(data) + 1)]
    return data


class TestV2ReaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(range(len(FUZZ_TABLES))), edits=V2_FUZZ_EDITS)
    @example(case=0, edits=[])
    @example(case=0, edits=[("truncate", 0)])
    @example(case=1, edits=[("flip", 6, 3)])  # '#PNT v1'
    @example(case=0, edits=[("flip", 6, 1)])  # '#PNT v3'
    @example(case=0, edits=[("replace", 9, "#exact=0")])
    @example(case=1, edits=[("repeat", 10)])  # two #sha256= lines
    @example(case=0, edits=[("repeat", 3)])  # a repeated key line
    @example(case=1, edits=[("insert", 11, "#x=1")])
    @example(case=0, edits=[("flip", 10**6, 0x80)])
    def test_original_table_or_value_error(self, case, edits):
        meta, data_text = FUZZ_TABLES[case]
        table = generate_null_table(meta)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.pnt")
            save_table(table, path)
            with open(path, "rb") as fh:
                raw = fh.read()
            with open(path, "wb") as fh:
                fh.write(mutated_v2_bytes(raw, edits))
            got = outcome(load_table, path)
            data_path = os.path.join(tmp, "d.tsv")
            with open(data_path, "w", encoding="utf-8") as fh:
                fh.write(data_text)
            code, _, err = run_cli_test(data_path, path)
        if isinstance(got, Exception):
            assert isinstance(got, ValueError), repr(got)
            assert code == 4
            assert err.startswith("error: bad table file")
            assert err.count("\n") == 1 and err.endswith("\n")
        else:
            assert got == (table.meta, table.data.tobytes())
            assert code == 0, err


class TestCombinedNull:
    def test_identical_column_gives_unit_pvalues(self):
        meta = ksample_meta()
        table = generate_null_table(meta)
        const = NullTable(meta=replace(table.meta), data=np.ones_like(table.data))
        dist = combined_null_distribution(const, "fisher")
        assert np.allclose(dist, 0.0)  # every p_m = 1 -> fisher combined 0
        dist_minp = combined_null_distribution(const, "minp")
        assert np.allclose(dist_minp, 1.0)

    def test_fully_ordered_columns(self):
        meta = ksample_meta(n=20, group_sizes=(10, 10), m_max=3, b=150)
        table = generate_null_table(meta)
        data = np.column_stack([np.arange(150.0), np.arange(150.0)])
        ordered = NullTable(meta=replace(table.meta, b=150), data=data)
        dist = combined_null_distribution(ordered, "minp")
        # row holding the maximum in every column: self-inclusive tail count 1
        assert dist.min() == pytest.approx(2.0 / 151.0)
        assert dist.max() == pytest.approx(1.0)

    def test_cached_by_kind_and_penalized_prior(self):
        table = generate_null_table(ksample_meta())
        prior = PriorSpec.poisson_sqrt_n()
        for kind in ("minp", "fisher"):
            assert table.combined_null(kind, prior) is table.combined_null(kind)
        penalized = table.combined_null("penalized", prior)
        assert table.combined_null("penalized", PriorSpec.poisson_sqrt_n()) is penalized
        assert table.combined_null("penalized", PriorSpec.uniform(3)) is not penalized

    def test_exact_table_distribution_matches_direct_enumeration(self):
        table = generate_null_table(ksample_meta())
        b = table.meta.b
        direct = []
        for i in range(b):
            ps = []
            for j in range(table.data.shape[1]):
                geq = int(np.sum(table.data[:, j] >= table.data[i, j]))
                ps.append((1 + geq) / (b + 1))
            direct.append(min(ps))
        assert np.allclose(np.sort(direct), combined_null_distribution(table, "minp"))


def observed_pvalues(table, row):
    """Per-m p-values of one statistic row, as ``run_test`` computes them."""
    return _tail_pvalues(_below_counts(table, row).astype(float), table.b)[0]


def assert_self_ranks_match_searchsorted(table):
    """The table's own per-m p-values and combined nulls equal the searchsorted ones."""
    searched = reference_pvalue_rows(table, table.data)
    assert _self_pvalue_rows(table).tobytes() == searched.tobytes()
    for kind in ("minp", "fisher"):
        expected = np.sort(combined_statistic(searched, kind)).tobytes()
        assert combined_null_distribution(table, kind).tobytes() == expected
        assert table.combined_null(kind).tobytes() == expected


# exact tables at small N: every column is heavily tied
SELF_RANK_EXACT_TABLES = [
    ksample_meta(n=6, group_sizes=(3, 3), m_max=4),
    ksample_meta(family="max", score="pearson", n=6, group_sizes=(2, 2, 2), m_max=4),
    ksample_meta(n=8, group_sizes=(4, 4), m_max=8, score="pearson"),
    indep_meta(n=5, m_max=3),
    indep_meta(family="ddp_sum", score="pearson", n=5, m_max=4),
]


class TestSelfRanks:
    """A table's own rows ranked from one sort per m, against searchsorted."""

    @pytest.mark.parametrize("meta", SELF_RANK_EXACT_TABLES, ids=lambda m: f"{m.family}-{m.n}")
    def test_exact_tables(self, meta):
        table = generate_null_table(meta)
        assert table.meta.exact
        assert_self_ranks_match_searchsorted(table)

    def test_constant_column_and_signed_zeros(self):
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), m_max=6, b=300))
        data = table.data.copy()
        data[:, 0] = 7.5
        data[:, 3] = np.random.default_rng(0).choice([-0.0, 0.0, -1.0, 1.0], size=table.b)
        assert np.signbit(data[:, 3][data[:, 3] == 0]).any()
        assert_self_ranks_match_searchsorted(NullTable(meta=table.meta, data=data))

    def test_monte_carlo_table_of_ten_thousand_rows(self, table_two_sample_100):
        fresh = NullTable(meta=table_two_sample_100.meta, data=table_two_sample_100.data)
        assert_self_ranks_match_searchsorted(fresh)

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 40),
        m=st.integers(1, 5),
        data=st.data(),
    )
    def test_random_tied_tables(self, b, m, data):
        values = data.draw(
            st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]), min_size=b * m, max_size=b * m)
        )
        meta = ksample_meta(n=10, group_sizes=(5, 5), m_max=m + 1, b=b)
        table = NullTable(meta=meta, data=np.reshape(values, (b, m)))
        assert_self_ranks_match_searchsorted(table)


class TestPValueLayout:
    """A table's own rows and an observed row get their combined statistic alike.

    Fisher's -sum(log p) adds in an order that follows the memory layout of the
    p-value matrix, so the matrix must be C-contiguous like one observed row.
    """

    @pytest.mark.parametrize("meta", LAYOUT_TABLES, ids=LAYOUT_IDS)
    def test_table_rows_combine_like_observed_rows(self, meta):
        table = generate_null_table(meta)
        pvals = _self_pvalue_rows(table)
        assert pvals.shape == table.data.shape
        assert pvals.flags.c_contiguous
        for kind in ("minp", "fisher"):
            matrix = combined_statistic(pvals, kind)
            single = [combined_statistic(observed_pvalues(table, row), kind) for row in table.data]
            assert [v.hex() for v in matrix.tolist()] == [v.hex() for v in single]
            assert np.sort(matrix).tobytes() == table.combined_null(kind).tobytes()

    @pytest.mark.parametrize("meta", LAYOUT_TABLES, ids=LAYOUT_IDS)
    def test_run_test_on_a_table_row(self, meta):
        table = generate_null_table(meta)
        pvals = reference_pvalue_rows(table, table.data)
        for kind in ("minp", "fisher"):
            matrix = combined_statistic(pvals, kind)
            for i, arrangement in enumerate(table_arrangements(table.meta, 10)):
                res = run_test(grouped_from_arrangement(arrangement), table, kind)
                assert res.per_m_pvalues.tobytes() == pvals[i].tobytes()
                assert res.combined_statistic.hex() == float(matrix[i]).hex()


class TestSortedColumns:
    @pytest.mark.parametrize("meta", LAYOUT_TABLES, ids=LAYOUT_IDS)
    def test_shape_order_and_read_only(self, meta):
        table = generate_null_table(meta)
        cols = table.sorted_columns()
        assert cols.shape == (table.b, meta.m_max - 1)
        assert np.all(np.diff(cols, axis=0) >= 0)
        assert cols.tobytes() == np.sort(table.data, axis=0).tobytes()
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0, 0] = 0.0

    @pytest.mark.parametrize("meta", LAYOUT_TABLES, ids=LAYOUT_IDS)
    def test_p_value_reproduces_run_test(self, meta):
        # table rows' arrangements, so observed values equal table entries,
        # plus the two sorted arrangements
        table = generate_null_table(meta)
        cols = table.sorted_columns()
        statistic = ksample_sum_all_m if meta.family == "sum" else ksample_max_all_m
        base = _base_labels(table.meta)
        for arrangement in table_arrangements(table.meta, 5) + [base, base[::-1]]:
            gs = grouped_from_arrangement(arrangement)
            values = statistic(gs, meta.score, meta.m_max).values
            res = run_test(gs, table, "minp")
            pvals = [p_value(v, cols[:, j]) for j, v in enumerate(values)]
            assert pvals == res.per_m_pvalues.tolist()

    @pytest.mark.parametrize("meta", LAYOUT_TABLES, ids=LAYOUT_IDS)
    def test_p_value_outside_and_on_table_entries(self, meta):
        # the observed row is the table's row 0; columns 0 and 1 are moved so it
        # falls below the minimum and above the maximum, column 2 ties it often
        table = generate_null_table(meta)
        b = table.b
        observed = table.data[0]
        data = table.data.copy()
        data[:, 0] = observed[0] + abs(observed[0]) + 1.0 + np.arange(b)
        data[:, 1] = observed[1] - abs(observed[1]) - 1.0 - np.arange(b)
        data[: b // 2, 2] = observed[2]
        moved = NullTable(meta=table.meta, data=data)
        gs = grouped_from_arrangement(table_arrangements(table.meta, 1)[0])
        res = run_test(gs, moved, "minp")
        cols = moved.sorted_columns()
        pvals = [p_value(v, cols[:, j]) for j, v in enumerate(observed)]
        assert pvals == res.per_m_pvalues.tolist()
        assert res.per_m_pvalues[0] == 1.0
        assert res.per_m_pvalues[1] == 1.0 / (b + 1)
        assert res.per_m_pvalues[2] >= (1 + b // 2) / (b + 1)


class TestRunTest:
    def test_self_consistency_exact_mode(self):
        table = generate_null_table(ksample_meta())
        b = table.meta.b
        seen = set()
        for perm in permutations([1, 1, 2, 2]):
            if perm in seen:
                continue
            seen.add(perm)
            gs = grouped_from_arrangement(perm)
            res = run_test(gs, table, "minp")
            row = ksample_sum_all_m(gs, "lr", m_max=4).values
            for j, m in enumerate(table.ms):
                geq = int(np.sum(table.data[:, j] >= row[j]))
                assert res.per_m_pvalues[j] == pytest.approx((1 + geq) / (b + 1))
            combined = combined_null_distribution(table, "minp")
            leq = int(np.sum(combined <= res.combined_statistic))
            assert res.final_pvalue == pytest.approx((1 + leq) / (b + 1))

    @pytest.mark.parametrize("family", ["adp_sum", "ddp_sum"])
    def test_independence_self_consistency_exact_mode(self, family):
        # points in shuffled order whose y-by-x arrangement is each table row
        n = 5
        table = generate_null_table(indep_meta(family=family, n=n, m_max=4))
        assert table.meta.b == 120
        b = table.meta.b
        combined = combined_null_distribution(table, "minp")
        rng = np.random.default_rng(9)
        for i, perm in enumerate(permutations(range(1, n + 1))):
            xr = rng.permutation(n) + 1
            yr = np.asarray(perm)[xr - 1]
            res = run_test((RankedSample(xr, n, 0), RankedSample(yr, n, 0)), table, "minp")
            row = table.data[i]
            expected = [(1 + int(np.sum(col >= v))) / (b + 1) for col, v in zip(table.data.T, row)]
            assert np.array_equal(res.per_m_pvalues, expected)
            leq = int(np.sum(combined <= res.combined_statistic))
            assert res.final_pvalue == (1 + leq) / (b + 1)

    def test_penalized_ddp_matches_oracle_means(self):
        n = 6
        table = generate_null_table(indep_meta(family="ddp_sum", n=n, m_max=4))
        rng = np.random.default_rng(10)
        x = RankedSample(np.arange(1, n + 1), n, 0)
        y = RankedSample(rng.permutation(n) + 1, n, 0)
        for prior in (PriorSpec.poisson_sqrt_n(), PriorSpec.binomial(0.3)):
            expected = max(
                oracle_ddp(x, y, "lr", m)[0] / math.comb(n, m - 1)
                + prior.log_prior_m(np.array([m]), n)[0]
                for m in (2, 3, 4)
            )
            res = run_test((x, y), table, "penalized", prior)
            assert res.combined_statistic == pytest.approx(expected, rel=1e-10)

    def test_bounds(self):
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), m_max=5, b=120))
        rng = np.random.default_rng(3)
        gs = GroupedSample.from_values(np.repeat([1, 2], 10), rng.normal(size=20), 1)
        res = run_test(gs, table, "minp")
        assert 1.0 / 121.0 <= res.final_pvalue <= 1.0
        assert np.all(res.per_m_pvalues > 0) and np.all(res.per_m_pvalues <= 1)

    def test_fisher_and_penalized_paths(self):
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), m_max=5, b=120))
        rng = np.random.default_rng(4)
        gs = GroupedSample.from_values(np.repeat([1, 2], 10), rng.normal(size=20), 1)
        fisher = run_test(gs, table, "fisher")
        assert fisher.combined_statistic == pytest.approx(
            -np.log(fisher.per_m_pvalues).sum(), rel=1e-12
        )
        pen = run_test(gs, table, "penalized", PriorSpec.poisson_sqrt_n())
        assert 0 < pen.final_pvalue <= 1

    @pytest.mark.parametrize("kind", ["minp", "fisher", "penalized"])
    @pytest.mark.parametrize(
        "family,score,n",
        [
            ("adp_sum", "lr", 6),
            ("ddp_sum", "pearson", 6),
            ("adp_sum", "lr", 9),
            ("ddp_sum", "lr", 9),
        ],
    )
    def test_independence_bit_identical(self, family, score, n, kind):
        # exact tables at N=6, Monte Carlo tables at N=9
        table = generate_null_table(
            indep_meta(family=family, score=score, n=n, m_max=3, b=100, seed=11)
        )
        prior = PriorSpec.poisson_sqrt_n() if kind == "penalized" else None
        res = run_test(golden_hhg_pair(n, "ranks"), table, kind, prior)
        got = {
            "per_m_pvalues": [float(p).hex() for p in res.per_m_pvalues],
            "combined_statistic": res.combined_statistic.hex(),
            "final_pvalue": res.final_pvalue.hex(),
        }
        assert got == golden_sweep()["run_test"][f"{family},{score},n={n},{kind}"]

    def test_penalized_requires_prior(self):
        table = generate_null_table(ksample_meta())
        gs = grouped_from_arrangement([1, 1, 2, 2])
        with pytest.raises(ValueError):
            run_test(gs, table, "penalized")

    def test_incompatible_inputs(self):
        table = generate_null_table(ksample_meta())
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="table incompatible"):
            run_test(
                GroupedSample.from_values([1, 2, 1, 2, 1], rng.normal(size=5), 0),
                table,
                "minp",
            )
        with pytest.raises(ValueError, match="table incompatible"):
            run_test(
                GroupedSample.from_values([1, 1, 1, 2], rng.normal(size=4), 0), table, "minp"
            )
        x = RankedSample(np.arange(1, 5), 4, 0)
        with pytest.raises(ValueError, match="table incompatible"):
            run_test((x, x), table, "minp")
        indep = generate_null_table(indep_meta())
        with pytest.raises(ValueError, match="table incompatible"):
            run_test(grouped_from_arrangement([1, 1, 2, 2]), indep, "minp")

    def test_per_m_monotone_in_observed_statistic(self):
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), m_max=5, b=120))
        cols = table.sorted_columns()
        for j in range(cols.shape[1]):
            lo = p_value(float(cols[10, j]), cols[:, j])
            hi = p_value(float(cols[10, j]) + 1e-9, cols[:, j])
            assert hi <= lo


def assert_minp_count_matches_search(table, rows):
    """The direct minp tail count of each row equals a search of the minp null."""
    rows = np.atleast_2d(rows)
    below = [_below_counts(table, row) for row in rows]
    assert all(counts.dtype.kind == "i" for counts in below)
    stats = combined_statistic(reference_pvalue_rows(table, rows), "minp")
    searched = np.searchsorted(table.combined_null("minp"), stats, side="right")
    counted = [_minp_tail_count(table, counts) for counts in below]
    assert counted == searched.tolist()


# exact tables whose columns are heavily tied: 252, 1680 and 5040 rows
MINP_EXACT_TABLES = [
    ksample_meta(n=10, group_sizes=(5, 5), m_max=10),
    ksample_meta(family="max", score="pearson", n=9, group_sizes=(3, 3, 3), m_max=9),
    indep_meta(n=7, m_max=7),
]
MINP_EXACT_IDS = ["sum-10", "max-k3-9", "adp_sum-7"]


@functools.cache
def minp_exact_table(index):
    table = generate_null_table(MINP_EXACT_TABLES[index])
    assert table.meta.exact and table.b == (252, 1680, 5040)[index]
    return table


def minp_exact_datasets(table, count):
    """Test inputs whose statistic rows are the table's first ``count`` rows."""
    arrangements = table_arrangements(table.meta, count)
    if table.meta.problem == "ksample":
        return [grouped_from_arrangement(a) for a in arrangements]
    n = table.meta.n
    x = RankedSample(np.arange(1, n + 1), n, 0)
    return [(x, RankedSample(np.asarray(a), n, 0)) for a in arrangements]


def result_bytes(res):
    return (
        res.ms,
        res.per_m_pvalues.tobytes(),
        res.combined_kind,
        res.combined_statistic.hex(),
        res.final_pvalue.hex(),
    )


class TestNullTableInput:
    def test_table_holds_finite_values_only(self):
        meta = ksample_meta(n=10, group_sizes=(5, 5), m_max=4, b=100)
        for value in (np.nan, np.inf, -np.inf):
            data = np.ones((100, 3))
            data[40, 1] = value
            with pytest.raises(ValueError, match="^non-finite statistic in table$"):
                NullTable(meta=meta, data=data)

    def test_caller_array_stays_writeable(self):
        meta = ksample_meta(n=10, group_sizes=(5, 5), m_max=4, b=100)
        data = np.ones((100, 3))
        table = NullTable(meta=meta, data=data)
        assert data.flags.writeable and not table.data.flags.writeable
        data[0, 0] = 2.0
        assert table.data[0, 0] == 1.0


class TestMinpTailCount:
    """A table's first minp test counts its tail instead of building the minp null."""

    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(1, 40), m=st.integers(1, 5), data=st.data())
    def test_random_tied_tables(self, b, m, data):
        values = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0, 7.0])
        table_values = data.draw(st.lists(values, min_size=b * m, max_size=b * m))
        observed = data.draw(st.lists(values, min_size=m, max_size=m))
        meta = ksample_meta(n=10, group_sizes=(5, 5), m_max=m + 1, b=b)
        table = NullTable(meta=meta, data=np.reshape(table_values, (b, m)))
        assert_minp_count_matches_search(table, np.vstack([table.data, observed]))

    def test_random_continuous_tables(self):
        rng = np.random.default_rng(16)
        for b, m in ((1, 1), (2, 3), (150, 1), (500, 8), (1000, 28)):
            meta = ksample_meta(n=60, group_sizes=(30, 30), m_max=m + 1, b=b)
            table = NullTable(meta=meta, data=rng.normal(size=(b, m)))
            shifted = table.data[rng.integers(b, size=20)] + rng.normal(scale=0.3, size=(20, m))
            assert_minp_count_matches_search(table, np.vstack([table.data, shifted]))

    @pytest.mark.parametrize("index", range(3), ids=MINP_EXACT_IDS)
    def test_exact_tables_every_row(self, index):
        table = minp_exact_table(index)
        assert_minp_count_matches_search(table, table.data)

    @pytest.mark.parametrize("index", range(3), ids=MINP_EXACT_IDS)
    def test_largest_count_zero_and_b(self, index):
        table = minp_exact_table(index)
        low = table.data.min(axis=0) - 1.0
        high = table.data.max(axis=0) + 1.0
        assert _below_counts(table, low).max() == 0
        assert _minp_tail_count(table, _below_counts(table, low)[0]) == table.b
        assert _below_counts(table, high).min() == table.b
        assert _minp_tail_count(table, _below_counts(table, high)[0]) == 0
        assert_minp_count_matches_search(table, [low, high])

    def test_signed_zeros(self):
        rng = np.random.default_rng(17)
        data = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(300, 4))
        data[:, 0] = rng.choice([-0.0, 0.0], size=300)
        assert np.signbit(data[:, 0]).any() and not np.signbit(data[:, 0]).all()
        table = NullTable(meta=ksample_meta(n=10, group_sizes=(5, 5), m_max=5, b=300), data=data)
        observed = [[-0.0, -0.0, -0.0, -0.0], [0.0, 0.0, 0.0, 0.0], [-0.0, 1.0, -0.0, -1.0]]
        assert_minp_count_matches_search(table, np.vstack([data, observed]))

    @pytest.mark.parametrize("kind", ["minp", "fisher", "penalized"])
    @pytest.mark.parametrize("index", range(3), ids=MINP_EXACT_IDS)
    def test_first_second_and_prewarmed_tests_agree(self, index, kind):
        table = minp_exact_table(index)
        prior = PriorSpec.poisson_sqrt_n() if kind == "penalized" else None
        prewarmed = NullTable(meta=table.meta, data=table.data)
        prewarmed.combined_null(kind, prior)
        datasets = minp_exact_datasets(table, 40)
        for data in datasets[::8]:
            fresh = NullTable(meta=table.meta, data=table.data)
            first, second = (run_test(data, fresh, kind, prior) for _ in range(2))
            warm = run_test(data, prewarmed, kind, prior)
            assert result_bytes(first) == result_bytes(second) == result_bytes(warm)
        for data in datasets:  # every later minp test searches the null
            fresh = NullTable(meta=table.meta, data=table.data)
            assert result_bytes(run_test(data, fresh, kind, prior)) == result_bytes(
                run_test(data, prewarmed, kind, prior)
            )

    def test_minp_null_built_on_the_second_test(self):
        table = generate_null_table(ksample_meta(n=20, group_sizes=(10, 10), m_max=6, b=300))
        data = grouped_from_arrangement(table_arrangements(table.meta, 1)[0])
        run_test(data, table, "fisher")
        assert "minp" not in table._combined
        run_test(data, table, "minp")
        assert "minp" not in table._combined
        run_test(data, table, "minp")
        assert "minp" in table._combined
        cached = table._combined["minp"]
        run_test(data, table, "minp")
        assert table._combined["minp"] is cached

    def test_power_study_unchanged(self):
        # rejections and per-m counts recorded before the direct count existed
        table = generate_null_table(
            ksample_meta(n=24, group_sizes=(12, 12), m_max=8, b=400, seed=7)
        )
        spec = make_scenario("gauss-shift", n=24, seed=3, replicates=60)
        per_m = [17, 14, 13, 12, 11, 10, 11]
        for kind, rejections in (("minp", 12), ("fisher", 13)):
            report = power_study(spec, table, kind)
            assert report.rejections == rejections
            assert (report.per_m_rates * 60).round().astype(int).tolist() == per_m
        # each replicate against a fresh table takes the direct count
        fresh = [
            run_test(dataset_for_test(spec, rep), NullTable(meta=table.meta, data=table.data))
            for rep in range(spec.replicates)
        ]
        assert sum(res.final_pvalue <= spec.alpha for res in fresh) == 12
