import hashlib
import io
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import islice, permutations

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
    p_value,
    run_test,
    save_table,
)
from partitest.nulltable import (
    _base_labels,
    _mc_arrangement,
    _multiset_permutations,
    _per_m_pvalue_rows,
    _self_pvalue_rows,
    exact_enumeration_count,
)
from partitest.cli import main as cli_main
from partitest.oracle import oracle_ddp

from helpers import golden_hhg_pair, golden_sweep, reference_load_table


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
    if meta.exact:
        return list(islice(_multiset_permutations(_base_labels(meta).tolist()), count))
    return [_mc_arrangement(meta, b) for b in range(count)]


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
# header lines: the version line and nine #key=value lines
FUZZ_HEADER_LINES = 10
FUZZ_TOKENS = st.one_of(
    st.sampled_from(
        ["", " ", "x", "1e", "--1", "0x10", "1,5", ".", "nan", "-nan", "inf", "-Infinity",
         "1e400", "-1e400", "1e-400", "-0", "-0.0", "+0", " 2.5 ", "4.9e-324", "#", "1#2"]
    ),
    st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-naifINFty #x\t", max_size=8),
)
FUZZ_LINES = st.one_of(
    st.sampled_from(["", " ", "\t", "  \t ", "\xa0", "#", "# note", "#x=1", "#seed=3"]),
    st.text(alphabet="0123456789.e-# \t=abBN", max_size=10),
)
FUZZ_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("token"), st.integers(0, 10**6), st.integers(0, 10), FUZZ_TOKENS),
        st.tuples(st.just("drop"), st.integers(0, 10**6), st.integers(0, 10)),
        st.tuples(st.just("append"), st.integers(0, 10**6), FUZZ_TOKENS),
        st.tuples(st.just("insert"), st.integers(0, 10**6), FUZZ_LINES),
        st.tuples(st.just("empty_body")),
    ),
    max_size=4,
)


def mutated_table_bytes(text: str, edits, newline: str, final_newline: bool) -> bytes:
    """A saved table's text with row edits and inserted lines, re-joined by ``newline``."""
    lines = text.split("\n")[:-1]
    for edit in edits:
        kind, body = edit[0], len(lines) - FUZZ_HEADER_LINES
        if kind == "empty_body":
            lines = lines[:FUZZ_HEADER_LINES]
        elif kind == "insert":
            pos = 1 + edit[1] % len(lines)
            lines.insert(pos, edit[2])
        elif body > 0:
            i = FUZZ_HEADER_LINES + edit[1] % body
            tokens = lines[i].split("\t")
            if kind == "token":
                tokens[edit[2] % len(tokens)] = edit[3]
            elif kind == "drop":
                del tokens[edit[2] % len(tokens)]
            else:
                tokens.append(edit[2])
            lines[i] = "\t".join(tokens)
    return (newline.join(lines) + (newline if final_newline else "")).encode("utf-8")


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
        raw = path.read_bytes().decode("utf-8")
        lines = raw.split("\n")
        assert lines[0] == "#PNT v1"
        assert "#groups=" in raw
        assert raw.endswith("\n") and "\r" not in raw
        data_lines = [ln for ln in lines if ln and not ln.startswith("#")]
        assert len(data_lines) == 24
        assert all(len(ln.split("\t")) == 2 for ln in data_lines)
        assert all(not ln.endswith((" ", "\t")) for ln in lines)

    def test_unknown_major_version_rejected(self, tmp_path):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        text = path.read_text().replace("#PNT v1", "#PNT v2", 1)
        bad = tmp_path / "bad.pnt"
        bad.write_text(text)
        with pytest.raises(ValueError, match="major version"):
            load_table(str(bad))

    @pytest.mark.parametrize("key", ["problem", "family", "score", "N", "m_max", "B", "seed"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        lines = path.read_text().split("\n")
        path.write_text("\n".join(ln for ln in lines if not ln.startswith(f"#{key}=")))
        with pytest.raises(ValueError, match=f"missing header key: {key}$"):
            load_table(str(path))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_row_rejected(self, tmp_path, token):
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        lines = path.read_text().split("\n")
        first = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
        lines[first] = "\t".join([token] * (table.meta.m_max - 1))
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="non-finite"):
            load_table(str(path))

    def test_truncated_exact_table_rejected(self, tmp_path):
        table = generate_null_table(ksample_meta(n=6, group_sizes=(3, 3)))
        assert table.meta.exact and table.meta.b == 20
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        lines = path.read_text().split("\n")
        first = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
        lines = [("#B=15" if ln == "#B=20" else ln) for ln in lines[: first + 15]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="exact table holds B=15 rows, not the full"):
            load_table(str(path))

    def test_no_partial_file_on_failure(self, tmp_path):
        table = generate_null_table(ksample_meta())
        target = tmp_path / "missing-dir" / "t.pnt"
        with pytest.raises(OSError):
            save_table(table, str(target))
        assert not target.exists()

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(range(len(FUZZ_TABLES))),
        edits=FUZZ_EDITS,
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        final_newline=st.booleans(),
    )
    @example(case=0, edits=[], newline="\r\n", final_newline=True)
    @example(case=0, edits=[("empty_body",)], newline="\n", final_newline=True)
    @example(case=1, edits=[("empty_body",), ("insert", 12, "")], newline="\n", final_newline=True)
    @example(case=0, edits=[("drop", 3, 0)], newline="\n", final_newline=True)
    @example(case=0, edits=[("insert", 11, "")], newline="\n", final_newline=False)
    @example(case=0, edits=[("insert", 11, "  \t ")], newline="\n", final_newline=True)
    @example(case=1, edits=[("insert", 13, " ")], newline="\n", final_newline=True)
    @example(case=0, edits=[("insert", 12, "# note")], newline="\n", final_newline=True)
    @example(case=0, edits=[("token", 2, 1, "1e400")], newline="\n", final_newline=True)
    @example(case=1, edits=[("token", 2, 0, "nan")], newline="\n", final_newline=True)
    @example(case=1, edits=[("token", 2, 0, "-inf")], newline="\n", final_newline=True)
    @example(case=0, edits=[("token", 0, 2, "-0")], newline="\n", final_newline=True)
    @example(case=0, edits=[("token", 1, 0, "x")], newline="\n", final_newline=True)
    @example(case=0, edits=[("token", 1, 2, "1#2")], newline="\n", final_newline=True)
    @example(case=1, edits=[("token", 1, 0, "1#")], newline="\n", final_newline=True)
    def test_reader_matches_float_reference_on_mutated_files(
        self, case, edits, newline, final_newline
    ):
        meta, data_text = FUZZ_TABLES[case]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.pnt")
            save_table(generate_null_table(meta), path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "wb") as fh:
                fh.write(mutated_table_bytes(text, edits, newline, final_newline))
            expected = outcome(reference_load_table, path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = outcome(load_table, path)
            assert caught == []
            if isinstance(expected, Exception):
                assert isinstance(expected, ValueError), repr(expected)
                assert isinstance(got, ValueError), repr(got)
            else:
                assert got == expected
            data_path = os.path.join(tmp, "d.tsv")
            with open(data_path, "w", encoding="utf-8") as fh:
                fh.write(data_text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(["test", "--data", data_path, "--table", path])
        if isinstance(got, Exception):
            assert code == 4
            assert err.getvalue().startswith("error: bad table file")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            assert code == 0, err.getvalue()

    @pytest.mark.parametrize(
        "token,value",
        # float() reads underscores between digits and any Unicode decimal digit;
        # the C parser reads ASCII digits only
        [("1_0", 10.0), ("2_5e-1", 2.5), ("\u0661", 1.0), ("\uff12", 2.0)],
    )
    def test_tokens_float_accepts_and_the_reader_rejects(self, tmp_path, token, value):
        path = tmp_path / "t.pnt"
        save_table(generate_null_table(ksample_meta()), str(path))
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[FUZZ_HEADER_LINES] = "\t".join([token] + lines[FUZZ_HEADER_LINES].split("\t")[1:])
        path.write_text("\n".join(lines), encoding="utf-8")
        assert reference_load_table(str(path)).data[0, 0] == value
        with pytest.raises(ValueError, match="could not convert string"):
            load_table(str(path))

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_controls_are_whitespace_around_a_token(self, tmp_path, char):
        # str.isspace() holds for U+001C..U+001F, which the C parser strips
        # around a token as it strips spaces; float() rejects them
        table = generate_null_table(ksample_meta())
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[FUZZ_HEADER_LINES] = char + lines[FUZZ_HEADER_LINES].replace("\t", char + "\t")
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match="could not convert string to float"):
            reference_load_table(str(path))
        assert load_table(str(path)).data.tobytes() == table.data.tobytes()

    def test_empty_body_raises_without_a_warning(self, tmp_path):
        path = tmp_path / "t.pnt"
        save_table(generate_null_table(ksample_meta()), str(path))
        header = path.read_text(encoding="utf-8").split("\n")[:FUZZ_HEADER_LINES]
        path.write_text("\n".join(header) + "\n\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="data shape"):
                load_table(str(path))

    @pytest.mark.parametrize(
        "row,edit,message",
        [
            (1, lambda tokens: tokens[:-1],
             "2 columns where the rows above have 3, at data row 2, column 3"),
            (1, lambda tokens: tokens + ["0"],
             "4 columns where the rows above have 3, at data row 2, column 4"),
            (0, lambda tokens: [tokens[0], "x", tokens[2]],
             "could not convert string 'x' to a number at data row 1, column 2"),
            (2, lambda tokens: tokens[:2] + [""],
             "could not convert string '' to a number at data row 3, column 3"),
        ],
    )
    def test_parse_error_names_data_row_and_column(self, tmp_path, row, edit, message):
        # rows and columns count from 1; blank and #key=value lines are not data rows
        meta, data_text = FUZZ_TABLES[0]
        path = tmp_path / "t.pnt"
        save_table(generate_null_table(meta), str(path))
        lines = path.read_text(encoding="utf-8").split("\n")
        i = FUZZ_HEADER_LINES + row
        lines[i] = "\t".join(edit(lines[i].split("\t")))
        lines[FUZZ_HEADER_LINES:FUZZ_HEADER_LINES] = ["", "#note=1"]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_table(str(path))
        assert str(info.value) == message
        data_path = tmp_path / "d.tsv"
        data_path.write_text(data_text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["test", "--data", str(data_path), "--table", str(path)])
        assert code == 4
        assert err.getvalue() == f"error: bad table file {path}: {message}\n"


def golden_meta(**kw):
    base = dict(score="lr", group_sizes=None, b=100, seed=11)
    base.update(kw)
    return NullTableMeta(**base)


# SHA-256 of save_table output, recorded when the format and statistics were
# fixed; any change to row scoring, row order or number formatting shows here.
# The last three are the shapes perfbench's ksample workloads build.
KSAMPLE_GOLDEN_TABLES = [
    (
        golden_meta(problem="ksample", family="sum", n=6, group_sizes=(3, 3), m_max=4),
        "bde6fee898b4b8b820fa16baecae6b5fe96c1972e1a7bec391e0e1694f32381b",
    ),
    (
        golden_meta(
            problem="ksample", family="max", n=6, group_sizes=(3, 3), m_max=4, score="pearson"
        ),
        "716d95f09141f878511a486780ac90bcef8f0e5a7fd948e09f3e9faad1190774",
    ),
    (
        golden_meta(problem="ksample", family="sum", n=20, group_sizes=(10, 10), m_max=6, b=120),
        "da33ea95739a2ded1510c53debbccfd79b160f44e3ee408955c11c3471fce19e",
    ),
    (
        golden_meta(
            problem="ksample", family="sum", n=200, group_sizes=(100, 100), m_max=29, b=250
        ),
        "af2501d2d2bb9ed166dbf3b87d2bebdf13679df70c80929535ac4d3de96db278",
    ),
    (
        golden_meta(
            problem="ksample", family="max", n=100, group_sizes=(40, 30, 30), m_max=29, b=250
        ),
        "b13feb478fcce8b57bc42c9300351101f0b3157746f8a22affcff81fec8f5afd",
    ),
    (
        golden_meta(
            problem="ksample", family="sum", n=100, group_sizes=(40, 30, 30), m_max=50, b=250,
            score="pearson",
        ),
        "e0a8fbbe40bcf0091b04aac12353336dc1d6df77b8e5568c5bfaa85001697efe",
    ),
]

INDEPENDENCE_GOLDEN_TABLES = [
    (
        golden_meta(problem="independence", family="adp_sum", n=6, m_max=3),
        "c5b98e0701c4cc7ece27109d7ac363b2484c4ffbf09df291eec98411ecae58ed",
    ),
    (
        golden_meta(problem="independence", family="ddp_sum", n=6, m_max=3, score="pearson"),
        "3ab794e5f5adf4b264b38ff6b191c0fb80e11ce66803718f36dc9448a247b567",
    ),
    (
        golden_meta(problem="independence", family="adp_sum", n=9, m_max=3),
        "6d82f1f29e503ef6a4e8a77aa77fd1a2c60f73ade973c062d329f84c4bb13388",
    ),
    (
        golden_meta(problem="independence", family="ddp_sum", n=9, m_max=3),
        "1f1ed327a981d07ccbe746402b1b1909afbb30c173187f43ca100be51a3ce00c",
    ),
]

# Each case is marked with its problem, so `-m ksample` selects the K-sample
# digests; the order keeps the parameter ids of the first seven cases.
GOLDEN_TABLES = [
    pytest.param(meta, digest, marks=getattr(pytest.mark, meta.problem))
    for meta, digest in (
        KSAMPLE_GOLDEN_TABLES[:3] + INDEPENDENCE_GOLDEN_TABLES + KSAMPLE_GOLDEN_TABLES[3:]
    )
]


class TestGoldenBytes:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("meta,digest", GOLDEN_TABLES)
    def test_table_bytes(self, tmp_path, meta, digest, threads):
        table = generate_null_table(meta, threads=threads)
        path = tmp_path / "t.pnt"
        save_table(table, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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


def assert_self_ranks_match_searchsorted(table):
    """The table's own per-m p-values and combined nulls equal the searchsorted ones."""
    searched = _per_m_pvalue_rows(table, table.data)
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
        pvals = _per_m_pvalue_rows(table, table.data)
        assert pvals.shape == table.data.shape
        assert pvals.flags.c_contiguous
        for kind in ("minp", "fisher"):
            matrix = combined_statistic(pvals, kind)
            single = [
                combined_statistic(_per_m_pvalue_rows(table, row)[0], kind) for row in table.data
            ]
            assert [v.hex() for v in matrix.tolist()] == [v.hex() for v in single]
            assert np.sort(matrix).tobytes() == table.combined_null(kind).tobytes()

    @pytest.mark.parametrize("meta", LAYOUT_TABLES, ids=LAYOUT_IDS)
    def test_run_test_on_a_table_row(self, meta):
        table = generate_null_table(meta)
        pvals = _per_m_pvalue_rows(table, table.data)
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
