"""Command-line front end: null tables, tests, MI estimates, simulations.

Data files are TSV with optional ``#`` comment lines: ``label<TAB>value`` for
the K-sample problem, ``x<TAB>y`` for independence.  Machine output is either
TSV (per-m rows, summary values on ``#`` comment lines) or JSON lines.

Exit codes: 0 ok, 1 usage, 2 table/data incompatibility, 3 I/O failure,
4 malformed data or numeric contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import GroupedSample, default_m_max, rank_with_random_ties
from .ksample import PriorSpec
from .mi import mi_adp, mi_ddp, mi_histogram
from .nulltable import (
    NullTableMeta,
    generate_null_table,
    load_table,
    run_test,
    save_table,
)
from .simulate import (
    builtin_scenarios,
    generate_scenario,
    make_scenario,
    parse_scenario_file,
    power_study,
)

OK, USAGE, INCOMPATIBLE, IO, DATA = 0, 1, 2, 3, 4


class CliError(Exception):
    code = USAGE


class IncompatibleError(CliError):
    code = INCOMPATIBLE


class IoError(CliError):
    code = IO


class DataError(CliError):
    code = DATA


_FAMILIES = {"sum": "sum", "max": "max", "adp-sum": "adp_sum", "ddp-sum": "ddp_sum"}


def _parse_groups(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad --groups value: {text!r}") from exc


def _parse_prior(text: str | None) -> PriorSpec | None:
    if text is None:
        return None
    name, _, arg = text.partition(":")
    try:
        if name == "poisson":
            return PriorSpec.poisson_sqrt_n()
        if name == "uniform":
            return PriorSpec.uniform(int(arg))
        if name == "binomial":
            return PriorSpec.binomial(float(arg))
        if name == "ds":
            return PriorSpec.ds(float(arg))
    except ValueError as exc:
        raise CliError(f"bad prior parameter in {text!r}: {exc}") from exc
    raise CliError(f"unknown prior {name!r}; choose poisson, uniform:K, binomial:p or ds:lambda0")


def _prior_for(args, family: str) -> PriorSpec | None:
    """The --prior of a test or power study, checked against --combine and the table's family."""
    prior = _parse_prior(args.prior)
    if args.combine != "penalized":
        if prior is not None:
            raise CliError(f"--prior applies to --combine penalized only, not {args.combine}")
        return None
    if prior is None:
        raise CliError("--combine penalized needs --prior")
    if prior.variant == "ds" and family != "max":
        raise CliError(f"--prior ds applies to max tables only; the table's family is {family}")
    return prior


def _read_tsv(path: str, kind: str):
    """Parse a two-column data file; kind is 'ksample' or 'independence'."""
    left, right = [], []
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first value.
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected two tab-separated columns")
        try:
            if kind == "ksample":
                left.append(int(parts[0]))
            else:
                left.append(float(parts[0]))
            right.append(float(parts[1]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not left:
        raise DataError(f"{path}: no data rows")
    return np.asarray(left), np.asarray(right)


def _emit(record: dict, fmt: str) -> None:
    if fmt == "jsonl":
        print(json.dumps(record, sort_keys=True))
        return
    if fmt == "tsv":
        for key, value in record.items():
            if isinstance(value, (list, tuple)):
                continue
            print(f"#{key}={value}")
        return
    for key, value in record.items():
        if not isinstance(value, (list, tuple)):
            print(f"{key}: {value}")


def cmd_nulltable(args) -> int:
    if args.problem == "ksample":
        if not args.groups:
            raise CliError("--groups is required for the K-sample problem")
        groups = _parse_groups(args.groups)
        n = sum(groups)
    else:
        if not args.n:
            raise CliError("--n is required for the independence problem")
        groups = None
        n = args.n
    family = _FAMILIES.get(args.family)
    if family is None:
        raise CliError(f"unknown family {args.family!r}")
    m_max = args.m_max if args.m_max else default_m_max(args.problem, n)
    try:
        meta = NullTableMeta(
            problem=args.problem,
            family=family,
            score=args.score,
            n=n,
            group_sizes=groups,
            m_max=m_max,
            b=args.B,
            seed=args.seed,
        )
        table = generate_null_table(meta, threads=args.threads)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except MemoryError as exc:
        raise CliError(f"a table row at N={n} does not fit in memory") from exc
    try:
        save_table(table, args.out)
    except OSError as exc:
        raise IoError(f"cannot write {args.out}: {exc}") from exc
    meta = table.meta
    print(
        f"wrote {args.out}: problem={meta.problem} family={meta.family} "
        f"score={meta.score.value} N={meta.n} m_max={meta.m_max} "
        f"B={meta.b} exact={1 if meta.exact else 0}"
    )
    return OK


def _load_table_checked(path: str):
    try:
        return load_table(path)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"bad table file {path}: {exc}") from exc


def cmd_test(args) -> int:
    table = _load_table_checked(args.table)
    meta = table.meta
    prior = _prior_for(args, meta.family)
    left, right = _read_tsv(args.data, meta.problem)
    try:
        if meta.problem == "ksample":
            data = GroupedSample.from_values(left, right, tie_seed=args.tie_seed)
        else:
            data = (
                rank_with_random_ties(left, args.tie_seed),
                rank_with_random_ties(right, args.tie_seed + 1),
            )
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    try:
        result = run_test(data, table, args.combine, prior)
    except ValueError as exc:
        if "table incompatible" in str(exc):
            raise IncompatibleError(str(exc)) from exc
        raise DataError(str(exc)) from exc
    record = {
        "problem": meta.problem,
        "family": meta.family,
        "score": meta.score.value,
        "n": meta.n,
        "b": meta.b,
        "combined_kind": result.combined_kind,
        "combined_statistic": result.combined_statistic,
        "final_pvalue": result.final_pvalue,
        "ms": list(result.ms),
        "per_m_pvalues": [float(p) for p in result.per_m_pvalues],
    }
    if args.format == "jsonl":
        _emit(record, "jsonl")
    else:
        if args.format == "text":
            print(
                f"problem={meta.problem} family={meta.family} score={meta.score.value} "
                f"N={meta.n} B={meta.b}"
            )
        print("m\tp_value")
        for m, p in zip(result.ms, result.per_m_pvalues):
            print(f"{m}\t{p:.17g}")
        prefix = "#" if args.format == "tsv" else ""
        print(f"{prefix}combined_kind={result.combined_kind}")
        print(f"{prefix}combined_statistic={result.combined_statistic:.17g}")
        print(f"{prefix}final_pvalue={result.final_pvalue:.17g}")
    return OK


def cmd_mi(args) -> int:
    left, right = _read_tsv(args.data, "independence")
    fn = {"adp": mi_adp, "ddp": mi_ddp, "hist": mi_histogram}[args.estimator]
    try:
        x = rank_with_random_ties(left, args.tie_seed)
        y = rank_with_random_ties(right, args.tie_seed + 1)
        est = fn(x, y, args.m, miller_madow=args.miller_madow)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    except MemoryError as exc:
        error = f"the {args.estimator} estimate at N={left.size} does not fit in memory"
        raise DataError(error) from exc
    record = {
        "estimator": est.estimator,
        "m": est.m,
        "n": est.n,
        "value_nats": est.value,
        "miller_madow": est.miller_madow_applied,
    }
    _emit(record, args.format)
    return OK


def _scenario_from_args(args):
    if args.params:
        options = (("--scenario", args.scenario), ("--n", args.n), ("--groups", args.groups))
        given = [flag for flag, value in options if value is not None]
        if given:
            raise CliError(f"{', '.join(given)} cannot be combined with --params")
        try:
            spec = parse_scenario_file(
                args.params, seed=args.seed, replicates=args.R, alpha=args.alpha
            )
        except OSError as exc:
            raise IoError(str(exc)) from exc
        except ValueError as exc:
            raise DataError(f"bad scenario file: {exc}") from exc
        return spec
    if not args.scenario:
        raise CliError("either --scenario or --params is required")
    if args.n is None:
        raise CliError("--n is required with --scenario")
    try:
        return make_scenario(
            args.scenario,
            n=args.n,
            group_sizes=_parse_groups(args.groups) if args.groups is not None else None,
            seed=args.seed,
            replicates=args.R,
            alpha=args.alpha,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_simulate(args) -> int:
    spec = _scenario_from_args(args)
    if args.emit:
        try:
            left, right = generate_scenario(spec, args.replicate)
        except MemoryError as exc:
            error = DataError if args.params else CliError
            raise error(f"n={spec.n} values do not fit in memory") from exc
        for a, b in zip(left, right):
            if spec.problem == "ksample":
                print(f"{int(a)}\t{b:.17g}")
            else:
                print(f"{a:.17g}\t{b:.17g}")
        return OK
    if not args.table:
        raise CliError("--table is required unless --emit is given")
    table = _load_table_checked(args.table)
    prior = _prior_for(args, table.meta.family)
    try:
        report = power_study(spec, table, args.combine, prior, threads=args.threads)
    except ValueError as exc:
        if "table incompatible" in str(exc):
            raise IncompatibleError(str(exc)) from exc
        raise DataError(str(exc)) from exc
    record = {
        "scenario": report.scenario,
        "replicates": report.replicates,
        "alpha": report.alpha,
        "rejections": report.rejections,
        "rejection_rate": report.rejection_rate,
        "standard_error": report.standard_error,
    }
    _emit(record, args.format)
    if args.per_m_out:
        try:
            with open(args.per_m_out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("m\trejection_rate\n")
                for m, rate in zip(report.ms, report.per_m_rates):
                    fh.write(f"{m}\t{rate:.17g}\n")
        except OSError as exc:
            raise IoError(f"cannot write {args.per_m_out}: {exc}") from exc
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partitest",
        description="Distribution-free K-sample and independence tests over all partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nulltable", help="generate and store a Monte Carlo null table")
    p.add_argument("--problem", choices=("ksample", "independence"), required=True)
    p.add_argument("--groups", help="comma-separated group sizes (K-sample)")
    p.add_argument("--n", type=int, help="sample size (independence)")
    p.add_argument("--family", default="sum", help="sum, max, adp-sum or ddp-sum")
    p.add_argument("--score", default="lr", choices=("lr", "pearson"))
    p.add_argument("--m-max", type=int, default=0, dest="m_max")
    p.add_argument("--B", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_nulltable)

    p = sub.add_parser(
        "test",
        help="run a combined test against a stored table",
        epilog=(
            "jsonl record fields: problem, family, score, n, b, combined_kind, "
            "combined_statistic, final_pvalue, ms, per_m_pvalues. "
            "tsv: 'm<TAB>p_value' rows, then #combined_kind=, #combined_statistic=, "
            "#final_pvalue= comment lines."
        ),
    )
    p.add_argument("--data", required=True, help="TSV: label<TAB>value or x<TAB>y")
    p.add_argument("--table", required=True)
    p.add_argument("--combine", default="minp", choices=("minp", "fisher", "penalized"))
    p.add_argument("--prior", help="poisson, uniform:K, binomial:p or ds:lambda0")
    p.add_argument("--tie-seed", type=int, default=0, dest="tie_seed")
    p.add_argument("--format", default="text", choices=("text", "tsv", "jsonl"))
    p.set_defaults(func=cmd_test)

    p = sub.add_parser(
        "mi",
        help="estimate mutual information from a paired sample",
        epilog=(
            "jsonl record fields: estimator, m, n, value_nats, miller_madow; "
            "tsv emits the same keys as #key=value lines."
        ),
    )
    p.add_argument("--data", required=True, help="TSV: x<TAB>y")
    p.add_argument("--estimator", default="adp", choices=("adp", "ddp", "hist"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--miller-madow", action="store_true", dest="miller_madow")
    p.add_argument("--tie-seed", type=int, default=0, dest="tie_seed")
    p.add_argument("--format", default="text", choices=("text", "tsv", "jsonl"))
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser(
        "simulate",
        help="power/level study or dataset emission",
        epilog=(
            "jsonl record fields: scenario, replicates, alpha, rejections, "
            "rejection_rate, standard_error. --per-m-out writes "
            "'m<TAB>rejection_rate' rows. --emit prints one dataset as TSV."
        ),
    )
    p.add_argument("--scenario", help=f"one of: {', '.join(builtin_scenarios())}")
    p.add_argument("--params", help="scenario parameter file (key=value lines)")
    p.add_argument("--n", type=int)
    p.add_argument("--groups")
    p.add_argument("--table")
    p.add_argument("--combine", default="minp", choices=("minp", "fisher", "penalized"))
    p.add_argument("--prior")
    p.add_argument("--R", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", action="store_true", help="print one generated dataset as TSV")
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--per-m-out", dest="per_m_out")
    p.add_argument("--format", default="text", choices=("text", "tsv", "jsonl"))
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else USAGE
    try:
        for name in ("seed", "replicate", "tie_seed"):
            if getattr(args, name, 0) < 0:
                raise CliError(f"--{name.replace('_', '-')} must be non-negative")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return IO


if __name__ == "__main__":
    sys.exit(main())
