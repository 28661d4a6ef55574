"""Command-line driver.

Subcommands compute exact quantities (dim, rdim, link, qlink), run
verification suites against the enumeration oracles (verify), and run the
convergence/benchmark experiments (uat, bench). Output is line-delimited
JSON: one line per result entry, then one summary line. `--csv` flattens
the entries into a table instead and writes the summary line to stderr;
`--out FILE` additionally writes the whole report as a single JSON document.

Exact rational values are emitted as "p/q" strings, never as floats; float
values only appear for numeric-mode operations and carry their tolerance.
Exit status is 0 exactly when no check in the report failed: status `pass`,
or `not-applicable` when there was nothing to check. A reader that closes
stdout early ends the output quietly with status 141.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import re
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from . import qlinks, reldim, schur
from .patterns import BudgetExceededError, dim_product, format_signature, parse_signature
from .qlinks import q_link_row
from .reldim import DetContext, LinkRow, link_row, rel_dim_ratio
from .verify import SUITES, bench_table, ignored_bounds, run_suite, uat_table

__all__ = ["RunReport", "main"]


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: list = field(default_factory=list)
    status: str | None = None
    timing: dict = field(default_factory=dict)
    ignored_bounds: list = field(default_factory=list)  # given to `verify`, not taken by its suite

    def entries(self) -> list:
        """The result entries, as dicts."""
        return self.results

    def entry_lines(self) -> Iterator[str]:
        """The result entries as JSON lines, each ending in a newline."""
        return (json.dumps(entry) + "\n" for entry in self.results)

    def write_entries(self, stream) -> None:
        """Write the entry lines to `stream`, `_CHUNK_LINES` of them per write,
        so a wide row is never held as one string."""
        lines = self.entry_lines()
        while chunk := "".join(islice(lines, _CHUNK_LINES)):
            stream.write(chunk)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps({**asdict(self), "results": self.entries()}, indent=indent)


# entry lines joined per write: a few tens of KB of a wide link row
_CHUNK_LINES = 256

# json.dumps(_entry(label, value)) of an exact entry whose label and value
# need no JSON escaping, as signatures and "p/q" strings never do
_EXACT_LINE = '{"label": "%s", "value": "%s", "mode": "exact", "tolerance": null}\n'


class RowReport(RunReport):
    """`link` or `qlink`: the entries are the row's weights, then its exact
    sum, made from `row` when they are written (`results` stays empty)."""

    def __init__(self, command: str, inputs: dict, row: LinkRow, timing: dict):
        super().__init__(command, inputs, status="pass", timing=timing)
        self.row = row

    def _pairs(self):
        for kappa, weight in self.row.items():
            yield format_signature(kappa), weight
        yield "row_sum", self.row.total

    def entries(self) -> list:
        return [_entry(label, value) for label, value in self._pairs()]

    def entry_lines(self) -> Iterator[str]:
        return (_EXACT_LINE % pair for pair in self._pairs())


def _enc(value):
    """JSON-safe encoding: exact rationals become 'p/q' strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


def _entry(label: str, value, mode: str = "exact", tolerance: float | None = None, **extra) -> dict:
    out = {"label": label, "value": _enc(value), "mode": mode, "tolerance": tolerance}
    for k, v in extra.items():
        out[k] = _enc(v)
    return out


# ---------------------------------------------------------------------------
# argument plumbing


# a signature token whose first part is negative, such as "-1,-2"
_NEGATIVE_SIGNATURE = re.compile(r"-\d+\s*,")


class _Parser(argparse.ArgumentParser):
    """argparse takes a token that starts with "-" for an option unless it is
    a plain negative number; here a comma-separated token that starts with a
    negative integer is an argument too, as a positional or an option value.
    Subcommand parsers are made from this class as well."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_SIGNATURE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _sig(text: str) -> tuple:
    try:
        return parse_signature(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {err}") from None


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text!r}")
    return value


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _int_list(text: str) -> list:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused after it: parsing
    leaves no state on it, as each call gets a fresh namespace."""
    parser = _Parser(
        prog="gtkit",
        description="Exact determinantal counting of trapezoidal interlacing patterns.",
    )
    parser.add_argument("--csv", action="store_true", help="emit results as a CSV table")
    parser.add_argument("--out", metavar="FILE", help="also write the full report JSON to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="triangular pattern count for a top row")
    p.add_argument("signature", type=_sig)

    p = sub.add_parser("rdim", help="trapezoid count between a bottom and a top row")
    p.add_argument("kappa", type=_sig)
    p.add_argument("nu", type=_sig)

    p = sub.add_parser("link", help="full link row from a top row to a level")
    p.add_argument("nu", type=_sig)
    p.add_argument("--level", type=int, required=True, metavar="K")

    p = sub.add_parser("qlink", help="full q-deformed link row")
    p.add_argument("nu", type=_sig)
    p.add_argument("--level", type=int, required=True, metavar="K")
    p.add_argument("--q", type=_rational, required=True, metavar="p/r")

    p = sub.add_parser("verify", help="run a verification suite against the oracles")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--part-bound", type=_nonnegative, dest="part_bound")
    p.add_argument("--q", type=_rational, action="append", dest="qs", metavar="p/r")
    p.add_argument("--tolerance", type=_tolerance)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=_nonnegative)

    p = sub.add_parser("uat", help="finite-vs-boundary approximation gaps")
    p.add_argument("--kappa", type=_sig, required=True)
    p.add_argument("--family", required=True, help="'zero' or 'linear-row:a'")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p.add_argument("--tolerance", type=_tolerance, default=1e-10)

    p = sub.add_parser("bench", help="determinant vs enumeration timing")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--level", type=int, default=2, metavar="K")
    p.add_argument("--budget", type=_nonnegative)
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_dim(args) -> RunReport:
    report = RunReport("dim", {"signature": format_signature(args.signature)})
    report.results.append(_entry("dim", dim_product(args.signature)))
    report.status = "pass"
    return report


def _cmd_rdim(args) -> RunReport:
    report = RunReport(
        "rdim",
        {"kappa": format_signature(args.kappa), "nu": format_signature(args.nu)},
    )
    ratio = rel_dim_ratio(DetContext(len(args.kappa), args.nu), args.kappa)
    count = dim_product(args.nu) * ratio
    report.results.append(_entry("trapezoids", count))
    report.results.append(_entry("ratio_to_triangular", ratio))
    report.status = "pass"
    return report


# The caches behind the row and verify commands, captured at import so that
# wrappers later bound over the module names (as perfbench's tracer does)
# leave the counts read here untouched.
_DET_CACHES = {"prefix_cofactors": reldim._prefix_cofactors, "cleared_column": reldim._cleared_column}
_CACHES = {
    "link": {"A_coeff": reldim.A_coeff, **_DET_CACHES},
    "qlink": {"qA_coeff": qlinks.qA_coeff, "q_power": qlinks._q_power, **_DET_CACHES},
    "verify": {
        "A_coeff": reldim.A_coeff,
        "qA_coeff": qlinks.qA_coeff,
        "psi_T": qlinks.psi_T,
        "q_power": qlinks._q_power,
        **_DET_CACHES,
        "bo_numerator": reldim._bo_numerator,
        "general_q_scalar": qlinks._general_q_scalar,
        "schur_weight": qlinks._schur_weight,
        "h_at_q_powers": schur._h_at_q_powers,
    },
}


def _cache_counts(command: str) -> dict:
    return {name: fn.cache_info() for name, fn in _CACHES[command].items()}


def _cache_stats(command: str, before: dict) -> dict:
    """Hits and misses of `command`'s caches since the `_cache_counts` snapshot `before`."""
    return {
        name: {"hits": info.hits - before[name].hits, "misses": info.misses - before[name].misses}
        for name, info in _cache_counts(command).items()
    }


def _cmd_row(args) -> RunReport:
    """`link` or `qlink`: one row's weights, then their exact sum."""
    inputs = {"nu": format_signature(args.nu), "level": args.level}
    if args.command == "qlink":
        inputs["q"] = str(args.q)
    before = _cache_counts(args.command)
    if args.command == "qlink":
        row = q_link_row(args.nu, args.level, args.q)
    else:
        row = link_row(args.nu, args.level)
    # under `timing`, so the entries and digests stay comparable across runs
    return RowReport(args.command, inputs, row, {"stats": _cache_stats(args.command, before)})


def _cmd_verify(args) -> RunReport:
    bounds = {
        "max_n": args.max_n,
        "part_bound": args.part_bound,
        "qs": args.qs,
        "tolerance": args.tolerance,
        "seed": args.seed,
        "budget": args.budget,
    }
    inputs = {"suite": args.suite}
    for key, value in bounds.items():
        if value is not None:
            inputs[key] = [str(v) for v in value] if isinstance(value, list) else _enc(value)
    report = RunReport("verify", inputs, ignored_bounds=ignored_bounds(args.suite, **bounds))
    before = _cache_counts("verify")
    results = run_suite(args.suite, **bounds)
    report.timing["stats"] = _cache_stats("verify", before)
    for case in results:
        report.results.append(
            _entry(
                case.case,
                "ok" if case.ok else "FAIL",
                ok=case.ok,
                checks=case.checks,
                seconds=round(case.seconds, 3),
                counterexample=case.counterexample,
            )
        )
    # bounds below a suite's first case leave nothing to check
    report.status = ("pass" if all(c.ok for c in results) else "fail") if results else "not-applicable"
    return report


def _cmd_uat(args) -> RunReport:
    report = RunReport(
        "uat",
        {
            "kappa": format_signature(args.kappa),
            "family": args.family,
            "n": args.n,
            "mode": args.mode,
        },
    )
    rows = uat_table(args.kappa, args.family, args.n, mode=args.mode, tolerance=args.tolerance)
    for row in rows:
        report.results.append(
            _entry(
                f"N={row['N']}",
                row["gap"],
                mode=row["mode"],
                tolerance=row["tolerance"],
                nu=row["nu"],
            )
        )
    exact = args.mode == "exact"
    gaps = [Fraction(r["gap"]) if exact else r["gap"] for r in rows]
    # the trend is judged on the same numbers as the gaps, so it carries their mode
    judged = {"mode": args.mode, "tolerance": None if exact else args.tolerance}
    if len(gaps) < 2 or all(gap <= (0 if exact else args.tolerance) for gap in gaps):
        # gaps that are all 0 (kappa = nu = 0 for the zero family), or a single
        # N, have no trend to check
        report.results.append(_entry("strictly_decreasing", "not-applicable", **judged))
        report.status = "not-applicable"
        return report
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    report.results.append(_entry("strictly_decreasing", decreasing, **judged))
    report.status = "pass" if decreasing else "fail"
    return report


def _cmd_bench(args) -> RunReport:
    report = RunReport("bench", {"n": args.n, "level": args.level})
    rows = bench_table(args.n, args.level, budget=args.budget)
    # under `timing`, beside the wall clock, so the entries stay comparable across runs
    report.timing["enumeration_work"] = [{"N": row["N"], **row.pop("enumeration_work")} for row in rows]
    ok = True
    for row in rows:
        ok = ok and row["row_sum_1"] and row.get("enum_matches_det", True)
        report.results.append(
            _entry(
                f"N={row['N']}",
                row["det_seconds"],
                mode="exact",
                **{k: v for k, v in row.items() if k not in ("N", "det_seconds")},
            )
        )
    # an empty --n list leaves nothing to check
    report.status = ("pass" if ok else "fail") if rows else "not-applicable"
    return report


_COMMANDS = {
    "dim": _cmd_dim,
    "rdim": _cmd_rdim,
    "link": _cmd_row,
    "qlink": _cmd_row,
    "verify": _cmd_verify,
    "uat": _cmd_uat,
    "bench": _cmd_bench,
}


# ---------------------------------------------------------------------------
# emission


def _emit(report: RunReport, use_csv: bool, stream, err_stream) -> None:
    """Entries, then the summary line, on `stream`; with `use_csv` the entries
    form a CSV table there and the summary line goes to `err_stream`."""
    summary = {
        "command": report.command,
        "inputs": report.inputs,
        "status": report.status,
        "timing": report.timing,
    }
    if report.ignored_bounds:
        summary["ignored_bounds"] = report.ignored_bounds
    if use_csv:
        entries = report.entries()
        keys: list = []
        for entry in entries:
            for key in entry:
                if key not in keys:
                    keys.append(key)
        writer = csv.DictWriter(stream, fieldnames=keys)
        writer.writeheader()
        for entry in entries:
            # booleans in the JSON spelling, as the JSON lines write them
            writer.writerow({k: json.dumps(v) if isinstance(v, bool) else v for k, v in entry.items()})
        print(json.dumps(summary), file=err_stream)
        return
    report.write_entries(stream)
    print(json.dumps(summary), file=stream)


def _out_path_error(path: str) -> OSError | None:
    """The error that opening `path` for writing would raise, found without
    opening it: the parent must be a writable directory and the path must not
    be a directory. Checked before the command runs, so a bad path costs no
    work and an existing file is left as it is when the command fails."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code, kind = errno.EISDIR, IsADirectoryError
    elif not os.path.exists(parent):
        code, kind = errno.ENOENT, FileNotFoundError
    elif not os.path.isdir(parent):
        code, kind = errno.ENOTDIR, NotADirectoryError
    elif not os.access(parent, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        code, kind = errno.EACCES, PermissionError
    else:
        return None
    return kind(code, os.strerror(code), path)


def _out_error(err: OSError) -> int:
    error = {"error": type(err).__name__, "detail": f"cannot write --out file: {err}"}
    print(json.dumps(error), file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.out and (err := _out_path_error(args.out)) is not None:
        return _out_error(err)
    t0 = time.perf_counter()
    try:
        report = _COMMANDS[args.command](args)
    except BudgetExceededError as err:
        error = {
            "error": "budget-exceeded",
            "detail": str(err),
            "budget": err.budget,
            "consumed": err.consumed,
            "bound": err.bound,
        }
        print(json.dumps(error), file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as err:
        print(json.dumps({"error": type(err).__name__, "detail": str(err)}), file=sys.stderr)
        return 2
    report.timing = {"total_seconds": round(time.perf_counter() - t0, 3), **report.timing}
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report.to_json(indent=2) + "\n")
        except OSError as err:
            return _out_error(err)
    try:
        _emit(report, args.csv, sys.stdout, sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: stop writing, and point stdout at devnull
        # so the flush at exit cannot raise again; 141 is 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0 if report.status in (None, "pass", "not-applicable") else 1


if __name__ == "__main__":
    sys.exit(main())
