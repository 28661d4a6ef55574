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
or `not-applicable` when there was nothing to check.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import qlinks, reldim
from .patterns import BudgetExceededError, dim_product, format_signature, parse_signature
from .qlinks import q_link_row
from .reldim import DetContext, link_row, rel_dim_ratio
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

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(asdict(self), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(
            command=data["command"],
            inputs=data["inputs"],
            results=data["results"],
            status=data["status"],
            timing=data["timing"],
            ignored_bounds=data.get("ignored_bounds", []),
        )


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


def _int_list(text: str) -> list:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--part-bound", type=int, dest="part_bound")
    p.add_argument("--q", type=_rational, action="append", dest="qs", metavar="p/r")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)

    p = sub.add_parser("uat", help="finite-vs-boundary approximation gaps")
    p.add_argument("--kappa", type=_sig, required=True)
    p.add_argument("--family", required=True, help="'zero' or 'linear-row:a'")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p.add_argument("--tolerance", type=float, default=1e-10)

    p = sub.add_parser("bench", help="determinant vs enumeration timing")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--level", type=int, default=2, metavar="K")
    p.add_argument("--budget", type=int)
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
    k, n = len(args.kappa), len(args.nu)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= len(kappa) < len(nu), got {k} and {n}")
    ratio = rel_dim_ratio(DetContext(k, args.nu), args.kappa)
    count = dim_product(args.nu) * ratio
    report.results.append(_entry("trapezoids", count))
    report.results.append(_entry("ratio_to_triangular", ratio))
    report.status = "pass"
    return report


# The coefficient caches behind each row command, captured at import so that
# wrappers later bound over the module names (as perfbench's tracer does)
# leave the counts read here untouched.
_DET_CACHES = {"prefix_cofactors": reldim._prefix_cofactors, "cleared_column": reldim._cleared_column}
_ROW_CACHES = {
    "link": {"A_coeff": reldim.A_coeff, **_DET_CACHES},
    "qlink": {"qA_coeff": qlinks.qA_coeff, **_DET_CACHES},
}


def _cache_counts(command: str) -> dict:
    return {name: fn.cache_info() for name, fn in _ROW_CACHES[command].items()}


def _cache_stats(command: str, before: dict) -> dict:
    """Hits and misses of `command`'s caches since the `_cache_counts` snapshot `before`."""
    return {
        name: {"hits": info.hits - before[name].hits, "misses": info.misses - before[name].misses}
        for name, info in _cache_counts(command).items()
    }


def _cmd_link(args) -> RunReport:
    report = RunReport("link", {"nu": format_signature(args.nu), "level": args.level})
    before = _cache_counts("link")
    row = link_row(args.nu, args.level)
    # under `timing`, so the entries and digests stay comparable across runs
    report.timing["stats"] = _cache_stats("link", before)
    for kappa, weight in row.items():
        report.results.append(_entry(format_signature(kappa), weight))
    report.results.append(_entry("row_sum", row.total))
    report.status = "pass"
    return report


def _cmd_qlink(args) -> RunReport:
    report = RunReport(
        "qlink",
        {"nu": format_signature(args.nu), "level": args.level, "q": str(args.q)},
    )
    before = _cache_counts("qlink")
    row = q_link_row(args.nu, args.level, args.q)
    report.timing["stats"] = _cache_stats("qlink", before)
    for kappa, weight in row.items():
        report.results.append(_entry(format_signature(kappa), weight))
    report.results.append(_entry("row_sum", row.total))
    report.status = "pass"
    return report


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
    if args.max_n is not None and args.max_n < 2 and "max_n" not in report.ignored_bounds:
        report.results.append(
            _entry("no cases below N=2", "vacuous-pass", ok=True, checks=0)
        )
        report.status = "pass"
        return report
    results = run_suite(args.suite, **bounds)
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
    report.status = "pass" if all(c.ok for c in results) else "fail"
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
    report.status = "pass" if ok else "fail"
    return report


_COMMANDS = {
    "dim": _cmd_dim,
    "rdim": _cmd_rdim,
    "link": _cmd_link,
    "qlink": _cmd_qlink,
    "verify": _cmd_verify,
    "uat": _cmd_uat,
    "bench": _cmd_bench,
}


# ---------------------------------------------------------------------------
# emission


def _emit(report: RunReport, use_csv: bool, out_path: str | None, stream, err_stream) -> None:
    """Entries, then the summary line, on `stream`; with `use_csv` the entries
    form a CSV table there and the summary line goes to `err_stream`."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(report.to_json(indent=2) + "\n")
    summary = {
        "command": report.command,
        "inputs": report.inputs,
        "status": report.status,
        "timing": report.timing,
    }
    if report.ignored_bounds:
        summary["ignored_bounds"] = report.ignored_bounds
    if use_csv:
        keys: list = []
        for entry in report.results:
            for key in entry:
                if key not in keys:
                    keys.append(key)
        writer = csv.DictWriter(stream, fieldnames=keys)
        writer.writeheader()
        for entry in report.results:
            # booleans in the JSON spelling, as the JSON lines write them
            writer.writerow({k: json.dumps(v) if isinstance(v, bool) else v for k, v in entry.items()})
        print(json.dumps(summary), file=err_stream)
        return
    for entry in report.results:
        print(json.dumps(entry), file=stream)
    print(json.dumps(summary), file=stream)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    _emit(report, args.csv, args.out, sys.stdout, sys.stderr)
    return 0 if report.status in (None, "pass", "not-applicable") else 1


if __name__ == "__main__":
    sys.exit(main())
