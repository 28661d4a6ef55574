"""One pass of one workload, in a fresh process.

Started by run.py, never by hand. Imports gtkit from the checkout's `src/`,
runs the workload's operations as in-process `gtkit.cli.main(argv)` calls
with stdout captured in memory, and times each call alone. Operations run
until the timed total reaches the run length (whole cycles, at least the
workload's minimum), or exactly `--ops` of them when given. The output
digest and the peak RSS cover the minimum cycles only, so they see the same
inputs in every run of a seed. The output checks
read each operation's output right after its call, outside the timed
region, and keep none of it; the independent route of the link checks runs
after the last timed operation, on one operation per cycle (each
`link-wide` operation, one `qlink` operation per q cycle) of the untraced
pass. Prints one JSON line for run.py.

`--probe` only imports gtkit and reports readiness, for the set-up timing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# About 60 ms: long enough to average the host's sub-second speed swings.
REFERENCE_REPEATS = 6


def _import_gtkit():
    src = ROOT / "src"
    if not (src / "gtkit" / "__init__.py").is_file():
        raise SystemExit(f"gtkit sources not found under {src}")
    sys.path.insert(0, str(src))
    import gtkit.cli

    if Path(gtkit.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported gtkit from {gtkit.cli.__file__}, not from {src}")
    return gtkit.cli


def reference_seconds() -> float:
    """Time of a fixed pure-Python exact-arithmetic kernel that shares no code
    with gtkit. Timed next to every operation, it tracks the host's speed,
    which on a shared machine drifts by up to 2x within minutes."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        acc = Fraction(0)
        for k in range(1, 2000):
            acc += Fraction(k * k + 1, 2 * k + 3)
    return time.perf_counter() - t0


def _call(cli, argv) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue()


def run_pass(workload: str, seed: int, seconds: float, ops: int | None, tiny: bool, traced: bool) -> dict:
    cli = _import_gtkit()
    import checks
    import workloads

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    spec = workloads.spec(workload, tiny)
    prefix, full = checks.Digest(), checks.Digest()
    done = []  # (op, seconds, outcome)
    refs = []  # reference_seconds() before each operation, and after the last
    timed = 0.0
    digest_ops = 0
    for index, cycle in enumerate(workloads.cycles(workload, seed, tiny)):
        if ops is None and index >= spec.min_cycles and timed >= seconds:
            break
        for position, op in enumerate(cycle):
            if ops is not None and len(done) >= ops:
                break
            refs.append(reference_seconds())
            elapsed, code, stdout = _call(cli, op.argv)
            timed += elapsed
            full.add(op.argv, code, stdout)
            if index < spec.min_cycles:
                prefix.add(op.argv, code, stdout)
                digest_ops += 1
                # the same inputs in every run, however fast the program is
                peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # one operation per cycle, rotating, also meets the independent route
            routed = not traced and position == index % len(cycle)
            sample_seed = f"{workload}:{seed}:{len(done)}" if routed else None
            done.append((op, elapsed, checks.check(op, code, stdout, sample_seed)))
            del stdout  # no output stays alive into the next operation
        if ops is not None and len(done) >= ops:
            break
    refs.append(reference_seconds())

    result = {
        "workload": workload,
        "seed": seed,
        "op_seconds": [d[1] for d in done],
        "ref_seconds": refs,
        "argv": [list(d[0].argv) for d in done],
        "peak_rss_kib": peak_rss_kib,
        "digest": prefix.hexdigest(),
        "digest_ops": digest_ops,
        "full_digest": full.hexdigest(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["trace_problems"] = tracer.problems(_expected_spans(workload))
    outcomes = [checks.confirm(op, outcome) for op, _, outcome in done]
    result["outcomes"] = [{"ok": o.ok, "work": o.work, "reason": o.reason} for o in outcomes]
    return result


def _expected_spans(workload: str) -> list:
    table = json.loads((Path(__file__).resolve().parent / "predictions.json").read_text())
    spans = []
    for row in table["layers"]:
        if workload in row["called_on"]:
            spans += [s for s in row["spans"] if s not in spans]
    return spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.probe:
        _import_gtkit()
        print("ready", flush=True)
        return 0
    result = run_pass(args.workload, args.seed, args.seconds, args.ops, args.tiny, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
