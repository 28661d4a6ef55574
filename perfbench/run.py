"""gtkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload link-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads (see BENCHMARK.json for why each
was chosen): link-wide, qlink, verify-sweep, enum-refusal.

Every pass runs in a fresh single-threaded interpreter (perfbench/worker.py),
so gtkit's lru_caches and module caches start cold, as for one `gtkit`
invocation. With `--trace 0` the run times the set-up (interpreter start plus
`import gtkit`, the median of several starts) and one untraced pass, checks
every operation's output, and prints the end-to-end metrics. With
`--trace 1` it runs the untraced pass and then a traced pass over the same
operations, and prints the per-layer metrics and the tracing overhead.

Throughput is gated in units of a fixed reference kernel timed next to every
operation (`work_per_ref`), because on a shared host the CPU speed drifts by
up to 2x within minutes and raw seconds drift with it. Raw seconds
(`work_per_s`, `op_s.p50`) are printed beside it, not gated.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give each metric by
name, unit and sample count, and the output digest. The run exits non-zero
without that line if gtkit's sources are missing, a pass fails to finish, or
the trace missed calls it was meant to count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Interpreter starts timed before and after the untraced pass; splitting them
# samples the host's speed at two moments, which steadies their median.
SETUP_STARTS = (4, 3)
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

WORK_ITEM = {
    "link-wide": "kappas_per_s: support-box kappas",
    "qlink": "kappas_per_s: support-box kappas",
    "verify-sweep": "checks_per_s: elementary checks",
    "enum-refusal": "units_per_s: budget units settled",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def setup_seconds(deadline: float, starts: int) -> list:
    """Wall time from spawning a fresh interpreter until gtkit is imported."""
    samples = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--probe"],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=_remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.strip()}")
        samples.append(elapsed)
    return samples


def worker_pass(args, deadline: float, traced: bool = False, ops: int | None = None) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if traced:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=_remaining(deadline)
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a worker pass exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker pass failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _line(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<34} {_fmt(value):>12} {unit:<7} ({note})")


def ref_units(result: dict) -> list:
    """Each operation's time in units of the reference kernel timed around it."""
    refs = result["ref_seconds"]
    return [t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(result["op_seconds"])]


def end_to_end(args, base: dict, setup: list) -> dict:
    times = base["op_seconds"]
    work = sum(o["work"] for o in base["outcomes"])
    failed = sum(not o["ok"] for o in base["outcomes"])
    # Printed, not gated: raw seconds follow the host's speed, which drifts by
    # up to 2x within minutes on a shared machine; work_per_ref divides it out.
    _line("op_s.p50", statistics.median(times), "s", f"n={len(times)} operations, not gated")
    _line("work_per_s", work / sum(times), "1/s", f"{WORK_ITEM[args.workload]}, {work} in {_fmt(sum(times))} s, not gated")
    _line("ref_s.p50", statistics.median(base["ref_seconds"]), "s", f"reference kernel, n={len(base['ref_seconds'])}")
    _line("ops_failed", failed / len(times), "ratio", f"{failed} of {len(times)}")
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} interpreter starts"),
        "work_per_ref": (work / sum(ref_units(base)), f"{work} work items per reference-kernel time, n={len(times)} operations"),
        "peak_rss_mb": (base["peak_rss_kib"] / 1024, f"one process, first {base['digest_ops']} operations"),
    }


def per_layer(base: dict, traced: dict) -> dict:
    values = {name: (v, "traced pass") for name, v in traced["layers"].items()}
    overhead = sum(ref_units(traced)) / sum(ref_units(base))
    values["trace.overhead"] = (overhead, f"{len(traced['op_seconds'])} operations, both passes, in reference units")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gtkit benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "gtkit" / "__init__.py").is_file():
        print(f"error: gtkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = [] if args.trace else setup_seconds(deadline, SETUP_STARTS[0])
        base = worker_pass(args, deadline)
        if not args.trace:
            setup += setup_seconds(deadline, SETUP_STARTS[1])
        outcomes = list(base["outcomes"])
        print(f"workload {args.workload} seed {args.seed}: {len(base['op_seconds'])} operations, "
              f"{_fmt(sum(base['op_seconds']))} s timed")
        correct = True
        if args.trace:
            traced = worker_pass(args, deadline, traced=True, ops=len(base["op_seconds"]))
            outcomes += traced["outcomes"]
            if traced["trace_problems"]:
                for problem in traced["trace_problems"]:
                    print(f"error: trace: {problem}", file=sys.stderr)
                return 1
            if traced["full_digest"] != base["full_digest"]:
                print("error: the traced pass emitted different results", file=sys.stderr)
                correct = False
            values = per_layer(base, traced)
        else:
            values = end_to_end(args, base, setup)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for o, cmd in zip(base["outcomes"], base["argv"]):
        if not o["ok"]:
            print(f"  FAILED gtkit {' '.join(cmd)}: {o['reason']}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        value, note = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        _line(m["name"], value, m["unit"], note)
    print(f"digest {args.workload} seed {args.seed}: sha256 {base['digest']} "
          f"(first {base['digest_ops']} operations, timing fields removed)")
    failed = sum(not o["ok"] for o in outcomes)
    result = {
        "correct": correct and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
