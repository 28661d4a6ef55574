"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gtkit import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _gtkit(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line for line in lines[:-1]), m
    assert any(line.startswith(f"digest {workload} seed 3: sha256 ") for line in lines)


def _link_op():
    op = next(workloads.cycles("link-wide", 5, tiny=True))[0]
    code, stdout = _gtkit(*op.argv)
    return op, code, stdout


def test_correct_row_passes_and_wrong_weight_is_a_failed_operation():
    op, code, stdout = _link_op()
    assert checks.confirm(op, checks.check(op, code, stdout, sample_seed=1)).ok
    lines = stdout.splitlines()
    entry = json.loads(lines[0])
    from fractions import Fraction

    entry["value"] = str(Fraction(entry["value"]) + Fraction(1, 7))
    lines[0] = json.dumps(entry)
    outcome = checks.confirm(op, checks.check(op, code, "\n".join(lines) + "\n", sample_seed=1))
    assert not outcome.ok and "sum" in outcome.reason


def test_independent_route_catches_a_swapped_weight():
    op, code, stdout = _link_op()
    lines = stdout.splitlines()
    entries = [json.loads(line) for line in lines[:-2]]
    values = [e["value"] for e in entries]
    # rotate the weights: the row still sums to 1, but every sampled entry moves
    for e, v in zip(entries, values[1:] + values[:1]):
        e["value"] = v
    forged = "\n".join([json.dumps(e) for e in entries] + lines[-2:]) + "\n"
    outcome = checks.confirm(op, checks.check(op, code, forged, sample_seed=1))
    assert not outcome.ok and "independent route" in outcome.reason


def test_budget_refusal_is_not_a_failure():
    op = workloads.Op(("bench", "--n", "8", "--level", "2", "--budget", "2000"))
    code, stdout = _gtkit(*op.argv)
    assert json.loads(stdout.splitlines()[0])["enumeration"] == "budget-exceeded"
    outcome = checks.check(op, code, stdout, sample_seed=1)
    assert outcome.ok and outcome.work == 2000


def test_completed_walk_must_match_the_determinant():
    op = workloads.Op(("bench", "--n", "4", "--level", "2", "--budget", "100000"))
    code, stdout = _gtkit(*op.argv)
    row = json.loads(stdout.splitlines()[0])
    assert row["enumeration"] == "completed"
    assert checks.confirm(op, checks.check(op, code, stdout, sample_seed=1)).ok
    row["enum_matches_det"] = False
    forged = json.dumps(row) + "\n" + stdout.splitlines()[1] + "\n"
    assert not checks.confirm(op, checks.check(op, code, forged, sample_seed=1)).ok


def test_nonzero_exit_is_a_failure():
    op = workloads.Op(("link", "1,0", "--level", "5"), {"nu": (1, 0), "level": 5, "q": None})
    code, stdout = _gtkit(*op.argv)
    assert code != 0
    assert not checks.confirm(op, checks.check(op, code, stdout, sample_seed=1)).ok


def test_digest_ignores_timing_fields_only():
    a = '{"label": "x", "value": "1/2", "seconds": 0.1}\n{"command": "verify", "timing": {"total_seconds": 1}}\n'
    b = '{"label": "x", "value": "1/2", "seconds": 0.7}\n{"command": "verify", "timing": {"total_seconds": 2}}\n'
    c = '{"label": "x", "value": "1/3", "seconds": 0.1}\n{"command": "verify", "timing": {"total_seconds": 1}}\n'
    argv = ("verify", "q-to-1")

    def digest(stdout):
        d = checks.Digest()
        d.add(argv, 0, stdout)
        return d.hexdigest()

    assert digest(a) == digest(b)
    assert digest(a) != digest(c)


def test_tracer_rebinds_every_holder_and_restores():
    t = tracer.Tracer()
    t.install()
    try:
        gtkit_modules = [m for n, m in sys.modules.items() if n == "gtkit" or n.startswith("gtkit.")]
        for name, original in t._originals.items():
            for mod in gtkit_modules:
                assert all(v is not original for v in vars(mod).values()), (name, mod.__name__)
        assert t.problems([]) == []
    finally:
        t.uninstall()
    import gtkit.qlinks
    import gtkit.reldim

    assert gtkit.qlinks.A_coeff is gtkit.reldim.A_coeff is t._originals["reldim.A_coeff"]


def test_zero_call_guard_reports_expected_spans_without_calls():
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    problems = t.problems(["linalg.det", "verify.q1-oracle"])
    assert any(p.startswith("linalg.det:") for p in problems)
    assert any(p.startswith("verify.q1-oracle:") for p in problems)


def test_benchmark_json_prediction_table_and_tracer_agree():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    table = json.loads((BENCH / "predictions.json").read_text())
    predicted = [m for row in table["layers"] for m in row["metrics"]]
    assert len(predicted) == len(set(predicted)) and set(predicted) == per_layer
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert set(t.metrics()) | {"trace.overhead"} == per_layer
    spans = {s for row in table["layers"] for s in row["spans"]}
    assert spans == set(t.stats)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(row["moves"]) <= e2e for row in table["layers"])
    assert all(set(row["on"]) <= set(workloads.WORKLOADS) for row in table["layers"])


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "qlink", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
