"""The verification harness itself: case plumbing and experiment tables."""

import inspect
from fractions import Fraction as F

import pytest

import gtkit.verify as verify
from gtkit.verify import (
    SUITES,
    bench_signature,
    bench_table,
    ignored_bounds,
    run_suite,
    uat_family,
    uat_table,
)


def test_suite_registry():
    assert set(SUITES) == {
        "q1-oracle",
        "q-oracle",
        "general-T",
        "bo-equivalence",
        "q-to-1",
        "coherence",
        "qtoeplitz",
        "boundary",
    }
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_suites_take_only_cli_bounds():
    # a suite parameter no `gtkit verify` flag can set is dead weight
    cli_bounds = {"max_n", "part_bound", "qs", "tolerance", "seed", "budget"}
    for name, suite in SUITES.items():
        assert set(inspect.signature(suite).parameters) <= cli_bounds, name


def test_coherence_max_n_bounds_the_q_link_sweep():
    labels = [r.case for r in run_suite("coherence", max_n=3)]
    assert labels == ["N=3 parts [-1,1]", "q-links N=3 parts [-1,1] q=1/2"]


def test_run_suite_filters_bounds():
    # q1-oracle ignores qs/tolerance/seed; None values are dropped
    results = run_suite("q1-oracle", max_n=3, part_bound=1, qs=None, tolerance=None, seed=7)
    assert results and all(r.ok for r in results)
    assert all(r.suite == "q1-oracle" for r in results)
    assert all(r.counterexample is None for r in results)
    assert ignored_bounds("q1-oracle", max_n=3, part_bound=1, qs=None, tolerance=None, seed=7) == ["seed"]


def test_case_results_carry_counts():
    results = run_suite("q-to-1")
    assert all(r.ok and r.checks > 0 and r.seconds >= 0 for r in results)


def test_uat_family_specs():
    assert uat_family("zero")(4) == (0, 0, 0, 0)
    assert uat_family("linear-row:1/2")(6) == (3, 0, 0, 0, 0, 0)
    assert uat_family("linear-row:2")(3) == (6, 0, 0)
    with pytest.raises(ValueError, match="unknown family"):
        uat_family("cubic")
    with pytest.raises(ValueError, match="nonnegative"):
        uat_family("linear-row:-1")


def test_uat_table_rows():
    rows = uat_table((0,), "linear-row:1/2", (6, 10))
    assert [r["N"] for r in rows] == [6, 10]
    assert rows[0]["nu"] == "3,0,0,0,0,0"
    assert rows[0]["gap"] == F(3, 136)
    assert rows[0]["mode"] == "exact" and rows[0]["tolerance"] is None
    with pytest.raises(ValueError, match="exceed"):
        uat_table((0, 0), "zero", (2,))


def test_uat_table_numeric_mode():
    rows = uat_table((0,), "linear-row:1/2", (6,), mode="numeric", tolerance=1e-10)
    assert isinstance(rows[0]["gap"], float)
    assert abs(rows[0]["gap"] - 3 / 136) < 1e-8
    assert rows[0]["tolerance"] == 1e-10


def test_bench_signature_shapes():
    assert bench_signature(5) == (3, 2, 1, -1, -2)
    assert bench_signature(8) == (5, 4, 3, 2, 1, 0, -1, -2)
    assert bench_signature(10) == (5, 4, 3, 2, 1, 0, 0, 0, -1, -2)
    with pytest.raises(ValueError):
        bench_signature(3)


def test_bench_table_completed_and_budgeted():
    (done,) = bench_table([5], 2)
    (cut,) = bench_table([9], 2, budget=2000)
    assert done["enumeration"] == "completed"
    assert done["enum_matches_det"] is True
    assert done["row_sum_1"] is True
    assert cut["enumeration"] == "budget-exceeded"
    assert "enum_matches_det" not in cut
    assert cut["row_sum_1"] is True  # determinant route unaffected by the budget


def test_counterexample_text_of_a_forced_failure(monkeypatch):
    # the describe text is formatted only on the first failure, and reads as
    # it did when every comparison formatted it
    real_table = verify.rel_dim_table
    monkeypatch.setattr(verify, "rel_dim_table", lambda nu, k, budget=None: {})
    [result] = verify.suite_q1_oracle(max_n=2, part_bound=1)
    assert (result.ok, result.checks) == (False, 16)
    assert result.counterexample == "nu=-1,-1 kappa=-1: got 1, want 0"
    leaky = lambda nu, k, budget=None: {**real_table(nu, k, budget=budget), (9,) * k: 1}  # noqa: E731
    monkeypatch.setattr(verify, "rel_dim_table", leaky)
    [result] = verify.suite_q1_oracle(max_n=2, part_bound=1)
    assert result.counterexample == "nu=-1,-1: oracle support leaks outside the box"
    monkeypatch.setattr(verify, "general_q_projection", lambda ctx, tspec, kappa: F(0))
    results = verify.suite_q_oracle(max_n=3, part_bound=1, qs=[F(1, 2)])
    assert [(r.checks, r.counterexample) for r in results] == [
        (26, "nu=-1,-1 K=1 q=1/2 kappa=-1 bottom-run reduction: got 1, want 0"),
        (116, "nu=-1,-1,-1 K=1 q=1/2 kappa=-1 bottom-run reduction: got 1, want 0"),
    ]
