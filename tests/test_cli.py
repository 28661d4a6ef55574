"""End-to-end CLI runs through main(); output is line-delimited JSON."""

import csv
import io
import json
from fractions import Fraction

import pytest

from gtkit.cli import RunReport, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, lines, captured.err


def test_dim(capsys):
    code, lines, _ = run(capsys, "dim", "2,1,0")
    assert code == 0
    assert lines[0] == {"label": "dim", "value": 8, "mode": "exact", "tolerance": None}
    assert lines[-1]["command"] == "dim"
    assert lines[-1]["status"] == "pass"


def test_rdim(capsys):
    code, lines, _ = run(capsys, "rdim", "1", "2,1,0")
    assert code == 0
    by_label = {e["label"]: e["value"] for e in lines[:-1]}
    assert by_label == {"trapezoids": "4", "ratio_to_triangular": "1/2"}


def test_rdim_rejects_bad_lengths(capsys):
    code, lines, err = run(capsys, "rdim", "1,0", "1,0")
    assert code == 2
    assert not lines
    assert json.loads(err)["error"] == "ValueError"


def test_malformed_budget_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GTKIT_BUDGET", "abc")
    code, lines, err = run(capsys, "bench", "--n", "5", "--level", "2")
    assert code == 2
    assert not lines
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "GTKIT_BUDGET" in error["detail"]


def test_link_row(capsys):
    code, lines, _ = run(capsys, "link", "1,0", "--level", "1")
    assert code == 0
    weights = {e["label"]: e["value"] for e in lines[:-1]}
    assert weights == {"0": "1/2", "1": "1/2", "row_sum": "1"}


@pytest.mark.parametrize(
    "argv",
    [("link", "3,1,0,-1", "--level", "2"), ("qlink", "3,1,0,-1", "--level", "2", "--q", "2/3")],
)
def test_row_sum_is_the_exact_sum_of_the_emitted_entries(capsys, argv):
    code, lines, _ = run(capsys, *argv)
    assert code == 0
    *entries, row_sum = lines[:-1]
    assert row_sum["label"] == "row_sum"
    assert Fraction(row_sum["value"]) == sum(Fraction(e["value"]) for e in entries) == 1


def test_qlink_row(capsys):
    code, lines, _ = run(capsys, "qlink", "1,0", "--level", "1", "--q", "1/2")
    assert code == 0
    weights = {e["label"]: e["value"] for e in lines[:-1]}
    assert weights == {"0": "2/3", "1": "1/3", "row_sum": "1"}


def test_value_errors_exit_2(capsys):
    code, lines, err = run(capsys, "link", "1,0", "--level", "5")
    assert code == 2
    assert not lines
    assert json.loads(err)["error"] == "ValueError"


def test_bad_signature_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "1,x"])
    assert exc.value.code == 2
    assert "position 2" in capsys.readouterr().err


def test_verify_small_suite(capsys):
    code, lines, _ = run(capsys, "verify", "q1-oracle", "--max-n", "3", "--part-bound", "1")
    assert code == 0
    assert lines[-1]["status"] == "pass"
    assert all(e["ok"] for e in lines[:-1])
    assert sum(e["checks"] for e in lines[:-1]) > 0
    assert "ignored_bounds" not in lines[-1]  # q1-oracle takes both bounds


def test_verify_reports_ignored_bounds(capsys):
    code, lines, _ = run(capsys, "verify", "qtoeplitz", "--max-n", "3", "--part-bound", "9")
    assert code == 0
    assert lines[-1]["status"] == "pass"
    assert lines[-1]["ignored_bounds"] == ["max_n", "part_bound"]


def test_verify_vacuous_pass(capsys):
    code, lines, _ = run(capsys, "verify", "q1-oracle", "--max-n", "1")
    assert code == 0
    assert lines[0]["label"] == "no cases below N=2"
    assert lines[0]["checks"] == 0


def test_verify_budget_exhaustion_exits_3(capsys):
    code, lines, err = run(capsys, "verify", "q1-oracle", "--max-n", "5", "--budget", "20")
    assert code == 3
    error = json.loads(err)
    assert error["error"] == "budget-exceeded"
    assert error["budget"] == 20 < error["consumed"]
    assert error["bound"] is None  # stopped partway, not refused up front


def test_refused_walk_exits_3_with_its_bound(capsys):
    # the first walk, from nu = (-1, -1) to K = 1, needs at least one unit
    code, lines, err = run(capsys, "verify", "q1-oracle", "--max-n", "2", "--part-bound", "1", "--budget", "0")
    assert code == 3
    error = json.loads(err)
    assert error["consumed"] == 0 and error["bound"] > error["budget"] == 0
    assert str(error["bound"]) in error["detail"]


def test_verify_q_option(capsys):
    code, lines, _ = run(
        capsys, "verify", "qtoeplitz", "--max-n", "3", "--q", "1/2", "--seed", "1"
    )
    assert code == 0
    assert lines[-1]["inputs"]["qs"] == ["1/2"]


def test_uat_zero_family(capsys):
    code, lines, _ = run(capsys, "uat", "--kappa", "0", "--family", "zero", "--n", "3,4,5")
    assert code == 0
    gaps = {e["label"]: e["value"] for e in lines[:-1] if e["label"].startswith("N=")}
    assert gaps == {"N=3": "0", "N=4": "0", "N=5": "0"}
    flag = [e for e in lines[:-1] if e["label"] == "strictly_decreasing"]
    assert flag[0]["value"] == "not-applicable"  # a gap that is identically 0 has no trend
    assert lines[-1]["status"] == "not-applicable"


def test_uat_gaps_that_grow_fail(capsys):
    code, lines, _ = run(
        capsys, "uat", "--kappa", "0", "--family", "linear-row:2", "--n", "8,6"
    )
    assert code == 1
    flag = [e for e in lines[:-1] if e["label"] == "strictly_decreasing"]
    assert flag[0]["value"] is False
    assert lines[-1]["status"] == "fail"


def test_uat_trend_carries_the_run_mode(capsys):
    for family, expected in (("zero", "not-applicable"), ("linear-row:2", True)):
        code, lines, _ = run(
            capsys, "uat", "--kappa", "0", "--family", family, "--n", "6,8",
            "--mode", "numeric", "--tolerance", "1e-9",
        )
        assert code == 0
        flag = [e for e in lines[:-1] if e["label"] == "strictly_decreasing"][0]
        assert flag["value"] == expected
        assert (flag["mode"], flag["tolerance"]) == ("numeric", 1e-9)
    code, lines, _ = run(capsys, "uat", "--kappa", "0", "--family", "linear-row:2", "--n", "6,8")
    flag = [e for e in lines[:-1] if e["label"] == "strictly_decreasing"][0]
    assert (flag["mode"], flag["tolerance"]) == ("exact", None)


def test_uat_linear_family_decreases(capsys):
    code, lines, _ = run(
        capsys, "uat", "--kappa", "0", "--family", "linear-row:2", "--n", "6,8"
    )
    assert code == 0
    flag = [e for e in lines[:-1] if e["label"] == "strictly_decreasing"]
    assert flag[0]["value"] is True


def test_bench_small(capsys):
    code, lines, _ = run(capsys, "bench", "--n", "5", "--level", "2")
    assert code == 0
    entry = lines[0]
    assert entry["enumeration"] == "completed"
    assert entry["enum_matches_det"] is True
    assert entry["row_sum_1"] is True
    assert "enumeration_work" not in entry


def test_bench_reports_enumeration_work_under_timing(capsys):
    code, lines, _ = run(capsys, "bench", "--n", "5,20", "--level", "2", "--budget", "300000")
    assert code == 0
    assert [e["enumeration"] for e in lines[:-1]] == ["completed", "budget-exceeded"]
    done, refused = lines[-1]["timing"]["enumeration_work"]
    assert done["N"] == 5 and done["budget"] == 300_000
    assert 0 < done["bound"] <= done["consumed"] <= 300_000
    assert refused["N"] == 20 and refused["consumed"] == 0 and refused["bound"] > 300_000


def test_csv_output(capsys):
    code = main(["--csv", "link", "1,0", "--level", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("label,value,mode,tolerance")
    assert any(line.startswith("row_sum,1,") for line in out[1:])


def test_csv_summary_goes_to_stderr(capsys):
    code = main(["--csv", "verify", "q-to-1", "--max-n", "3", "--part-bound", "9"])
    captured = capsys.readouterr()
    assert code == 0
    table = list(csv.reader(io.StringIO(captured.out)))
    assert table[0][:2] == ["label", "value"] and len(table) > 1
    assert {len(row) for row in table} == {len(table[0])}  # stdout is the table alone
    summary = json.loads(captured.err)
    assert summary["command"] == "verify" and summary["status"] == "pass"
    assert summary["ignored_bounds"] == ["max_n", "part_bound"]
    assert summary["timing"]["total_seconds"] >= 0


def test_csv_booleans_use_the_json_spelling(capsys):
    code = main(["--csv", "verify", "q-to-1", "--max-n", "3", "--part-bound", "9"])
    table = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == 0 and table
    assert {row["ok"] for row in table} == {"true"}


def test_row_commands_report_cache_stats_under_timing(capsys):
    # a q no other test uses, so the coefficient cache starts cold for this row
    code, lines, _ = run(capsys, "qlink", "3,1,0,-2", "--level", "2", "--q", "11/13")
    assert code == 0
    stats = lines[-1]["timing"]["stats"]
    assert set(stats) == {"qA_coeff", "prefix_cofactors", "cleared_column"}
    assert stats["qA_coeff"]["misses"] > 0
    assert all(e.keys() == {"label", "value", "mode", "tolerance"} for e in lines[:-1])
    code, lines, _ = run(capsys, "link", "3,1,0,-2", "--level", "2")
    assert set(lines[-1]["timing"]["stats"]) == {"A_coeff", "prefix_cofactors", "cleared_column"}
    # a repeated row finds every coefficient in the cache
    code, lines, _ = run(capsys, "qlink", "3,1,0,-2", "--level", "2", "--q", "11/13")
    assert lines[-1]["timing"]["stats"]["qA_coeff"]["misses"] == 0


def test_out_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--out", str(path), "link", "2,1,0", "--level", "2"])
    capsys.readouterr()
    assert code == 0
    report = RunReport.from_json(path.read_text())
    assert report.command == "link"
    assert report.status == "pass"
    weights = {e["label"]: e["value"] for e in report.results}
    assert weights["row_sum"] == "1"
    assert report.timing["total_seconds"] >= 0
