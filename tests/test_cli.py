"""End-to-end CLI runs through main(); output is line-delimited JSON."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gtkit.cli
from gtkit import linalg, qlinks, reldim
from gtkit.cli import _entry, main
from gtkit.patterns import format_signature, parse_signature, support_box
from gtkit.qlinks import q_link_row
from gtkit.reldim import link_row


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
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "K=2" in error["detail"] and "N=2" in error["detail"]


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


def child_env() -> dict:
    """The environment of a child interpreter that imports gtkit from this checkout."""
    src = str(Path(gtkit.cli.__file__).resolve().parent.parent)
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


# a row of 1,116 entries, about 96 KB of entry lines: more than one write
# chunk, and more than a pipe buffer
WIDE_LINK = ("link", "14,9,6,3,1,0,-2,-5", "--level", "3")


@pytest.mark.parametrize("argv", [("link", "9,5,3,2,1,0,-4", "--level", "3"), WIDE_LINK])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE however fast it runs
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gtkit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_import_builds_no_parser_and_main_builds_it_once():
    code = """
import contextlib, io, json
import gtkit.cli
at_import = gtkit.cli._build_parser.cache_info().currsize
with contextlib.redirect_stdout(io.StringIO()):
    codes = [gtkit.cli.main(["dim", "2,1,0"]), gtkit.cli.main(["dim", "1,0"])]
info = gtkit.cli._build_parser.cache_info()
print(json.dumps([at_import, codes, info.misses, info.hits]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [0, 0], 1, 1]


def test_reused_parser_carries_nothing_into_the_next_call(tmp_path, capsys):
    code, lines, _ = run(capsys, "verify", "general-T", "--max-n", "2", "--q", "3/5")
    assert (code, lines[-1]["inputs"]["qs"]) == (0, ["3/5"])
    code, lines, _ = run(capsys, "verify", "general-T", "--max-n", "2")
    assert (code, lines[-1]["inputs"]) == (0, {"suite": "general-T", "max_n": 2})
    path = tmp_path / "report.json"
    for flags in (["--csv"], ["--out", str(path)]):
        assert main([*flags, "dim", "2,1,0"]) == 0
        capsys.readouterr()
        path.unlink(missing_ok=True)
        code, lines, err = run(capsys, "dim", "2,1,0")
        assert (code, lines[0]["label"], lines[-1]["command"], err) == (0, "dim", "dim", "")
        assert not path.exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ("link", "3,0,-2", "--level", "2"),
        ("link", "1,-1,-4,-6", "--level", "3"),
        ("qlink", "2,0,-1", "--level", "2", "--q", "2/3"),
        WIDE_LINK,
    ],
)
def test_row_entry_lines_are_the_json_dumps_of_their_entries(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    nu = parse_signature(argv[1])
    row = link_row(nu, int(argv[3])) if argv[0] == "link" else q_link_row(nu, int(argv[3]), Fraction(argv[5]))
    want = [_entry(format_signature(kappa), weight) for kappa, weight in row.items()] + [_entry("row_sum", row.total)]
    summary = out.splitlines()[-1]
    assert out == "".join(json.dumps(entry) + "\n" for entry in want) + summary + "\n"


# `gtkit --csv qlink 2,0,-1 --level 2 --q 2/3` as the entries were written
# before the row commands emitted them from a template
QLINK_CSV = (
    "label,value,mode,tolerance\r\n"
    '"0,-1",1215/4009,exact,\r\n'
    '"0,0",324/4009,exact,\r\n'
    '"1,-1",54/211,exact,\r\n'
    '"1,0",360/4009,exact,\r\n'
    '"2,-1",780/4009,exact,\r\n'
    '"2,0",16/211,exact,\r\n'
    "row_sum,1,exact,\r\n"
)


def test_row_csv_and_out_file_are_unchanged(tmp_path, capsys):
    argv = ["qlink", "2,0,-1", "--level", "2", "--q", "2/3"]
    code = main(["--csv", *argv])
    assert (code, capsys.readouterr().out) == (0, QLINK_CSV)
    path = tmp_path / "report.json"
    code = main(["--out", str(path), *argv])
    *entries, _ = capsys.readouterr().out.splitlines()
    assert code == 0
    text = path.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2) + "\n"
    assert list(report) == ["command", "inputs", "results", "status", "timing", "ignored_bounds"]
    assert report["inputs"] == {"nu": "2,0,-1", "level": 2, "q": "2/3"}
    assert report["results"] == [json.loads(line) for line in entries]
    assert [[e["label"], e["value"]] for e in report["results"]] == [
        row[:2] for row in list(csv.reader(io.StringIO(QLINK_CSV)))[1:]
    ]
    assert (report["status"], report["ignored_bounds"]) == ("pass", [])


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


def _without_timing(lines):
    return [{k: v for k, v in line.items() if k != "timing"} for line in lines]


@pytest.mark.parametrize(
    "argv, reference",
    [
        (["dim", "-1,-2"], ["dim", "--", "-1,-2"]),
        (["rdim", "-2,-3", "-1,-2,-4"], ["rdim", "--", "-2,-3", "-1,-2,-4"]),
        (["rdim", "-1", "0,-1"], ["rdim", "--", "-1", "0,-1"]),
        (["link", "-1,-1,-4", "--level", "2"], ["link", "--level", "2", "--", "-1,-1,-4"]),
        (["link", "--level", "2", "-1,-1,-4"], ["link", "--level", "2", "--", "-1,-1,-4"]),
        (["qlink", "-1,-1,-4", "--level", "2", "--q", "1/2"], ["qlink", "--level", "2", "--q", "1/2", "--", "-1,-1,-4"]),
        (
            ["uat", "--kappa", "-1,-2", "--family", "linear-row:1", "--n", "3,4", "--mode", "numeric"],
            ["uat", "--kappa=-1,-2", "--family", "linear-row:1", "--n", "3,4", "--mode", "numeric"],
        ),
    ],
)
def test_negative_first_part_parses_as_a_signature(capsys, argv, reference):
    code, lines, _ = run(capsys, *argv)
    assert code == 0
    assert any(str(value).startswith("-1") for value in lines[-1]["inputs"].values())
    ref_code, ref_lines, _ = run(capsys, *reference)
    assert (code, _without_timing(lines)) == (ref_code, _without_timing(ref_lines))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dim", "-1,x"], "bad integer 'x' at position 2"),
        (["dim", "-1,2"], "nonincreasing"),
        (["link", "-1,-1,y", "--level", "2"], "bad integer 'y' at position 3"),
        (["qlink", "-1,0", "--level", "1", "--q", "1/2"], "nonincreasing"),
        (["uat", "--kappa", "-1,-2,", "--family", "zero", "--n", "3"], "bad integer '' at position 3"),
    ],
)
def test_malformed_negative_signature_is_an_argparse_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


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


# coherence starts at N = 3
@pytest.mark.parametrize("suite, max_n", [("q1-oracle", "1"), ("coherence", "2")])
def test_verify_with_no_cases_is_not_applicable(capsys, suite, max_n):
    code, lines, _ = run(capsys, "verify", suite, "--max-n", max_n)
    assert code == 0
    assert len(lines) == 1  # the summary line alone
    assert lines[0]["status"] == "not-applicable"


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


def test_bench_with_no_n_is_not_applicable(capsys):
    code, lines, _ = run(capsys, "bench", "--n", "")
    assert code == 0
    assert len(lines) == 1  # the summary line alone
    assert lines[0]["status"] == "not-applicable"


def test_uat_with_no_n_is_not_applicable(capsys):
    code, lines, _ = run(capsys, "uat", "--kappa", "1", "--family", "linear-row:1/2", "--n", "")
    assert code == 0
    assert [e["value"] for e in lines[:-1]] == ["not-applicable"]
    assert lines[-1]["status"] == "not-applicable"


@pytest.mark.parametrize(
    "argv, message",
    [
        # a gap compared with itself is not smaller, so this printed status fail
        (["uat", "--kappa", "1", "--family", "linear-row:1/2", "--n", "6,6"], "6 given twice in '6,6'"),
        (["bench", "--n", "8,8"], "8 given twice in '8,8'"),
        (["uat", "--kappa", "0", "--family", "zero", "--n", "6,,10"], "bad integer '' at position 2 in '6,,10'"),
        (["bench", "--n", "5,"], "bad integer '' at position 2 in '5,'"),
    ],
)
def test_repeated_or_empty_n_value_is_an_argparse_error(capsys, monkeypatch, argv, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("a command ran on an --n that parsing should refuse")

    monkeypatch.setattr(gtkit.cli, "uat_table", forbidden)
    monkeypatch.setattr(gtkit.cli, "bench_table", forbidden)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [("verify", "boundary"), ("uat", "--kappa", "0", "--family", "zero", "--n", "6", "--mode", "numeric")],
)
def test_tolerance_that_is_not_positive_and_finite_is_an_argparse_error(capsys, argv, tolerance):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tolerance", tolerance])
    assert exc.value.code == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "general-T", "--q", "1"], "q must satisfy 0 < q < 1, got 1"),
        (["qlink", "1,0", "--level", "1", "--q", "0"], "q must satisfy 0 < q < 1, got 0"),
        (["verify", "general-T", "--q", "1/2", "--q", "2/4"], "q = 1/2 given twice"),
    ],
)
def test_q_out_of_range_or_repeated_is_an_argparse_error(capsys, monkeypatch, argv, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("a suite ran on a --q that parsing should refuse")

    monkeypatch.setattr(gtkit.cli, "run_suite", forbidden)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_quadrature_that_does_not_converge_exits_2(capsys):
    code, lines, err = run(capsys, "verify", "boundary", "--tolerance", "1e-300")
    assert code == 2
    assert not lines
    error = json.loads(err)  # one JSON line, no traceback
    assert error["error"] == "QuadratureError"
    assert "did not converge" in error["detail"]


@pytest.mark.parametrize(
    "slope, error, detail",
    [
        # a pole 1e-6 outside the circle: two aliased means agreed at m = 128
        ("1e6", "QuadratureError", "pole at u = 6000005/5999999 is too near the unit circle"),
        ("1e10", "QuadratureError", "pole at u = 60000000005/59999999999 is too near the unit circle"),
        # the exact pole is a 600-digit fraction, named by its distance from
        # the circle instead
        ("1e300", "QuadratureError", "pole at u = 1 + 1e-300 is too near the unit circle: its aliases never fall"),
        ("1e400", "OverflowError", "alpha_plus[0] is too large for a float; exact mode handles it"),
    ],
)
def test_numeric_uat_that_cannot_be_trusted_exits_2(capsys, slope, error, detail):
    argv = ("uat", "--kappa", "0", "--family", f"linear-row:{slope}", "--n", "3,4", "--mode", "numeric")
    code, lines, err = run(capsys, *argv)
    assert code == 2
    assert not lines
    (line,) = err.splitlines()  # one JSON line, no traceback
    assert json.loads(line)["error"] == error
    assert detail in json.loads(line)["detail"]
    assert len(json.loads(line)["detail"]) < 200


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
    assert set(stats) == set(gtkit.cli._CACHES)  # every cache of the package, whatever the command
    assert stats["qA_coeff"]["misses"] > 0
    # one q-dimension denominator per prefix kappa_1 of the row's support box
    q_dim = stats["q_dim_denominator"]
    assert q_dim["hits"] + q_dim["misses"] == len({kappa[:-1] for kappa in support_box((3, 1, 0, -2), 2)}) == 6
    assert all(e.keys() == {"label", "value", "mode", "tolerance"} for e in lines[:-1])
    code, lines, _ = run(capsys, "link", "3,1,0,-2", "--level", "2")
    assert set(lines[-1]["timing"]["stats"]) == set(gtkit.cli._CACHES)
    # a repeated row finds every coefficient in the cache
    code, lines, _ = run(capsys, "qlink", "3,1,0,-2", "--level", "2", "--q", "11/13")
    assert lines[-1]["timing"]["stats"]["qA_coeff"]["misses"] == 0


def test_row_commands_report_det_calls_by_size_under_timing(capsys):
    reldim._prefix_cofactors.cache_clear()  # cold, whatever ran before
    code, lines, _ = run(capsys, "link", "3,1,0,-2", "--level", "3")
    assert code == 0
    # three 2 x 2 minors per prefix (kappa_1, kappa_2) of the support box
    prefixes = lines[-1]["timing"]["stats"]["prefix_cofactors"]["misses"]
    assert prefixes == len({kappa[:-1] for kappa in support_box((3, 1, 0, -2), 3)}) == 21
    assert lines[-1]["timing"]["det_calls"] == {"2": 3 * prefixes}
    assert all("det_calls" not in e for e in lines[:-1])


@pytest.mark.parametrize(
    "argv",
    [
        ("qlink", "3,1,0,-2", "--level", "2", "--q", "1/2"),
        ("verify", "q1-oracle", "--max-n", "3"),
        ("bench", "--n", "4"),
        ("rdim", "1,0", "3,1,0"),
        ("uat", "--kappa", "0", "--family", "linear-row:1/2", "--n", "4,6"),
    ],
)
def test_commands_report_the_det_calls_they_made(capsys, argv):
    reldim._prefix_cofactors.cache_clear()  # cold, so that each command computes some
    before = dict(linalg.det_calls)
    code, lines, _ = run(capsys, *argv)
    assert code == 0
    made = {size: count - before.get(size, 0) for size, count in sorted(linalg.det_calls.items())}
    assert any(made.values())
    assert lines[-1]["timing"]["det_calls"] == {str(size): count for size, count in made.items() if count}
    assert set(lines[-1]["timing"]["stats"]) == set(gtkit.cli._CACHES)


def test_rdim_reports_its_coefficients_and_minors_under_timing(capsys):
    for cache in (reldim.A_coeff, reldim._cleared_column, reldim._prefix_cofactors):
        cache.cache_clear()  # cold, whatever ran before
    code, lines, _ = run(capsys, "rdim", "1,0", "3,1,0")
    assert code == 0
    timing = lines[-1]["timing"]
    # K = 2: two columns of two coefficients, and the K minors of size K - 1
    # that prefix_cofactors takes
    assert timing["stats"]["A_coeff"] == {"hits": 0, "misses": 4}
    assert timing["det_calls"] == {"1": 2}
    # dim computes no determinant and touches no cache, and says so
    code, lines, _ = run(capsys, "dim", "2,1,0")
    timing = lines[-1]["timing"]
    assert timing["det_calls"] == {}
    assert timing["stats"] == {name: {"hits": 0, "misses": 0} for name in gtkit.cli._CACHES}


def test_out_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--out", str(path), "link", "2,1,0", "--level", "2"])
    capsys.readouterr()
    assert code == 0
    report = json.loads(path.read_text())
    assert report["command"] == "link"
    assert report["status"] == "pass"
    weights = {e["label"]: e["value"] for e in report["results"]}
    assert weights["row_sum"] == "1"
    assert report["timing"]["total_seconds"] >= 0


@pytest.mark.parametrize("where", ["missing-dir", "a-directory", "file-as-parent"])
def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, where):
    calls = []
    monkeypatch.setattr(gtkit.cli, "run_suite", lambda *a, **k: calls.append(a) or [])
    (tmp_path / "file").write_text("")
    path = {
        "missing-dir": tmp_path / "missing" / "x.json",
        "a-directory": tmp_path,
        "file-as-parent": tmp_path / "file" / "x.json",
    }[where]
    code, lines, err = run(capsys, "--out", str(path), "verify", "general-T")
    assert code == 2
    assert calls == []  # refused before the suite ran
    assert not lines
    (error,) = [json.loads(line) for line in err.splitlines()]
    assert error["detail"].startswith("cannot write --out file: ")
    assert str(path) in error["detail"]
    assert "Traceback" not in err


def test_out_path_checks_an_existing_file_itself_and_a_new_one_by_its_parent(tmp_path, capsys, monkeypatch):
    # the tests may run as root, to whom every path is writable, so os.access
    # is made to deny either the directories or the files
    real_access = os.access
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    monkeypatch.setattr(os, "access", lambda p, mode: os.path.isfile(p) and real_access(p, mode))
    # an existing writable file in a directory that is not writable: open(path,
    # "w") truncates and writes it, so --out does too
    code, lines, _ = run(capsys, "--out", str(path), "link", "2,1,0", "--level", "2")
    assert code == 0
    assert json.loads(path.read_text())["command"] == "link"
    # a new file in that directory cannot be created
    code, _, err = run(capsys, "--out", str(tmp_path / "new.json"), "link", "2,1,0", "--level", "2")
    assert code == 2
    assert "Permission denied" in err
    # an existing file that is not writable, in a directory that is
    monkeypatch.setattr(os, "access", lambda p, mode: os.path.isdir(p) and real_access(p, mode))
    path.write_text("earlier report\n")
    code, _, err = run(capsys, "--out", str(path), "link", "2,1,0", "--level", "2")
    assert code == 2
    assert "Permission denied" in err
    assert path.read_text() == "earlier report\n"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("rdim", "1,0", "1,0"), 2),
        (("verify", "q1-oracle", "--max-n", "5", "--budget", "20"), 3),
    ],
)
def test_failed_command_leaves_an_existing_out_file_alone(tmp_path, capsys, argv, exit_code):
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    code, lines, _ = run(capsys, "--out", str(path), *argv)
    assert code == exit_code
    assert path.read_text() == "earlier report\n"


def test_verify_reports_cache_stats_under_timing(capsys):
    reldim._bo_numerator.cache_clear()  # cold, whatever ran before
    code, lines, _ = run(capsys, "verify", "bo-equivalence", "--max-n", "3")
    assert code == 0
    stats = lines[-1]["timing"]["stats"]
    assert set(stats) == set(gtkit.cli._CACHES)
    assert stats["bo_numerator"]["misses"] > 0
    # one numerator per (N, K, i, x), shared by every top row
    assert stats["bo_numerator"]["hits"] > stats["bo_numerator"]["misses"]
    assert all("stats" not in e for e in lines[:-1])  # entries, and so digests, stay as they were


def test_qlink_kappas_of_equal_size_share_their_q_power(capsys):
    qlinks._q_power.cache_clear()  # cold, whatever ran before
    code, lines, _ = run(capsys, "qlink", "3,1,0,-2", "--level", "2", "--q", "5/7")
    assert code == 0
    stats = lines[-1]["timing"]["stats"]["q_power"]
    # one lookup per kappa of the support box; (2, 0) and (1, 1) have the
    # same size, so the prefactor exponent of one is a hit for the other
    assert stats["hits"] + stats["misses"] == sum(1 for _ in support_box((3, 1, 0, -2), 2))
    assert stats["misses"] > 0 and stats["hits"] >= 1


def test_q_oracle_reports_schur_weight_hits(capsys):
    qlinks._schur_weight.cache_clear()  # cold, whatever ran before
    code, lines, _ = run(capsys, "verify", "q-oracle", "--max-n", "3", "--part-bound", "1")
    assert code == 0
    stats = lines[-1]["timing"]["stats"]["schur_weight"]
    # one s_kappa(q^S) per (kappa, q, S), shared by every top row
    assert 0 < stats["misses"] < stats["hits"]


def test_general_t_reports_the_inverse_vandermonde_lookups(capsys):
    qlinks.psi_T.cache_clear()  # cold, whatever ran before
    code, lines, _ = run(capsys, "verify", "general-T", "--max-n", "3", "--part-bound", "1")
    assert code == 0
    stats = lines[-1]["timing"]["stats"]
    # each psi_T that is not in its cache reads one row of the q-node inverse
    inverse = stats["q_nodes_inverse"]
    assert inverse["hits"] + inverse["misses"] == stats["psi_T"]["misses"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--n", "5", "--budget", "-3"),
        ("verify", "q1-oracle", "--max-n", "3", "--budget", "-1"),
        ("verify", "q1-oracle", "--max-n", "3", "--part-bound", "-1"),
    ],
)
def test_negative_budget_or_part_bound_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 0" in captured.err


def test_negative_budget_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GTKIT_BUDGET", "-3")
    code, lines, err = run(capsys, "bench", "--n", "5")
    assert code == 2
    assert not lines
    assert json.loads(err)["error"] == "ValueError"
