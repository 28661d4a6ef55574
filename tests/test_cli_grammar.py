"""A property over the command-line grammar: every argv drawn from it, well
formed or not, ends in exit 0, 1, 2 or 3 with no traceback, and its output
says which."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtkit.cli import main
from gtkit.verify import SUITES

def _mostly(valid, *invalid):
    """`valid` seven times in eight; else a malformed token or one of `invalid`."""
    bad = st.sampled_from(["", "1,,2", "1.5", "x", "1/0", *invalid])
    return st.integers(0, 7).flatmap(lambda k: bad if k == 0 else valid)


def _ints(low, high):
    return st.integers(low, high).map(str)


def _row(min_n, max_n):
    """A nonincreasing row of min_n..max_n parts in [-3, 3], as a tuple."""
    return st.lists(st.integers(-3, 3), min_size=min_n, max_size=max_n).map(lambda p: tuple(sorted(p, reverse=True)))


def _text(values) -> str:
    return ",".join(map(str, values))


QS = _mostly(st.sampled_from(["1/2", "2/3", "3/7", "29/59"]), "0", "1", "3/2", "-1/2")
TOLERANCES = _mostly(st.sampled_from(["1e-10", "1e-8", "1e-6"]), "0", "-1", "nan", "inf")
# a budget of 5 units stops the smallest oracle walk partway: exit 3
BUDGETS = _mostly(st.sampled_from(["0", "5", "200", "2000"]), "-1")


@st.composite
def _options(draw, *pairs):
    """Each (flag, values) pair, given or left out, in drawn order."""
    out = []
    for flag, values in draw(st.permutations(pairs)):
        if draw(st.booleans()):
            out += [flag, draw(values)]
    return out


@st.composite
def argvs(draw, out_dir):
    argv = []
    if draw(st.booleans()):
        argv.append("--csv")
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", str(out_dir / draw(st.sampled_from(["report.json"] * 3 + ["missing/report.json"])))]
    command = draw(st.sampled_from(["dim", "rdim", "link", "qlink", "verify", "uat", "bench"]))
    argv.append(command)
    if command == "dim":
        argv.append(draw(_mostly(_row(0, 4).map(_text), "-1,2")))
    elif command == "rdim":
        nu = draw(_row(2, 5))
        argv += [draw(_mostly(_row(1, len(nu) - 1).map(_text), _text(nu))), _text(nu)]
    elif command in ("link", "qlink"):
        nu = draw(_row(2, 5))
        argv += [draw(_mostly(st.just(_text(nu)), "-1,2")), "--level", draw(_mostly(_ints(1, len(nu) - 1), "0", str(len(nu))))]
        if command == "qlink":
            argv += ["--q", draw(QS)]
    elif command == "verify":
        argv.append(draw(st.sampled_from(sorted(SUITES))))
        argv += draw(
            _options(
                ("--max-n", _mostly(_ints(1, 3), "-1")),
                ("--part-bound", _mostly(_ints(0, 2), "-1")),
                ("--tolerance", TOLERANCES),
                ("--seed", _mostly(_ints(0, 9))),
                ("--budget", BUDGETS),
            )
        )
        for q in draw(st.lists(QS, max_size=2, unique=True)):
            argv += ["--q", q]
    elif command == "uat":
        kappa = draw(_row(1, 2))
        # in any order: gaps that do not decrease are a failed check, exit 1
        ns = st.lists(st.integers(len(kappa) + 1, 8), min_size=1, max_size=3, unique=True).map(_text)
        families = st.sampled_from(["zero", "linear-row:1/2", "linear-row:1", "linear-row:2"])
        argv += ["--kappa", _text(kappa), "--family", draw(_mostly(families, "cubic", "linear-row:-1"))]
        argv += ["--n", draw(_mostly(ns, str(len(kappa)), "5,5"))]
        argv += draw(_options(("--mode", _mostly(st.sampled_from(["exact", "numeric"]))), ("--tolerance", TOLERANCES)))
    else:
        # the budget is always given, and small, so the oracle walk ends soon
        ns = st.lists(st.integers(4, 8), max_size=3, unique=True).map(_text)
        argv += ["--n", draw(_mostly(ns, "3")), "--budget", draw(BUDGETS)]
        argv += draw(_options(("--level", _mostly(_ints(1, 3), "0"))))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar")


def test_every_argv_of_the_grammar_ends_in_a_status_and_a_message(out_dir):
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(out_dir))
    def check(argv):
        code, out, err = _run(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in out + err
        if code in (0, 1):
            summary = json.loads(err if "--csv" in argv else out.splitlines()[-1])
            assert (summary["status"] == "fail") == (code == 1), (argv, summary)
            return
        assert out == "", argv  # nothing is written before a refusal
        (line,) = err.splitlines()[-1:]
        if "error:" in line and line.startswith("gtkit"):
            return  # argparse's usage and error lines
        assert err.count("\n") == 1, (argv, err)
        assert set(json.loads(line)) >= {"error", "detail"}, (argv, err)

    check()
