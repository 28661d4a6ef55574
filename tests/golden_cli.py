"""Golden output digests of the command line.

For every argv of a fixed matrix this records the exit code, the SHA-256 of
stdout (and of the `--out` file, if one is written) with the wall-clock
fields blanked, and the last line of stderr. The commands run in-process
through `gtkit.cli.main`. `tests/test_golden_cli.py` compares a fresh run
with the committed `tests/golden_cli.json`.

A change that means to alter output regenerates the file:

    PYTHONPATH=src python tests/golden_cli.py

and names every digest it changed, with the reason, in its change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from gtkit.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# "{out}" is a writable report path and "{tmp}" a scratch directory that
# holds a plain file named "file"; both are filled in per run.
MATRIX = [
    # dim and rdim
    ["dim", "2,1,0"],
    ["dim", "-1,-2"],
    ["rdim", "1", "2,1,0"],
    ["rdim", "-2,-3", "-1,-2,-4"],
    # link rows, one wider than a write chunk, one with negative parts
    ["link", "1,0", "--level", "1"],
    ["link", "2,1,0", "--level", "2"],
    ["link", "14,9,6,3,1,0,-2,-5", "--level", "3"],
    ["link", "-1,-1,-4", "--level", "2"],
    # q-link rows, one at a q with a denominator near 60
    ["qlink", "3,1,0,-2", "--level", "2", "--q", "1/2"],
    ["qlink", "3,1,0,-2", "--level", "2", "--q", "2/3"],
    ["qlink", "2,0,-1", "--level", "2", "--q", "3/4"],
    ["qlink", "4,2,1,0,-1", "--level", "2", "--q", "29/59"],
    # the CSV and --out forms
    ["--csv", "link", "2,1,0", "--level", "2"],
    ["--csv", "qlink", "2,0,-1", "--level", "2", "--q", "2/3"],
    ["--out", "{out}", "link", "2,1,0", "--level", "2"],
    ["--out", "{out}", "qlink", "2,0,-1", "--level", "2", "--q", "2/3"],
    # every verify suite at small bounds, the seeded ones at two seeds
    ["verify", "q1-oracle", "--max-n", "3", "--part-bound", "1"],
    ["verify", "q-oracle", "--max-n", "3", "--part-bound", "1"],
    ["verify", "general-T", "--max-n", "3", "--part-bound", "1"],
    ["verify", "bo-equivalence", "--max-n", "3"],
    ["verify", "q-to-1"],
    ["verify", "q-to-1", "--max-n", "3", "--part-bound", "9"],
    ["verify", "coherence", "--max-n", "3", "--part-bound", "1"],
    ["verify", "qtoeplitz", "--seed", "1", "--q", "1/2"],
    ["verify", "qtoeplitz", "--seed", "3", "--q", "29/59", "--q", "1/3"],
    ["verify", "boundary", "--part-bound", "1", "--seed", "1"],
    ["verify", "boundary", "--part-bound", "1", "--seed", "5"],
    ["verify", "coherence", "--max-n", "2"],
    ["verify", "q1-oracle", "--max-n", "1"],
    # bench, completed and refused
    ["bench", "--n", "5", "--level", "2"],
    ["bench", "--n", "5,20", "--level", "2", "--budget", "300000"],
    ["bench", "--n", ""],
    # uat in exact mode
    ["uat", "--kappa", "0", "--family", "zero", "--n", "3,4,5"],
    ["uat", "--kappa", "0", "--family", "linear-row:2", "--n", "6,8"],
    ["uat", "--kappa", "0", "--family", "linear-row:2", "--n", "8,6"],
    ["uat", "--kappa", "-1,-2", "--family", "linear-row:1", "--n", "3,4"],
    # uat in numeric mode; the second pins the quadrature's rounding noise
    ["uat", "--kappa", "0", "--family", "linear-row:1/2", "--n", "6,8", "--mode", "numeric"],
    ["uat", "--kappa", "-1,-2", "--family", "linear-row:1", "--n", "3,4", "--mode", "numeric", "--tolerance", "1e-12"],
    # repeated or empty --n values
    ["uat", "--kappa", "1", "--family", "linear-row:1/2", "--n", "6,6"],
    ["uat", "--kappa", "0", "--family", "zero", "--n", "3,,4"],
    ["bench", "--n", "5,5"],
    # exit 2 from the command
    ["rdim", "1,0", "1,0"],
    ["uat", "--kappa", "0,0", "--family", "zero", "--n", "2"],
    ["uat", "--kappa", "0", "--family", "cubic", "--n", "3"],
    ["verify", "boundary", "--tolerance", "1e-300"],
    ["--out", "{tmp}/missing/x.json", "verify", "q-to-1"],
    ["--out", "{tmp}", "verify", "q-to-1"],
    ["--out", "{tmp}/file/x.json", "verify", "q-to-1"],
    # exit 2 while parsing
    ["dim", "1,x"],
    ["dim", "-1,2"],
    ["link", "-1,-1,y", "--level", "2"],
    ["qlink", "-1,0", "--level", "1", "--q", "1/2"],
    ["uat", "--kappa", "-1,-2,", "--family", "zero", "--n", "3"],
    ["verify", "boundary", "--tolerance", "0"],
    ["uat", "--kappa", "0", "--family", "zero", "--n", "6", "--mode", "numeric", "--tolerance", "nan"],
    ["verify", "general-T", "--q", "1"],
    ["qlink", "1,0", "--level", "1", "--q", "0"],
    ["verify", "general-T", "--q", "1/2", "--q", "2/4"],
    ["bench", "--n", "5", "--budget", "-3"],
    ["verify", "q1-oracle", "--max-n", "3", "--part-bound", "-1"],
    ["link", "2,1,0"],
    # exit 3: a walk stopped partway, and one refused up front
    ["verify", "q1-oracle", "--max-n", "5", "--budget", "20"],
    ["verify", "q1-oracle", "--max-n", "2", "--part-bound", "1", "--budget", "0"],
    # exit 3 from a downward walk stopped partway
    ["verify", "q-oracle", "--max-n", "3", "--budget", "5"],
]

# the same commands under a GTKIT_BUDGET that is not a budget
ENV_MATRIX = [
    ({"GTKIT_BUDGET": "abc"}, ["bench", "--n", "5", "--level", "2"]),
    ({"GTKIT_BUDGET": "-3"}, ["bench", "--n", "5"]),
]

# A wall-clock reading: the `timing` object and every "...seconds" number;
# `bench` entries also carry the determinant time as their `value`.
_SECONDS = re.compile(r'("\w*seconds":\s*)-?[0-9][0-9.eE+-]*')
_BENCH_VALUE = re.compile(r'("value":\s*)-?[0-9][0-9.eE+-]*')
_TIMING = re.compile(r'"timing":\s*')


def strip_timing(text: str, bench: bool = False) -> str:
    """`text` with each `timing` object emptied and each wall-clock number
    set to 0, every other byte as it was."""
    out, pos = [], 0
    for match in _TIMING.finditer(text):
        if match.start() < pos or text[match.end()] != "{":
            continue
        depth, end = 0, match.end()
        while True:
            depth += {"{": 1, "}": -1}.get(text[end], 0)
            end += 1
            if depth == 0:
                break
        out.append(text[pos : match.end()] + "{}")
        pos = end
    text = "".join(out) + text[pos:]
    text = _SECONDS.sub(r"\g<1>0", text)
    return _BENCH_VALUE.sub(r"\g<1>0", text) if bench else text


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv: list, tmp: str, env: dict | None = None) -> dict:
    """Run one argv through `gtkit.cli.main` and record what it left."""
    out_path = os.path.join(tmp, "report.json")
    args = [a.replace("{out}", out_path).replace("{tmp}", tmp) for a in argv]
    saved = {key: os.environ.get(key) for key in env or {}}
    os.environ.update(env or {})
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    bench = "bench" in argv
    err_lines = strip_timing(stderr.getvalue().replace(tmp, "{tmp}"), bench).splitlines()
    record = {
        "argv": argv,
        "exit": code,
        "stdout": _sha(strip_timing(stdout.getvalue(), bench)),
        "stderr": err_lines[-1] if err_lines else "",
    }
    if env:
        record["env"] = env
    if os.path.exists(out_path):
        record["out_file"] = _sha(strip_timing(Path(out_path).read_text(), bench))
        os.remove(out_path)
    return record


def run_matrix() -> list:
    """One record per case of MATRIX and ENV_MATRIX, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "file").write_text("")
        cases = [(None, argv) for argv in MATRIX] + ENV_MATRIX
        return [run_case(argv, tmp, env) for env, argv in cases]


if __name__ == "__main__":
    records = run_matrix()
    # one record a line, so a changed digest is one changed line
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
