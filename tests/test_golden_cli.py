"""The command line prints, byte for byte, what the golden file recorded.

`tests/golden_cli.py` holds the argv matrix and regenerates the file.
"""

import json

from golden_cli import GOLDEN, run_matrix, strip_timing


def test_strip_timing_blanks_only_wall_clock_fields():
    line = '{"label": "x", "seconds": 0.25, "value": 0.5, "timing": {"stats": {"a": {"hits": 1}}}, "b": [1, 2]}'
    assert strip_timing(line) == '{"label": "x", "seconds": 0, "value": 0.5, "timing": {}, "b": [1, 2]}'
    assert strip_timing(line, bench=True) == '{"label": "x", "seconds": 0, "value": 0, "timing": {}, "b": [1, 2]}'
    compact = '{"timing":{"total_seconds":1.5},"det_seconds":2e-05}'
    assert strip_timing(compact) == '{"timing":{},"det_seconds":0}'


def test_cli_output_matches_the_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = run_matrix()
    assert [r["argv"] for r in got] == [r["argv"] for r in want], "regenerate the golden file"
    changed = [f"{json.dumps(w)}\n  now {json.dumps(g)}" for g, w in zip(got, want) if g != w]
    assert not changed, "output changed:\n" + "\n".join(changed)
