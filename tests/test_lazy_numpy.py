"""numpy is loaded by the float paths only: exact commands never import it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtkit

SRC = str(Path(gtkit.__file__).resolve().parent.parent)


def fresh_python(code: str) -> dict:
    """Run `code` in a new interpreter that imports gtkit from this checkout;
    it prints one JSON line last."""
    path = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "2,1,0"],
        ["link", "3,1,0,-2", "--level", "2"],
        ["qlink", "2,0,-1", "--level", "2", "--q", "2/3"],
        ["verify", "q1-oracle", "--max-n", "3"],
    ],
)
def test_exact_commands_never_load_numpy(argv):
    out = fresh_python(
        f"""
import contextlib, io, json, sys
import gtkit
after_import = "numpy" in sys.modules
from gtkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps({{"code": code, "after_import": after_import, "after_run": "numpy" in sys.modules}}))
"""
    )
    assert out == {"code": 0, "after_import": False, "after_run": False}


def test_numeric_coefficients_load_numpy_and_match_exact():
    out = fresh_python(
        """
import json, sys
from gtkit.boundary import embed, phi_coeffs
omega = embed((2, 1, 0))
before = "numpy" in sys.modules
exact = phi_coeffs(omega, -2, 2)
numeric = phi_coeffs(omega, -2, 2, mode="numeric")
gap = max(abs(numeric[n] - float(exact[n])) for n in range(-2, 3))
print(json.dumps({"before": before, "after": "numpy" in sys.modules, "gap": gap}))
"""
    )
    assert out["before"] is False
    assert out["after"] is True
    assert out["gap"] < 1e-8
