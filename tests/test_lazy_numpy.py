"""gtkit needs no numpy: exact commands never import it, and the float paths
(quadrature, numeric minors, phi_eval at a complex point) run in an
interpreter where importing numpy fails."""

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


def test_numeric_paths_run_where_numpy_cannot_be_imported():
    out = fresh_python(
        """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fractions import Fraction
from gtkit import cli
from gtkit.boundary import a_coeff_quadrature, embed, phi_coeffs, phi_eval, phi_signature
from gtkit.reldim import A_coeff, DetContext
omega = embed((2, 1, 0))
exact = phi_coeffs(omega, -2, 2)
numeric = phi_coeffs(omega, -2, 2, mode="numeric")
nu = (1,) + (0,) * 7
gaps = {
    "phi_coeffs": max(abs(numeric[n] - float(exact[n])) for n in range(-2, 3)),
    "phi_signature": abs(phi_signature(omega, (1, 0), mode="numeric") - float(phi_signature(omega, (1, 0)))),
    "phi_eval": abs(phi_eval(omega, 0.5) - float(phi_eval(omega, Fraction(1, 2)))),
    "a_coeff_quadrature": abs(a_coeff_quadrature(nu, 1, 1, 0) - float(A_coeff(DetContext(1, nu), 1, 0))),
}
codes = {}
for name, argv in (
    ("uat", ["uat", "--kappa", "0", "--family", "linear-row:1/2", "--n", "6,8", "--mode", "numeric"]),
    ("verify", ["verify", "boundary"]),
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = cli.main(argv)
print(json.dumps({"gaps": gaps, "codes": codes, "numpy": sys.modules["numpy"] is None}))
"""
    )
    assert out["codes"] == {"uat": 0, "verify": 0}
    assert out["numpy"] is True
    assert all(gap < 1e-8 for gap in out["gaps"].values()), out["gaps"]
