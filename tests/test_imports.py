"""Start-up imports: the package loads numpy, the top-level scipy package
and scipy's compiled LAPACK module, not the scipy.linalg package (nor the
numpy.f2py and numpy.testing its import pulls in), and every heavier scipy
subpackage only inside the function that calls it."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy.linalg", "numpy.f2py", "numpy.testing", "scipy.fft",
            "scipy.optimize", "scipy.integrate", "scipy.interpolate",
            "scipy.sparse", "scipy.special", "concurrent.futures.process")

# the ground and profile reports and one tube round trip, in a fresh
# interpreter
_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from nlsblowup import cli
from nlsblowup.core import make_grid, make_params
from nlsblowup.groundstate import compute_omega, solve_ground_state
from nlsblowup.modulation import decompose, reconstruct
from nlsblowup.profile import build_profile, eval_profile, rescale_to_physical

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["ground", "--grid-n", "512", "--out", {out!r}])
    code += cli.run(["profile", "--grid-n", "1024", "--rmax", "15",
                     "--out", {out!r}])
critical = make_params(1, None, 0.2, 0.0, "critical", 1.0)
gs = solve_ground_state(critical, make_grid(1, 2048, 20.0))
params = make_params(1, None, 0.2, compute_omega(gs, critical),
                     "plusminus", 1.0)
expansion = build_profile(gs, params, order=2)
P, _ = eval_profile(expansion, 0.2, 0.05)
u = rescale_to_physical(P, 0.2, 0.05, 1.0, gs.grid)
state = decompose(u, expansion, (0.21, 0.06, 1.1))
back = reconstruct(state, gs.grid)
print(json.dumps({{
    "code": code, "lam": state.lam,
    "defect": float(abs(back.values - u.values).max()),
    "loaded": [m for m in {deferred!r} if m in sys.modules]}}))
"""


def test_ground_and_tube_map_load_no_deferred_module(tmp_path):
    script = _SCRIPT.format(src=str(ROOT / "src"), out=str(tmp_path),
                            deferred=DEFERRED)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert abs(result["lam"] / 0.2 - 1.0) <= 1e-8
    assert result["defect"] <= 1e-8
    assert result["loaded"] == []


def test_the_march_runs_no_import_statement():
    # _dct4 runs twice per step: its kernel comes from a cached lookup
    tree = ast.parse((ROOT / "src" / "nlsblowup" / "sim.py").read_text())
    scopes = [node for node in tree.body
              if getattr(node, "name", None) in ("_dct4", "_Stepper")]
    assert len(scopes) == 2
    imports = [(scope.name, sub.lineno) for scope in scopes
               for sub in ast.walk(scope)
               if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert not imports, imports


# core's LAPACK module against scipy.linalg's, imported in either order
_LAPACK_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
if {scipy_first!r}:
    import scipy.linalg
from nlsblowup import core
package_alone = "scipy.linalg" not in sys.modules
import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline
from scipy.linalg import lapack
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

ab = np.array([[0.0, 1.0, 1.0, 1.0], [4.0, 4.0, 4.0, 4.0],
               [1.0, 1.0, 1.0, 0.0]])
x = scipy.linalg.solve_banded((1, 1), ab, np.arange(1.0, 5.0))
dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
vals = eigsh(diags([np.arange(1.0, 31.0)], [0]), k=2, which="LA",
             return_eigenvectors=False)
sol = solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], rtol=1e-10, atol=1e-12)
xs = np.linspace(0.0, 1.0, 9)
spline = make_interp_spline(xs, xs ** 3, k=3)
print(json.dumps({{
    "package_alone": package_alone,
    "differ": [name for name in {names!r}
               if getattr(core._lapack, name) is not getattr(lapack, name)],
    "module": core._lapack is sys.modules["scipy.linalg._flapack"],
    "error": core.LinAlgError is scipy.linalg.LinAlgError,
    "solve_banded": float(np.max(np.abs(dense @ x - np.arange(1.0, 5.0)))),
    "eigsh": float(np.max(np.abs(np.sort(vals) - [29.0, 30.0]))),
    "solve_ivp": float(abs(sol.y[0, -1] - np.exp(-1.0))),
    "spline": float(abs(spline(0.3) - 0.027))}}))
"""


@pytest.mark.parametrize("first", ["package", "scipy.linalg"])
def test_core_lapack_is_scipy_linalgs_module(first):
    # core loads scipy's compiled LAPACK module from its file: a scipy
    # release that moves it must fail here, and either import order must
    # leave one module whose routines are scipy.linalg.lapack's
    names = [t + r for t in "dz" for r in ("gttrf", "gttrs", "gbtrf", "gbtrs")]
    script = _LAPACK_SCRIPT.format(src=str(ROOT / "src"), names=names,
                                   scipy_first=first == "scipy.linalg")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["package_alone"] == (first == "package")
    assert result["differ"] == []
    assert result["module"] and result["error"]
    assert result["solve_banded"] <= 1e-14
    assert result["eigsh"] <= 1e-10
    assert result["solve_ivp"] <= 1e-8
    assert result["spline"] <= 1e-14
