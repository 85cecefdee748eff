"""Start-up imports: the package loads numpy and scipy.linalg, and every
heavier scipy subpackage only inside the function that calls it."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy.fft", "scipy.optimize", "scipy.integrate",
            "scipy.interpolate", "scipy.sparse", "scipy.special",
            "concurrent.futures.process")

# the ground report and one tube round trip, in a fresh interpreter
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
