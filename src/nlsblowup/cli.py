"""Command-line front door wiring all modules with deterministic outputs.

Every invocation writes one directory under ``--out`` named
``<subcommand>-<hash>``, where the hash is the first 12 hex digits of the
sha256 of the resolved configuration (defaults materialized, seed and tool
version included).  The directory holds ``manifest.json`` plus the
subcommand's artifacts, and a ``latest`` pointer file at the output root is
refreshed to name it.  Numerics are deterministic and every float is
serialized with 17 significant digits, so re-running an identical
configuration reproduces identical artifact bytes.

Exit codes: 0 on success, 1 on a domain error (a machine-readable error
record is printed to stdout), 2 on a usage error (argparse).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import __version__
from .core import field_to_csv, make_grid, make_params
from .groundstate import (GroundState, compute_omega, default_rmax,
                          pohozaev_residuals, solve_ground_state)
from .linops import (beta_closed_form, branch_forcing, coercivity_spectrum,
                     lminus_unconstrained_min, lplus_unconstrained_min,
                     operator_identity_residuals, solve_bordered, solve_rho)
from .profile import (ProfileExpansion, build_profile, fit_loglog_slope,
                      psi_slope_sweep)
from .reduced import (app_solutions, classify_regime, initial_params,
                      integrate_reduced, power_law_solutions, rate_exponent)
from .sim import (SimConfig, energy_positivity_check, fit_blowup_rate,
                  initial_datum, lower_bound_check, simulate_blowup)

__all__ = ["main", "run", "DomainError"]

SUBCOMMANDS = ("ground", "linops", "profile", "reduced", "simulate",
               "validate", "sweep")


class DomainError(ValueError):
    """Invalid parameter combination or failed pipeline precondition."""


# --------------------------------------------------------------------------
# Deterministic serialization: 17 significant digits everywhere
# --------------------------------------------------------------------------

def _json17(obj: Any, level: int = 0) -> str:
    """Render JSON with sorted keys and %.17g floats (deterministic bytes)."""
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json17(v, level + 1)}'
            for k, v in sorted(obj.items()))
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        inner = ",\n".join(f"{pad}  {_json17(v, level + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return format(x, ".17g") if math.isfinite(x) else json.dumps(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: Path, obj: Any) -> None:
    path.write_text(_json17(obj) + "\n")


def _fmt(x: Any) -> Any:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return x


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


# --------------------------------------------------------------------------
# Configuration plumbing
# --------------------------------------------------------------------------

# Flags shared by every subcommand; None means "apply the subcommand default".
_SHARED_DEFAULTS: dict[str, Any] = {
    "N": 1, "p": None, "sigma": 0.2, "C0": None, "branch": "balanced",
    "E0": 1.0, "s1": 10.0, "order": 2, "grid_n": None, "rmax": None,
    "dt_c": None, "out": "runs", "seed": 0, "rmax_factor": None,
    "lambda_floor": None, "profile_n": 8192, "profile_rmax": 20.0,
    "snapshot_ds": None, "drift_abort": None,
}

# Primary-grid defaults: the soliton grid for elliptic subcommands, the
# profile grid for expansion-based ones.  simulate's primary grid is the
# evolution grid, whose defaults live on SimConfig.
_GRID_DEFAULTS = {
    "ground": (32768, None),     # rmax None -> default_rmax(N)
    "linops": (32768, None),
    "profile": (8192, 20.0),
    "reduced": (8192, 20.0),
}

# Flags of the runs that evolve (simulate, each sweep cell) and the SimConfig
# fields they set; a missing flag takes the field's default.
_SIM_FIELDS = {"grid_n": "n", "rmax_factor": "rmax_factor", "dt_c": "c_dt",
               "lambda_floor": "lambda_floor", "snapshot_ds": "snapshot_ds",
               "drift_abort": "drift_abort"}


def _add_shared_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--N", type=int, default=None, help="dimension (1-3)")
    sp.add_argument("--p", type=float, default=None,
                    help="subcritical exponent (default: matched to sigma)")
    sp.add_argument("--sigma", type=float, default=None,
                    help="inverse-power strength of the potential")
    sp.add_argument("--C0", type=float, default=None,
                    help="coupling magnitude (plusminus/minusplus branches)")
    sp.add_argument("--branch", default=None,
                    choices=["plusminus", "minusplus", "balanced", "critical"],
                    help="sign branch; balanced sets plusminus with C0=omega")
    sp.add_argument("--E0", type=float, default=None, help="target energy")
    sp.add_argument("--s1", type=float, default=None,
                    help="initial rescaled time")
    sp.add_argument("--order", type=int, default=None,
                    help="profile expansion order J")
    sp.add_argument("--grid-n", type=int, default=None, dest="grid_n",
                    help="points on the subcommand's primary grid")
    sp.add_argument("--rmax", type=float, default=None,
                    help="radius of the soliton/profile grid")
    sp.add_argument("--dt-c", type=float, default=None, dest="dt_c",
                    help="rescaled time step (simulate)")
    sp.add_argument("--rmax-factor", type=float, default=None,
                    dest="rmax_factor",
                    help="evolution domain size in gradient lengths (simulate)")
    sp.add_argument("--lambda-floor", type=float, default=None,
                    dest="lambda_floor",
                    help="stop when the gradient scale reaches this (simulate)")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed recorded for randomized fields")
    sp.add_argument("--out", default=None, help="output root directory")
    sp.add_argument("--config", default=None,
                    help="flat JSON file mirroring the flags; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsblowup",
        description=("Minimal-mass blow-up laboratory for a perturbed "
                     "mass-critical radial NLS equation"))
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "ground": "solve the soliton profile; emit norms JSON and field CSV",
        "linops": "linearized-operator identity report and beta(C0) sweep",
        "profile": "build the blow-up profile expansion and its diagnostics",
        "reduced": "integrate the reduced scale/curvature flow to a CSV",
        "simulate": "evolve profile data to the scale floor and fit the rate",
        "validate": "re-derive stored ground-state artifacts and compare",
        "sweep": "run simulate over a (sigma, C0/omega, E0) grid",
    }
    for name in SUBCOMMANDS:
        sp = subs.add_parser(name, help=helps[name])
        _add_shared_flags(sp)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Materialize defaults: shared defaults <- config file <- flags."""
    cfg = dict(_SHARED_DEFAULTS)
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise DomainError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DomainError(f"config file {path} must hold a JSON object")
        cfg.update(loaded)
    for key in _SHARED_DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    sub = args.subcommand
    if sub in _GRID_DEFAULTS:
        n_def, rmax_def = _GRID_DEFAULTS[sub]
        if cfg["grid_n"] is None:
            cfg["grid_n"] = n_def
        if cfg["rmax"] is None:
            cfg["rmax"] = (rmax_def if rmax_def is not None
                           else default_rmax(cfg["N"]))
    if sub in ("simulate", "sweep"):
        base = SimConfig.__dataclass_fields__
        for key, name in _SIM_FIELDS.items():
            if cfg[key] is None:
                cfg[key] = base[name].default
    return cfg


def _rundir(out: str, subcommand: str, cfg: dict, seed: int) -> Path:
    payload = {"subcommand": subcommand, "config": cfg, "seed": seed,
               "version": __version__}
    digest = hashlib.sha256(_json17(payload).encode()).hexdigest()[:12]
    root = Path(out)
    rundir = root / f"{subcommand}-{digest}"
    rundir.mkdir(parents=True, exist_ok=True)
    return rundir


def _finish(rundir: Path, subcommand: str, cfg: dict, t0: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "seed": cfg["seed"],
        "outdir": rundir.name,
        "version": __version__,
        "wall_time_s": time.time() - t0,
    }
    _write_json(rundir / "manifest.json", manifest)
    (rundir.parent / "latest").write_text(rundir.name + "\n")


# --------------------------------------------------------------------------
# Shared pipeline stages
# --------------------------------------------------------------------------

def _critical_params(cfg: dict):
    return make_params(cfg["N"], cfg["p"], cfg["sigma"], 0.0, "critical",
                       cfg["E0"])


def _resolve_branch_params(cfg: dict, omega: float,
                           c0_ratio: Optional[float] = None):
    """Turn the CLI branch word into concrete coupled parameters; a sweep
    cell's C0/omega ratio stands in for --C0."""
    branch = cfg["branch"]
    if branch == "critical":
        return _critical_params(cfg)
    if c0_ratio is not None:
        C0 = c0_ratio * omega
    elif branch == "balanced":
        C0 = omega
    elif cfg["C0"] is None:
        raise DomainError(
            f"branch {branch!r} needs an explicit --C0 "
            "(use --branch balanced for C0 = omega)")
    else:
        C0 = cfg["C0"]
    if branch == "balanced":
        branch = "plusminus"
    return make_params(cfg["N"], cfg["p"], cfg["sigma"], C0, branch,
                       cfg["E0"])


def _solve_primary(cfg: dict) -> tuple[GroundState, float]:
    params = _critical_params(cfg)
    grid = make_grid(cfg["N"], cfg["grid_n"], cfg["rmax"])
    gs = solve_ground_state(params, grid)
    return gs, compute_omega(gs, params)


def _profile_stage(cfg: dict, c0_ratio: Optional[float] = None
                   ) -> tuple[GroundState, float, ProfileExpansion]:
    params = _critical_params(cfg)
    grid = make_grid(cfg["N"], cfg["profile_n"], cfg["profile_rmax"])
    gs = solve_ground_state(params, grid)
    omega = compute_omega(gs, params)
    run_params = _resolve_branch_params(cfg, omega, c0_ratio)
    expansion = build_profile(gs, run_params, order=cfg["order"])
    return gs, omega, expansion


def _simulate_stage(cfg: dict, expansion: ProfileExpansion):
    """Evolve cfg's run from ``expansion``: its SimConfig, the snapshot
    series and the rate exponent of the series' regime."""
    sim_cfg = SimConfig(params=expansion.params,
                        **{name: cfg[key] for key, name in _SIM_FIELDS.items()})
    series = simulate_blowup(sim_cfg, expansion, cfg["E0"], cfg["s1"])
    return sim_cfg, series, rate_exponent(series.regime,
                                          expansion.params.alpha)


# --------------------------------------------------------------------------
# Subcommand pipelines
# --------------------------------------------------------------------------

def _pipe_ground(cfg: dict, rundir: Path) -> dict:
    gs, omega = _solve_primary(cfg)
    poh = pohozaev_residuals(gs)
    report = {
        "Q0": gs.Q0,
        "norms": dict(gs.norms),
        "omega": omega,
        "residuals": {
            "elliptic_inf": gs.residual_inf,
            "pohozaev_gradient": poh[0],
            "pohozaev_mass": poh[1],
        },
        "alpha": gs.params.alpha,
        "p": gs.params.p,
        "grid": {"n": gs.grid.n, "rmax": gs.grid.rmax},
    }
    _write_json(rundir / "ground.json", report)
    field_to_csv(gs.Q, str(rundir / "ground.csv"))
    return {"Q0": gs.Q0, "omega": omega,
            "elliptic_inf": gs.residual_inf}


def _pipe_linops(cfg: dict, rundir: Path) -> dict:
    gs, omega = _solve_primary(cfg)
    residuals = operator_identity_residuals(gs)
    rho = solve_rho(gs)
    report = {
        "identity_residuals": residuals,
        "omega": omega,
        "lplus_unconstrained_min": lplus_unconstrained_min(gs),
        "lminus_unconstrained_min": lminus_unconstrained_min(gs),
        "constrained_min_eig": coercivity_spectrum(gs, rho),
    }
    _write_json(rundir / "linops.json", report)

    branch = "minusplus" if cfg["branch"] == "minusplus" else "plusminus"
    rows = []
    for ratio in (0.5, 0.75, 1.0, 1.5, 2.0):
        params_c = make_params(cfg["N"], cfg["p"], cfg["sigma"],
                               ratio * omega, branch, cfg["E0"])
        sol = solve_bordered(gs, branch_forcing(gs, params_c))
        closed = beta_closed_form(gs, params_c)
        rows.append((ratio * omega, ratio, sol.beta, closed,
                     abs(sol.beta - closed)))
    _write_csv(rundir / "beta_sweep.csv",
               ["C0", "C0_over_omega", "beta_bordered", "beta_closed_form",
                "abs_diff"], rows)
    report["beta_sweep_max_diff"] = max(r[4] for r in rows)
    return {"omega": omega,
            "max_identity_residual": max(residuals.values()),
            "beta_sweep_max_diff": report["beta_sweep_max_diff"]}


def _pipe_profile(cfg: dict, rundir: Path) -> dict:
    cfg = dict(cfg, profile_n=cfg["grid_n"], profile_rmax=cfg["rmax"])
    gs, omega, expansion = _profile_stage(cfg)
    entries = []
    field_cols: dict[str, np.ndarray] = {}
    for (j, k), entry in sorted(expansion.entries.items()):
        entries.append({"j": j, "k": k, "beta": entry.beta, "c": entry.c,
                        "nu": entry.nu})
        field_cols[f"Pplus_{j}{k}"] = entry.Pp.values
        field_cols[f"Pminus_{j}{k}"] = entry.Pm.values
    sweep = psi_slope_sweep(expansion)
    slope = fit_loglog_slope([row["x"] for row in sweep],
                             [row["weighted_norm"] for row in sweep])
    report = {
        "order": cfg["order"],
        "omega": omega,
        "alpha": expansion.params.alpha,
        "eps_weight": expansion.eps_weight,
        "entries": entries,
        "residual_slope": slope,
        "residual_slope_target": cfg["order"] + 2.0,
    }
    _write_json(rundir / "profile.json", report)
    header = ["r"] + list(field_cols)
    rows = list(zip(gs.grid.nodes, *field_cols.values()))
    _write_csv(rundir / "profile_fields.csv", header, rows)
    _write_csv(rundir / "psi_sweep.csv",
               ["x", "lam", "b", "theta", "weighted_norm"],
               [[row[c] for c in ("x", "lam", "b", "theta", "weighted_norm")]
                for row in sweep])
    return {"omega": omega, "order": cfg["order"], "residual_slope": slope}


def _pipe_reduced(cfg: dict, rundir: Path) -> dict:
    cfg = dict(cfg, profile_n=cfg["grid_n"], profile_rmax=cfg["rmax"])
    gs, omega, expansion = _profile_stage(cfg)
    beta00 = expansion.beta_table.get((0, 0), 0.0)
    regime = classify_regime(expansion)
    balanced = regime == "balanced"
    if regime == "subthreshold":
        # beta00 falls as C0 grows on minusplus and rises on plusminus
        advice = ("lower C0 below omega" if cfg["branch"] == "minusplus"
                  else "raise C0 past omega or use --branch balanced")
        raise DomainError(
            "reduced flow blows up only for beta00 >= 0 on this branch "
            f"(beta00 = {beta00:.3e}); {advice}")
    s1 = cfg["s1"]
    lam1, b1 = initial_params(expansion, cfg["E0"], s1)
    floor = cfg["lambda_floor"] if cfg["lambda_floor"] is not None else 1e-3
    traj = integrate_reduced(expansion, [s1, 1e7], lam1, b1, E0=cfg["E0"],
                             n_points=2000, lambda_floor=floor)
    if balanced:
        lam_app, b_app = app_solutions(gs, cfg["E0"], traj.s_grid)
    else:
        lam_app, b_app = power_law_solutions(expansion, traj.s_grid)
    rows = list(zip(traj.s_grid, traj.t_grid, traj.lam, traj.b,
                    lam_app, b_app, traj.lam / lam_app, traj.b / b_app))
    _write_csv(rundir / "reduced.csv",
               ["s", "t", "lambda", "b", "lambda_app", "b_app",
                "ratio_lambda", "ratio_b"], rows)
    report = {
        "omega": omega, "beta00": beta00, "balanced": balanced,
        "lambda1": lam1, "b1": b1, "s_final": traj.s_grid[-1],
        "lambda_final": traj.lam[-1], "b_final": traj.b[-1],
        "ode_residual": traj.ode_residual, "truncated": traj.truncated,
    }
    _write_json(rundir / "reduced.json", report)
    return report


def _pipe_simulate(cfg: dict, rundir: Path) -> dict:
    gs, _, expansion = _profile_stage(cfg)
    params = expansion.params
    sim_cfg, series, expected_exponent = _simulate_stage(cfg, expansion)
    series.to_csv(str(rundir / "snapshots.csv"))

    drifts = [sn.drift for sn in series.snapshots]
    conservation = {
        "mass0": series.mass0,
        "energy0": series.energy0,
        "max_drift": max(drifts) if drifts else float("nan"),
        "n_snapshots": len(series.snapshots),
        "regrids": series.regrid_log,
    }
    _write_json(rundir / "conservation.json", conservation)

    if len(series.snapshots) < 8:
        raise DomainError(
            "simulation ended before enough snapshots for a rate fit"
            + (f" ({series.abort_reason})" if series.abort_reason else ""))
    fit = fit_blowup_rate(series)
    expected_coefficient = (math.sqrt(8.0 * cfg["E0"] / gs.norms["virial"])
                            if series.regime == "balanced" else float("nan"))
    _write_json(rundir / "ratefit.json", {
        "exponent": fit.exponent, "coefficient": fit.coefficient,
        "T_est": fit.T_est, "r2": fit.r2, "n_points": fit.n_points,
        "window": list(fit.window),
        "expected_exponent": expected_exponent,
        "expected_coefficient": expected_coefficient,
    })

    u0, lam1, b1 = initial_datum(sim_cfg, expansion, cfg["E0"], cfg["s1"])
    e0_val, e0_pos = energy_positivity_check(u0, params)
    lb_inf = lower_bound_check(series, fit, params)
    verdicts = {
        "initial_energy": e0_val,
        "energy_positive": bool(e0_pos),
        "lower_bound_infimum": lb_inf,
        "lower_bound_positive": bool(lb_inf > 0.0),
        "max_drift": conservation["max_drift"],
        "tube_exit": series.tube_exit,
        "truncated": series.truncated,
        "abort_reason": series.abort_reason,
        "lambda1": lam1, "b1": b1,
    }
    _write_json(rundir / "verdicts.json", verdicts)
    return {"exponent": fit.exponent, "coefficient": fit.coefficient,
            "expected_exponent": expected_exponent,
            "max_drift": conservation["max_drift"],
            "tube_exit": series.tube_exit}


def _pipe_validate(cfg: dict, rundir: Path) -> dict:
    root = Path(cfg["out"])
    targets = sorted(d for d in root.glob("ground-*")
                     if (d / "manifest.json").exists()
                     and (d / "ground.json").exists())
    if not targets:
        raise DomainError("missing ground state: no ground artifacts under "
                          f"{root} (run the ground subcommand first)")
    reports = []
    all_pass = True
    for target in targets:
        manifest = json.loads((target / "manifest.json").read_text())
        stored = json.loads((target / "ground.json").read_text())
        gs, omega = _solve_primary(manifest["config"])
        checks = {
            "Q0": abs(gs.Q0 / stored["Q0"] - 1.0),
            "mass": abs(gs.norms["mass"] / stored["norms"]["mass"] - 1.0),
            "omega": abs(omega / stored["omega"] - 1.0),
            "elliptic_inf": gs.residual_inf,
        }
        ok = (checks["Q0"] < 1e-9 and checks["mass"] < 1e-9
              and checks["omega"] < 1e-9 and checks["elliptic_inf"] < 1e-8)
        all_pass = all_pass and ok
        reports.append({"target": target.name, "pass": bool(ok),
                        "checks": checks})
    _write_json(rundir / "validate.json",
                {"targets": reports, "all_pass": bool(all_pass)})
    if not all_pass:
        failing = [r["target"] for r in reports if not r["pass"]]
        raise DomainError(f"validation failed for {failing}")
    return {"validated": [r["target"] for r in reports], "all_pass": True}


# --------------------------------------------------------------------------
# Sweep
# --------------------------------------------------------------------------

_SWEEP_COLUMNS = ["sigma", "C0_over_omega", "E0", "branch", "regime",
                  "exponent", "coefficient", "expected_exponent", "r2",
                  "tube_exit", "error"]


def _sweep_cell(cell: dict) -> dict:
    """Run one simulate pipeline; never raises (errors become a record)."""
    row = {"sigma": cell["sigma"], "C0_over_omega": cell["c0_ratio"],
           "E0": cell["E0"], "branch": cell["branch"], "regime": "",
           "exponent": float("nan"), "coefficient": float("nan"),
           "expected_exponent": float("nan"), "r2": float("nan"),
           "tube_exit": False, "error": ""}
    try:
        _, _, expansion = _profile_stage(cell, cell["c0_ratio"])
        row["regime"] = classify_regime(expansion)
        _, series, row["expected_exponent"] = _simulate_stage(cell, expansion)
        row["tube_exit"] = series.tube_exit
        fit = fit_blowup_rate(series)
        row["exponent"] = fit.exponent
        row["coefficient"] = fit.coefficient
        row["r2"] = fit.r2
    except Exception as exc:  # per-cell failures recorded, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _pipe_sweep(cfg: dict, rundir: Path) -> dict:
    # only a missing axis takes the default; an empty axis is an empty grid
    def axis(key: str, default: list) -> list:
        values = cfg.get(key)
        return default if values is None else values

    sigmas = axis("sigma_values", [cfg["sigma"]])
    ratios = axis("C0_over_omega_values", [1.0])
    energies = axis("E0_values", [cfg["E0"]])
    branch = cfg["branch"]
    if branch == "balanced":
        branch = "plusminus"

    points = list(dict.fromkeys(
        (float(s), float(r), float(e))
        for s in sigmas for r in ratios for e in energies))
    cells = [dict(cfg, branch=branch, sigma=s, c0_ratio=r, E0=e)
             for s, r, e in points]

    if not cells:
        rows = []
    elif len(cells) == 1 or (os.cpu_count() or 1) == 1:
        rows = [_sweep_cell(cell) for cell in cells]
    else:
        workers = min(len(cells), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    rows.sort(key=lambda r: (r["sigma"], r["C0_over_omega"], r["E0"]))
    _write_csv(rundir / "sweep.csv", _SWEEP_COLUMNS,
               [[row[c] for c in _SWEEP_COLUMNS] for row in rows])
    n_failed = sum(1 for row in rows if row["error"])
    _write_json(rundir / "sweep.json",
                {"n_cells": len(rows), "n_failed": n_failed, "rows": rows})
    return {"n_cells": len(rows), "n_failed": n_failed}


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

_PIPELINES = {
    "ground": _pipe_ground,
    "linops": _pipe_linops,
    "profile": _pipe_profile,
    "reduced": _pipe_reduced,
    "simulate": _pipe_simulate,
    "validate": _pipe_validate,
    "sweep": _pipe_sweep,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, run the pipeline, write manifest; return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        t0 = time.time()
        rundir = _rundir(cfg["out"], args.subcommand, cfg, cfg["seed"])
        try:
            summary = _PIPELINES[args.subcommand](cfg, rundir)
        finally:
            _finish(rundir, args.subcommand, cfg, t0)
        out = dict(summary)
        out["outdir"] = str(rundir)
        print(_json17(out))
        return 0
    except (DomainError, ValueError) as exc:
        print(_json17({"error": str(exc), "subcommand": args.subcommand}))
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
