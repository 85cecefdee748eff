"""Command-line front door wiring all modules with deterministic outputs.

Every invocation writes one directory under ``--out`` named
``<subcommand>-<hash>``, where the hash is the first 12 hex digits of the
sha256 of the resolved configuration: the settings the subcommand reads
(``_READS``, defaults materialized), the seed and the tool version.  A
subcommand takes only those settings, as flags or config-file keys.  The
directory holds ``manifest.json`` plus the subcommand's artifacts, and a
``latest`` pointer file at the output root is refreshed to name it.
Numerics are deterministic and every float is serialized with 17
significant digits, so re-running an identical configuration reproduces
identical artifact bytes.  JSON goes through ``_json17`` and every CSV
through ``_write_csv``: %.17g floats, csv-module quoting (QUOTE_MINIMAL)
and ``\\r\\n`` line ends.  ``manifest.json``'s ``wall_time_s`` includes
the import of any scipy solver the pipeline loads on its first call.

Exit codes: 0 on success, 1 on a domain error (a machine-readable error
record is printed to stdout), 2 on a usage error (argparse).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Optional

import numpy as np

from . import __version__
from .core import make_grid, make_params
from .groundstate import (GroundState, compute_omega, default_rmax,
                          pohozaev_residuals, solve_ground_state)
from .linops import (beta_closed_form, branch_forcing, coercivity_spectrum,
                     lminus_unconstrained_min, lplus_unconstrained_min,
                     operator_identity_residuals, solve_bordered)
from .profile import (ProfileExpansion, build_profile, fit_loglog_slope,
                      psi_slope_sweep)
from .reduced import (app_solutions, classify_regime, initial_params,
                      integrate_reduced, power_law_solutions, rate_exponent)
from .sim import (SimConfig, Snapshot, SnapshotSeries, fit_blowup_rate,
                  lower_bound_check, simulate_blowup)

__all__ = ["main", "run", "DomainError"]


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


def _cell(x: Any) -> str:
    """One CSV cell as ``csv.writer`` writes it, a float as %.17g."""
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    text = "" if x is None else str(x)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header: list[str], rows: Iterable) -> None:
    """Write rows as wide as the header by one % over a per-column line
    template: %.17g for a column of floats only, else %s fed ``_cell`` text."""
    cells, k = list(chain.from_iterable(rows)), len(header)
    specs = ["%.17g"] * k
    for j in range(k):
        if not {*map(type, cells[j::k])} <= {float, np.float64}:
            specs[j] = "%s"
            cells[j::k] = map(_cell, cells[j::k])
    line = ",".join(specs) + "\r\n"
    text = line * (len(cells) // k) % tuple(cells)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_cell, header)) + "\r\n" + text)


_SNAPSHOT_COLUMNS = [f.name for f in dataclasses.fields(Snapshot)]


def _write_snapshots(path: Path, series: SnapshotSeries) -> None:
    """One row per snapshot, plus |Mod| and lam_hat / lam.

    |Mod| = |(lambda_s/lambda + b, b_s + b^2, 1 - gamma_s)| from centered
    differences in s of the decomposed parameter tracks; NaN at the ends.
    """
    s, lam, b, gam = (series.column(c) for c in ("s", "lam", "b", "gamma"))
    mods = np.full(s.size, np.nan)
    ds = s[2:] - s[:-2]
    dl = (lam[2:] - lam[:-2]) / ds
    db = (b[2:] - b[:-2]) / ds
    dg = (gam[2:] - gam[:-2]) / ds
    mods[1:-1] = np.sqrt((dl / lam[1:-1] + b[1:-1]) ** 2
                         + (db + b[1:-1] ** 2) ** 2 + (1.0 - dg) ** 2)
    rows = [[getattr(sn, c) for c in _SNAPSHOT_COLUMNS]
            + [mods[i], sn.lam_hat / sn.lam]
            for i, sn in enumerate(series.snapshots)]
    _write_csv(path, _SNAPSHOT_COLUMNS + ["mod_norm", "ratio_hat"], rows)


# --------------------------------------------------------------------------
# Configuration plumbing
# --------------------------------------------------------------------------

# Every setting: its type (a tuple lists the allowed words), its default and
# its help.  A None default is picked per subcommand by _default, and only
# such a key may be null in a config file.  List-valued keys are config-file
# keys only; every other key is also a flag.
_SETTINGS: dict[str, tuple[Any, Any, str]] = {
    "N": (int, 1, "dimension (1-3)"),
    "sigma": (float, 0.2, "inverse-power strength; sets p = 1 + 4*sigma/N"),
    "C0": (float, None, "coupling magnitude (plusminus/minusplus branches)"),
    "branch": (("plusminus", "minusplus", "balanced", "critical"),
               "balanced", "sign branch; balanced sets plusminus with C0=omega"),
    "E0": (float, 1.0, "target energy"),
    "s1": (float, 10.0, "initial rescaled time"),
    "order": (int, 2, "profile expansion order J"),
    "grid_n": (int, None, "points on the subcommand's primary grid"),
    "rmax": (float, None, "radius of the soliton/profile grid"),
    "profile_n": (int, 8192, "points on the profile grid"),
    "profile_rmax": (float, 20.0, "radius of the profile grid"),
    "dt_c": (float, None, "rescaled time step"),
    "rmax_factor": (float, None, "evolution domain size in gradient lengths"),
    "lambda_floor": (float, None, "stop when the gradient scale reaches this"),
    "snapshot_ds": (float, None, "rescaled time between decompositions"),
    "drift_abort": (float, None, "relative conservation drift abort"),
    "sigma_values": (list, None, "sigma axis of the sweep"),
    "C0_over_omega_values": (list, None, "C0/omega axis of the sweep"),
    "E0_values": (list, None, "E0 axis of the sweep"),
    "seed": (int, 0, "recorded in the manifest and the run-directory hash; "
                     "nothing is random"),
    "out": (str, "runs", "output root directory"),
}

# The settings each subcommand's pipeline reads; the parser adds one
# subcommand per key, in this order.
_GROUND = ("N", "sigma", "grid_n", "rmax", "seed", "out")
_SIMULATE = ("N", "sigma", "C0", "branch", "E0", "s1", "order", "profile_n",
             "profile_rmax", "grid_n", "dt_c", "rmax_factor", "lambda_floor",
             "snapshot_ds", "drift_abort", "seed", "out")
_READS = {
    "ground": _GROUND,
    "linops": _GROUND + ("branch",),
    "profile": _GROUND + ("C0", "branch", "order"),
    "reduced": _GROUND + ("C0", "branch", "order", "E0", "s1",
                          "lambda_floor"),
    "simulate": _SIMULATE,
    "sweep": tuple(k for k in _SIMULATE if k != "C0") + (
        "sigma_values", "C0_over_omega_values", "E0_values"),
}

# Settings of the runs that evolve (simulate, each sweep cell) and the
# SimConfig fields they set; an unset one takes the field's default.
_SIM_FIELDS = {"grid_n": "n", "rmax_factor": "rmax_factor", "dt_c": "c_dt",
               "lambda_floor": "lambda_floor", "snapshot_ds": "snapshot_ds",
               "drift_abort": "drift_abort"}


def _default(sub: str, key: str, cfg: dict) -> Any:
    """``sub``'s default for ``key``, whose _SETTINGS default is None.  The
    primary grid is the soliton grid for ground and linops, the profile grid
    for profile and reduced, and the evolution grid for simulate and sweep;
    C0 stays None (the branch picks it)."""
    if sub in ("simulate", "sweep"):
        if key in _SIM_FIELDS:
            return SimConfig.__dataclass_fields__[_SIM_FIELDS[key]].default
        return {"sigma_values": [cfg["sigma"]], "C0_over_omega_values": [1.0],
                "E0_values": [cfg["E0"]]}.get(key)
    soliton = sub in ("ground", "linops")
    return {"grid_n": 32768 if soliton else 8192,
            "rmax": default_rmax(cfg["N"]) if soliton else 20.0,
            "lambda_floor": 1e-3}.get(key)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parsing leaves it as it
    was).  Each subcommand takes a flag for each scalar setting it reads."""
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
        "sweep": "run simulate over a (sigma, C0/omega, E0) grid",
    }
    for name in _READS:
        sp = subs.add_parser(name, help=helps[name], allow_abbrev=False)
        for key in _READS[name]:
            kind, _, text = _SETTINGS[key]
            if kind is not list:
                choices = kind if isinstance(kind, tuple) else None
                sp.add_argument("--" + key.replace("_", "-"), help=text,
                                type=str if choices else kind,
                                choices=choices)
        sp.add_argument("--config", help=(
            "flat JSON object of this subcommand's settings, keyed by the "
            "flag names with '_' for '-'; flags override it"))
    return parser


def _check_config_value(path: Path, key: str, val: Any) -> None:
    """DomainError unless ``val`` has ``key``'s type (or is null where the
    key's default is None)."""
    def number(x: Any) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)
    kind, default, _ = _SETTINGS[key]
    what, ok = "a number", number(val)
    if kind is list:
        what = "a list of numbers"
        ok = isinstance(val, list) and all(map(number, val))
    elif kind is str:
        what, ok = "a string", isinstance(val, str)
    elif isinstance(kind, tuple):
        what, ok = f"one of {', '.join(kind)}", val in kind
    elif kind is int:
        what, ok = "an integer", number(val) and isinstance(val, int)
    if not (ok or val is None and default is None):
        raise DomainError(f"config file {path}: {key} must be {what}, "
                          f"got {json.dumps(val)}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Materialize the settings the subcommand reads: defaults <- config
    file <- flags, then each remaining None from _default."""
    sub, keys = args.subcommand, _READS[args.subcommand]
    cfg = {key: _SETTINGS[key][1] for key in keys}
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
        unknown = sorted(set(loaded) - set(keys))
        if unknown:
            raise DomainError(f"unknown keys in config file {path}: "
                              f"{', '.join(unknown)}")
        for key, val in loaded.items():
            _check_config_value(path, key, val)
        cfg.update(loaded)
    for key in keys:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    for key in keys:
        if cfg[key] is None:
            cfg[key] = _default(sub, key, cfg)
    # record the sign branch solved: linops' beta sweep and the sweep's
    # cells set C0 from C0/omega ratios; balanced and critical fix C0, so
    # a critical sweep has no C0/omega axis
    branch, C0 = cfg.get("branch"), cfg.get("C0")
    if sub == "linops" and branch != "minusplus" or (
            sub == "sweep" and branch == "balanced"):
        cfg["branch"] = "plusminus"
    elif sub == "sweep" and branch == "critical" and len(
            set(map(float, cfg["C0_over_omega_values"]))) > 1:
        raise DomainError("branch 'critical' fixes C0; give one "
                          "C0_over_omega value")
    elif "C0" in cfg and (C0 is None) != (branch in ("balanced", "critical")):
        raise DomainError(f"branch {branch!r} " + (
            "fixes C0; drop C0" if C0 is not None else
            "needs an explicit C0 (use --branch balanced for C0 = omega)"))
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
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_json(rundir / "manifest.json", manifest)
    (rundir.parent / "latest").write_text(rundir.name + "\n")


# --------------------------------------------------------------------------
# Shared pipeline stages
# --------------------------------------------------------------------------

def _params(cfg: dict, C0: float, branch: str):
    """cfg's parameter record; E0 is 1.0 where the subcommand has no E0
    setting (no layer reads ``ProblemParams.E0``)."""
    return make_params(cfg["N"], None, cfg["sigma"], C0, branch,
                       cfg.get("E0", 1.0))


def _resolve_branch_params(cfg: dict, omega: float,
                           c0_ratio: Optional[float] = None):
    """Turn the CLI branch word into concrete coupled parameters; a sweep
    cell's C0/omega ratio stands in for --C0."""
    branch = cfg["branch"]
    if branch == "critical":
        return _params(cfg, 0.0, "critical")
    if c0_ratio is not None:
        return _params(cfg, c0_ratio * omega, branch)
    if branch == "balanced":
        return _params(cfg, omega, "plusminus")
    return _params(cfg, cfg["C0"], branch)


def _solve_primary(cfg: dict) -> tuple[GroundState, float]:
    params = _params(cfg, 0.0, "critical")
    grid = make_grid(cfg["N"], cfg["grid_n"], cfg["rmax"])
    gs = solve_ground_state(params, grid)
    return gs, compute_omega(gs, params)


def _profile_stage(cfg: dict, c0_ratio: Optional[float] = None
                   ) -> tuple[GroundState, float, ProfileExpansion]:
    params = _params(cfg, 0.0, "critical")
    grid = make_grid(cfg["N"], cfg["profile_n"], cfg["profile_rmax"])
    gs = solve_ground_state(params, grid)
    omega = compute_omega(gs, params)
    run_params = _resolve_branch_params(cfg, omega, c0_ratio)
    expansion = build_profile(gs, run_params, order=cfg["order"])
    return gs, omega, expansion


def _simulate_stage(cfg: dict, expansion: ProfileExpansion):
    """Evolve cfg's run from ``expansion``: the snapshot series and the
    rate exponent of the series' regime."""
    sim_cfg = SimConfig(params=expansion.params,
                        **{name: cfg[key] for key, name in _SIM_FIELDS.items()})
    series = simulate_blowup(sim_cfg, expansion, cfg["E0"], cfg["s1"])
    return series, rate_exponent(series.regime, expansion.params.alpha)


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
        "iterations": dict(gs.iterations),
        "alpha": gs.params.alpha,
        "p": gs.params.p,
        "grid": {"n": gs.grid.n, "rmax": gs.grid.rmax},
    }
    _write_json(rundir / "ground.json", report)
    Q = gs.Q.values
    _write_csv(rundir / "ground.csv", ["r", "re", "im"],
               zip(gs.grid.nodes, np.real(Q), np.imag(Q)))
    return {"Q0": gs.Q0, "omega": omega,
            "elliptic_inf": gs.residual_inf}


def _pipe_linops(cfg: dict, rundir: Path) -> dict:
    gs, omega = _solve_primary(cfg)
    residuals = operator_identity_residuals(gs)
    report = {
        "identity_residuals": residuals,
        "omega": omega,
        "lplus_unconstrained_min": lplus_unconstrained_min(gs),
        "lminus_unconstrained_min": lminus_unconstrained_min(gs),
        "constrained_min_eig": coercivity_spectrum(gs),
    }
    _write_json(rundir / "linops.json", report)

    rows = []
    for ratio in (0.5, 0.75, 1.0, 1.5, 2.0):
        params_c = _params(cfg, ratio * omega, cfg["branch"])
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
    for j, k, Pp, Pm, beta, c, nu in zip(
            expansion.j, expansion.k, expansion.Pp, expansion.Pm,
            expansion.beta, expansion.c, expansion.nu):
        entries.append({"j": j, "k": k, "beta": beta, "c": c, "nu": nu})
        field_cols[f"Pplus_{j}{k}"] = Pp
        field_cols[f"Pminus_{j}{k}"] = Pm
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
    beta00 = expansion.beta00
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
    try:
        traj = integrate_reduced(expansion, [s1, 1e7], lam1, b1,
                                 n_points=2000, lambda_floor=cfg["lambda_floor"])
    except RuntimeError as exc:
        raise DomainError(f"no reduced trajectory: {exc}") from exc
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
    series, expected_exponent = _simulate_stage(cfg, expansion)
    _write_snapshots(rundir / "snapshots.csv", series)

    drifts = [sn.drift for sn in series.snapshots]
    conservation = {
        "mass0": series.mass0,
        "energy0": series.energy0,
        "max_drift": max(drifts) if drifts else float("nan"),
        "n_snapshots": len(series.snapshots),
        "regrids": series.regrid_log,
    }
    _write_json(rundir / "conservation.json", conservation)

    try:
        fit = fit_blowup_rate(series)
    except RuntimeError as exc:
        raise DomainError(
            f"no rate fit: {exc}"
            + (f" ({series.abort_reason})" if series.abort_reason else "")
        ) from exc
    expected_coefficient = (math.sqrt(8.0 * cfg["E0"] / gs.norms["virial"])
                            if series.regime == "balanced" else float("nan"))
    _write_json(rundir / "ratefit.json", {
        "exponent": fit.exponent, "coefficient": fit.coefficient,
        "T_est": fit.T_est, "r2": fit.r2, "n_points": fit.n_points,
        "window": list(fit.window),
        "expected_exponent": expected_exponent,
        "expected_coefficient": expected_coefficient,
    })

    lb_inf = lower_bound_check(series, fit, expansion.params)
    verdicts = {
        "initial_energy": series.energy0,
        "energy_positive": series.energy0 > 0.0,
        "lower_bound_infimum": lb_inf,
        "lower_bound_positive": bool(lb_inf > 0.0),
        "max_drift": conservation["max_drift"],
        "tube_exit": series.tube_exit,
        "truncated": series.truncated,
        "abort_reason": series.abort_reason,
        "lambda1": series.lam1, "b1": series.b1,
    }
    _write_json(rundir / "verdicts.json", verdicts)
    return {"exponent": fit.exponent, "coefficient": fit.coefficient,
            "expected_exponent": expected_exponent,
            "max_drift": conservation["max_drift"],
            "tube_exit": series.tube_exit}


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
        series, row["expected_exponent"] = _simulate_stage(cell, expansion)
        row["tube_exit"] = series.tube_exit
        fit = fit_blowup_rate(series)
        row["exponent"] = fit.exponent
        row["coefficient"] = fit.coefficient
        row["r2"] = fit.r2
    except Exception as exc:  # per-cell failures recorded, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _pipe_sweep(cfg: dict, rundir: Path) -> dict:
    # an empty axis is an empty grid
    sigmas, ratios, energies = (cfg[key] for key in (
        "sigma_values", "C0_over_omega_values", "E0_values"))
    points = list(dict.fromkeys(
        (float(s), float(r), float(e))
        for s in sigmas for r in ratios for e in energies))
    cells = [dict(cfg, sigma=s, c0_ratio=r, E0=e)
             for s, r, e in points]

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if not cells:
        rows = []
    elif len(cells) == 1 or cpus == 1:
        rows = [_sweep_cell(cell) for cell in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(len(cells), cpus)) as pool:
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
    "sweep": _pipe_sweep,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, run the pipeline, write manifest; return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        t0 = time.perf_counter()
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
