"""The three workloads: blow-up rates, tube decompositions, CLI reports.

A workload is driven only through the public functions of ``nlsblowup``
and ``nlsblowup.cli.run``.  Functions are looked up on their module at
call time (``sim.simulate_blowup(...)``), so the tracer's wrappers see
every call.  ``setup`` builds what every round shares and may be repeated;
``inputs`` draws one round's cases from the seeded generator; ``op`` runs
one case as one operation under ``clock``, the run's timer, and checks its
outputs afterwards, outside the timer.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nlsblowup import cli, core, groundstate, modulation, profile, sim

import checks

PROFILE_N, PROFILE_RMAX = 8192, 20.0      # the expansion grid of every run


@dataclass
class Op:
    name: str
    seconds: float                      # wall time, kernel samples excluded
    failed: bool = False
    scaled: float = 0.0                 # seconds at the reference speed
    problems: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)   # counters for the trace


def _profile_setup(ratios=(1.0,)):
    """Ground state on the profile grid, omega, and one expansion per
    C0/omega ratio on the C1 > 0 > C2 branch (1.0 is the balanced one)."""
    crit = core.make_params(1, None, checks.SIGMA, 0.0, "critical", 1.0)
    gs = groundstate.solve_ground_state(
        crit, core.make_grid(1, PROFILE_N, PROFILE_RMAX))
    omega = groundstate.compute_omega(gs, crit)
    out = []
    for ratio in ratios:
        params = core.make_params(1, None, checks.SIGMA, ratio * omega,
                                  "plusminus", 1.0)
        params.omega = omega
        out.append((params, profile.build_profile(gs, params, order=2)))
    return out


def _timed(name: str, fn, clock, span_name=None) -> tuple[Op, object]:
    """Run fn() as one operation under ``clock``, the run's timer, in a
    span named ``span_name`` (default: the operation's name); an exception
    marks it failed."""
    op = Op(name, 0.0)
    try:
        with clock(op, span_name):
            result = fn()
    except Exception as exc:  # the run goes on; the failure is counted
        op.failed = True
        op.problems = [f"{type(exc).__name__}: {exc}"]
        return op, None
    return op, result


# --------------------------------------------------------------------------
# blowup
# --------------------------------------------------------------------------

class Blowup:
    """One balanced (C0 = omega) and one power-law (C0 ~ 2 omega) run, each
    from s1 = 10 down DECADES decades of scale, to a validated rate fit."""

    name = "blowup"
    N_GRID = 4096
    RMAX_FACTOR = 64.0
    C_DT = 8.5e-4
    S1 = 10.0
    DECADES = 0.35      # past one regrid (lambda_hat halves at 0.30)

    def __init__(self, seed: int, ref: checks.Reference) -> None:
        rng = np.random.default_rng(seed)
        self.E0 = float(1.0 + 0.05 * rng.uniform(-1.0, 1.0))
        self.ratio = float(2.0 + 0.05 * rng.uniform(-1.0, 1.0))
        self.ref = ref

    def describe(self) -> str:
        return (f"n={self.N_GRID} E0={self.E0:.6f} "
                f"C0/omega={self.ratio:.6f} decades={self.DECADES}")

    def setup(self) -> None:
        self.cases = list(zip(("balanced", "power-law"),
                              _profile_setup((1.0, self.ratio))))

    def inputs(self):
        return self.cases

    def _rate(self, params, expansion):
        cfg = sim.SimConfig(params=params, n=self.N_GRID,
                            rmax_factor=self.RMAX_FACTOR, c_dt=self.C_DT)
        u0, lam1, _ = sim.initial_datum(cfg, expansion, self.E0, self.S1)
        cfg.lambda_floor = lam1 / 10.0 ** self.DECADES
        series = sim.simulate_blowup(cfg, expansion, self.E0, self.S1)
        fit = sim.fit_blowup_rate(series)
        bound = sim.lower_bound_check(series, fit, params)
        energy0, _ = sim.energy_positivity_check(u0, params)
        return cfg, series, fit, bound, energy0

    def op(self, case, clock) -> Op:
        regime, (params, expansion) = case
        op, res = _timed(f"rate_{regime.replace('-', '')}",
                         lambda: self._rate(params, expansion), clock)
        if res is not None:
            cfg, series, fit, bound, energy0 = res
            snaps = series.snapshots
            out = {
                "regime": regime, "E0": self.E0,
                "exponent": fit.exponent, "coefficient": fit.coefficient,
                "lam_s_last": snaps[-1].lam * snaps[-1].s,
                "mass_rel_max": max(abs(sn.mass / series.mass0 - 1.0)
                                    for sn in snaps),
                "drift_max": max(sn.drift for sn in snaps),
                "drift_abort": cfg.drift_abort,
                "truncated": series.truncated,
                "n_snapshots": len(snaps), "lower_bound": bound,
                "energy0": energy0,
            }
            op.problems = checks.check_blowup(out, self.ref)
            # each step advances rescaled time by exactly c_dt
            steps = round((snaps[-1].s - self.S1) / cfg.c_dt)
            op.stats = {"steps": steps, "point_steps": steps * cfg.n,
                        "snapshots": len(snaps),
                        "regrids": len(series.regrid_log)}
        return op


# --------------------------------------------------------------------------
# tube
# --------------------------------------------------------------------------

class Tube:
    """Cold decompose -> reconstruct round trips of known tube states on a
    fine field grid, from an exact guess, a biased guess and under a
    constant phase shift (STATES states, three operations each)."""

    name = "tube"
    FIELD_N, FIELD_RMAX = 16384, 12.0
    STATES = 4

    def __init__(self, seed: int, ref: checks.Reference) -> None:
        self.rng = np.random.default_rng(seed)
        self.ref = ref

    def describe(self) -> str:
        return (f"field n={self.FIELD_N} rmax={self.FIELD_RMAX}, "
                f"{self.STATES} states x 3 guesses per round")

    def setup(self) -> None:
        (_, self.expansion), = _profile_setup()
        self.grid = core.make_grid(1, self.FIELD_N, self.FIELD_RMAX)

    def inputs(self):
        cases = []
        for _ in range(self.STATES):
            lam = float(self.rng.uniform(0.15, 0.35))
            b = float(self.rng.uniform(-0.1, 0.1))
            gamma = float(self.rng.uniform(-math.pi, math.pi))
            shift = float(self.rng.uniform(0.1, 1.0))
            P, _ = profile.eval_profile(self.expansion, lam, b)
            u = profile.rescale_to_physical(P, lam, b, gamma, self.grid)
            shifted = core.RadialField(self.grid,
                                       u.values * np.exp(1j * shift))
            known = (lam, b, gamma)
            cases += [
                ("exact", u, known, (lam, b, gamma)),
                ("biased", u, known, (lam * 1.05, b + 0.01, gamma + 0.1)),
                ("phase", shifted, (lam, b, gamma + shift),
                 (lam, b, gamma + shift)),
            ]
        return cases

    def _trip(self, u, guess):
        state = modulation.decompose(u, self.expansion, guess)
        return state, modulation.reconstruct(state, self.grid)

    def op(self, case, clock) -> Op:
        kind, u, (lam, b, gamma), guess = case
        op, res = _timed(f"decompose_{kind}",
                         lambda: self._trip(u, guess), clock)
        if res is not None:
            state, back = res
            defect = float(np.max(np.abs(back.values - u.values))
                           / np.max(np.abs(u.values)))
            op.problems = checks.check_tube({
                "lam": lam, "b": b, "gamma": gamma,
                "lam_fit": state.lam, "b_fit": state.b,
                "gamma_fit": state.gamma, "recon_defect": defect})
        return op


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

class Reports:
    """The ground, linops, profile and reduced subcommands through
    ``cli.run``, writing into a scratch output root."""

    name = "reports"
    LINOPS_N = 2048      # the CLI default 32768 needs 8 GiB in lminus
    FLOOR = 1e-3         # the reduced subcommand's default scale floor

    def __init__(self, seed: int, ref: checks.Reference) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.ref = ref
        self.root = (Path(__file__).resolve().parent / "out"
                     / f"reports-seed{seed}")

    def describe(self) -> str:
        return (f"ground n=32768, linops n={self.LINOPS_N}, profile and "
                f"reduced n={PROFILE_N}, reduced E0 drawn in [0.8, 1.25]")

    def setup(self) -> None:
        _profile_setup()
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)

    def inputs(self):
        E0 = float(self.rng.uniform(0.8, 1.25))
        common = ["--out", str(self.root), "--seed", str(self.seed)]
        return [("ground", ["ground"] + common, None),
                ("linops", ["linops", "--grid-n", str(self.LINOPS_N)]
                 + common, None),
                ("profile", ["profile"] + common, None),
                ("reduced", ["reduced", "--E0", repr(E0)] + common, E0)]

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {buf.getvalue().strip()}")
        return Path(json.loads(buf.getvalue())["outdir"])

    def _check(self, sub: str, outdir: Path, E0) -> list[str]:
        report = json.loads((outdir / f"{sub}.json").read_text())
        if sub == "ground":
            return checks.check_ground(report, self.ref)
        if sub == "linops":
            with open(outdir / "beta_sweep.csv", newline="") as fh:
                rows = [{k: float(v) for k, v in row.items()}
                        for row in csv.DictReader(fh)]
            return checks.check_linops(report, rows, self.ref)
        if sub == "profile":
            return checks.check_profile(report, self.ref)
        return checks.check_reduced(report, E0, self.FLOOR, self.ref)

    def op(self, case, clock) -> Op:
        sub, argv, E0 = case
        op, outdir = _timed(sub, lambda: self._cli(argv), clock,
                            f"cli.{sub}")
        if outdir is not None:
            op.problems = self._check(sub, outdir, E0)
            op.stats = {"artifact_bytes": sum(
                p.stat().st_size for p in outdir.iterdir())}
        return op


WORKLOADS = {"blowup": Blowup, "tube": Tube, "reports": Reports}
