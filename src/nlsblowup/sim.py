"""Radial NLS propagation, dynamic rescaling, and blow-up rate fitting.

The propagator is a Strang splitting: a half-step of exact pointwise
phase rotation by the local terms (|u|^(q-1) + C1 |u|^(p-1) + C2 V(r)),
a full Crank-Nicolson step of the grid's one discrete -Lap (fourth-order
for N = 1, flux form for N = 2, 3), and a second phase
half-step.  The rotation leaves |u| unchanged, so a march fuses each
step's trailing half-step into the next one's leading half-step (one
rotation per step); both substeps conserve the discrete mass.

Blow-up runs start from profile data, tie the time step to the gradient
scale (dt = c_dt * lambda_hat^2, so each step advances rescaled time by
exactly c_dt), shrink the grid by the rescale factor whenever lambda_hat
halves, and decompose snapshots through the modulation machinery.  The
step's lambda_hat comes free from the linear substep, which returns
grad_norm_sq of the step's midpoint field; snapshots and regrids
recompute it on the stepped field.  Rate fits are joint nonlinear fits
of lambda(t) = c (T - t)^e over the last decade of scale decrease.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import dct
from scipy.optimize import minimize_scalar

from .core import (Operator, ProblemParams, RadialField, RadialGrid,
                   grad_norm_sq, integrate, make_grid, norm_L2, norm_Lq,
                   penta_symbol, potential_weights)
from .groundstate import GroundState
from .modulation import TubeExit, decompose, lyapunov_S
from .profile import (ProfileExpansion, even_spline, eval_profile,
                      rescale_to_physical)
from .reduced import classify_regime, initial_params, rate_exponent

__all__ = [
    "SimConfig",
    "RateFit",
    "Snapshot",
    "SnapshotSeries",
    "step",
    "propagate",
    "conserved",
    "pseudo_conformal_reference",
    "initial_datum",
    "simulate_blowup",
    "fit_blowup_rate",
    "lambda_hat",
    "lower_bound_check",
    "energy_positivity_check",
]


# --------------------------------------------------------------------------
# Configuration and result records
# --------------------------------------------------------------------------

@dataclass
class SimConfig:
    """Simulation policy: grid sizing, time step, rescaling, stopping."""

    params: ProblemParams
    n: int = 8192
    rmax_factor: float = 64.0        # initial rmax = rmax_factor * lambda1
    c_dt: float = 8.5e-4             # dt = c_dt * lambda_hat^2
    rescale_factor: float = 2.0      # regrid when lambda_hat shrinks by this
    lambda_floor: Optional[float] = None   # stop scale; None = lambda1/10^1.02
    max_steps: int = 2_000_000
    wall_budget_s: float = 3600.0
    snapshot_ds: float = 0.25        # rescaled time between decompositions
    drift_abort: float = 1e-6        # relative conservation drift abort

    def __post_init__(self) -> None:
        if not (0.0 < self.c_dt <= 0.1):
            raise ValueError("c_dt must lie in (0, 0.1]")
        if self.rescale_factor <= 1.0:
            raise ValueError("rescale_factor must exceed 1")
        if self.n < 64 or self.rmax_factor <= 8.0:
            raise ValueError("grid policy too coarse to resolve the profile")


@dataclass
class RateFit:
    """Fitted lambda(t) = coefficient * (T_est - t)^exponent."""

    exponent: float
    coefficient: float
    window: tuple[float, float]
    T_est: float
    r2: float
    n_points: int = 0


@dataclass
class Snapshot:
    """Per-decomposition diagnostics along a blow-up run."""

    t: float
    s: float
    lam: float
    b: float
    gamma: float
    eps_H1: float
    eps_P: float
    lam_hat: float
    grad_norm: float
    mass: float
    energy: float
    lyap: float
    drift: float = 0.0


@dataclass
class SnapshotSeries:
    """A blow-up run: snapshots plus run-level records.  ``regime`` is
    ``reduced.classify_regime`` of the run's expansion."""

    snapshots: list[Snapshot]
    E0: float
    s1: float
    mass0: float
    energy0: float
    regime: str
    truncated: bool = False
    tube_exit: bool = False
    abort_reason: str = ""
    regrid_log: list[dict] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(sn, name) for sn in self.snapshots])

    def mod_norms(self) -> np.ndarray:
        """|Mod| per interior snapshot via centered differences in s.

        Mod = (lambda_s/lambda + b, b_s + b^2, 1 - gamma_s) evaluated from
        the decomposed parameter tracks; endpoints get NaN.
        """
        s = self.column("s")
        lam = self.column("lam")
        b = self.column("b")
        gam = self.column("gamma")
        out = np.full(s.size, np.nan)
        for i in range(1, s.size - 1):
            ds = s[i + 1] - s[i - 1]
            dl = (lam[i + 1] - lam[i - 1]) / ds
            db = (b[i + 1] - b[i - 1]) / ds
            dg = (gam[i + 1] - gam[i - 1]) / ds
            out[i] = math.sqrt((dl / lam[i] + b[i]) ** 2
                               + (db + b[i] ** 2) ** 2 + (1.0 - dg) ** 2)
        return out

    def to_csv(self, path: str) -> None:
        import csv

        mods = self.mod_norms()
        cols = ["t", "s", "lam", "b", "gamma", "eps_H1", "eps_P", "lam_hat",
                "grad_norm", "mass", "energy", "lyap", "drift"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols + ["mod_norm", "ratio_hat"])
            for i, sn in enumerate(self.snapshots):
                row = [f"{getattr(sn, c):.17g}" for c in cols]
                row.append(f"{mods[i]:.17g}")
                row.append(f"{sn.lam_hat / sn.lam:.17g}")
                writer.writerow(row)


# --------------------------------------------------------------------------
# Strang-split propagator
# --------------------------------------------------------------------------

def _dct4(v: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-IV (its own inverse) of a contiguous complex vector,
    as one real transform of both columns of its float (n, 2) view."""
    w = dct(v.view(np.float64).reshape(-1, 2), type=4, norm="ortho", axis=0)
    return w.view(np.complex128).ravel()


class _Stepper:
    """Cached propagator state for repeated steps on a fixed grid.

    ``rotate`` is the exact flow of the local terms; rotations by a and b
    compose to one by a + b, since neither changes |v|.  ``linear`` is the
    Crank-Nicolson substep of the grid's -Lap: where it has a symbol mu
    (N = 1: diagonal in the quarter-wave cosine basis) two orthonormal
    DCT-IV transforms around the exactly unimodular multiplier
    (1 - i dt mu / 2) / (1 + i dt mu / 2), elsewhere a banded solve of
    1 + z(-Lap) = z(-Lap + 1/z), z = i dt / 2.  It
    conserves g = <v, -Lap v> = grad_norm_sq(v) and returns it from what it
    computes anyway: h * surface * sum mu |w_k|^2 on the cosine coefficients
    w, or the integral of conj(v) (-Lap v) on the banded path.  A NaN
    anywhere in v makes g NaN.
    """

    def __init__(self, grid: RadialGrid, params: ProblemParams, dt: float,
                 *, linear_only: bool = False) -> None:
        self.grid = grid
        self.params = params
        self.linear_only = linear_only
        self.spectral = grid.fourth_order
        if self.spectral:
            self._symbol = penta_symbol(grid)
            self._mult = np.empty(grid.n, dtype=complex)
            self._gscale = grid.surface * grid.h
        else:
            self._lap = Operator.of(grid, 0.0)
        self.potential = (params.C2 * potential_weights(grid, params.sigma)
                          if params.C2 != 0.0 and not linear_only else None)
        self.set_dt(dt)

    def set_dt(self, dt: float) -> None:
        """Rebuild the dt-dependent Crank-Nicolson arrays (O(n) vector ops)."""
        self.dt = dt
        if self.spectral:
            # (1 - i y) / (1 + i y) = 2 / (1 + y^2) - 1 - 2 i y / (1 + y^2)
            # with y = dt mu / 2, in real arithmetic
            x = (-0.5 * dt) * self._symbol
            d = 2.0 / (1.0 + x * x)
            np.subtract(d, 1.0, out=self._mult.real)
            np.multiply(x, d, out=self._mult.imag)
            return
        self._z = 0.5j * dt
        self._cn = self._lap.shifted(-1.0 / self._z)

    def rotate(self, v: np.ndarray, angle: float) -> np.ndarray:
        """Exact flow of the local terms over time ``angle``:
        v exp(i angle (|v|^(q-1) + C1 |v|^(p-1) + C2 V))."""
        if self.linear_only or angle == 0.0:
            return v
        p = self.params
        a2 = v.real ** 2 + v.imag ** 2
        rot = a2 ** (0.5 * (p.q - 1.0))
        if p.C1 != 0.0:
            rot += p.C1 * a2 ** (0.5 * (p.p - 1.0))
        if self.potential is not None:
            rot += self.potential
        rot *= angle
        out = np.empty_like(v)
        np.cos(rot, out=out.real)
        np.sin(rot, out=out.imag)
        out *= v
        return out

    def linear(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """Crank-Nicolson substep by dt, and the g = <v, -Lap v> it keeps."""
        if self.spectral:
            w = _dct4(v)
            g = self._gscale * float(np.dot(self._symbol,
                                            w.real ** 2 + w.imag ** 2))
            w *= self._mult
            return _dct4(w), g
        Av = self._lap.matvec(v)
        g = float(np.real(integrate(self.grid, np.conj(v) * Av)))
        # no finiteness check: a NaN must reach g
        return self._cn.solve(v / self._z - Av, check_finite=False), g


def step(u: RadialField, dt: float, params: ProblemParams,
         *, linear_only: bool = False) -> RadialField:
    """One Strang-split step (phase half, Crank-Nicolson, phase half)."""

    return propagate(u, dt, 1, params, linear_only=linear_only)


def propagate(u: RadialField, dt: float, n_steps: int, params: ProblemParams,
              *, linear_only: bool = False) -> RadialField:
    """March n_steps Strang steps of size dt, fused first-same-as-last.

    Each step rotates once, by its leading half-angle plus the previous
    step's trailing one, and the last trailing half-angle is applied at
    the end.  Raises at the first step whose field is non-finite.
    """

    stepper = _Stepper(u.grid, params, dt, linear_only=linear_only)
    v = u.values.astype(complex)
    pending = 0.0
    for k in range(n_steps):
        v, g = stepper.linear(stepper.rotate(v, pending + 0.5 * dt))
        if not math.isfinite(g):
            raise RuntimeError(f"non-finite field at step {k}")
        pending = 0.5 * dt
    v = stepper.rotate(v, pending)
    if not np.all(np.isfinite(v)):
        raise RuntimeError("non-finite field at final step")
    return RadialField(u.grid, v)


# --------------------------------------------------------------------------
# Conserved quantities and exact references
# --------------------------------------------------------------------------

def conserved(u: RadialField, params: ProblemParams) -> tuple[float, float]:
    """(mass, energy) = (||u||_2^2, E(u)) by quadrature on u's grid.

    The kinetic term is ``grad_norm_sq``, the quadratic form of the grid's
    one discrete -Lap, which the propagator also uses (fourth-order in one
    dimension), so the semi-discrete flow conserves this energy exactly and
    any measured drift isolates the time-splitting error.
    """

    m = params.mcrit
    mass = norm_L2(u) ** 2
    energy = 0.5 * grad_norm_sq(u) - norm_Lq(u, m) ** m / m
    if params.C1 != 0.0:
        energy -= params.C1 / (params.p + 1.0) * norm_Lq(u, params.p + 1.0) ** (params.p + 1.0)
    if params.C2 != 0.0:
        V = potential_weights(u.grid, params.sigma)
        energy -= 0.5 * params.C2 * float(np.real(
            integrate(u.grid, V * np.abs(u.values) ** 2)))
    return mass, energy


def pseudo_conformal_reference(t: float, grid: RadialGrid,
                               groundstate: GroundState) -> RadialField:
    """Exact critical-branch solution |t|^{-N/2} Q(x/|t|) e^{-i/t} e^{i x^2/(4t)}.

    Valid for t < 0 (blow-up at t = 0); the soliton is sampled by spline
    and zeroed beyond the source support.
    """

    if t >= 0.0:
        raise ValueError("pseudo-conformal reference requires t < 0")
    N = grid.N
    x = grid.nodes
    spl = even_spline(groundstate.Q)
    y = x / abs(t)
    qv = np.where(y <= groundstate.grid.rmax, spl(y), 0.0)
    vals = (abs(t) ** (-0.5 * N) * qv
            * np.exp(-1j / t) * np.exp(0.25j * x ** 2 / t))
    return RadialField(grid, vals)


def lambda_hat(u: RadialField, groundstate: GroundState) -> float:
    """Gradient-ratio scale ||grad Q||_2 / ||grad u||_2."""

    g = grad_norm_sq(u)
    if g <= 0.0:
        raise ValueError("lambda_hat needs a field with gradient energy")
    return math.sqrt(groundstate.norms["grad"] / g)


# --------------------------------------------------------------------------
# Blow-up driver
# --------------------------------------------------------------------------

def _regrid(v: np.ndarray, grid: RadialGrid, factor: float) -> tuple[np.ndarray, RadialGrid]:
    """Shrink the domain by `factor` (same n), quintic resample.

    Quintic rather than cubic: at the regrid trigger the core is resolved
    by rescale_factor fewer points per width, and a cubic resample there
    injects an O((h/width)^3) kinetic-energy error that dominates the
    conservation budget; degree 5 pushes the injection below it.
    """

    new_grid = make_grid(grid.N, grid.n, grid.rmax / factor)
    f = RadialField(grid, v)
    spl = even_spline(f, k=5)
    return spl(new_grid.nodes), new_grid


def initial_datum(config: SimConfig, expansion: ProfileExpansion,
                  E0: float, s1: float) -> tuple[RadialField, float, float]:
    """Construct the physical initial field and its (lambda1, b1).

    (lambda1, b1) is ``reduced.initial_params``: energy-matched on a
    balanced run, the power-law solution otherwise.  The physical grid
    spans rmax_factor gradient lengths of the initial bubble.
    """

    lam1, b1 = initial_params(expansion, E0, s1)
    grid = make_grid(config.params.N, config.n, config.rmax_factor * lam1)
    u = rescale_to_physical(eval_profile(expansion, lam1, b1)[0],
                            lam1, b1, 0.0, grid)
    return u, lam1, b1


def simulate_blowup(config: SimConfig, expansion: ProfileExpansion,
                    E0: float, s1: float) -> SnapshotSeries:
    """Evolve profile initial data to the lambda_hat floor with snapshots.

    Initial data come from ``initial_datum``.  Each step uses
    dt = c_dt * lambda_hat^2, lambda_hat of the previous step's midpoint
    field (one step advances rescaled time by exactly c_dt), and raises on
    a non-finite field.  When lambda_hat shrinks by the rescale factor,
    the domain is shrunk by the same factor on the same point count and
    conserved quantities are logged before/after.
    Snapshots every snapshot_ds are decomposed with the previous state
    (advanced one Euler step of the reduced flow) as the Newton seed.
    Tube exit truncates the run; conservation drift beyond drift_abort
    aborts it.  Drift semantics: mass relative to the initial value
    (globally conserved), energy relative to the value re-logged at the
    most recent regrid and normalized by the current energy scale; the
    regrid jumps themselves (marginal-band re-quadrature, not a loss of
    the flow) stay available in regrid_log.
    """

    gs = expansion.gs
    params = config.params
    u, lam1, b1 = initial_datum(config, expansion, E0, s1)
    # Default stopping scale: just over one decade below lambda1, the
    # minimum span the rate fit accepts.
    floor = (config.lambda_floor if config.lambda_floor is not None
             else lam1 / 10.0 ** 1.02)
    grid = u.grid
    v = u.values.astype(complex)
    mass0, energy0 = conserved(u, params)

    series = SnapshotSeries(snapshots=[], E0=E0, s1=s1, mass0=mass0,
                            energy0=energy0,
                            regime=classify_regime(expansion))
    energy_ref = energy0
    t = 0.0
    s = s1
    guess = (lam1, b1, 0.0)
    s_next_snap = s1
    lam_h = lam_hat_regrid = lambda_hat(u, gs)
    stepper = _Stepper(grid, params, config.c_dt * lam_h ** 2)
    # Trailing phase half-angle of the last step, not yet applied to v: the
    # next step's leading half-angle joins it (first-same-as-last), and
    # snapshots and regrids apply it first, so they see the stepped field.
    pending = 0.0
    t_wall = time.time()

    for n_step in range(config.max_steps):
        if s >= s_next_snap - 1e-12:
            v, pending = stepper.rotate(v, pending), 0.0
            field = RadialField(grid, v)
            lam_h = lambda_hat(field, gs)
            mass, energy = conserved(field, params)
            # Conservation monitor.  Mass is compared against the global
            # initial value (the stepping is unitary, regrids conserve it to
            # interpolation accuracy).  Energy is compared against the value
            # re-logged at the last regrid: the discrete energy is an O(1)
            # cancellation of kinetic-sized terms whose quadrature re-prices
            # the marginal radiation band every time the grid changes, so
            # only the within-epoch drift measures the scheme's conservation
            # error; it is normalized by the current energy scale
            # (kinetic + |reference|) for the same reason.
            kinetic = 0.5 * grad_norm_sq(field)
            drift = max(abs(mass / mass0 - 1.0),
                        abs(energy - energy_ref) / (kinetic + abs(energy_ref)))
            if drift > config.drift_abort:
                series.abort_reason = (
                    f"conservation drift {drift:.3e} beyond {config.drift_abort}")
                series.truncated = True
                break
            try:
                state = decompose(field, expansion, guess, s=s, t=t)
            except TubeExit as exc:
                series.tube_exit = True
                series.truncated = True
                series.abort_reason = str(exc)
                break
            lyap = lyapunov_S(state, params)
            series.snapshots.append(Snapshot(
                t=t, s=s, lam=state.lam, b=state.b, gamma=state.gamma,
                eps_H1=state.eps_H1, eps_P=state.eps_P, lam_hat=lam_h,
                grad_norm=math.sqrt(grad_norm_sq(field)),
                mass=mass, energy=energy, lyap=lyap, drift=drift))
            ds = config.snapshot_ds
            theta = expansion.theta(state.lam, state.b)
            guess = (state.lam * (1.0 - ds * state.b),
                     state.b + ds * (theta - state.b ** 2),
                     state.gamma + ds)
            s_next_snap += ds

        if lam_h <= floor:
            break
        if time.time() - t_wall > config.wall_budget_s:
            series.abort_reason = "wall budget exhausted"
            series.truncated = True
            break

        if lam_h <= lam_hat_regrid / config.rescale_factor:
            v, pending = stepper.rotate(v, pending), 0.0
            field = RadialField(grid, v)
            lam_h = lambda_hat(field, gs)
            before = conserved(field, params)
            v, grid = _regrid(v, grid, config.rescale_factor)
            after = conserved(RadialField(grid, v), params)
            series.regrid_log.append({
                "t": t, "s": s, "lam_hat": lam_h, "rmax": grid.rmax,
                "mass_before": before[0], "mass_after": after[0],
                "energy_before": before[1], "energy_after": after[1]})
            lam_hat_regrid = lam_h
            energy_ref = after[1]
            stepper = _Stepper(grid, params, stepper.dt)

        # dt tracks lambda_hat^2 step by step (lambda_hat of the last step's
        # midpoint field), so one step always advances rescaled time by
        # c_dt; letting dt lag within a regrid epoch would grow the effective
        # rescaled step (and the splitting error rate with its square) as
        # the solution keeps focusing.
        stepper.set_dt(config.c_dt * lam_h ** 2)
        dt = stepper.dt
        v, g = stepper.linear(stepper.rotate(v, pending + 0.5 * dt))
        if not math.isfinite(g):
            raise RuntimeError(f"non-finite field at step {n_step} (t={t:.6g})")
        pending = 0.5 * dt
        t += dt
        s += dt / lam_h ** 2
        lam_h = math.sqrt(gs.norms["grad"] / g)
    else:
        series.abort_reason = "max_steps exhausted"
        series.truncated = True

    return series


# --------------------------------------------------------------------------
# Rate fitting and theorem checks
# --------------------------------------------------------------------------

def _fit_window(series: SnapshotSeries) -> list[Snapshot]:
    """Last decade of lambda decrease, excluding the bottom 10% (log scale)."""

    snaps = [sn for sn in series.snapshots if sn.lam > 0]
    if not snaps:
        return []
    lam_min = min(sn.lam for sn in snaps)
    lo, hi = 10.0 ** 0.1 * lam_min, 10.0 * lam_min
    return [sn for sn in snaps if lo <= sn.lam <= hi]


def fit_blowup_rate(series: SnapshotSeries,
                    window: Optional[list[Snapshot]] = None) -> RateFit:
    """Joint fit of lambda(t) = c (T - t)^e on log lambda.

    The blow-up time is the outer variable: for each T the best (ln c, e)
    is a linear least-squares solve, and T minimizes the residual.
    """

    snaps = window if window is not None else _fit_window(series)
    if len(snaps) < 5:
        raise RuntimeError(f"rate fit needs >= 5 snapshots in window, got {len(snaps)}")
    tt = np.array([sn.t for sn in snaps])
    ll = np.log([sn.lam for sn in snaps])
    t_max = tt.max()
    span = max(t_max - tt.min(), 1e-12)

    def sse(T: float) -> float:
        x = np.log(T - tt)
        A = np.column_stack([np.ones_like(x), x])
        coef, res, *_ = np.linalg.lstsq(A, ll, rcond=None)
        r = ll - A @ coef
        return float(r @ r)

    res = minimize_scalar(sse, bounds=(t_max + 1e-9 * span, t_max + 10.0 * span),
                          method="bounded",
                          options={"xatol": 1e-13 * span})
    T = float(res.x)
    x = np.log(T - tt)
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, ll, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((ll - fitted) ** 2))
    ss_tot = float(np.sum((ll - ll.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(exponent=float(coef[1]), coefficient=float(math.exp(coef[0])),
                   window=(float(tt.min()), float(t_max)), T_est=T,
                   r2=max(0.0, min(1.0, r2)), n_points=len(snaps))


def lower_bound_check(series: SnapshotSeries, ratefit: RateFit,
                      params: ProblemParams) -> float:
    """min over the fit window of ||grad u|| * (T_est - t)^q.

    q = ``reduced.rate_exponent`` of the series' regime: 1 when balanced,
    2/(4 - alpha) for the power law; a strictly positive result is the
    desk-scale form of the gradient lower bounds.
    """

    q = rate_exponent(series.regime, params.alpha)
    t_a, t_b = ratefit.window
    vals = [sn.grad_norm * (ratefit.T_est - sn.t) ** q
            for sn in series.snapshots if t_a <= sn.t <= t_b]
    if not vals:
        raise RuntimeError("no snapshots inside the fit window")
    return float(min(vals))


def energy_positivity_check(u0: RadialField,
                            params: ProblemParams) -> tuple[float, bool]:
    """Energy of the initial datum and the verdict E > 0."""

    _, energy = conserved(u0, params)
    return energy, energy > 0.0
