"""Radial NLS propagation, dynamic rescaling, and blow-up rate fitting.

The propagator is a Strang splitting: a half-step of exact pointwise
phase rotation by the local terms (``core.LocalTerms.rate``:
|u|^(q-1) + C1 |u|^(p-1) + C2 V(r)), a full Crank-Nicolson step of the
grid's one discrete -Lap (fourth-order for N = 1, flux form for N = 2, 3),
and a second phase half-step.  Both unit-modulus factors are one Cayley
form (1 + iy)/(1 - iy): y = tan(theta/2) gives the rotation's exp(i theta),
y = -dt mu/2 the N = 1 Crank-Nicolson multiplier.  The rotation leaves |u|
unchanged, so the march (``_Stepper.step``) fuses each step's trailing
half-step into the next one's leading half-step (one rotation per step),
and ``_Stepper.settle`` applies the last trailing half-step wherever the
stepped field is read; both substeps conserve the discrete mass.  The
N = 1 linear substep's two orthonormal DCT-IV transforms call scipy's
compiled pocketfft kernel directly (``_dct4``), imported on the first
transform and then read from one cached lookup (``_pocketfft``).  The
energy is 1/2 grad_norm_sq minus the integral of ``LocalTerms.density``.

Blow-up runs start from profile data, tie the time step to the gradient
scale (dt = c_dt * lambda_hat^2, so each step advances rescaled time by
exactly c_dt), shrink the grid by the rescale factor whenever lambda_hat
halves, and decompose snapshots through the modulation machinery.  The
step's lambda_hat comes free from the linear substep, which returns
grad_norm_sq of the step's midpoint field; snapshots and regrids
recompute it on the stepped field.  A run ends on one stop record,
``SnapshotSeries.stop``.  Rate fits are joint nonlinear fits of
lambda(t) = c (T - t)^e over the last decade of scale decrease.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (LocalTerms, Operator, ProblemParams, RadialField,
                   RadialGrid, _cayley, grad_norm_sq, integrate, make_grid,
                   norm_L2, penta_symbol)
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
    "propagate",
    "conserved",
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

# Regrid when lambda_hat shrinks by this factor, shrinking the domain by it.
_RESCALE_FACTOR = 2.0
# A run stops early after this many steps or this much wall time.
_MAX_STEPS = 2_000_000
_WALL_BUDGET_S = 3600.0


@dataclass
class SimConfig:
    """Simulation policy: grid sizing, time step, snapshots, stopping."""

    params: ProblemParams
    n: int = 8192
    rmax_factor: float = 64.0        # initial rmax = rmax_factor * lambda1
    c_dt: float = 8.5e-4             # dt = c_dt * lambda_hat^2
    lambda_floor: Optional[float] = None   # stop scale; None = lambda1/10^1.02
    snapshot_ds: float = 0.25        # rescaled time between decompositions
    drift_abort: float = 1e-6        # relative conservation drift abort

    def __post_init__(self) -> None:
        if not (0.0 < self.c_dt <= 0.1):
            raise ValueError("c_dt must lie in (0, 0.1]")
        if self.n < 64 or self.rmax_factor <= 8.0:
            raise ValueError("grid policy too coarse to resolve the profile")
        if not self.snapshot_ds > 0.0:
            raise ValueError("snapshot_ds must be positive")
        if not self.drift_abort > 0.0:
            raise ValueError("drift_abort must be positive")
        if self.lambda_floor is not None and not self.lambda_floor > 0.0:
            raise ValueError("lambda_floor must be positive or None")


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
    """Per-decomposition diagnostics along a blow-up run.

    ``lyap`` is ``modulation.lyapunov_S``.  Its remainder integrand is a
    difference of O(1) densities scaled by lam^(-10), so where eps is at
    rounding level, as at a datum on the profile family (the first
    snapshot), it reads rounding noise of either sign."""

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
    """A blow-up run: snapshots plus run-level records.  ``lam1`` and
    ``b1`` are the initial datum's parameters (``initial_datum``),
    ``mass0`` and ``energy0`` its ``conserved`` values, and ``regime`` is
    ``reduced.classify_regime`` of the run's expansion.  ``stop`` is how
    the run ended: "floor", or early on "drift", "tube_exit", "wall" or
    "max_steps", with ``abort_reason`` its text (empty at the floor)."""

    snapshots: list[Snapshot]
    lam1: float
    b1: float
    mass0: float
    energy0: float
    regime: str
    stop: str = "floor"
    abort_reason: str = ""
    regrid_log: list[dict] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return self.stop != "floor"

    @property
    def tube_exit(self) -> bool:
        return self.stop == "tube_exit"

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(sn, name) for sn in self.snapshots])


# --------------------------------------------------------------------------
# Strang-split propagator
# --------------------------------------------------------------------------

@functools.cache
def _pocketfft():
    """scipy's compiled pocketfft module, imported on the first transform."""
    from scipy.fft._pocketfft import pypocketfft
    return pypocketfft


def _dct4(v: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-IV (its own inverse) of a contiguous complex vector,
    as one real transform of both columns of its float (n, 2) view, by
    pocketfft's compiled kernel (type 4, axis 0, inorm 1 = orthonormal, one
    thread): bit for bit ``scipy.fft.dct(type=4, norm="ortho", axis=0)``
    without that call's backend dispatch.  The kernel comes from one cached
    lookup (``_pocketfft``), so no step runs an import statement."""
    w = _pocketfft().dct(v.view(np.float64).reshape(-1, 2), 4, (0,), 1, None, 1)
    return w.view(np.complex128).ravel()


class _Stepper:
    """Cached propagator state for repeated steps on a fixed grid.

    ``rotate`` is the exact flow of the grid's ``LocalTerms``, its factor
    exp(i theta) built as ``core._cayley`` of tan(theta/2); rotations by
    a and b compose to one by a + b, since neither changes |v|.  ``step``
    is one Strang step fused first-same-as-last: it rotates once, by its
    leading half-angle plus the trailing half-angle of the previous step,
    which stays ``pending`` until the next step or ``settle``.  ``linear``
    is the Crank-Nicolson substep of the grid's -Lap: where it has a symbol
    mu (N = 1: diagonal in the quarter-wave cosine basis) two orthonormal
    DCT-IV transforms (``_dct4``, pocketfft's kernel called directly)
    around the unimodular multiplier
    (1 - i dt mu / 2) / (1 + i dt mu / 2), ``core._cayley`` of -dt mu / 2,
    elsewhere a banded solve of 1 + z(-Lap) = z(-Lap + 1/z), z = i dt / 2,
    whose ``Operator`` is factored once per dt (once per run at fixed dt),
    so each step is one ?gttrs sweep.  It conserves g = <v, -Lap v> =
    grad_norm_sq(v) and returns it from what it computes anyway: h *
    surface * sum mu |w_k|^2 on the cosine coefficients w, or the integral
    of conj(v) (-Lap v) on the banded path.  A NaN anywhere in v makes g
    NaN.  ``set_dt`` sets dt, before the first step.  ``measure`` reads the
    stepped field once.
    """

    def __init__(self, grid: RadialGrid, params: ProblemParams) -> None:
        self.grid = grid
        self.terms = LocalTerms.of(params, grid)
        self.pending = 0.0
        self.spectral = grid.fourth_order
        if self.spectral:
            self._symbol = penta_symbol(grid)
            self._mult = np.empty(grid.n, dtype=complex)
            self._gscale = grid.surface * grid.h
        else:
            self._lap = Operator.of(grid, 0.0)

    def set_dt(self, dt: float) -> None:
        """Rebuild the dt-dependent Crank-Nicolson arrays (O(n) vector ops)."""
        self.dt = dt
        if self.spectral:
            _cayley((-0.5 * dt) * self._symbol, out=self._mult)
            return
        self._z = 0.5j * dt
        self._cn = self._lap.shifted(-1.0 / self._z)

    def rotate(self, v: np.ndarray, angle: float) -> np.ndarray:
        """Exact flow of the local terms over time ``angle``:
        v exp(i angle rate(|v|^2)), built as ``unit_phase`` builds it."""
        if angle == 0.0:
            return v
        y = self.terms.rate(v.real ** 2 + v.imag ** 2)
        y *= 0.5 * angle
        out = _cayley(np.tan(y, out=y))
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

    def step(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """One fused Strang step by dt; returns the field, still owing the
        pending half-angle, and the g of ``linear``."""
        v, g = self.linear(self.rotate(v, self.pending + 0.5 * self.dt))
        self.pending = 0.5 * self.dt
        return v, g

    def settle(self, v: np.ndarray) -> np.ndarray:
        """The stepped field: ``v`` rotated by the pending half-angle."""
        v, self.pending = self.rotate(v, self.pending), 0.0
        return v

    def measure(self, v: np.ndarray
                ) -> tuple[RadialField, float, tuple[float, float]]:
        """Settle v and measure the stepped field once: (field, g =
        grad_norm_sq, (mass, energy))."""
        field = RadialField(self.grid, self.settle(v))
        g = grad_norm_sq(field)
        return field, g, _mass_energy(field, self.terms, g)


def propagate(u: RadialField, dt: float, n_steps: int,
              params: ProblemParams) -> RadialField:
    """March n_steps Strang steps of size dt, fused first-same-as-last
    (``_Stepper.step``), settled at the end.  Raises at the first step
    whose field is non-finite.
    """

    stepper = _Stepper(u.grid, params)
    stepper.set_dt(dt)
    v = u.values.astype(complex)
    for k in range(n_steps):
        v, g = stepper.step(v)
        if not math.isfinite(g):
            raise RuntimeError(f"non-finite field at step {k}")
    v = stepper.settle(v)
    if not np.all(np.isfinite(v)):
        raise RuntimeError("non-finite field at final step")
    return RadialField(u.grid, v)


# --------------------------------------------------------------------------
# Conserved quantities and the gradient scale
# --------------------------------------------------------------------------

def conserved(u: RadialField, params: ProblemParams) -> tuple[float, float]:
    """(mass, energy) = (||u||_2^2, E(u)) by quadrature on u's grid, with
    E = 1/2 grad_norm_sq(u) - integral of ``LocalTerms.density``(u).

    The kinetic term is the quadratic form of the grid's one discrete -Lap,
    which the propagator also uses (fourth-order in one dimension), so the
    semi-discrete flow conserves this energy exactly and any measured
    drift isolates the time-splitting error.
    """

    return _mass_energy(u, LocalTerms.of(params, u.grid), grad_norm_sq(u))


def _mass_energy(u: RadialField, terms: LocalTerms,
                 g: float) -> tuple[float, float]:
    """``conserved`` of u, given u's local terms and g = grad_norm_sq(u)."""

    energy = 0.5 * g - float(integrate(u.grid, terms.density(u.values)))
    return norm_L2(u) ** 2, energy


def lambda_hat(u: RadialField, groundstate: GroundState) -> float:
    """Gradient-ratio scale ||grad Q||_2 / ||grad u||_2."""

    g = grad_norm_sq(u)
    if g <= 0.0:
        raise ValueError("lambda_hat needs a field with gradient energy")
    return math.sqrt(groundstate.norms["grad"] / g)


# --------------------------------------------------------------------------
# Blow-up driver
# --------------------------------------------------------------------------

def _regrid(f: RadialField) -> RadialField:
    """Shrink the domain by the rescale factor (same n), quintic resample.

    Quintic rather than cubic: at the regrid trigger the core is resolved
    by the rescale factor fewer points per width, and a cubic resample there
    injects an O((h/width)^3) kinetic-energy error that dominates the
    conservation budget; degree 5 pushes the injection below it.
    """

    new_grid = make_grid(f.grid.N, f.grid.n, f.grid.rmax / _RESCALE_FACTOR)
    return RadialField(new_grid, even_spline(f)(new_grid.nodes))


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
    ``stop`` records the end: the floor, a snapshot's drift beyond
    drift_abort, a tube exit, the wall budget or the step cap.  Drift
    semantics: mass relative to the initial value (globally conserved),
    energy relative to the value re-logged at the most recent regrid and
    normalized by the current energy scale; the regrid jumps themselves
    (marginal-band re-quadrature, not a loss of the flow) stay available
    in regrid_log.
    Raises ValueError if config.params are not the expansion's params.
    """

    if config.params != expansion.params:
        raise ValueError("config.params differ from the expansion's params")
    gs = expansion.gs
    params = config.params
    u, lam1, b1 = initial_datum(config, expansion, E0, s1)
    # Default stopping scale: just over one decade below lambda1, the
    # minimum span the rate fit accepts.
    floor = (config.lambda_floor if config.lambda_floor is not None
             else lam1 / 10.0 ** 1.02)
    # v owes the stepper's pending half-angle; measure settles it first.
    stepper = _Stepper(u.grid, params)
    field, g, (mass0, energy0) = stepper.measure(u.values.astype(complex))
    v = field.values

    series = SnapshotSeries(snapshots=[], lam1=lam1, b1=b1, mass0=mass0,
                            energy0=energy0, regime=classify_regime(expansion))
    energy_ref = energy0
    t = 0.0
    s = s_next_snap = s1
    guess = (lam1, b1, 0.0)
    lam_h = lam_hat_regrid = math.sqrt(gs.norms["grad"] / g)
    t_wall = time.perf_counter()

    for n_step in range(_MAX_STEPS + 1):  # the last pass stops on the cap
        if s >= s_next_snap - 1e-12:
            field, g, (mass, energy) = stepper.measure(v)
            v = field.values
            lam_h = math.sqrt(gs.norms["grad"] / g)
            # Conservation monitor.  Mass is compared against the global
            # initial value (the stepping is unitary, regrids conserve it to
            # interpolation accuracy).  Energy is compared against the value
            # re-logged at the last regrid: the discrete energy is an O(1)
            # cancellation of kinetic-sized terms whose quadrature re-prices
            # the marginal radiation band every time the grid changes, so
            # only the within-epoch drift measures the scheme's conservation
            # error; it is normalized by the current energy scale
            # (kinetic + |reference|) for the same reason.
            drift = max(abs(mass / mass0 - 1.0),
                        abs(energy - energy_ref) / (0.5 * g + abs(energy_ref)))
            if drift > config.drift_abort:
                series.stop, series.abort_reason = "drift", (
                    f"conservation drift {drift:.3e} beyond {config.drift_abort}")
                break
            try:
                state = decompose(field, expansion, guess)
            except TubeExit as exc:
                series.stop, series.abort_reason = "tube_exit", str(exc)
                break
            series.snapshots.append(Snapshot(
                t=t, s=s, lam=state.lam, b=state.b, gamma=state.gamma,
                eps_H1=state.eps_H1, eps_P=state.eps_P, lam_hat=lam_h,
                grad_norm=math.sqrt(g), mass=mass, energy=energy,
                lyap=lyapunov_S(state), drift=drift))
            ds = config.snapshot_ds
            theta = expansion.theta(state.lam, state.b)
            guess = (state.lam * (1.0 - ds * state.b),
                     state.b + ds * (theta - state.b ** 2),
                     state.gamma + ds)
            s_next_snap += ds

        if lam_h <= floor:
            series.stop = "floor"
            break
        if time.perf_counter() - t_wall > _WALL_BUDGET_S:
            series.stop, series.abort_reason = "wall", "wall budget exhausted"
            break
        if n_step == _MAX_STEPS:
            series.stop, series.abort_reason = "max_steps", "max_steps exhausted"
            break

        if lam_h <= lam_hat_regrid / _RESCALE_FACTOR:
            field, g, before = stepper.measure(v)
            lam_h = math.sqrt(gs.norms["grad"] / g)
            field = _regrid(field)
            stepper = _Stepper(field.grid, params)
            field, _, after = stepper.measure(field.values)
            v = field.values
            series.regrid_log.append({
                "t": t, "s": s, "lam_hat": lam_h, "rmax": field.grid.rmax,
                "mass_before": before[0], "mass_after": after[0],
                "energy_before": before[1], "energy_after": after[1]})
            lam_hat_regrid = lam_h
            energy_ref = after[1]

        # dt tracks lambda_hat^2 step by step (lambda_hat of the last step's
        # midpoint field), so one step always advances rescaled time by
        # c_dt; letting dt lag within a regrid epoch would grow the effective
        # rescaled step (and the splitting error rate with its square) as
        # the solution keeps focusing.
        stepper.set_dt(config.c_dt * lam_h ** 2)
        dt = stepper.dt
        v, g = stepper.step(v)
        if not math.isfinite(g):
            raise RuntimeError(f"non-finite field at step {n_step} (t={t:.6g})")
        t += dt
        s += dt / lam_h ** 2
        lam_h = math.sqrt(gs.norms["grad"] / g)

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


def fit_blowup_rate(series: SnapshotSeries) -> RateFit:
    """Joint fit of lambda(t) = c (T - t)^e on log lambda over the last
    decade of scale decrease (``_fit_window``).

    The blow-up time is the outer variable: for each T the best (ln c, e)
    is a linear least-squares solve, and T minimizes the residual.
    """
    from scipy.optimize import minimize_scalar

    snaps = _fit_window(series)
    if len(snaps) < 5:
        raise RuntimeError(f"rate fit needs >= 5 snapshots in window, got {len(snaps)}")
    tt = np.array([sn.t for sn in snaps])
    ll = np.log([sn.lam for sn in snaps])
    t_max = tt.max()
    span = max(t_max - tt.min(), 1e-12)

    def line(T: float) -> tuple[np.ndarray, np.ndarray]:
        # least squares of ln lambda = ln c + e ln(T - t): (ln c, e), residual
        A = np.column_stack([np.ones_like(tt), np.log(T - tt)])
        coef = np.linalg.lstsq(A, ll, rcond=None)[0]
        return coef, ll - A @ coef

    def sse(T: float) -> float:
        r = line(T)[1]
        return float(r @ r)

    T = float(minimize_scalar(
        sse, bounds=(t_max + 1e-9 * span, t_max + 10.0 * span),
        method="bounded", options={"xatol": 1e-13 * span}).x)
    coef, r = line(T)
    ss_res = float(np.sum(r ** 2))
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
