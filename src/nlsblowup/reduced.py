"""Reduced modulation ODE system for the scale/phase parameters.

The renormalized evolution drives (lambda, b) through the autonomous pair

    lambda' = -b * lambda,    b' = -b^2 + theta(lambda, b),

where the phase correction theta comes from a ProfileExpansion.  This
module integrates that system (with physical time from dt = lambda^2 ds),
classifies a branch's blow-up regime, and provides the closed-form
approximate solutions and the energy-matched initial data (lambda1, b1)
that runs start from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .groundstate import GroundState
from .profile import _ACCURACY_BOUND, ProfileExpansion, profile_energy

__all__ = [
    "ReducedTrajectory",
    "integrate_reduced",
    "classify_regime",
    "rate_exponent",
    "initial_params",
    "app_solutions",
    "power_law_solutions",
    "alpha_lt1_solutions",
    "init_params",
]


@dataclass
class ReducedTrajectory:
    """Numerical solution of the reduced (lambda, b) system.

    ``t_grid`` holds physical time reconstructed from dt = lambda^2 ds with
    t(s_grid[0]) = 0.  ``ode_residual`` is the measured re-substitution
    residual of the returned solution (finite differences of the dense
    output against the right-hand side), normalized per equation.
    """

    s_grid: np.ndarray
    lam: np.ndarray
    b: np.ndarray
    truncated: bool = False
    t_grid: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ode_residual: float = 0.0

    def __post_init__(self) -> None:
        if np.any(np.diff(self.s_grid) <= 0):
            raise ValueError("s_grid must be strictly increasing")
        if np.any(self.lam <= 0):
            raise ValueError("lambda must stay positive along the trajectory")


def _resubstitution_residual(
    sol,
    theta_fn: Callable[[float, float], float],
    s_lo: float,
    s_hi: float,
) -> float:
    """Max normalized ODE residual of the dense output at 101 evenly
    spaced probes.

    Derivatives are taken with a 6th-order central stencil on the
    continuous interpolant.  The half-width scales with the local s (the
    solution varies on scale s), keeping stencil truncation and dense-
    output noise both well below 1e-8.
    """

    span = s_hi - s_lo
    if span <= 0.0:
        return 0.0
    worst = 0.0
    for s in np.linspace(s_lo, s_hi, 101):
        h = min(0.02 * max(abs(s), 0.5), span / 8.0,
                (s - s_lo) / 3.0, (s_hi - s) / 3.0)
        if h <= 0.0:
            continue
        f = sol(np.array([s - 3 * h, s - 2 * h, s - h, s, s + h, s + 2 * h, s + 3 * h]))
        d = (45.0 * (f[:, 4] - f[:, 2]) - 9.0 * (f[:, 5] - f[:, 1])
             + (f[:, 6] - f[:, 0])) / (60.0 * h)
        lam, b = f[0, 3], f[1, 3]
        th = theta_fn(max(lam, 0.0), b)
        r_lam = abs(d[0] + b * lam) / max(1.0, abs(b * lam))
        r_b = abs(d[1] + b * b - th) / max(1.0, abs(b * b) + abs(th))
        worst = max(worst, r_lam, r_b)
    return worst


def integrate_reduced(
    expansion: ProfileExpansion,
    s_range: Sequence[float],
    lambda_init: float,
    b_init: float,
    *,
    n_points: int = 400,
    lambda_floor: Optional[float] = None,
) -> ReducedTrajectory:
    """Integrate lambda' = -b lambda, b' = -b^2 + theta(lambda, b).

    theta is ``expansion.theta``; DOP853 runs at rtol 1e-10, atol 1e-13.
    The trajectory is ``n_points`` samples of [s0, s1], s_range = (s0, s1)
    with s0 < s1.  If lambda decays to the floor (default
    max(1e-12, 1e-9 * lambda_init)) integration stops and the trajectory
    is returned truncated with ``truncated=True``: ``n_points`` samples of
    the dense output spread over [s0, s_event], ending exactly at the
    floor event.
    """
    from scipy.integrate import solve_ivp

    s_arr = np.asarray(s_range, dtype=float)
    if s_arr.shape != (2,) or not s_arr[0] < s_arr[1]:
        raise ValueError("s_range must be (s0, s1) with s0 < s1")
    if lambda_init <= 0.0:
        raise ValueError("lambda_init must be positive")
    s0, s1 = s_arr

    theta_fn = expansion.theta
    floor = lambda_floor if lambda_floor is not None else max(1e-12, 1e-9 * lambda_init)

    def rhs(s: float, y: np.ndarray) -> list[float]:
        lam, b = y[0], y[1]
        th = theta_fn(max(lam, 0.0), b)
        return [-b * lam, -b * b + th, lam * lam]

    def hit_floor(s: float, y: np.ndarray) -> float:
        return y[0] - floor

    hit_floor.terminal = True  # type: ignore[attr-defined]
    hit_floor.direction = -1  # type: ignore[attr-defined]

    sol = solve_ivp(
        rhs,
        (s0, s1),
        [lambda_init, b_init, 0.0],
        method="DOP853",
        t_eval=np.linspace(s0, s1, n_points),
        rtol=1e-10,
        atol=1e-13,
        dense_output=True,
        events=hit_floor,
    )
    if sol.status < 0:
        raise RuntimeError(f"reduced ODE integration failed: {sol.message}")
    truncated = sol.status == 1

    s_grid, y = sol.t, sol.y
    if truncated:
        s_event, y_event = sol.t_events[0][0], sol.y_events[0][0]
        s_grid = np.linspace(s0, s_event, n_points)
        y = sol.sol(s_grid)
        keep = s_grid < s_event
        s_grid = np.append(s_grid[keep], s_event)
        y = np.column_stack([y[:, keep], y_event])
    lam, b, t_grid = y
    if s_grid.size < 2:
        raise RuntimeError("reduced ODE stopped before producing a trajectory")
    lam = np.maximum(lam, floor)
    residual = _resubstitution_residual(sol.sol, theta_fn, s_grid[0], s_grid[-1])
    return ReducedTrajectory(
        s_grid=s_grid,
        lam=lam,
        b=b,
        truncated=truncated,
        t_grid=t_grid,
        ode_residual=residual,
    )


def app_solutions(groundstate: GroundState, E0: float, s):
    """Leading-order balanced solution (lambda_app, b_app) at rescaled time s.

    lambda_app(s) = sqrt(||y Q||_2^2 / (8 E0)) / s and b_app(s) = 1/s; the
    quotient b_app/lambda_app matches the leading energy balance
    8 E0 = ||y Q||_2^2 b^2 / lambda^2.  Requires E0 > 0.
    """

    if E0 <= 0.0:
        raise ValueError("balanced approximate solutions require E0 > 0")
    s = np.asarray(s, dtype=float)
    coeff = math.sqrt(groundstate.norms["virial"] / (8.0 * E0))
    lam_app = coeff / s
    b_app = 1.0 / s
    return lam_app, b_app


def classify_regime(expansion: ProfileExpansion) -> str:
    """The branch's blow-up regime from beta00, the leading coefficient of
    theta: "balanced" where |beta00| < 1e-3 (lambda ~ T - t), "power-law"
    where beta00 > 0 (lambda ~ (T - t)^(2/(4 - alpha))), "subthreshold"
    where beta00 < 0 (the reduced flow does not blow up)."""

    beta00 = expansion.beta00
    if abs(beta00) < 1e-3:
        return "balanced"
    return "power-law" if beta00 > 0.0 else "subthreshold"


def rate_exponent(regime: str, alpha: float) -> float:
    """Exponent q of the blow-up rate lambda ~ (T - t)^q of a regime from
    ``classify_regime``: 1 when balanced, 2/(4 - alpha) for the power law,
    alpha the perturbations' common scaling order."""

    if regime == "balanced":
        return 1.0
    if regime != "power-law":
        raise ValueError(f"the {regime!r} regime has no blow-up rate")
    return 2.0 / (4.0 - alpha)


def power_law_solutions(expansion: ProfileExpansion, s):
    """Power-law solution lambda_app = A s^(-2/alpha), b_app = 2/(alpha s) of
    b' + b^2 = beta00 lam^alpha, A^alpha = 2(2-alpha)/(alpha^2 beta00): the
    power-law regime's initial data (no energy match; needs beta00 > 0)."""

    alpha = expansion.params.alpha
    beta00 = expansion.beta00
    if beta00 <= 0.0:
        raise ValueError("unbalanced initialization needs beta00 > 0")
    s = np.asarray(s, dtype=float)
    A = (2.0 * (2.0 - alpha) / (alpha ** 2 * beta00)) ** (1.0 / alpha)
    return A * s ** (-2.0 / alpha), 2.0 / (alpha * s)


def alpha_lt1_solutions(beta01: float, alpha: float, s):
    """Exact power-law solution of b' + b^2 = beta01 * lambda^(2 alpha).

    For 0 < alpha < 1 and beta01 > 0,

        lambda_app(s) = (alpha * sqrt(beta01/(1-alpha)))^(-1/alpha) * s^(-1/alpha),
        b_app(s)      = 1 / (alpha * s),

    satisfy both reduced equations identically: lambda'/lambda = -b forces
    the s-exponent of lambda to be -1/alpha once b = 1/(alpha s), and the
    b-equation then fixes the prefactor.
    """

    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha_lt1_solutions requires 0 < alpha < 1")
    if beta01 <= 0.0:
        raise ValueError("alpha_lt1_solutions requires beta01 > 0")
    s = np.asarray(s, dtype=float)
    A = (alpha * math.sqrt(beta01 / (1.0 - alpha))) ** (-1.0 / alpha)
    lam_app = A * s ** (-1.0 / alpha)
    b_app = 1.0 / (alpha * s)
    return lam_app, b_app


def init_params(
    expansion: ProfileExpansion,
    E0: float,
    s1: float,
) -> tuple[float, float]:
    """Energy-matched initial data (lambda1, b1) at rescaled time s1.

    lambda1 = sqrt(||y Q||_2^2/(8 E0))/s1; b1 > 0 is the root of
    E(P_{lambda1, b, 0}) = E0, located by Brent's method in the bracket
    [b_app/4, 4 b_app], its upper end capped so that the profile stays in
    its accuracy region (lambda1 + b <= 0.5).  An empty bracket or a missing
    sign change means s1 is too small for the energy balance to hold; a
    root with |E - E0| > 1e-8 E0 is an error.
    """
    from scipy.optimize import brentq

    lam_app, b_app = app_solutions(expansion.gs, E0, s1)
    lam1 = float(lam_app)
    # lam1 + (0.5 - lam1) rounds to 0.5 for 0 < lam1 <= 0.5, so the capped
    # end stays inside the region in floating point
    b_lo = float(b_app) / 4.0
    b_hi = min(4.0 * float(b_app), _ACCURACY_BOUND - lam1)

    def f(b: float) -> float:
        return profile_energy(expansion, lam1, b) - E0

    if b_hi <= b_lo or f(b_lo) * f(b_hi) > 0.0:
        raise ValueError(
            "init_params: energy residual has no sign change in "
            f"[{b_lo:.3e}, {b_hi:.3e}] (s1={s1} too small for E0={E0})"
        )
    b1 = brentq(f, b_lo, b_hi, xtol=1e-15)  # b to roundoff
    residual = abs(f(b1))
    if residual > 1e-8 * abs(E0):
        raise RuntimeError(
            f"init_params: root polish stalled, |E - E0| = {residual:.3e}"
        )
    return lam1, float(b1)


def initial_params(expansion: ProfileExpansion, E0: float,
                   s1: float) -> tuple[float, float]:
    """A run's initial (lambda1, b1) at rescaled time s1, by its regime:
    energy-matched by ``init_params`` when balanced, otherwise the
    power-law solution (which needs beta00 > 0)."""

    if classify_regime(expansion) == "balanced":
        return init_params(expansion, E0, s1)
    lam1, b1 = power_law_solutions(expansion, s1)
    return float(lam1), float(b1)

