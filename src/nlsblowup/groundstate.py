"""Ground state of the unperturbed mass-critical equation.

The soliton profile is the unique positive decaying radial solution of

    -Lap Q + Q - |Q|^(4/N) Q = 0 .

It is computed in two stages: a shooting pass on the radial ODE (bisection
on the center value, classifying overshoot/undershoot) produces an accurate
initial guess, and a damped Newton iteration on the discrete equation then
drives the residual of the *grid* operator to roundoff.  The operator is the
grid's one discrete -Lap (``core.apply_neg_laplacian``, solved through
``core.Operator``): for N = 1 the fourth-order stencil the propagator
evolves with, so Q is a discrete stationary state of that flow.  All
subsequent linear algebra therefore sees a field that satisfies the
discrete equation essentially exactly, which is what makes the downstream
operator identities and solvability computations clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import (
    Operator,
    ProblemParams,
    RadialField,
    RadialGrid,
    apply_neg_laplacian,
    grad_norm_sq,
    norm_L2,
    norm_Lq,
    potential_weights,
    weighted_norm,
)

__all__ = [
    "GroundState",
    "solve_ground_state",
    "refine_longdouble",
    "petviashvili_ground_state",
    "compute_omega",
    "gn_ratio",
    "pohozaev_residuals",
    "default_rmax",
]


@dataclass
class GroundState:
    """Soliton profile with cached norms.

    norms keys: mass   = ||Q||_2^2
                grad   = ||grad Q||_2^2      (Dirichlet form)
                lp1    = ||Q||_{p+1}^{p+1}
                crit   = ||Q||_{2+4/N}^{2+4/N}
                virial = || r Q ||_2^2
                potential = || r^-sigma Q ||_2^2   (exact cell averages)
    rho is the decaying solution of the bordered companion problem
    (filled in by linops.solve_rho).
    """

    params: ProblemParams
    grid: RadialGrid
    Q: RadialField
    norms: dict
    Q0: float
    residual_inf: float
    rho: RadialField | None = None
    Q_ld: np.ndarray | None = None  # extended-precision refinement cache

    @property
    def q(self) -> float:
        """Exponent of the mass-critical nonlinearity, 1 + 4/N."""
        return 1.0 + 4.0 / self.grid.N


def default_rmax(N: int) -> float:
    """Truncation radius making the soliton tail < 1e-12 of its peak."""
    return 30.0 if N == 1 else 25.0


# --------------------------------------------------------------------------
# Shooting stage
# --------------------------------------------------------------------------

def _shoot(N: int, q: float, center: float, r_end: float):
    """Integrate the radial ODE from a series start near the origin.

    Returns (status, solution) where status is 'overshoot' (profile crossed
    zero), 'undershoot' (profile turned back upward), or 'decay'.
    """
    r0 = 1e-8
    curv = (center - abs(center) ** (q - 1.0) * center) / (2.0 * N)
    y0 = [center + curv * r0 * r0, 2.0 * curv * r0]

    def rhs(r, y):
        u, du = y
        return [du, -(N - 1.0) / r * du + u - abs(u) ** (q - 1.0) * u]

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1.0

    def turn_up(r, y):
        return y[1]

    turn_up.terminal = True
    turn_up.direction = 1.0

    sol = solve_ivp(rhs, (r0, r_end), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, events=(hit_zero, turn_up),
                    dense_output=True)
    if sol.t_events[0].size:
        return "overshoot", sol
    if sol.t_events[1].size:
        return "undershoot", sol
    return "decay", sol


def _shooting_guess(N: int, q: float, grid: RadialGrid) -> np.ndarray:
    """Bisect the center value to the separatrix and sample the grid."""
    r_end = min(grid.rmax, 30.0)
    lo, hi = 1.0 + 1e-6, 8.0
    status_lo, _ = _shoot(N, q, lo, r_end)
    status_hi, _ = _shoot(N, q, hi, r_end)
    if status_lo == "overshoot" or status_hi != "overshoot":
        raise ValueError("shooting bracket failure: endpoints do not "
                         f"classify as under/over ({status_lo}, {status_hi})")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        status, _ = _shoot(N, q, mid, r_end)
        if status == "overshoot":
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14:
            break
    center = 0.5 * (lo + hi)
    status, sol = _shoot(N, q, center, r_end)

    # Trust the trajectory only while it is far from the amplified tail.
    r_valid = sol.t[-1]
    r_safe = min(r_valid, 15.0)
    guess = np.empty(grid.n)
    inside = grid.nodes <= r_safe
    guess[inside] = sol.sol(grid.nodes[inside])[0]
    if not np.all(inside):
        anchor = sol.sol(r_safe)[0]
        rr = grid.nodes[~inside]
        guess[~inside] = anchor * (rr / r_safe) ** (-(N - 1) / 2.0) \
            * np.exp(r_safe - rr)
    return np.maximum(guess, 0.0)


# --------------------------------------------------------------------------
# Discrete Newton stage
# --------------------------------------------------------------------------

def _elliptic_residual(grid: RadialGrid, q: float,
                       u: np.ndarray) -> np.ndarray:
    """-Lap u + u - |u|^(q-1) u with the grid's -Lap (dtype of u)."""
    return apply_neg_laplacian(grid, u) + u - np.abs(u) ** (q - 1.0) * u


def _linearized_solve(grid: RadialGrid, q: float, Q: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (-Lap + 1 - q Q^(q-1)) x = rhs with the grid's -Lap."""
    return Operator.of(grid, 1.0 - q * np.abs(Q) ** (q - 1.0)).solve(rhs)


def _newton_polish(grid: RadialGrid, q: float, guess: np.ndarray,
                   tol: float, max_iter: int = 60) -> tuple[np.ndarray, float]:
    Q = guess.copy()
    res = _elliptic_residual(grid, q, Q)
    best = np.max(np.abs(res))
    for _ in range(max_iter):
        scale = np.max(np.abs(Q))
        if best <= tol * scale:
            break
        step = _linearized_solve(grid, q, Q, -res)
        lam = 1.0
        for _ in range(12):
            trial = Q + lam * step
            trial_res = _elliptic_residual(grid, q, trial)
            trial_norm = np.max(np.abs(trial_res))
            if trial_norm < best or trial_norm <= tol * scale:
                Q, res, new_best = trial, trial_res, trial_norm
                break
            lam *= 0.5
        else:
            break  # stagnated at the roundoff floor
        if new_best >= best * 0.99:
            best = min(best, new_best)
            break
        best = new_best
    return Q, float(best)


def solve_ground_state(params: ProblemParams, grid: RadialGrid,
                       tol: float = 1e-11) -> GroundState:
    """Compute the soliton profile and its cached norms on the given grid.

    ``tol`` is the relative sup-norm target for the discrete elliptic
    residual (the achievable floor is set by roundoff in the Laplacian).
    """
    q = 1.0 + 4.0 / grid.N
    if grid.N != params.N:
        raise ValueError("grid dimension does not match params.N")
    guess = _shooting_guess(grid.N, q, grid)
    Q, res_inf = _newton_polish(grid, q, guess, tol)
    scale = float(np.max(np.abs(Q)))
    # The reachable residual floor is the rounding noise of the second
    # difference, ~ eps*|Q|/h^2; anything far above that means divergence.
    if res_inf > 1e-6 * scale:
        raise ValueError(
            f"ground-state iteration did not converge: residual {res_inf:.3e} "
            f"exceeds 1e-6 * max|Q| = {1e-6 * scale:.3e}")
    if np.min(Q) <= 0.0:
        raise ValueError("ground-state candidate lost positivity")
    if np.any(np.diff(Q) >= 0.0):
        raise ValueError("ground-state candidate is not strictly decreasing")

    field = RadialField(grid, Q)
    Vw = potential_weights(grid, params.sigma)
    norms = {
        "mass": norm_L2(field) ** 2,
        "grad": grad_norm_sq(field),
        "lp1": norm_Lq(field, params.p + 1.0) ** (params.p + 1.0),
        "crit": norm_Lq(field, 2.0 + 4.0 / grid.N) ** (2.0 + 4.0 / grid.N),
        "virial": weighted_norm(field, grid.nodes ** 2) ** 2,
        "potential": weighted_norm(field, Vw) ** 2,
    }

    # Even-polynomial extrapolation of the center value through the first
    # three nodes (exact for even polynomials of degree 4).
    r2 = grid.nodes[:3] ** 2
    vand = np.vander(r2, 3, increasing=True)
    coeffs = np.linalg.solve(vand, Q[:3])
    Q0 = float(coeffs[0])

    return GroundState(params=params, grid=grid, Q=field, norms=norms,
                       Q0=Q0, residual_inf=res_inf)


def refine_longdouble(gs: GroundState, passes: int = 3) -> np.ndarray:
    """Refine the stored soliton to extended precision.

    The double-precision field carries per-node rounding noise of order
    eps*|Q|; difference stencils amplify such noise by 1/h^2 (Laplacian) or
    1/h^3 (Laplacian of the scaling generator), which dominates identity
    residuals on fine grids.  A few rounds of iterative refinement --
    extended-precision residual, double-precision banded correction -- push
    the noise floor down to long-double rounding.  Result is cached.
    """
    if gs.Q_ld is not None:
        return gs.Q_ld
    grid = gs.grid
    q = gs.q
    Qld = gs.Q.values.astype(np.longdouble)
    for _ in range(passes):
        res = _elliptic_residual(grid, q, Qld)
        delta = _linearized_solve(grid, q, Qld.astype(float),
                                  -res.astype(float))
        Qld = Qld + delta.astype(np.longdouble)
    gs.Q_ld = Qld
    return Qld


def petviashvili_ground_state(params: ProblemParams, grid: RadialGrid,
                              max_iter: int = 400, tol: float = 1e-13) -> RadialField:
    """Normalized fixed-point iteration for the same discrete soliton.

    Independent cross-check of the shooting+Newton solver: both must agree
    on the unique positive discrete solution.
    """
    q = 1.0 + 4.0 / grid.N
    op = Operator.of(grid, 1.0)
    gamma = q / (q - 1.0)
    w = grid.quad_weights
    u = 1.5 * np.exp(-grid.nodes ** 2)
    for _ in range(max_iter):
        fu = np.abs(u) ** (q - 1.0) * u
        m = np.sum(w * op.matvec(u) * u) / np.sum(w * fu * u)
        nxt = m ** gamma * op.solve(fu)
        delta = np.max(np.abs(nxt - u))
        u = nxt
        if delta <= tol * np.max(np.abs(u)):
            break
    return RadialField(grid, u)


# --------------------------------------------------------------------------
# Derived quantities
# --------------------------------------------------------------------------

def compute_omega(gs: GroundState, params: ProblemParams) -> float:
    """Coupling threshold at which the two perturbations balance.

    omega = (p+1)/2 * ||r^-sigma Q||_2^2 / ||Q||_{p+1}^{p+1}, with p from
    ``params``; neither argument is modified.
    """
    if not gs.norms:
        raise ValueError("ground-state norm cache is empty")
    return 0.5 * (params.p + 1.0) * gs.norms["potential"] / gs.norms["lp1"]


def gn_ratio(gs: GroundState, v: RadialField) -> float:
    """Interpolation-inequality ratio, equal to 1 at the soliton.

    ratio(v) = ||v||_m^m / [ (1 + 2/N) (||v||_2/||Q||_2)^(4/N) ||grad v||_2^2 ]
    with m = 2 + 4/N; <= 1 (up to discretization slack) for every v.
    """
    N = gs.grid.N
    m = 2.0 + 4.0 / N
    l2 = norm_L2(v)
    if l2 == 0.0:
        raise ValueError("interpolation ratio undefined for the zero field")
    num = norm_Lq(v, m) ** m
    den = (1.0 + 2.0 / N) * (l2 / math.sqrt(gs.norms["mass"])) ** (4.0 / N) \
        * grad_norm_sq(v)
    return float(num / den)


def pohozaev_residuals(gs: GroundState, field: RadialField | None = None) -> tuple[float, float]:
    """Two integral identities characterizing the soliton, as residuals
    relative to ||.||_m^m (m = 2 + 4/N).

    res1: |grad|^2 + ||.||_2^2 - ||.||_m^m     (equation against the profile)
    res2: |grad|^2 - (N/(N+2)) ||.||_m^m       (zero-energy identity)

    The first holds exactly for the discrete soliton (same discrete
    operators); the second converges at the scheme order.
    """
    N = gs.grid.N
    m = 2.0 + 4.0 / N
    if field is None:
        grad = gs.norms["grad"]
        mass = gs.norms["mass"]
        crit = gs.norms["crit"]
    else:
        grad = grad_norm_sq(field)
        mass = norm_L2(field) ** 2
        crit = norm_Lq(field, m) ** m
    res1 = (grad + mass - crit) / crit
    res2 = (grad - N / (N + 2.0) * crit) / crit
    return float(res1), float(res2)
