"""Ground state of the unperturbed mass-critical equation.

The soliton profile is the unique positive decaying radial solution of

    -Lap Q + Q - |Q|^(4/N) Q = 0 .

It is computed on the grid in two stages.  A few sweeps of Petviashvili's
normalized fixed-point iteration, started from a positive Gaussian, bring
the field near the ground state: the iteration converges from positive
data because L+ has exactly one negative eigenvalue.  A damped Newton
iteration on the same discrete equation then drives the residual to
roundoff.  Both stages use the grid's one discrete -Lap
(``core.apply_neg_laplacian``, solved through ``core.Operator``): for N = 1
the fourth-order stencil the propagator evolves with, so Q is a discrete
stationary state of that flow.  All subsequent linear algebra therefore
sees a field that satisfies the discrete equation essentially exactly,
which is what makes the downstream operator identities and solvability
computations clean.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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
    "compute_omega",
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
    iterations keys: seed_sweeps = Petviashvili sweeps of the seed
                     newton      = Newton linearized solves

    Everything derived from Q -- the operators Lplus and Lminus, the
    companion profile rho and the extended-precision Q_ld -- is computed
    on first read and kept; ``dataclasses.replace`` starts without them.
    """

    params: ProblemParams
    grid: RadialGrid
    Q: RadialField
    norms: dict
    Q0: float
    residual_inf: float
    iterations: dict

    @functools.cached_property
    def Lplus(self) -> Operator:
        """-Lap + 1 - q |Q|^(q-1), kept with the LU factor its first solve
        makes, which every later solve and refinement sweep reuses."""
        q = self.params.q
        return Operator.of(self.grid,
                           1.0 - q * np.abs(self.Q.values) ** (q - 1.0))

    @functools.cached_property
    def Lminus(self) -> Operator:
        """-Lap + 1 - |Q|^(q-1), kept with its LU factor like Lplus."""
        return Operator.of(
            self.grid, 1.0 - np.abs(self.Q.values) ** (self.params.q - 1.0))

    @functools.cached_property
    def rho(self) -> RadialField:
        """The decaying solution of  Lplus rho = r^2 Q  (the bordered
        problem's companion profile), refined and checked on Lplus."""
        op = self.Lplus
        rhs = self.grid.nodes ** 2 * self.Q.values
        x = op.refine(op.solve(rhs), lambda x: rhs - op.matvec(x))
        op.check(x, rhs, float(np.linalg.norm(op.matvec(x) - rhs)), 1e-10,
                 "Lplus")
        return RadialField(self.grid, x)

    @functools.cached_property
    def Q_ld(self) -> np.ndarray:
        """The soliton refined to extended precision.

        The double-precision field carries per-node rounding noise of order
        eps*|Q|; difference stencils amplify such noise by 1/h^2
        (Laplacian) or 1/h^3 (Laplacian of the scaling generator), which
        dominates identity residuals on fine grids.  Three mixed-precision
        rounds of ``Operator.refine`` -- long-double residual of the
        elliptic equation, double-precision banded correction -- push the
        noise floor down to long-double rounding, each round on Lplus's
        factor (the O(eps*|Q|) corrections cannot tell it from the refined
        iterate's Lplus).
        """
        return self.Lplus.refine(
            self.Q.values.astype(np.longdouble),
            lambda x: -_elliptic_residual(self.grid, self.params.q, x), 3)


def default_rmax(N: int) -> float:
    """Truncation radius making the soliton tail < 1e-12 of its peak."""
    return 30.0 if N == 1 else 25.0


# --------------------------------------------------------------------------
# Fixed-point seed and discrete Newton stage
# --------------------------------------------------------------------------

# Relative sup-norm change per sweep at which the seed hands over to Newton.
_SEED_TOL = 1e-3
# Relative sup-norm target of Newton's elliptic residual (the achievable
# floor is set by roundoff in the Laplacian).
_NEWTON_TOL = 1e-11
# Newton steps below this size relative to max|Q| are taken in full, and
# Newton stops at its residual target only after one: a residual near its
# roundoff floor cannot see the error such a step removes.
_FULL_STEP = 1e-8
# Newton gives up after this many iterations.
_NEWTON_MAX_ITER = 60


def _petviashvili(grid: RadialGrid, q: float,
                  tol: float) -> tuple[np.ndarray, int]:
    """At most 400 Petviashvili sweeps from a positive Gaussian, until the
    relative sup-norm change is <= ``tol``; returns the field and the
    sweep count."""
    op = Operator.of(grid, 1.0)
    gamma = q / (q - 1.0)
    w = grid.quad_weights
    u = 1.5 * np.exp(-grid.nodes ** 2)
    for sweep in range(1, 401):
        fu = np.abs(u) ** (q - 1.0) * u
        m = np.sum(w * op.matvec(u) * u) / np.sum(w * fu * u)
        nxt = m ** gamma * op.solve(fu)
        delta = np.max(np.abs(nxt - u))
        u = nxt
        if delta <= tol * np.max(np.abs(u)):
            break
    return u, sweep


def _elliptic_residual(grid: RadialGrid, q: float,
                       u: np.ndarray) -> np.ndarray:
    """-Lap u + u - |u|^(q-1) u with the grid's -Lap (dtype of u)."""
    return apply_neg_laplacian(grid, u) + u - np.abs(u) ** (q - 1.0) * u


def _newton_polish(grid: RadialGrid, q: float, guess: np.ndarray,
                   tol: float) -> tuple[np.ndarray, float, int]:
    """Damped Newton from ``guess``; returns the field, its sup-norm
    residual and the number of linearized solves."""
    Q = guess.copy()
    res = _elliptic_residual(grid, q, Q)
    best = np.max(np.abs(res))
    solves = 0
    small = False
    for _ in range(_NEWTON_MAX_ITER):
        scale = np.max(np.abs(Q))
        if small and best <= tol * scale:
            break
        step = Operator.of(grid, 1.0 - q * np.abs(Q) ** (q - 1.0)).solve(-res)
        solves += 1
        small = np.max(np.abs(step)) <= _FULL_STEP * scale
        lam = 1.0
        for _ in range(12):
            trial = Q + lam * step
            trial_res = _elliptic_residual(grid, q, trial)
            trial_norm = np.max(np.abs(trial_res))
            if small or trial_norm < best or trial_norm <= tol * scale:
                Q, res, new_best = trial, trial_res, trial_norm
                break
            lam *= 0.5
        else:
            break  # stagnated at the roundoff floor
        stalled = new_best >= best * 0.99
        best = new_best
        if stalled:
            break
    return Q, float(best), solves


def solve_ground_state(params: ProblemParams,
                       grid: RadialGrid) -> GroundState:
    """Compute the soliton profile and its cached norms on the given grid.

    Petviashvili sweeps seed the field to a relative change of
    ``_SEED_TOL`` per sweep; damped Newton on the grid operator then
    polishes it to a relative sup-norm residual of ``_NEWTON_TOL``.  Both
    iteration counts are recorded in ``iterations``.
    """
    if grid.N != params.N:
        raise ValueError("grid dimension does not match params.N")
    q = params.q
    guess, sweeps = _petviashvili(grid, q, _SEED_TOL)
    Q, res_inf, solves = _newton_polish(grid, q, guess, _NEWTON_TOL)
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
        "crit": norm_Lq(field, params.mcrit) ** params.mcrit,
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
                       Q0=Q0, residual_inf=res_inf,
                       iterations={"seed_sweeps": sweeps, "newton": solves})


# --------------------------------------------------------------------------
# Derived quantities
# --------------------------------------------------------------------------

def compute_omega(gs: GroundState, params: ProblemParams) -> float:
    """Coupling threshold at which the two perturbations balance.

    omega = (p+1)/2 * ||r^-sigma Q||_2^2 / ||Q||_{p+1}^{p+1}, with p
    derived from ``params.sigma``; neither argument is modified.
    """
    if not gs.norms:
        raise ValueError("ground-state norm cache is empty")
    return 0.5 * (params.p + 1.0) * gs.norms["potential"] / gs.norms["lp1"]


def pohozaev_residuals(gs: GroundState) -> tuple[float, float]:
    """Two integral identities characterizing the soliton, as residuals
    relative to ||Q||_m^m (m = 2 + 4/N), from the cached norms.

    res1: |grad|^2 + ||.||_2^2 - ||.||_m^m     (equation against the profile)
    res2: |grad|^2 - (N/(N+2)) ||.||_m^m       (zero-energy identity)

    The first holds exactly for the discrete soliton (same discrete
    operators); the second converges at the scheme order.
    """
    N = gs.grid.N
    grad = gs.norms["grad"]
    mass = gs.norms["mass"]
    crit = gs.norms["crit"]
    res1 = (grad + mass - crit) / crit
    res2 = (grad - N / (N + 2.0) * crit) / crit
    return float(res1), float(res2)
