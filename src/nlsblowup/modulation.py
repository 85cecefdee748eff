"""Soliton-tube decomposition into (lambda, b, gamma, eps) and diagnostics.

A field u near the rescaled-profile family is written as

    u(x) = lam^(-N/2) (P(lam, b) + eps)(x/lam) exp(-i(b/4)|x|^2/lam^2 + i gamma)

with the remainder eps pinned down by three orthogonality conditions

    (eps, i Lam P)_2 = (eps, |y|^2 P)_2 = (eps, i rho)_2 = 0,

where Lam is the scaling generator and rho the bordered-system profile.
Only the physical-space difference between u and the modulated profile is
resampled onto the renormalized grid; P stays exact on its own grid, so a
field on the profile family decomposes with eps = 0.  The three scalar
parameters are found by a Newton iteration on the condition vector; the
Jacobian is assembled analytically (spline derivatives for the sampled
field, monomial derivatives for P) with a finite-difference fallback, and
tube membership is judged on the converged remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemParams,
    RadialField,
    RadialGrid,
    apply_scaling_generator,
    grad_norm_sq,
    integrate,
    nonlinearity_eval,
    norm_H1,
    pair,
    potential_weights,
    weighted_norm,
)
from .profile import (
    ProfileExpansion,
    eval_profile,
    even_spline,
    profile_derivatives,
    rescale_to_physical,
)
from .reduced import classify_regime

__all__ = [
    "TubeExit",
    "ModulationState",
    "decompose",
    "reconstruct",
    "hat_epsilon",
    "lyapunov_S",
    "energy_inequality_check",
    "tube_distance",
]


class TubeExit(RuntimeError):
    """The field left the soliton tube; the decomposition is undefined."""


@dataclass
class ModulationState:
    """Decomposition result; ``eps`` lives on the renormalized grid."""

    lam: float
    b: float
    gamma: float
    eps: RadialField
    t: float
    s: float
    expansion: ProfileExpansion
    eps_H1: float
    eps_P: float
    orth: tuple[float, float, float]

    @property
    def grid(self) -> RadialGrid:
        return self.expansion.grid


def _renormalized(spline, grid: RadialGrid, N: int, lam: float, b: float,
                  gamma: float, rmax_src: float) -> np.ndarray:
    """Sample lam^(N/2) u(lam y) exp(i(b/4)y^2 - i gamma) on ``grid``."""
    y = grid.nodes
    x = lam * y
    vals = np.where(x <= rmax_src, spline(x), 0.0 + 0.0j)
    return lam ** (0.5 * N) * vals * np.exp(0.25j * b * y ** 2 - 1j * gamma)


def _remainder(u: RadialField, expansion: ProfileExpansion, lam: float,
               b: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(eps, P) at the parameters (lam, b, gamma).

    P = P(lam, b) stays exact on its own grid; only the physical-space
    difference D = u - rescale_to_physical(P) is resampled, so a field on
    the profile family has eps = 0 exactly.  (Resampling u itself would
    carry the spline error of the |r|^(2-2 sigma) cusp of the corrections.)
    """
    grid = expansion.grid
    P = eval_profile(expansion, lam, b)[0].values
    try:
        P_phys = rescale_to_physical(RadialField(grid, P), lam, b, gamma,
                                     u.grid)
    except ValueError as exc:  # scale under-resolved on the field grid
        raise TubeExit(str(exc)) from exc
    D = u.values - P_phys.values
    eps = _renormalized(even_spline(RadialField(u.grid, D)), grid, grid.N,
                        lam, b, gamma, u.grid.nodes[-1])
    return eps, P


def tube_distance(u: RadialField, expansion: ProfileExpansion,
                  lam_g: float, gamma_g: float, *, b: float = 0.0) -> float:
    """H1 norm of the remainder eps of u against P(lam_g, b) at phase
    gamma_g: the distance ``decompose`` judges tube membership by."""
    eps, _ = _remainder(u, expansion, lam_g, b, gamma_g)
    return norm_H1(RadialField(expansion.grid, eps))


def _default_guess(u: RadialField,
                   expansion: ProfileExpansion) -> tuple[float, float, float]:
    gs = expansion.gs
    gn = grad_norm_sq(u)
    if gn <= 0.0:
        raise TubeExit("field has no gradient energy; no scale defined")
    lam = math.sqrt(gs.norms["grad"] / gn)
    gamma = float(np.angle(u.values[0]))
    return lam, 0.0, gamma


def decompose(u: RadialField, expansion: ProfileExpansion,
              guess: tuple[float, float, float] | None = None, *,
              delta: float = 0.3, tol: float = 1e-12,
              max_iter: int = 50, t: float = 0.0,
              s: float = 0.0) -> ModulationState:
    """Solve the three orthogonality conditions for (lam, b, gamma).

    ``guess`` is (lam, b, gamma); when omitted it is derived from the
    gradient-ratio scale and the central phase.  Tube membership is judged
    after convergence: TubeExit is raised when the Newton iteration fails
    or when the converged remainder has ||eps||_H1 >= ``delta``.

    The remainder is the renormalized resample of D = u - P_(lam,b,gamma)
    in physical space (see ``tube_distance``); P itself is never resampled.
    The Jacobian treats the resample of the profile term as P, which makes
    it a quasi-Newton matrix; a finite-difference Jacobian takes over when
    the iteration stalls.
    """
    grid = expansion.grid
    gs = expansion.gs
    N = grid.N
    y = grid.nodes
    y2 = y ** 2
    rho = gs.rho.values if gs.rho is not None else None
    if rho is None:
        from .linops import solve_rho
        rho = solve_rho(gs).values
    spline = even_spline(u)
    rmax_src = u.grid.nodes[-1]

    if guess is None:
        guess = _default_guess(u, expansion)
    lam_g, b_g, gamma_g = float(guess[0]), float(guess[1]), float(guess[2])
    if lam_g <= 0.0:
        raise ValueError("guess scale must be positive")

    m = np.array([lam_g, b_g, gamma_g])

    def conditions(mvec):
        lam, b, gamma = mvec
        eps, P = _remainder(u, expansion, lam, b, gamma)
        LamP = apply_scaling_generator(grid, P)
        R = np.array([pair(grid, eps, 1j * LamP),
                      pair(grid, eps, y2 * P),
                      pair(grid, eps, 1j * rho)])
        return R, P, eps, LamP

    def jacobian(mvec, P, eps, LamP):
        lam, b, gamma = mvec
        dPdl, dPdb = profile_derivatives(expansion, lam, b)
        T = _renormalized(spline, grid, N, lam, b, gamma, rmax_src)
        x = lam * y
        dspl = np.where(x <= rmax_src, spline(x, 1), 0.0 + 0.0j)
        # lam d/dlam of the renormalized sample = (N/2 + lam y d/dx) T
        dTdl = ((0.5 * N) * T + lam ** (0.5 * N) * x * dspl
                * np.exp(0.25j * b * y2 - 1j * mvec[2])) / lam
        dTdb = 0.25j * y2 * T
        dTdg = -1j * T
        de = (dTdl - dPdl, dTdb - dPdb, dTdg)
        W = (1j * LamP, y2 * P, 1j * rho)
        dW = ((1j * apply_scaling_generator(grid, dPdl), y2 * dPdl, None),
              (1j * apply_scaling_generator(grid, dPdb), y2 * dPdb, None))
        J = np.empty((3, 3))
        for a in range(3):
            for col in range(3):
                val = pair(grid, de[col], W[a])
                if col < 2 and dW[col][a] is not None:
                    val += pair(grid, eps, dW[col][a])
                J[a, col] = val
        return J

    def fd_jacobian(mvec):
        J = np.empty((3, 3))
        for col in range(3):
            h = 1e-7 * max(abs(mvec[col]), 1.0)
            mp, mm = mvec.copy(), mvec.copy()
            mp[col] += h
            mm[col] -= h
            Rp, *_ = conditions(mp)
            Rm, *_ = conditions(mm)
            J[:, col] = (Rp - Rm) / (2.0 * h)
        return J

    converged = False
    use_fd = False
    prev = np.inf
    stalls = 0
    for _ in range(max_iter):
        R, P, eps, LamP = conditions(m)
        rmax_R = float(np.max(np.abs(R)))
        if rmax_R < tol:
            converged = True
            break
        if rmax_R > 0.5 * prev:
            stalls += 1
            if stalls >= 3:
                use_fd = True
        else:
            stalls = 0
        prev = rmax_R
        J = fd_jacobian(m) if use_fd else jacobian(m, P, eps, LamP)
        try:
            step = np.linalg.solve(J, R)
        except np.linalg.LinAlgError:
            if use_fd:
                raise TubeExit("modulation Newton: singular Jacobian")
            use_fd = True
            step = np.linalg.solve(fd_jacobian(m), R)
        for _ in range(20):
            if m[0] - step[0] > 0.0:
                break
            step *= 0.5
        m = m - step
    if not converged:
        raise TubeExit(
            f"modulation Newton stagnated after {max_iter} iterations "
            f"(condition vector {prev:.3e})")

    lam, b, gamma = float(m[0]), float(m[1]), float(m[2])
    gamma = gamma_g + math.remainder(gamma - gamma_g, 2.0 * math.pi)
    R, P, eps, _ = conditions(np.array([lam, b, gamma]))
    eps_field = RadialField(grid, eps)
    eps_H1 = norm_H1(eps_field)
    if eps_H1 >= delta:
        raise TubeExit(f"tube exit: H1 distance {eps_H1:.4f} >= delta {delta}")
    return ModulationState(
        lam=lam, b=b, gamma=gamma, eps=eps_field, t=t, s=s,
        expansion=expansion, eps_H1=eps_H1,
        eps_P=pair(grid, eps, P), orth=tuple(float(r) for r in R))


def reconstruct(state: ModulationState, grid: RadialGrid) -> RadialField:
    """Physical field lam^(-N/2)(P+eps)(x/lam) e^(-i(b/4)|x|^2/lam^2+i gamma)."""
    P_field, _ = eval_profile(state.expansion, state.lam, state.b)
    total = RadialField(state.grid, P_field.values + state.eps.values)
    return rescale_to_physical(total, state.lam, state.b, state.gamma, grid)


def hat_epsilon(state: ModulationState) -> RadialField:
    """Phase-twisted remainder eps * exp(-i b |y|^2 / 4)."""
    y2 = state.grid.nodes ** 2
    return RadialField(state.grid,
                       state.eps.values * np.exp(-0.25j * state.b * y2))


def lyapunov_S(state: ModulationState, params: ProblemParams,
               m: int = 10) -> float:
    """Scaled Lyapunov functional of the remainder.

    S = lam^(-m) [ 1/2 ||eps||_H1^2 + b^2 ||y eps||_2^2
                   - int( F(P+eps) - F(P) - dF(P)(eps) )
                   - lam^a C1 int( G(P+eps) - G(P) - dG(P)(eps) )
                   - lam^a (C2/2) || r^-sigma eps ||_2^2 ]
    """
    grid = state.grid
    eps = state.eps.values
    P_field, _ = eval_profile(state.expansion, state.lam, state.b)
    P = P_field.values
    quad = 0.5 * norm_H1(state.eps) ** 2 \
        + state.b ** 2 * weighted_norm(state.eps, grid.nodes ** 2) ** 2
    remainder_F = (nonlinearity_eval("F", P + eps, params)
                   - nonlinearity_eval("F", P, params)
                   - np.real(nonlinearity_eval("f", P, params)
                             * np.conj(eps)))
    total = quad - float(np.real(integrate(grid, remainder_F)))
    if params.C1 != 0.0 or params.C2 != 0.0:
        shift = state.lam ** params.alpha
        remainder_G = (nonlinearity_eval("G", P + eps, params)
                       - nonlinearity_eval("G", P, params)
                       - np.real(nonlinearity_eval("g", P, params)
                                 * np.conj(eps)))
        total -= shift * params.C1 * float(np.real(integrate(grid, remainder_G)))
        pot = float(np.real(integrate(
            grid, potential_weights(grid, params.sigma) * np.abs(eps) ** 2)))
        total -= shift * 0.5 * params.C2 * pot
    return float(total / state.lam ** m)


def energy_inequality_check(state: ModulationState, params: ProblemParams,
                            E0: float) -> float:
    """Ratio (b^2 + ||hat eps||_H1^2) / (lam^2 E0)   (balanced regime)
    or    (b^2 + ||hat eps||_H1^2) / lam^alpha       (otherwise),

    the regime being ``reduced.classify_regime`` of the state's expansion.
    Bounded along admissible blow-up trajectories.  A balanced check with
    E0 <= 0 is rejected: positive energy is part of the balanced regime.
    """
    num = state.b ** 2 + norm_H1(hat_epsilon(state)) ** 2
    if classify_regime(state.expansion) == "balanced":
        if E0 <= 0.0:
            raise ValueError(
                "balanced energy inequality needs E0 > 0 "
                f"(got {E0}); zero-energy collapse is excluded")
        return float(num / (state.lam ** 2 * E0))
    return float(num / state.lam ** params.alpha)
