"""Soliton-tube decomposition into (lambda, b, gamma, eps) and diagnostics.

A field u near the rescaled-profile family is written as

    u(x) = lam^(-N/2) (P(lam, b) + eps)(x/lam) exp(-i(b/4)|x|^2/lam^2 + i gamma)

with the remainder eps pinned down by three orthogonality conditions

    (eps, i Lam P)_2 = (eps, |y|^2 P)_2 = (eps, i rho)_2 = 0,

where Lam is the scaling generator and rho the bordered-system profile.
Only the physical-space difference between u and the modulated profile is
resampled onto the renormalized grid; P stays exact on its own grid, so a
field on the profile family decomposes with eps = 0.  The three scalar
parameters are found by a Newton iteration on the condition vector with
one Jacobian, assembled analytically on the renormalized grid (the scaling
generator and y^2 acting on the sample eps + P of the field, monomial
derivatives for P), and tube membership is judged on the converged
remainder.  Each iterate evaluates the profile and the pairing directions
once, and the returned state carries the converged iterate's P and
remainder, which ``reconstruct`` and ``lyapunov_S`` read.

The only field-grid spline is the cubic of D, sampled at x = lam y <=
lam y[-1] by ``profile._resample`` from the slopes of the nodes those
samples reach plus 64; a spline's end condition fades by 2 - sqrt(3) per
node inward, so the samples are bit for bit those of the whole grid's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LocalTerms,
    RadialField,
    RadialGrid,
    apply_scaling_generator,
    integrate,
    norm_H1,
    pair,
    unit_phase,
    weighted_norm,
)
from .profile import (
    ProfileExpansion,
    _resample,
    eval_profile,
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
]


class TubeExit(RuntimeError):
    """The field left the soliton tube; the decomposition is undefined."""


# Tube radius: a converged remainder with ||eps||_H1 >= _TUBE_DELTA exits.
_TUBE_DELTA = 0.3
# Newton on the condition vector stops below _NEWTON_TOL (sup norm) and
# gives up after _NEWTON_MAX_ITER iterations.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50


@dataclass
class ModulationState:
    """Decomposition result (lam, b, gamma, P, eps): ``P`` is the profile
    P(lam, b) of the converged iterate and ``eps`` the remainder, both on
    the renormalized grid.

    ``iterations`` counts the condition evaluations of the Newton run,
    one per iterate.
    """

    lam: float
    b: float
    gamma: float
    P: RadialField
    eps: RadialField
    expansion: ProfileExpansion
    eps_H1: float
    eps_P: float
    orth: tuple[float, float, float]
    iterations: int = 0

    @property
    def grid(self) -> RadialGrid:
        return self.expansion.grid


def _remainder(u: RadialField, expansion: ProfileExpansion, lam: float,
               b: float, gamma: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """(eps, P) at the parameters (lam, b, gamma).

    P = P(lam, b) stays exact on its own grid; only the physical-space
    difference D = u - rescale_to_physical(P) is resampled, so a field on
    the profile family has eps = 0 exactly.  (Resampling u itself would
    carry the spline error of the |r|^(2-2 sigma) cusp of the corrections.)
    D is sampled at x = lam y and multiplied by the chirp
    lam^(N/2) exp(i(b/4) y^2 - i gamma) in one ``profile._resample``.
    """
    grid = expansion.grid
    P = eval_profile(expansion, lam, b)[0].values
    try:
        P_phys = rescale_to_physical(RadialField(grid, P), lam, b, gamma,
                                     u.grid)
    except ValueError as exc:  # scale under-resolved on the field grid
        raise TubeExit(str(exc)) from exc
    D = RadialField(u.grid, u.values - P_phys.values)
    y = grid.nodes
    return _resample(D, lam * y, y, lam ** (0.5 * grid.N), -b, -gamma), P


def decompose(u: RadialField, expansion: ProfileExpansion,
              guess: tuple[float, float, float]) -> ModulationState:
    """Solve the three orthogonality conditions for (lam, b, gamma).

    ``guess`` is the Newton seed (lam, b, gamma), lam > 0; there is no
    default seed.  Tube membership is judged after convergence: TubeExit
    is raised when the Jacobian is singular, when the iteration has not
    converged after ``_NEWTON_MAX_ITER`` iterates, or when the converged
    remainder has ||eps||_H1 >= ``_TUBE_DELTA``.  A step that would take
    lam to or below 0 is halved until it does not.

    The remainder is the renormalized resample of D = u - P_(lam,b,gamma)
    in physical space (see ``_remainder``); P itself is never resampled.
    The Jacobian treats the resample of the profile term as P, which makes
    it a quasi-Newton matrix: the renormalized sample of u is then
    T = eps + P, and its parameter derivatives are operators on the
    renormalized grid (see ``jacobian``), so u is never resampled.
    """
    grid = expansion.grid
    y2 = grid.nodes ** 2
    irho = 1j * expansion.gs.rho.values

    lam_g, b_g, gamma_g = float(guess[0]), float(guess[1]), float(guess[2])
    if lam_g <= 0.0:
        raise ValueError("guess scale must be positive")

    m = np.array([lam_g, b_g, gamma_g])

    def jacobian(mvec, P, eps, W):
        lam, b, gamma = mvec
        dPdl, dPdb = profile_derivatives(expansion, lam, b)
        # T = lam^(N/2) u(lam y) exp(i(b/4) y^2 - i gamma) = eps + P has
        # lam dT/dlam = (Lam - (i b/2) y^2) T, dT/db = (i/4) y^2 T and
        # dT/dgamma = -i T, with Lam = N/2 + y d/dy the scaling generator
        T = eps + P
        dTdl = (apply_scaling_generator(grid, T) - 0.5j * b * y2 * T) / lam
        de = (dTdl - dPdl, 0.25j * y2 * T - dPdb, -1j * T)
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

    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        eps, P = _remainder(u, expansion, *m)
        # the pairing directions i Lam P, y^2 P, i rho
        W = (1j * apply_scaling_generator(grid, P), y2 * P, irho)
        R = np.array([pair(grid, eps, w) for w in W])
        rmax_R = float(np.max(np.abs(R)))
        if rmax_R < _NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(jacobian(m, P, eps, W), R)
        except np.linalg.LinAlgError as exc:
            raise TubeExit("modulation Newton: singular Jacobian") from exc
        for _ in range(20):
            if m[0] - step[0] > 0.0:
                break
            step *= 0.5
        m = m - step
    else:
        raise TubeExit(
            f"modulation Newton stagnated after {_NEWTON_MAX_ITER} iterations "
            f"(condition vector {rmax_R:.3e})")

    lam, b, gamma = float(m[0]), float(m[1]), float(m[2])
    gamma = gamma_g + math.remainder(gamma - gamma_g, 2.0 * math.pi)
    eps_field = RadialField(grid, eps)
    eps_H1 = norm_H1(eps_field)
    if eps_H1 >= _TUBE_DELTA:
        raise TubeExit(f"tube exit: H1 distance {eps_H1:.4f} >= delta "
                       f"{_TUBE_DELTA}")
    return ModulationState(
        lam=lam, b=b, gamma=gamma, P=RadialField(grid, P), eps=eps_field,
        expansion=expansion, eps_H1=eps_H1,
        eps_P=pair(grid, eps, P), orth=tuple(float(r) for r in R),
        iterations=iterations)


def reconstruct(state: ModulationState, grid: RadialGrid) -> RadialField:
    """Physical field lam^(-N/2)(P+eps)(x/lam) e^(-i(b/4)|x|^2/lam^2+i gamma)."""
    total = RadialField(state.grid, state.P.values + state.eps.values)
    return rescale_to_physical(total, state.lam, state.b, state.gamma, grid)


def hat_epsilon(state: ModulationState) -> RadialField:
    """Phase-twisted remainder eps * unit_phase(-b |y|^2 / 4)."""
    y2 = state.grid.nodes ** 2
    return RadialField(state.grid,
                       state.eps.values * unit_phase(-0.25 * state.b * y2))


def lyapunov_S(state: ModulationState) -> float:
    """Scaled Lyapunov functional of the state's remainder.

    S = lam^(-10) [ 1/2 ||eps||_H1^2 + b^2 ||y eps||_2^2
                    - int( D(P+eps) - D(P) - rate(|P|^2) Re(P conj(eps)) ) ]

    with P the state's profile, D and rate the ``LocalTerms`` density and
    rate of the expansion's params at shift lam^a; the potential's part of
    the bracket is (C2/2) lam^a V |eps|^2.
    """
    grid = state.grid
    params = state.expansion.params
    eps = state.eps.values
    P = state.P.values
    quad = 0.5 * state.eps_H1 ** 2 \
        + state.b ** 2 * weighted_norm(state.eps, grid.nodes ** 2) ** 2
    terms = LocalTerms.of(params, grid, state.lam ** params.alpha)
    remainder = (terms.density(P + eps) - terms.density(P)
                 - terms.rate(P.real ** 2 + P.imag ** 2)
                 * np.real(P * np.conj(eps)))
    total = quad - float(integrate(grid, remainder))
    return float(total / state.lam ** 10)


def energy_inequality_check(state: ModulationState, E0: float) -> float:
    """Ratio (b^2 + ||hat eps||_H1^2) / (lam^2 E0)   (balanced regime)
    or    (b^2 + ||hat eps||_H1^2) / lam^alpha       (otherwise),

    the regime being ``reduced.classify_regime`` of the state's expansion
    and alpha that of its params.  Bounded along admissible blow-up
    trajectories.  A balanced check with E0 <= 0 is rejected: positive
    energy is part of the balanced regime.
    """
    num = state.b ** 2 + norm_H1(hat_epsilon(state)) ** 2
    if classify_regime(state.expansion) == "balanced":
        if E0 <= 0.0:
            raise ValueError(
                "balanced energy inequality needs E0 > 0 "
                f"(got {E0}); zero-energy collapse is excluded")
        return float(num / (state.lam ** 2 * E0))
    return float(num / state.lam ** state.expansion.params.alpha)
