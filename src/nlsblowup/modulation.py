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
tube membership is judged on the converged remainder.  Each iterate
evaluates the profile, its chirp phase and the pairing directions once,
and the returned state carries the converged iterate's P and remainder,
which ``reconstruct`` and ``lyapunov_S`` read.

The field-grid splines of D and u are sampled only at x = lam y <= lam y[-1]
and are built on the nodes those samples reach plus 64, with the leading
block of the cached slope factor (``profile._even_cubic``); a spline's end
condition fades by 2 - sqrt(3) per node inward, so the samples are bit for
bit those of the spline on the whole field grid.
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
    weighted_norm,
)
from .profile import (
    ProfileExpansion,
    _chirp,
    _even_cubic,
    _resample,
    _window,
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

    ``iterations`` counts the condition evaluations of the Newton run
    (finite-difference Jacobian columns included) and ``fd_jacobian``
    says whether the finite-difference Jacobian took over.
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
    fd_jacobian: bool = False

    @property
    def grid(self) -> RadialGrid:
        return self.expansion.grid


def _remainder(u: RadialField, expansion: ProfileExpansion, lam: float,
               b: float, gamma: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps, P, phase) at the parameters (lam, b, gamma).

    P = P(lam, b) stays exact on its own grid; only the physical-space
    difference D = u - rescale_to_physical(P) is resampled, so a field on
    the profile family has eps = 0 exactly.  (Resampling u itself would
    carry the spline error of the |r|^(2-2 sigma) cusp of the corrections.)
    ``phase`` is the chirp lam^(N/2) exp(i(b/4) y^2 - i gamma) at the
    sampled y (lam y on u's grid), which the Jacobian reuses.  D's spline
    is built on the window of nodes the samples reach (``_window``).
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
    x = lam * y
    phase = _chirp(x, u.grid.nodes[-1], y, lam ** (0.5 * grid.N), -b, -gamma)
    spline = _even_cubic(D, _window(u.grid, x[phase.size - 1]))
    return _resample(spline, x, phase), P, phase


def decompose(u: RadialField, expansion: ProfileExpansion,
              guess: tuple[float, float, float]) -> ModulationState:
    """Solve the three orthogonality conditions for (lam, b, gamma).

    ``guess`` is the Newton seed (lam, b, gamma), lam > 0; there is no
    default seed.  Tube membership is judged after convergence: TubeExit
    is raised when the Newton iteration fails or when the converged
    remainder has ||eps||_H1 >= ``_TUBE_DELTA``.

    The remainder is the renormalized resample of D = u - P_(lam,b,gamma)
    in physical space (see ``_remainder``); P itself is never resampled.
    The Jacobian treats the resample of the profile term as P, which makes
    it a quasi-Newton matrix; a finite-difference Jacobian takes over when
    the iteration stalls.
    """
    grid = expansion.grid
    gs = expansion.gs
    N = grid.N
    y = grid.nodes
    y2 = y ** 2
    irho = 1j * gs.rho.values
    # u's spline, built when an analytic Jacobian first needs it, on the
    # window of the farthest iterate so far
    u_spline = None

    lam_g, b_g, gamma_g = float(guess[0]), float(guess[1]), float(guess[2])
    if lam_g <= 0.0:
        raise ValueError("guess scale must be positive")

    m = np.array([lam_g, b_g, gamma_g])
    evaluations = 0

    def conditions(mvec):
        nonlocal evaluations
        evaluations += 1
        lam, b, gamma = mvec
        eps, P, phase = _remainder(u, expansion, lam, b, gamma)
        # the pairing directions i Lam P, y^2 P, i rho
        W = (1j * apply_scaling_generator(grid, P), y2 * P, irho)
        R = np.array([pair(grid, eps, w) for w in W])
        return R, P, eps, W, phase

    def jacobian(mvec, P, eps, W, phase):
        nonlocal u_spline
        lam, b, gamma = mvec
        dPdl, dPdb = profile_derivatives(expansion, lam, b)
        x = lam * y
        K = _window(u.grid, x[phase.size - 1])
        if u_spline is None or u_spline.c.shape[1] < K:
            u_spline = _even_cubic(u, K)
        T = _resample(u_spline, x, phase)
        # lam d/dlam of the renormalized sample = (N/2 + lam y d/dx) T
        dTdl = (0.5 * N) * T
        xs = x[:phase.size]
        dTdl[:phase.size] += xs * (u_spline(xs, 1) * phase)
        dTdl /= lam
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
    for _ in range(_NEWTON_MAX_ITER):
        R, P, eps, W, phase = conditions(m)
        rmax_R = float(np.max(np.abs(R)))
        if rmax_R < _NEWTON_TOL:
            converged = True
            break
        if rmax_R > 0.5 * prev:
            stalls += 1
            if stalls >= 3:
                use_fd = True
        else:
            stalls = 0
        prev = rmax_R
        J = fd_jacobian(m) if use_fd else jacobian(m, P, eps, W, phase)
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
            f"modulation Newton stagnated after {_NEWTON_MAX_ITER} iterations "
            f"(condition vector {prev:.3e})")

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
        iterations=evaluations, fd_jacobian=use_fd)


def reconstruct(state: ModulationState, grid: RadialGrid) -> RadialField:
    """Physical field lam^(-N/2)(P+eps)(x/lam) e^(-i(b/4)|x|^2/lam^2+i gamma)."""
    total = RadialField(state.grid, state.P.values + state.eps.values)
    return rescale_to_physical(total, state.lam, state.b, state.gamma, grid)


def hat_epsilon(state: ModulationState) -> RadialField:
    """Phase-twisted remainder eps * exp(-i b |y|^2 / 4)."""
    y2 = state.grid.nodes ** 2
    return RadialField(state.grid,
                       state.eps.values * np.exp(-0.25j * state.b * y2))


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
    quad = 0.5 * norm_H1(state.eps) ** 2 \
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
