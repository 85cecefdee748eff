"""Soliton-tube decomposition into (lambda, b, gamma, eps) and diagnostics.

A field u near the rescaled-profile family is written as

    u(x) = lam^(-N/2) (P(lam, b) + eps)(x/lam) exp(-i(b/4)|x|^2/lam^2 + i gamma)

with the remainder eps pinned down by three orthogonality conditions

    (eps, i Lam P)_2 = (eps, |y|^2 P)_2 = (eps, i rho)_2 = 0,

where Lam is the scaling generator and rho the bordered-system profile.
Only the physical-space difference between u and the modulated profile is
resampled onto the renormalized grid; P stays exact on its own grid, so a
field on the profile family decomposes with eps = 0 to rounding.  The
three scalar parameters are found by a Newton iteration on the condition
vector with one Jacobian, assembled analytically on the renormalized grid
(the scaling generator and y^2 acting on the sample eps + P of the field,
monomial derivatives for P), and tube membership is judged on the
converged remainder.  Each iterate evaluates the profile and the pairing
directions once, and the returned state carries the converged iterate's
P and remainder, which ``reconstruct`` and ``lyapunov_S`` read.

P is linear in the expansion's rows, so P, its scaling generator, its
parameter derivatives and their scaling generator, and the slopes of P's
cubic are combinations of the rows' images, stacked in one table on the
expansion: an iterate is one product per table, one for P, Lam P and P's
slopes and one more for the Jacobian's derivatives, with one slope solve,
for the cubic of D, and the scaling generator applied once, to eps in the
Jacobian.  D's cubic, the only field-grid spline, is formed and solved
only on the nodes its samples x = lam y <= lam y[-1] reach plus 64 (and
the one past them, which its last slope row reads); a spline's end
condition fades by 2 - sqrt(3) per node inward, so the samples are bit
for bit those of the whole grid's.  The condition vector and the
Jacobian are each one ``core.pairings`` product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LocalTerms,
    RadialField,
    RadialGrid,
    _divide,
    apply_scaling_generator,
    integrate,
    norm_H1,
    pair,
    pairings,
    unit_phase,
    weighted_norm,
)
from .profile import (
    ProfileExpansion,
    _rescale,
    _resample,
    _window,
    eval_profile,  # noqa: F401  (perfbench's tracer wraps it here)
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
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps, P, Lam P) at the parameters (lam, b, gamma).

    P = P(lam, b) stays exact on its own grid; only the physical-space
    difference D = u - rescale_to_physical(P) is resampled, so a field on
    the profile family has eps = 0 to rounding: P's cubic is evaluated from
    the slopes of the iterate's one table product (``_images``), which are
    its slopes to rounding, and D's is the one slope solve.  (Resampling u
    itself would carry the spline error of the |r|^(2-2 sigma) cusp of the
    corrections.)  D is formed only on the field nodes its window reads,
    in the rescale's output array, sampled at x = lam y and multiplied by
    the chirp lam^(N/2) exp(i(b/4) y^2 - i gamma) in one
    ``profile._resample``.
    """
    grid, fine = expansion.grid, u.grid
    y = grid.nodes
    P, LamP, S = expansion._images(lam, b)
    n = min(fine.n, _window(fine, lam * y[-1]) + 1)
    try:
        D = _rescale(grid, P, lam, b, gamma, fine, n, S)
    except ValueError as exc:  # scale under-resolved on the field grid
        raise TubeExit(str(exc)) from exc
    np.subtract(u.values[:n], D, out=D)
    return _resample(fine, D, lam * y, y, lam ** (0.5 * grid.N), -b,
                     -gamma), P, LamP


def decompose(u: RadialField, expansion: ProfileExpansion,
              guess: tuple[float, float, float]) -> ModulationState:
    """Solve the three orthogonality conditions for (lam, b, gamma).

    ``guess`` is the Newton seed (lam, b, gamma), finite with lam > 0;
    there is no default seed.  Tube membership is judged after
    convergence: TubeExit is raised when a condition vector is not finite
    (a non-finite field), when the Jacobian is singular, when a step
    cannot be halved to keep lam > 0 within 20 halvings, when the
    iteration has not converged after ``_NEWTON_MAX_ITER`` iterates, or
    when the converged remainder has ||eps||_H1 >= ``_TUBE_DELTA``.

    The remainder is the renormalized resample of D = u - P_(lam,b,gamma)
    in physical space (see ``_remainder``); P itself is never resampled.
    The Jacobian treats the resample of the profile term as P, which makes
    it a quasi-Newton matrix: the renormalized sample of u is then
    T = eps + P, and its parameter derivatives are operators on the
    renormalized grid (see ``jacobian``), so u is never resampled.
    An iterate is one product per table: P, Lam P and P's slopes are one
    product of the expansion's image table (``_images``), and the
    Jacobian's dP/dlam, dP/db and their Lam images one more
    (``_derivative_images``); the conditions are one ``pairings`` product
    of eps with the directions and the Jacobian one of (dT - dP, eps) with
    the directions and their derivatives.
    """
    grid = expansion.grid
    *_, y2, irho = expansion._stack

    m = np.array(guess, dtype=float)
    if not (m[0] > 0.0 and np.all(np.isfinite(m))):
        raise ValueError("guess must be finite with a positive scale")
    gamma_g = float(m[2])
    # the pairing directions i Lam P, y^2 P, i rho, then those of the
    # parameter derivatives: i Lam dP/dlam, y^2 dP/dlam, i Lam dP/db,
    # y^2 dP/db; i X is written in place as (-Im X, Re X)
    W = np.empty((7, grid.n), dtype=complex)
    W[2] = irho

    def jacobian(lam, b, P, LamP, eps):
        dP, LamdP = expansion._derivative_images(lam, b).transpose(1, 0, 2)
        np.negative(LamdP.imag, out=W[3::2].real)
        W[3::2].imag = LamdP.real
        np.multiply(y2, dP, out=W[4::2])
        # T = lam^(N/2) u(lam y) exp(i(b/4) y^2 - i gamma) = eps + P has
        # lam dT/dlam = (Lam - (i b/2) y^2) T, dT/db = (i/4) y^2 T and
        # dT/dgamma = -i T, with Lam = N/2 + y d/dy the scaling generator
        # de rows: the derivatives of T - P in lam, b and gamma, then eps;
        # T and y^2 T are formed in rows 2 and 1, which become -i T and
        # (i/4) y^2 T - dP/db once row 0 has read them
        de = np.empty((4, grid.n), dtype=complex)
        T = np.add(eps, P, out=de[2])
        y2T = np.multiply(y2, T, out=de[1])
        d0 = apply_scaling_generator(grid, eps)
        d0 += LamP
        d0 -= (0.5j * b) * y2T
        np.subtract(_divide(d0, lam), dP[0], out=de[0])
        y2T *= 0.25j
        y2T -= dP[1]
        T *= -1j
        de[3] = eps
        # J[a, col] = (de_col, W_a) + (eps, d W_a / d m_col); W_2 is fixed
        G = pairings(grid, de, W)
        J = G[:3, :3].T.copy()
        J[:2, :2] += G[3, 3:].reshape(2, 2).T
        return J

    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        eps, P, LamP = _remainder(u, expansion, *m)
        np.negative(LamP.imag, out=W[0].real)
        W[0].imag = LamP.real
        np.multiply(y2, P, out=W[1])
        R = pairings(grid, eps[None], W[:3])[0]
        rmax_R = float(np.max(np.abs(R)))
        if not math.isfinite(rmax_R):
            raise TubeExit("modulation Newton: non-finite condition vector")
        if rmax_R < _NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(jacobian(m[0], m[1], P, LamP, eps), R)
        except np.linalg.LinAlgError as exc:
            raise TubeExit("modulation Newton: singular Jacobian") from exc
        for _ in range(20):
            if m[0] - step[0] > 0.0:
                break
            step *= 0.5
        if m[0] - step[0] <= 0.0:
            raise TubeExit("modulation Newton: step cut-back cannot keep "
                           "lam > 0")
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
