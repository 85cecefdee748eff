"""Linearized operators around the soliton and their solvers.

Around the soliton Q the linearization of the unperturbed equation splits
into two radial Schroedinger operators acting on the real and imaginary
parts,

    Lplus  = -Lap + 1 - (1 + 4/N) Q^(4/N)
    Lminus = -Lap + 1 - Q^(4/N) ,

with Lminus Q = 0.  Both are ``core.Operator``s, the grid's one discrete
-Lap plus a diagonal (exactly self-adjoint in the cell-weighted inner
product; the fourth-order pentadiagonal stencil for N = 1, the tridiagonal
flux form for N = 2, 3), built once per ground state as
``GroundState.Lplus``/``.Lminus`` and factored on their first solve; every
later solve and refinement sweep reuses that factor, and so does the
ground state's companion profile rho solving  Lplus rho = r^2 Q.  This
module solves well-posed and bordered systems with iterative refinement,
finds the bottom of each operator's spectrum and certifies constrained
positivity of the quadratic form, both by one shift-invert Lanczos
eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LocalTerms,
    Operator,
    ProblemParams,
    RadialField,
    apply_neg_laplacian,
    apply_scaling_generator,
    pair,
)
from .groundstate import GroundState, _residual_floor, _solve_refined

__all__ = [
    "BorderedSolution",
    "solve_bordered",
    "solve_lminus_orthogonal",
    "branch_forcing",
    "beta_closed_form",
    "operator_identity_residuals",
    "coercivity_spectrum",
    "lplus_unconstrained_min",
    "lminus_unconstrained_min",
]


@dataclass
class BorderedSolution:
    """Solution pair of the augmented system

        [ Lplus        -(r^2/4) Q ] [P   ]   [F]
        [ <. , Q>_2        0      ] [beta] = [0]

    P is orthogonal to Q and beta is the scalar multiplier of the
    quadratic-potential column.
    """

    P: RadialField
    beta: float


# --------------------------------------------------------------------------
# Solvers
# --------------------------------------------------------------------------

def solve_bordered(gs: GroundState, F: RadialField) -> BorderedSolution:
    """Solve the augmented system for (P, beta) with (P, Q)_2 = 0.

    The quadratic-potential column is eliminated through rho:
    Lplus (rho/4) = (r^2/4) Q exactly, so P = x + beta*(rho/4) with
    x = Lplus^{-1} F, and beta is fixed by the vanishing Q-component of P.
    """
    op = gs.Lplus
    Fv = np.asarray(F.values, dtype=float)
    x = _solve_refined(op, Fv)
    grid = gs.grid
    Qv = gs.Q.values
    x1 = gs.rho.values / 4.0
    denom = pair(grid, x1, Qv)
    if abs(denom) < 1e-14:
        raise ValueError("bordered system singular: (rho, Q)_2 vanished")
    beta = -pair(grid, x, Qv) / denom
    P = x + beta * x1
    res = float(np.linalg.norm(
        op.matvec(P) - beta * 0.25 * grid.nodes ** 2 * Qv - Fv))
    floor = _residual_floor(op, P, Fv)
    if res > max(100.0 * floor, 1e-9 * np.linalg.norm(Fv)):
        raise ValueError(f"bordered solve residual {res:.3e} exceeds tolerance "
                         f"(roundoff floor {floor:.3e})")
    return BorderedSolution(P=RadialField(grid, P), beta=float(beta))


def solve_lminus_orthogonal(gs: GroundState, G: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve  Lminus x = G - nu*Q  with x orthogonal to rho.

    Lminus is singular up to roundoff (its kernel is spanned by Q), so the
    right-hand side is first projected off Q in the weighted pairing; the
    returned nu is the projection coefficient (the solvability defect of G).
    The banded solve behaves like one step of inverse iteration: its error
    concentrates along Q and is removed afterwards by normalizing the
    rho-component to zero, which also fixes the kernel ambiguity.
    """
    rhov = gs.rho.values
    op = gs.Lminus
    grid = gs.grid
    Qv = gs.Q.values
    qq = pair(grid, Qv, Qv)
    nu = pair(grid, G, Qv) / qq
    Gt = G - nu * Qv
    x = op.solve(Gt)
    for _ in range(2):
        r = Gt - op.matvec(x)
        r = r - (pair(grid, r, Qv) / qq) * Qv
        x = x + op.solve(r)
    x = x - (pair(grid, x, rhov) / pair(grid, Qv, rhov)) * Qv
    res = float(np.linalg.norm(op.matvec(x) - Gt))
    floor = _residual_floor(op, x, Gt)
    if res > max(100.0 * floor, 1e-8 * np.linalg.norm(Gt)):
        raise ValueError(f"Lminus solve residual {res:.3e} exceeds tolerance "
                         f"(roundoff floor {floor:.3e})")
    return x, nu


# --------------------------------------------------------------------------
# Branch forcing and the leading multiplier
# --------------------------------------------------------------------------

def branch_forcing(gs: GroundState, params: ProblemParams) -> RadialField:
    """Leading-order forcing  (C1 Q^(p-1) + C2 r^(-2 sigma)) Q  of the
    expansion: the ``LocalTerms`` perturbation at Q."""
    Q = gs.Q.values
    return RadialField(gs.grid,
                       LocalTerms.of(params, gs.grid).perturbation(Q * Q) * Q)


def beta_closed_form(gs: GroundState, params: ProblemParams) -> float:
    """Quadrature form of the leading multiplier.

    beta = (4/||r Q||_2^2) * ( C1 * N(p-1)/(2(p+1)) * ||Q||_{p+1}^{p+1}
                               + C2 * sigma * ||r^-sigma Q||_2^2 )

    obtained by pairing the bordered equation with the scaling direction.
    Vanishes exactly at the balance coupling C0 = omega.
    """
    N = gs.grid.N
    p = params.p
    kappa = N * (p - 1.0) / (2.0 * (p + 1.0))
    return float(4.0 / gs.norms["virial"]
                 * (params.C1 * kappa * gs.norms["lp1"]
                    + params.C2 * params.sigma * gs.norms["potential"]))


# --------------------------------------------------------------------------
# Identity residuals and constrained positivity
# --------------------------------------------------------------------------

def operator_identity_residuals(gs: GroundState) -> dict:
    """Relative L2 residuals of the four operator identities.

    lminus_Q   : Lminus Q = 0
    lplus_LamQ : Lplus (Lam Q) = -2 Q
    lminus_r2Q : Lminus (r^2 Q) = -4 Lam Q
    lplus_rho  : Lplus rho = r^2 Q

    Evaluated in extended precision from the long-double refined soliton:
    in double precision the storage noise of Q alone, amplified by the
    1/h^3 of Laplacian-after-derivative, would swamp the truncation error
    of the identities on fine grids.
    """
    grid = gs.grid
    q = gs.params.q
    Qld = gs.Q_ld
    Qpow = np.abs(Qld) ** (q - 1.0)

    def lplus(x):
        return apply_neg_laplacian(grid, x) + x - q * Qpow * x

    def lminus(x):
        return apply_neg_laplacian(grid, x) + x - Qpow * x

    # refine rho in extended precision against the long-double forcing
    r2Qld = grid.nodes.astype(np.longdouble) ** 2 * Qld
    rho = gs.rho.values.astype(np.longdouble)
    for _ in range(2):
        res = r2Qld - lplus(rho)
        rho = rho + gs.Lplus.solve(res.astype(float)).astype(np.longdouble)

    lam = apply_scaling_generator(grid, Qld)

    # The Dirichlet tail of the discrete soliton has a boundary layer at
    # values ~eps*|Q|_inf; the derivative stencil inside the scaling
    # generator turns it into a kink that the Laplacian amplifies by 1/h^2.
    # A smooth taper where Q < 1e-10 of its peak removes that junk; its
    # commutator contribution is O(|Q(rmax-3)|*rmax) ~ 1e-8, far below the
    # identity tolerances.
    chi = _tail_taper(grid)
    lam_t = apply_scaling_generator(grid, chi * Qld)

    def l2(x):
        return float(np.sqrt(grid.surface * np.sum(grid.quad_weights * x * x)))

    nQ = l2(Qld)
    return {
        "lminus_Q": l2(lminus(Qld)) / nQ,
        "lplus_LamQ": l2(lplus(lam_t) + 2.0 * chi * Qld) / nQ,
        "lminus_r2Q": l2(lminus(r2Qld) + 4.0 * lam) / (4.0 * l2(lam)),
        "lplus_rho": l2(lplus(rho) - r2Qld) / l2(r2Qld),
    }


def _tail_taper(grid) -> np.ndarray:
    """C^2 cutoff: 1 up to rmax-3, quintic smoothstep down to 0 at rmax-1."""
    r = grid.nodes
    a = max(0.7 * grid.rmax, grid.rmax - 3.0)
    b = max(0.85 * grid.rmax, grid.rmax - 1.0)
    t = np.clip((r - a) / (b - a), 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def _bottom_eigenvalue(gs: GroundState, op: Operator) -> float:
    """The smallest eigenvalue of ``op`` (Lplus or Lminus) alone, by
    shift-invert Lanczos about min(pot) - 1: -Lap is positive semi-definite
    in the weighted inner product, so that shift lies strictly below the
    spectrum."""
    return _lowest_eigenvalue(gs, [op], float(np.min(op.pot)) - 1.0)


def lplus_unconstrained_min(gs: GroundState) -> float:
    """Smallest eigenvalue of Lplus alone (negative: one unstable mode)."""
    return _bottom_eigenvalue(gs, gs.Lplus)


def lminus_unconstrained_min(gs: GroundState) -> float:
    """Smallest eigenvalue of Lminus alone (zero: its kernel is Q)."""
    return _bottom_eigenvalue(gs, gs.Lminus)


# Quadratic penalty on the constraint directions, and the shift-invert
# point below the bottom of the penalized operator.
_PENALTY = 1e6
_SHIFT = -0.5


def coercivity_spectrum(gs: GroundState) -> float:
    """Smallest eigenvalue of  <Lplus a, a> + <Lminus c, c>  under the
    constraints a _|_ Q, a _|_ r^2 Q, c _|_ rho (L2 normalization), rho the
    ground state's.

    The constraints are enforced by a quadratic penalty on the (smooth)
    constraint directions; the penalty bias is O(|S z|^2 / penalty) ~ 1e-5,
    far below the certified margin.

    A positive value certifies coercivity of the discrete quadratic form on
    the constrained subspace.
    """
    grid = gs.grid
    n = grid.n
    sq = np.sqrt(grid.quad_weights * grid.surface)

    # constraint directions in the symmetrized coordinates, orthonormalized
    Z = np.zeros((2 * n, 3))
    Z[:n, 0] = sq * gs.Q.values
    Z[:n, 1] = sq * grid.nodes ** 2 * gs.Q.values
    Z[n:, 2] = sq * gs.rho.values
    Z, _ = np.linalg.qr(Z)
    return _lowest_eigenvalue(gs, [gs.Lplus, gs.Lminus], _SHIFT, Z)


def _lowest_eigenvalue(gs: GroundState, ops: list[Operator], sigma: float,
                       Z: np.ndarray | None = None) -> float:
    """Smallest eigenvalue of S = W^(1/2) L W^(-1/2), L the block diagonal
    of ``ops``, plus _PENALTY Z Z^T if ``Z`` (orthonormal columns) is given,
    by shift-invert Lanczos about ``sigma`` below that eigenvalue.

    (S - sigma)^-1 is applied through each operator's shifted banded
    factor, with the penalty inverted through the Woodbury identity.  In
    this mode ARPACK applies only that inverse, never S itself.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    grid = gs.grid
    n = grid.n
    sq = np.sqrt(grid.quad_weights * grid.surface)
    shifted = [(slice(k * n, (k + 1) * n), op.shifted(sigma))
               for k, op in enumerate(ops)]

    def t0_solve(b):
        b = np.asarray(b, dtype=float).reshape(-1)
        out = np.empty_like(b)
        for sl, op in shifted:
            out[sl] = sq * op.solve(b[sl] / sq)
        return out

    opinv = t0_solve
    if Z is not None:
        G = np.column_stack([t0_solve(Z[:, j]) for j in range(Z.shape[1])])
        K = np.linalg.inv(np.eye(Z.shape[1]) / _PENALTY + Z.T @ G)

        def opinv(b):
            y = t0_solve(b)
            return y - G @ (K @ (Z.T @ y))

    dim = n * len(ops)
    OPinv = LinearOperator((dim, dim), matvec=opinv, dtype=float)
    # OPinv stands in for A too: it gives eigsh the shape and dtype
    vals = eigsh(OPinv, k=1, sigma=sigma, OPinv=OPinv, which="LM",
                 v0=np.ones(dim),  # ARPACK's default start is random
                 return_eigenvectors=False, tol=1e-10, maxiter=2000)
    return float(vals[0])
