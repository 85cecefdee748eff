"""Linearized operators around the soliton and their solvers.

Around the soliton Q the linearization of the unperturbed equation splits
into two radial Schroedinger operators acting on the real and imaginary
parts,

    Lplus  = -Lap + 1 - (1 + 4/N) Q^(4/N)
    Lminus = -Lap + 1 - Q^(4/N) ,

with Lminus Q = 0.  This module builds both as ``core.Operator``s, the
grid's one discrete -Lap plus a diagonal (exactly self-adjoint in the
cell-weighted inner product; the fourth-order pentadiagonal stencil for
N = 1, the tridiagonal flux form for N = 2, 3), solves
well-posed and bordered systems with iterative refinement (each operator
is factored once per call, and every refinement sweep reuses that
factor), produces the
companion profile rho solving  Lplus rho = r^2 Q, and certifies constrained
positivity of the quadratic form by a preconditioned block eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .core import (
    LocalTerms,
    Operator,
    ProblemParams,
    RadialField,
    apply_neg_laplacian,
    apply_scaling_generator,
    pair,
)
from .groundstate import GroundState, refine_longdouble

__all__ = [
    "BorderedSolution",
    "solve_rho",
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
# Operators and basic application
# --------------------------------------------------------------------------

def _operator(gs: GroundState, which: str) -> Operator:
    """Lplus (``which`` = "plus") or Lminus on the grid's one discrete -Lap."""
    q = gs.params.q
    Qpow = np.abs(gs.Q.values) ** (q - 1.0)
    return Operator.of(gs.grid, 1.0 - (q * Qpow if which == "plus" else Qpow))


def _solve_refined(op: Operator, rhs: np.ndarray) -> np.ndarray:
    """Banded solve followed by two sweeps of iterative refinement; the
    three solves share the operator's one LU factor."""
    x = op.solve(rhs)
    for _ in range(2):
        x = x + op.solve(rhs - op.matvec(x))
    return x


def _residual_floor(op: Operator, x: np.ndarray, rhs: np.ndarray) -> float:
    """Roundoff floor of a measured residual ||A x - rhs||.

    Even an exact solution shows a residual of order eps * ||A|| * ||x||
    when evaluated in floating point; genuine breakdowns exceed this by
    orders of magnitude.
    """
    opscale = float(np.sum(np.max(np.abs(op.ab), axis=1)))
    eps = np.finfo(float).eps
    return eps * (opscale * float(np.linalg.norm(x)) + float(np.linalg.norm(rhs)))


# --------------------------------------------------------------------------
# Solvers
# --------------------------------------------------------------------------

def solve_rho(gs: GroundState) -> RadialField:
    """Solve  Lplus rho = r^2 Q  and cache the result on the ground state."""
    op = _operator(gs, "plus")
    rhs = gs.grid.nodes ** 2 * gs.Q.values
    x = _solve_refined(op, rhs)
    res = float(np.linalg.norm(op.matvec(x) - rhs))
    floor = _residual_floor(op, x, rhs)
    if res > max(100.0 * floor, 1e-10 * np.linalg.norm(rhs)):
        raise ValueError(
            f"Lplus solve breakdown: residual {res:.3e} vs roundoff floor "
            f"{floor:.3e} (solution scale {np.max(np.abs(x)):.3e})")
    rho = RadialField(gs.grid, x)
    gs.rho = rho
    return rho


def solve_bordered(gs: GroundState, F: RadialField) -> BorderedSolution:
    """Solve the augmented system for (P, beta) with (P, Q)_2 = 0.

    The quadratic-potential column is eliminated through rho:
    Lplus (rho/4) = (r^2/4) Q exactly, so P = x + beta*(rho/4) with
    x = Lplus^{-1} F, and beta is fixed by the vanishing Q-component of P.
    """
    if gs.rho is None:
        solve_rho(gs)
    op = _operator(gs, "plus")
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
    if gs.rho is None:
        solve_rho(gs)
    op = _operator(gs, "minus")
    grid = gs.grid
    Qv = gs.Q.values
    rhov = gs.rho.values
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
    if gs.rho is None:
        solve_rho(gs)
    grid = gs.grid
    q = gs.params.q
    Qld = refine_longdouble(gs)
    Qpow = np.abs(Qld) ** (q - 1.0)

    def lplus(x):
        return apply_neg_laplacian(grid, x) + x - q * Qpow * x

    def lminus(x):
        return apply_neg_laplacian(grid, x) + x - Qpow * x

    # refine rho in extended precision against the long-double forcing
    op_p = _operator(gs, "plus")
    r2Qld = grid.nodes.astype(np.longdouble) ** 2 * Qld
    rho = gs.rho.values.astype(np.longdouble)
    for _ in range(2):
        res = r2Qld - lplus(rho)
        rho = rho + op_p.solve(res.astype(float)).astype(np.longdouble)

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


def _symmetric_band(gs: GroundState, which: str) -> np.ndarray:
    """Upper-banded storage of the diagonal similarity W^(1/2) L W^(-1/2).

    The weighted eigenproblem (W L) x = lam W x is equivalent to the
    standard symmetric banded problem for this matrix, so banded bisection
    applies directly.
    """
    w = gs.grid.quad_weights
    op = _operator(gs, which)
    u = op.u
    ab = op.ab[:u + 1].copy()
    for k in range(1, u + 1):
        ab[u - k, k:] *= np.sqrt(w[:-k] / w[k:])
    return ab


def _bottom_eigenvalue(gs: GroundState, which: str) -> float:
    """The smallest eigenvalue of Lplus or Lminus alone, by deterministic
    banded bisection on the symmetrized banded form (no eigenvectors, so
    no dense n x n matrix)."""
    from scipy.linalg import eig_banded
    return float(eig_banded(_symmetric_band(gs, which), lower=False,
                            eigvals_only=True, select="i",
                            select_range=(0, 0))[0])


def lplus_unconstrained_min(gs: GroundState) -> float:
    """Smallest eigenvalue of Lplus alone (negative: one unstable mode)."""
    return _bottom_eigenvalue(gs, "plus")


def lminus_unconstrained_min(gs: GroundState) -> float:
    """Smallest eigenvalue of Lminus alone (zero: its kernel is Q)."""
    return _bottom_eigenvalue(gs, "minus")


# Quadratic penalty on the constraint directions, and the shift-invert
# point below the bottom of the penalized operator.
_PENALTY = 1e6
_SHIFT = -0.5


def coercivity_spectrum(gs: GroundState, rho: RadialField) -> float:
    """Smallest eigenvalue of  <Lplus a, a> + <Lminus c, c>  under the
    constraints a _|_ Q, a _|_ r^2 Q, c _|_ rho (L2 normalization).

    The constraints are enforced by a quadratic penalty on the (smooth)
    constraint directions; the penalty bias is O(|S z|^2 / penalty) ~ 1e-5,
    far below the certified margin.  The bottom of the penalized operator
    is found by shift-invert Lanczos, with the rank-3 penalty inverted
    through the Woodbury identity on top of banded LU solves.

    A positive value certifies coercivity of the discrete quadratic form on
    the constrained subspace.
    """
    from scipy.sparse.linalg import eigsh

    grid = gs.grid
    n = grid.n
    sq = np.sqrt(grid.quad_weights * grid.surface)
    blocks = [(slice(0, n), _operator(gs, "plus")),
              (slice(n, 2 * n), _operator(gs, "minus"))]

    # constraint directions in the symmetrized coordinates, orthonormalized
    Z = np.zeros((2 * n, 3))
    Z[:n, 0] = sq * gs.Q.values
    Z[:n, 1] = sq * grid.nodes ** 2 * gs.Q.values
    Z[n:, 2] = sq * rho.values
    Z, _ = np.linalg.qr(Z)

    # S = W^(1/2) L W^(-1/2) blockwise, applied and shift-inverted through
    # the banded operators themselves
    def s_matvec(x):
        out = np.empty_like(x)
        for sl, op in blocks:
            out[sl] = sq * op.matvec(x[sl] / sq)
        return out

    def a_matvec(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return s_matvec(x) + _PENALTY * (Z @ (Z.T @ x))

    shifted = [(sl, op.shifted(_SHIFT)) for sl, op in blocks]

    def t0_solve(b):
        out = np.empty_like(b)
        for sl, op in shifted:
            out[sl] = sq * op.solve(b[sl] / sq)
        return out

    G = np.column_stack([t0_solve(Z[:, j]) for j in range(3)])
    K = np.linalg.inv(np.eye(3) / _PENALTY + Z.T @ G)

    def opinv(b):
        b = np.asarray(b, dtype=float).reshape(-1)
        y = t0_solve(b)
        return y - G @ (K @ (Z.T @ y))

    dim = 2 * n
    A = LinearOperator((dim, dim), matvec=a_matvec, dtype=float)
    OPinv = LinearOperator((dim, dim), matvec=opinv, dtype=float)
    vals = eigsh(A, k=1, sigma=_SHIFT, OPinv=OPinv, which="LM",
                 v0=np.ones(dim),  # ARPACK's default start is random
                 return_eigenvectors=False, tol=1e-10, maxiter=2000)
    return float(vals[0])
