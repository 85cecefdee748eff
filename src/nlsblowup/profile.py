"""Blow-up profile expansion in the scale and curvature parameters.

The renormalized flow is reduced to a stationary hierarchy by the ansatz

    P(lam, b) = Q + sum_{j+k<=J} ( b^(2j)   lam^((k+1)a) P_{j,k}^+
                                 + i b^(2j+1) lam^((k+1)a) P_{j,k}^- )
    theta(lam, b) = sum_{j+k<=J} b^(2j) lam^((k+1)a) beta_{j,k}

where a is the common scaling order of the two small perturbations
(subcritical power and inverse-power potential).  Substituting the ansatz
into the renormalized equation, expanding the nonlinearities around Q to
third real-Frechet order, and collecting the coefficient of each monomial
yields, per index pair (j, k):

  * a real bordered system  Lplus P_{j,k}^+ - beta_{j,k} (r^2/4) Q = REST,
    solved by ``linops.solve_bordered`` (this fixes beta_{j,k});
  * an imaginary system     Lminus P_{j,k}^- = G,
    solvable only if (G, Q)_2 = 0.

The driving terms REST and G reference earlier entries; they couple
within one j+k level only downward in j, so levels are processed in
increasing j+k and decreasing j inside each level.

Solvability of the imaginary system is arranged by prescribing the
soliton component (P_{j,k}^+, Q)_2 = c_{j,k}: the defect
delta = (G, Q)_2 depends on that component linearly through the
transport term -(2j + (k+1)a) P_{j,k}^+, so c_{j,k} = delta0/(2j+(k+1)a)
(with delta0 measured at zero component) cancels it exactly.  The shift
is realized through rho: adding t*rho to P^+ adds exactly 4t to beta and
keeps the bordered equation exact.  A pleasant by-product is mass
neutrality: the prescribed components make ||P||_2^2 - ||Q||_2^2 vanish
to the expansion's order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, make_interp_spline

from .core import (
    LocalTerms,
    ProblemParams,
    RadialField,
    RadialGrid,
    apply_neg_laplacian,
    grad_norm_sq,
    integrate,
    norm_H1,
    pair,
    potential_weights,
)
from .groundstate import GroundState
from .linops import (branch_forcing, solve_bordered, solve_lminus_orthogonal,
                     solve_rho)

__all__ = [
    "ProfileEntry",
    "ProfileExpansion",
    "build_profile",
    "eval_profile",
    "theta_value",
    "profile_derivatives",
    "residual_Psi",
    "rescale_to_physical",
    "profile_energy",
    "psi_slope_sweep",
    "even_spline",
    "fit_loglog_slope",
]

MAX_ORDER = 2


@dataclass
class ProfileEntry:
    """One (j, k) entry of the expansion.

    ``Pp`` multiplies b^(2j) lam^((k+1)a); ``Pm`` multiplies
    i b^(2j+1) lam^((k+1)a); ``beta`` is the matching theta coefficient.
    ``c`` is the prescribed soliton component (Pp, Q)_2 and ``nu`` the
    measured solvability defect of the imaginary solve (should be at
    roundoff level).
    """

    j: int
    k: int
    Pp: RadialField
    Pm: RadialField
    beta: float
    c: float
    nu: float


@dataclass
class ProfileExpansion:
    """Immutable-after-build table of profile corrections."""

    gs: GroundState
    params: ProblemParams
    order: int
    entries: dict[tuple[int, int], ProfileEntry]
    eps_weight: float

    @property
    def grid(self) -> RadialGrid:
        return self.gs.grid

    @property
    def beta_table(self) -> dict[tuple[int, int], float]:
        return {key: e.beta for key, e in self.entries.items()}

    def theta(self, lam: float, b: float) -> float:
        return theta_value(self, lam, b)


# --------------------------------------------------------------------------
# Monomial collection
# --------------------------------------------------------------------------

def _safe_pow(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo for a nonnegative decaying profile; negative exponents
    are cut off where the base underflows (the terms they multiply decay
    faster, so the true contribution there is far below roundoff)."""
    if expo >= 0.0:
        return base ** expo
    out = np.zeros_like(base)
    mask = base > 1e-250
    out[mask] = base[mask] ** expo
    return out


class _Build:
    """Workspace shared by the per-entry assembly routines."""

    def __init__(self, gs: GroundState, params: ProblemParams):
        if params.alpha is None:
            raise ValueError(
                "profile expansion needs a common scaling order: "
                "alpha_p == alpha_sigma (choose p = 1 + 4*sigma/N)")
        self.grid = gs.grid
        self.alpha = params.alpha
        q, p = params.q, params.p
        self.q, self.p = q, p
        self.cg, self.cV = params.C1, params.C2
        Q = gs.Q.values
        self.r2q = 0.25 * self.grid.nodes ** 2  # the (r^2/4) multiplier
        self.Qqm2 = _safe_pow(Q, q - 2.0)
        self.Qqm3 = _safe_pow(Q, q - 3.0)
        self.Qpm1 = _safe_pow(Q, p - 1.0)
        self.Qpm2 = _safe_pow(Q, p - 2.0)
        self.V = potential_weights(self.grid, params.sigma)
        self.forcing = branch_forcing(gs, params).values
        # entry tables filled as the recursion advances
        self.A: dict[tuple[int, int], np.ndarray] = {}
        self.B: dict[tuple[int, int], np.ndarray] = {}
        self.beta: dict[tuple[int, int], float] = {}

    # -- real part: coefficient of b^(2J) lam^((K+1)a) -------------------

    def assemble_real(self, J: int, K: int) -> np.ndarray:
        q, p, a = self.q, self.p, self.alpha
        rest = np.zeros(self.grid.n)
        # transport of the previous imaginary entry by the scale flow
        if J >= 1 and (J - 1, K) in self.B:
            rest += (2 * J - 1 + (K + 1) * a) * self.B[(J - 1, K)]
        # theta feedback through the curvature parameter
        for (j2, k2), bet in self.beta.items():
            j1, k1 = J - j2, K - 1 - k2
            if (j1, k1) in self.B:
                rest -= (2 * j1 + 1) * bet * self.B[(j1, k1)]
            if (j1, k1) in self.A:
                rest += bet * self.r2q * self.A[(j1, k1)]
        # quadratic terms of the critical nonlinearity
        coef_aa = 0.5 * q * (q - 1.0) * self.Qqm2
        coef_bb = 0.5 * (q - 1.0) * self.Qqm2
        for (j1, k1), A1 in self.A.items():
            j2, k2 = J - j1, K - 1 - k1
            if (j2, k2) in self.A:
                rest += coef_aa * A1 * self.A[(j2, k2)]
        for (j1, k1), B1 in self.B.items():
            j2, k2 = J - 1 - j1, K - 1 - k1
            if (j2, k2) in self.B:
                rest += coef_bb * B1 * self.B[(j2, k2)]
        # cubic terms of the critical nonlinearity
        coef_aaa = q * (q - 1.0) * (q - 2.0) / 6.0 * self.Qqm3
        coef_abb = 0.5 * (q - 1.0) * (q - 2.0) * self.Qqm3
        for (j1, k1), A1 in self.A.items():
            for (j2, k2), A2 in self.A.items():
                j3, k3 = J - j1 - j2, K - 2 - k1 - k2
                if (j3, k3) in self.A:
                    rest += coef_aaa * A1 * A2 * self.A[(j3, k3)]
            for (j2, k2), B2 in self.B.items():
                j3, k3 = J - 1 - j1 - j2, K - 2 - k1 - k2
                if (j3, k3) in self.B:
                    rest += coef_abb * A1 * B2 * self.B[(j3, k3)]
        # perturbation ladder: each appearance costs one power of lam^a
        if (J, K) == (0, 0):
            rest += self.forcing
        if (J, K - 1) in self.A:
            A1 = self.A[(J, K - 1)]
            rest += self.cg * p * self.Qpm1 * A1 + self.cV * self.V * A1
        coef_gaa = 0.5 * p * (p - 1.0) * self.Qpm2 * self.cg
        coef_gbb = 0.5 * (p - 1.0) * self.Qpm2 * self.cg
        for (j1, k1), A1 in self.A.items():
            j2, k2 = J - j1, K - 2 - k1
            if (j2, k2) in self.A:
                rest += coef_gaa * A1 * self.A[(j2, k2)]
        for (j1, k1), B1 in self.B.items():
            j2, k2 = J - 1 - j1, K - 2 - k1
            if (j2, k2) in self.B:
                rest += coef_gbb * B1 * self.B[(j2, k2)]
        # (third-order terms of the perturbation first enter at j+k = 3,
        # beyond the supported order)
        return rest

    # -- imaginary part: coefficient of b^(2J+1) lam^((K+1)a) ------------

    def assemble_imag(self, J: int, K: int, Pp_JK: np.ndarray) -> np.ndarray:
        q, p, a = self.q, self.p, self.alpha
        G = -(2 * J + (K + 1) * a) * Pp_JK
        # theta feedback acting on the real entries
        for (j1, k1), A1 in self.A.items():
            if j1 < 1:
                continue
            j2, k2 = J + 1 - j1, K - 1 - k1
            if (j2, k2) in self.beta:
                G += 2 * j1 * self.beta[(j2, k2)] * A1
        # theta times the quadratic potential acting on imaginary entries
        for (j2, k2), bet in self.beta.items():
            j1, k1 = J - j2, K - 1 - k2
            if (j1, k1) in self.B:
                G += bet * self.r2q * self.B[(j1, k1)]
        # mixed quadratic and cubic terms of the critical nonlinearity
        coef_ab = (q - 1.0) * self.Qqm2
        for (j1, k1), A1 in self.A.items():
            j2, k2 = J - j1, K - 1 - k1
            if (j2, k2) in self.B:
                G += coef_ab * A1 * self.B[(j2, k2)]
        coef_aab = 0.5 * (q - 1.0) * (q - 2.0) * self.Qqm3
        coef_bbb = 0.5 * (q - 1.0) * self.Qqm3
        for (j1, k1), A1 in self.A.items():
            for (j2, k2), A2 in self.A.items():
                j3, k3 = J - j1 - j2, K - 2 - k1 - k2
                if (j3, k3) in self.B:
                    G += coef_aab * A1 * A2 * self.B[(j3, k3)]
        for (j1, k1), B1 in self.B.items():
            for (j2, k2), B2 in self.B.items():
                j3, k3 = J - 1 - j1 - j2, K - 2 - k1 - k2
                if (j3, k3) in self.B:
                    G += coef_bbb * B1 * B2 * self.B[(j3, k3)]
        # perturbation ladder
        if (J, K - 1) in self.B:
            B1 = self.B[(J, K - 1)]
            G += self.cg * self.Qpm1 * B1 + self.cV * self.V * B1
        coef_gab = (p - 1.0) * self.Qpm2 * self.cg
        for (j1, k1), A1 in self.A.items():
            j2, k2 = J - j1, K - 2 - k1
            if (j2, k2) in self.B:
                G += coef_gab * A1 * self.B[(j2, k2)]
        return G


def build_profile(gs: GroundState, params: ProblemParams,
                  order: int = 2) -> ProfileExpansion:
    """Build the expansion table up to j + k <= order (order <= 2).

    Entries are produced level by level in increasing j + k and, inside
    a level, in decreasing j (the imaginary equation at (j, k) references
    the real entry at (j+1, k-1) of the same level).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > MAX_ORDER:
        raise ValueError(
            f"monomial collection supports order <= {MAX_ORDER} "
            f"(third-order perturbation terms are not tabulated)")
    if gs.rho is None:
        solve_rho(gs)
    ctx = _Build(gs, params)
    grid = gs.grid
    Qv = gs.Q.values
    rho = gs.rho.values
    rho_Q = pair(grid, rho, Qv)
    entries: dict[tuple[int, int], ProfileEntry] = {}

    for level in range(order + 1):
        for j in range(level, -1, -1):
            k = level - j
            rest = ctx.assemble_real(j, k)
            sol = solve_bordered(gs, RadialField(grid, rest))
            Pp_hat, beta_hat = sol.P.values, sol.beta
            G_hat = ctx.assemble_imag(j, k, Pp_hat)
            denom = 2 * j + (k + 1) * ctx.alpha
            c = pair(grid, G_hat, Qv) / denom
            t = c / rho_Q
            Pp = Pp_hat + t * rho
            beta = beta_hat + 4.0 * t
            G = G_hat - denom * t * rho
            Pm, nu = solve_lminus_orthogonal(gs, G)
            ctx.A[(j, k)] = Pp
            ctx.B[(j, k)] = Pm
            ctx.beta[(j, k)] = beta
            entries[(j, k)] = ProfileEntry(
                j=j, k=k,
                Pp=RadialField(grid, Pp), Pm=RadialField(grid, Pm),
                beta=float(beta), c=float(c), nu=float(nu))

    eps = _default_weight_rate(gs)
    return ProfileExpansion(gs=gs, params=params, order=order,
                            entries=entries, eps_weight=eps)


def _default_weight_rate(gs: GroundState) -> float:
    """Half the fitted exponential decay rate of Q, capped at 1/4."""
    grid = gs.grid
    r = grid.nodes
    i1 = int(np.searchsorted(r, 0.5 * grid.rmax))
    i2 = int(np.searchsorted(r, 0.65 * grid.rmax))
    Q1, Q2 = gs.Q.values[i1], gs.Q.values[i2]
    if Q1 <= 0.0 or Q2 <= 0.0 or Q2 >= Q1:
        return 0.25
    rate = math.log(Q1 / Q2) / (r[i2] - r[i1])
    return min(0.25, 0.5 * rate)


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def theta_value(expansion: ProfileExpansion, lam: float, b: float) -> float:
    """theta(lam, b) = sum b^(2j) lam^((k+1)a) beta_{j,k}."""
    a = expansion.params.alpha
    th = 0.0
    for (j, k), e in expansion.entries.items():
        th += b ** (2 * j) * lam ** ((k + 1) * a) * e.beta
    return float(th)


def eval_profile(expansion: ProfileExpansion, lam: float,
                 b: float) -> tuple[RadialField, float]:
    """Evaluate (P, theta) at scale lam >= 0 and curvature b."""
    if lam < 0.0:
        raise ValueError("scale parameter lam must be >= 0")
    if lam + abs(b) > 0.5:
        warnings.warn("profile evaluated outside its accuracy region "
                      f"(lam + |b| = {lam + abs(b):.3f} > 0.5)", stacklevel=2)
    a = expansion.params.alpha
    P = expansion.gs.Q.values.astype(complex)
    th = 0.0
    for (j, k), e in expansion.entries.items():
        u = b ** (2 * j) * lam ** ((k + 1) * a)
        P = P + u * e.Pp.values + 1j * (u * b) * e.Pm.values
        th += u * e.beta
    return RadialField(expansion.grid, P), float(th)


def profile_derivatives(expansion: ProfileExpansion, lam: float,
                        b: float) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives (dP/dlam, dP/db) at (lam, b), lam > 0."""
    if lam <= 0.0:
        raise ValueError("parameter derivatives require lam > 0")
    a = expansion.params.alpha
    n = expansion.grid.n
    dP_dlam = np.zeros(n, dtype=complex)
    dP_db = np.zeros(n, dtype=complex)
    for (j, k), e in expansion.entries.items():
        m = (k + 1) * a
        lam_m = lam ** m
        lam_m1 = m * lam ** (m - 1.0)
        term = e.Pp.values + 1j * b * e.Pm.values
        dP_dlam += lam_m1 * b ** (2 * j) * term
        if j >= 1:
            dP_db += 2 * j * b ** (2 * j - 1) * lam_m * e.Pp.values
        dP_db += 1j * (2 * j + 1) * b ** (2 * j) * lam_m * e.Pm.values
    return dP_dlam, dP_db


def residual_Psi(expansion: ProfileExpansion, lam: float, b: float,
                 dlambda_ds: float, db_ds: float) -> tuple[RadialField, float]:
    """Residual of the renormalized equation along supplied velocities,
    at lam > 0 (as for ``profile_derivatives``):

        Psi = i dP/ds - Lap P + (rate(|P|^2) - 1 + theta r^2/4) P,

    with the ``LocalTerms`` rate at shift lam^a.  Returns
    (Psi, ||exp(eps*r) Psi||_H1) with eps the expansion's ``eps_weight``
    and -Lap the grid's one discrete operator (the one Q and the
    corrections solve with).  The full nonlinearities are evaluated at the
    complex P (no truncation), so the norm measures both the collection
    error O((b^2 + lam^a)^(order+2)) and any violation of the parameter
    equations lam_s = -b lam, b_s = -b^2 + theta.
    """
    params = expansion.params
    grid = expansion.grid
    P_field, th = eval_profile(expansion, lam, b)
    P = P_field.values
    dPdl, dPdb = profile_derivatives(expansion, lam, b)
    dPds = dlambda_ds * dPdl + db_ds * dPdb
    rate = LocalTerms.of(params, grid, lam ** params.alpha).rate(
        P.real ** 2 + P.imag ** 2)
    Psi = (1j * dPds - apply_neg_laplacian(grid, P)
           + (rate - 1.0 + th * 0.25 * grid.nodes ** 2) * P)
    weighted = RadialField(grid,
                           np.exp(expansion.eps_weight * grid.nodes) * Psi)
    return RadialField(grid, Psi), norm_H1(weighted)


# --------------------------------------------------------------------------
# Physical-space form and energy
# --------------------------------------------------------------------------

def even_spline(f: RadialField, *, k: int = 3):
    """Spline of degree k for a radial field on its even extension across r = 0."""
    xs = np.concatenate([-f.grid.nodes[::-1], f.grid.nodes])
    vals = np.asarray(f.values, dtype=complex)
    ys = np.concatenate([vals[::-1], vals])
    if k == 3:
        return CubicSpline(xs, ys)
    return make_interp_spline(xs, ys, k=k)


def rescale_to_physical(P: RadialField, lam: float, b: float, gamma: float,
                        grid: RadialGrid) -> RadialField:
    """Rescaled field lam^(-N/2) P(x/lam) exp(-i(b/4)|x|^2/lam^2 + i gamma).

    P lives on its own (renormalized) grid; the result is interpolated to
    ``grid`` with a cubic spline on the even extension of P across the
    origin, and set to zero beyond the source domain (where P has decayed
    to roundoff).  The phase is applied exactly at the target nodes.
    """
    src = P.grid
    if src.N != grid.N:
        raise ValueError("source and target grids must share the dimension")
    if lam < 4.0 * grid.h:
        raise ValueError(
            f"scale under-resolved: lam = {lam:.3e} below 4 grid spacings "
            f"({4.0 * grid.h:.3e})")
    spline = even_spline(P)
    y = grid.nodes / lam
    out = np.where(y <= src.nodes[-1], spline(y), 0.0 + 0.0j)
    out *= lam ** (-0.5 * grid.N) * np.exp(-0.25j * b * y ** 2 + 1j * gamma)
    return RadialField(grid, out)


def profile_energy(expansion: ProfileExpansion, lam: float, b: float) -> float:
    """Energy of the rescaled profile, via the exact change of variables.

    With W = P exp(-i b r^2 / 4) (the curvature twist absorbed into the
    gradient term),

      E = ( 1/2 ||grad W||^2 - integral of density(P) ) / lam^2,

    with the ``LocalTerms`` density at shift lam^a, which equals the
    physical energy of rescale_to_physical's output with no interpolation
    error.  The discrete zero-point defect of the soliton
    (1/2 ||grad Q||^2 - (1/m)||Q||_m^m, a pure quadrature artifact of order
    h^2 that the continuum Pohozaev identity sends to zero) is subtracted,
    so that E(P_{lam,0,.}) -> 0 as lam -> 0 on every grid; without this the
    division by lam^2 amplifies the defect at small scales.
    """
    if lam <= 0.0:
        raise ValueError("profile energy requires lam > 0")
    params = expansion.params
    grid = expansion.grid
    P_field, _ = eval_profile(expansion, lam, b)
    P = P_field.values
    W = RadialField(grid, P * np.exp(-0.25j * b * grid.nodes ** 2))
    density = LocalTerms.of(params, grid, lam ** params.alpha).density(P)
    defect = (0.5 * expansion.gs.norms["grad"]
              - expansion.gs.norms["crit"] / params.mcrit)
    e = 0.5 * grad_norm_sq(W) - float(integrate(grid, density)) - defect
    return float(e / lam ** 2)


# --------------------------------------------------------------------------
# Diagnostics
# --------------------------------------------------------------------------

def psi_slope_sweep(expansion: ProfileExpansion) -> list[dict]:
    """Dyadic sweep of the weighted residual along the reduced flow.

    Each x fixes lam = (x/2)^(1/a) and b = sqrt(x/2) so that
    b^2 + lam^a = x, with velocities lam_s = -b lam, b_s = -b^2 + theta.
    The points x = 0.15 * 2^-k, k < 4, all lie inside the accuracy region
    of ``eval_profile`` (lam + |b| = 0.47 at the first).
    Returns rows of (x, lam, b, theta, weighted_norm).
    """
    a = expansion.params.alpha
    rows = []
    for x in 0.15 * 0.5 ** np.arange(4):
        lam = (0.5 * x) ** (1.0 / a)
        b = math.sqrt(0.5 * x)
        th = theta_value(expansion, lam, b)
        _, wn = residual_Psi(expansion, lam, b, -b * lam, th - b * b)
        rows.append({"x": float(x), "lam": float(lam), "b": float(b),
                     "theta": float(th), "weighted_norm": float(wn)})
    return rows


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])

