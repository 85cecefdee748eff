"""Blow-up profile expansion in the scale and curvature parameters.

The renormalized flow is reduced to a stationary hierarchy by the ansatz

    P(lam, b) = Q + sum_{j+k<=J} ( b^(2j)   lam^((k+1)a) P_{j,k}^+
                                 + i b^(2j+1) lam^((k+1)a) P_{j,k}^- )
    theta(lam, b) = sum_{j+k<=J} b^(2j) lam^((k+1)a) beta_{j,k}

where a is the common scaling order of the two small perturbations
(subcritical power and inverse-power potential).  Substituting the ansatz
into the renormalized equation and collecting the coefficient of each
monomial yields, per index pair (j, k):

  * a real bordered system  Lplus P_{j,k}^+ - beta_{j,k} (r^2/4) Q = REST,
    solved by ``linops.solve_bordered`` (this fixes beta_{j,k});
  * an imaginary system     Lminus P_{j,k}^- = G,
    solvable only if (G, Q)_2 = 0.

REST is the real part of the coefficient of b^(2j) mu^(k+1), mu = lam^a,
and G the imaginary part of the coefficient of b^(2j+1) mu^(k+1), in

    i dP/ds + (theta r^2/4 + rate(|P|^2)) P,   lam_s = -b lam,
                                               b_s = -b^2 + theta,

with the ``LocalTerms`` rate expanded in Taylor series about |P|^2 = Q^2.
Both are read off one truncated series in (b, mu) over the entries and
beta's solved so far; the unknown entry and its beta are not in it yet,
so their linear part (Lplus or Lminus, and beta (r^2/4) Q) drops out.
Within one j+k level the right-hand sides reference entries only of
larger j, so levels are processed in increasing j+k and decreasing j
inside each level.

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

import functools
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly, make_interp_spline
from scipy.linalg import lapack

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
)
from .groundstate import GroundState
from .linops import solve_bordered, solve_lminus_orthogonal, solve_rho

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

def _taylor(Q: np.ndarray, expo: float, k: int) -> np.ndarray:
    """k-th Taylor coefficient of a2^expo at a2 = Q^2.  A negative power
    is cut off where a2 underflows (the X^k it multiplies decays faster,
    so the true contribution there is far below roundoff)."""
    binom = math.prod((expo - i) / (i + 1) for i in range(k))
    a2 = Q * Q
    if expo >= k:
        return binom * a2 ** (expo - k)
    out = np.zeros_like(a2)
    mask = a2 > 1e-250
    out[mask] = binom * a2[mask] ** (expo - k)
    return out


def _mul(f: dict, g: dict, top: tuple[int, int]) -> dict:
    """Product of two (b, mu) series, truncated to the powers <= top."""
    out: dict = defaultdict(float)
    for (m1, n1), c1 in f.items():
        for (m2, n2), c2 in g.items():
            if m1 + m2 <= top[0] and n1 + n2 <= top[1]:
                out[(m1 + m2, n1 + n2)] += c1 * c2
    return out


def _at(f: dict, g: dict, key: tuple[int, int]):
    """Coefficient of b^m mu^n, (m, n) = key, in the product of f and g."""
    m, n = key
    return sum((c * g[(m - i, n - l)] for (i, l), c in f.items()
                if (m - i, n - l) in g), 0.0)


def build_profile(gs: GroundState, params: ProblemParams,
                  order: int = 2) -> ProfileExpansion:
    """Build the expansion table up to j + k <= order (order <= MAX_ORDER).

    Entries are produced level by level in increasing j + k and, inside
    a level, in decreasing j (the imaginary equation at (j, k) references
    the real entry at (j+1, k-1) of the same level).  Each right-hand
    side is one coefficient of the equation's series in (b, lam^a),
    evaluated over the entries solved so far.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > MAX_ORDER:
        raise ValueError(
            f"profile expansion supports order <= {MAX_ORDER}, the orders "
            f"whose residual slope is certified")
    if params.alpha is None:
        raise ValueError(
            "profile expansion needs a common scaling order: "
            "alpha_p == alpha_sigma (choose p = 1 + 4*sigma/N)")
    if gs.rho is None:
        solve_rho(gs)
    grid = gs.grid
    a = params.alpha
    Qv = gs.Q.values
    rho = gs.rho.values
    rho_Q = pair(grid, rho, Qv)
    r2q = 0.25 * grid.nodes ** 2
    terms = LocalTerms.of(params, grid)
    crit = [_taylor(Qv, 0.5 * (terms.q - 1.0), k) for k in range(order + 2)]
    pert = ([terms.c1 * _taylor(Qv, 0.5 * (terms.p - 1.0), k)
             for k in range(order + 1)] if terms.c1 != 0.0 else [])
    # P - Q and theta as {(m, n): c} for the terms c i^m b^m mu^n with c
    # real, so products stay real and conj(P) has (-1)^m c; an entry is
    # stored times (-1)^j, the i^(2j) it sits under.
    w: dict[tuple[int, int], np.ndarray] = {}
    theta: dict[tuple[int, int], float] = {}

    def coefficient(m: int, n: int) -> np.ndarray:
        """The c at (m, n) of  i dP/ds + (theta r^2/4 + rate(|P|^2)) P,
        with lam_s = -b lam, b_s = -b^2 + theta and the rate expanded in
        X = |P|^2 - Q^2 as sum_k (crit_k + mu pert_k) X^k + mu cV."""
        top = (m, n)
        X = _mul(w, {(i, l): (-1) ** i * c for (i, l), c in w.items()}, top)
        for (i, l), c in w.items():  # X = |P|^2 - Q^2 = 2Q Re w + |w|^2
            if i % 2 == 0:
                X[(i, l)] += 2.0 * Qv * c
        mult: dict = defaultdict(float)  # theta r^2/4 + rate(|P|^2)
        Xk: dict = {(0, 0): 1.0}
        for k in range(n + 1):
            for (i, l), x in Xk.items():
                mult[(i, l)] += crit[k] * x
                if k < len(pert):
                    mult[(i, l + 1)] += pert[k] * x
            Xk = _mul(Xk, X, top)
        if terms.cV is not None:
            mult[(0, 1)] += terms.cV
        for key, t in theta.items():
            mult[key] += t * r2q
        flow = {(2, 0): 1.0, **theta}  # b_s
        dP = {(i - 1, l): -i * c for (i, l), c in w.items() if i}  # i dP/db
        out = np.zeros(grid.n)
        out += _at(mult, {(0, 0): Qv, **w}, top) + _at(dP, flow, top)
        # i mu_s dP/dmu with mu_s = -a b mu
        return out - a * n * w.get((m - 1, n), 0.0)

    entries: dict[tuple[int, int], ProfileEntry] = {}
    for level in range(order + 1):
        for j in range(level, -1, -1):
            k = level - j
            sign = (-1) ** j
            sol = solve_bordered(
                gs, RadialField(grid, sign * coefficient(2 * j, k + 1)))
            Pp_hat, beta_hat = sol.P.values, sol.beta
            w[(2 * j, k + 1)] = sign * Pp_hat
            G_hat = sign * coefficient(2 * j + 1, k + 1)
            denom = 2 * j + (k + 1) * a
            c = pair(grid, G_hat, Qv) / denom
            t = c / rho_Q
            Pp = Pp_hat + t * rho
            beta = beta_hat + 4.0 * t
            G = G_hat - denom * t * rho
            Pm, nu = solve_lminus_orthogonal(gs, G)
            w[(2 * j, k + 1)] = sign * Pp
            w[(2 * j + 1, k + 1)] = sign * Pm
            theta[(2 * j, k + 1)] = sign * beta
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

@functools.lru_cache(maxsize=4)
def _slope_factor(n: int) -> tuple:
    """``dgttrf`` factor of the slope system of the cubic spline through n
    uniform nodes (i + 1/2) h and their mirror images, on the half line.

    Row 0 folds in the mirror (odd slopes): 3 s_0 + s_1; rows 1..n-2 are
    (1, 4, 1); the last is CubicSpline's not-a-knot row 2 s_(n-2) + s_(n-1).
    The unknowns are h times the slopes, so one factor serves every h.
    The matrix is diagonally dominant but for its last row, so ``dgttrf``
    never pivots: the LU of a leading K x K block is the leading block of
    this LU, and a window of K < n rows (see ``_even_cubic``) solves with
    the sliced factor, with no factorization of its own.
    """
    d = np.full(n, 4.0)
    d[0], d[-1] = 3.0, 1.0
    dl = np.ones(n - 1)
    dl[-1] = 2.0
    *factor, _ = lapack.dgttrf(dl, d, np.ones(n - 1))
    return tuple(factor)


def even_spline(f: RadialField, *, k: int = 3):
    """Spline of degree k for a radial field on its even extension across r = 0.

    k = 3 is the not-a-knot cubic spline of the 2n-point even extension
    (``CubicSpline``'s, to roundoff), solved on the half line with a
    tridiagonal factor cached per point count; it returns a complex
    ``PPoly`` on the breakpoints -h/2, nodes..., whose first piece is the
    even cubic across r = 0.  Other k interpolate the extension with
    ``make_interp_spline``.  The resamples of ``rescale_to_physical`` and
    ``modulation`` build the cubic on the window of nodes their samples
    reach (``_even_cubic``), bit for bit this spline there.
    """
    if k == 3:
        return _even_cubic(f, f.grid.n)
    nodes = f.grid.nodes
    vals = np.asarray(f.values, dtype=complex)
    xs = np.concatenate([-nodes[::-1], nodes])
    return make_interp_spline(xs, np.concatenate([vals[::-1], vals]), k=k)


# Nodes a windowed spline keeps past the last node its samples reach.
_WINDOW_MARGIN = 64


def _window(grid: RadialGrid, reach: float) -> int:
    """Node count of the windowed spline for samples at r <= reach:
    #(nodes <= reach) + ``_WINDOW_MARGIN``, or all n when that is more."""
    k = int(np.searchsorted(grid.nodes, reach, side="right"))
    return min(grid.n, k + _WINDOW_MARGIN)


def _even_cubic(f: RadialField, K: int) -> PPoly:
    """The cubic ``even_spline`` of f on its first K nodes (K = n: all).

    A window K < n keeps rows 0..K-1 of the slope system: row K-1 stays
    the interior (1, 4, 1) row, whose right-hand side reads vals[K], and the
    rows are solved with the leading block of ``_slope_factor(n)``.  The
    result has pieces up to nodes[K-1] only.  Cutting the system changes
    the slopes by a factor (2 - sqrt(3)) ~ 0.27 per node inward (de Boor,
    A Practical Guide to Splines, 1978), so ``_WINDOW_MARGIN`` = 64 nodes
    past the last sample leave it ~1e-37 relative: far below one ulp, and
    the spline's values and derivatives there are bit for bit the full
    spline's.
    """
    vals = np.asarray(f.values, dtype=complex)
    n, h = vals.size, f.grid.h
    dy = np.diff(vals[:K + 1])
    rhs = np.empty(K, dtype=complex)
    rhs[0] = 3.0 * dy[0]
    rhs[1:dy.size] = 3.0 * (dy[:-1] + dy[1:])
    if K == n:  # the not-a-knot row
        rhs[-1] = 0.5 * (dy[-2] + 5.0 * dy[-1])
    cols = np.empty((K, 2), order="F")
    cols[:, 0], cols[:, 1] = rhs.real, rhs.imag
    dl, d, du, du2, ipiv = _slope_factor(n)
    x, _ = lapack.dgttrs(dl[:K - 1], d[:K], du[:K - 1], du2[:K - 2],
                         ipiv[:K], cols, overwrite_b=1)
    s = (x[:, 0] + 1j * x[:, 1]) / h
    # Hermite pieces from the left slope s_l, right slope s and secant m of
    # each interval; the first, [-h/2, h/2], has the mirrored slope -s_0
    c = np.empty((4, K), dtype=complex)
    s_l = c[2]
    s_l[0], s_l[1:] = -s[0], s[:-1]
    c[3, 0], c[3, 1:] = vals[0], vals[:K - 1]
    m = np.concatenate(([0.0], dy[:K - 1])) / h
    t = (s_l + s - 2.0 * m) / h
    c[0] = t / h
    c[1] = (m - s_l) / h - t
    nodes = f.grid.nodes
    return PPoly.construct_fast(c, np.concatenate(([-nodes[0]], nodes[:K])))


def _chirp(q: np.ndarray, rmax: float, y: np.ndarray, amp: float, b: float,
           gamma: float) -> np.ndarray:
    """amp * exp(-i(b/4) y^2 + i gamma) at the leading points of the
    increasing q that lie on a source support r <= rmax: the phase of a
    resample, one entry per sampled point."""
    m = int(np.searchsorted(q, rmax, side="right"))
    return amp * np.exp(-0.25j * b * y[:m] ** 2 + 1j * gamma)


def _resample(spline, q: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """spline(q) * phase at the first phase.size points of q (the sampled
    ones, see ``_chirp``) and 0 beyond: the spline is evaluated on the
    source's support only."""
    m = phase.size
    out = np.zeros(q.size, dtype=complex)
    out[:m] = spline(q[:m]) * phase
    return out


def rescale_to_physical(P: RadialField, lam: float, b: float, gamma: float,
                        grid: RadialGrid) -> RadialField:
    """Rescaled field lam^(-N/2) P(x/lam) exp(-i(b/4)|x|^2/lam^2 + i gamma).

    P lives on its own (renormalized) grid; the result is interpolated to
    ``grid`` with ``even_spline`` of P, evaluated only at the nodes with
    x/lam inside the source domain and zero beyond it (where P has decayed
    to roundoff), and built on the window of source nodes those points
    reach.  The phase is applied exactly at the target nodes.
    """
    src = P.grid
    if src.N != grid.N:
        raise ValueError("source and target grids must share the dimension")
    if lam < 4.0 * grid.h:
        raise ValueError(
            f"scale under-resolved: lam = {lam:.3e} below 4 grid spacings "
            f"({4.0 * grid.h:.3e})")
    y = grid.nodes / lam
    phase = _chirp(y, src.nodes[-1], y, lam ** (-0.5 * grid.N), b, gamma)
    spline = _even_cubic(P, _window(src, y[phase.size - 1]))
    return RadialField(grid, _resample(spline, y, phase))


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

