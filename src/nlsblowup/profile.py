"""Blow-up profile expansion in the scale and curvature parameters.

The renormalized flow is reduced to a stationary hierarchy by the ansatz

    P(lam, b) = Q + sum_{j+k<=J} ( b^(2j)   lam^((k+1)a) P_{j,k}^+
                                 + i b^(2j+1) lam^((k+1)a) P_{j,k}^- )
    theta(lam, b) = sum_{j+k<=J} b^(2j) lam^((k+1)a) beta_{j,k}

where a = ``params.alpha`` is the scaling order the two small perturbations
(subcritical power and inverse-power potential) share, as p = 1 + 4*sigma/N.
Substituting the ansatz into the renormalized equation and collecting the
coefficient of each monomial yields, per index pair (j, k):

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
inside each level.  The solved entries are then stored once, as stacked
rows sorted by (j, k) (``ProfileExpansion``), and P, theta and their
parameter derivatives are matrix-vector products of those rows with
each row's monomial b^(2j) lam^((k+1)a).

Solvability of the imaginary system is arranged by prescribing the
soliton component (P_{j,k}^+, Q)_2 = c_{j,k}: the defect
delta = (G, Q)_2 depends on that component linearly through the
transport term -(2j + (k+1)a) P_{j,k}^+, so c_{j,k} = delta0/(2j+(k+1)a)
(with delta0 measured at zero component) cancels it exactly.  The shift
is realized through rho: adding t*rho to P^+ adds exactly 4t to beta and
keeps the bordered equation exact.  A pleasant by-product is mass
neutrality: the prescribed components make ||P||_2^2 - ||Q||_2^2 vanish
to the expansion's order.

P reaches a physical grid through ``rescale_to_physical``: the not-a-knot
cubic spline of its even extension across r = 0, evaluated in Hermite form
from nodal values and slopes (``_resample``), the slopes solved on the
window of nodes the samples reach, or, in ``modulation.decompose``,
combined from the slopes of the expansion's rows in its image table.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .core import (
    LocalTerms,
    ProblemParams,
    RadialField,
    RadialGrid,
    _cayley,
    _lapack,
    apply_neg_laplacian,
    apply_scaling_generator,
    grad_norm_sq,
    integrate,
    norm_H1,
    pair,
    unit_phase,
)
from .groundstate import GroundState
from .linops import solve_bordered, solve_lminus_orthogonal

__all__ = [
    "ProfileExpansion",
    "build_profile",
    "eval_profile",
    "profile_derivatives",
    "residual_Psi",
    "rescale_to_physical",
    "profile_energy",
    "psi_slope_sweep",
    "even_spline",
    "fit_loglog_slope",
]

MAX_ORDER = 2
# eval_profile's accuracy region: lam + |b| <= _ACCURACY_BOUND.
_ACCURACY_BOUND = 0.5


@dataclass
class ProfileExpansion:
    """The expansion's (j, k) entries as stacked rows, sorted by (j, k), so
    row 0 is (0, 0) (immutable after build).

    Row i holds entry (j[i], k[i]): ``Pp[i]`` multiplies
    b^(2j) lam^((k+1)a) and ``Pm[i]`` multiplies i b^(2j+1) lam^((k+1)a),
    both as (rows, n) arrays on the ground state's grid; ``beta[i]`` is the
    matching theta coefficient, ``c[i]`` the prescribed soliton component
    (Pp, Q)_2 and ``nu[i]`` the measured solvability defect of the
    imaginary solve (roundoff level).

    P is linear in Q and the rows, so every linear image of P is the same
    combination of the rows' images.  ``_combine`` is the one code that
    forms such a combination from row weights: ``eval_profile``,
    ``profile_derivatives``, ``_images`` and ``_derivative_images`` call
    it.  ``modulation.decompose`` reads one image table, ``_stack``, which
    its first call builds and the expansion then keeps (``build_profile``
    and ``eval_profile`` never build it): for each of Q, Pp and Pm one real
    row of its values, its scaling generator N/2 + y d/dy and the h-slopes
    of its even not-a-knot cubic side by side, (rows, 3n), 2.6 MB at
    n = 8192 and order 2, with y^2 and i rho as complex rows (0.26 MB).
    One product of the table with P's row weights gives P, Lam P and P's
    slopes (``_images``), and one with the derivatives' weights gives
    dP/dlam, dP/db and their Lam images (``_derivative_images``).
    """

    gs: GroundState
    params: ProblemParams
    j: np.ndarray
    k: np.ndarray
    Pp: np.ndarray
    Pm: np.ndarray
    beta: np.ndarray
    c: np.ndarray
    nu: np.ndarray
    eps_weight: float

    @property
    def grid(self) -> RadialGrid:
        return self.gs.grid

    @property
    def beta00(self) -> float:
        """theta's leading coefficient beta_{0,0}, row 0."""
        return float(self.beta[0])

    def _weight(self, lam: float, b: float) -> np.ndarray:
        """Each row's monomial b^(2j) lam^((k+1)a)."""
        return b ** (2 * self.j) * lam ** ((self.k + 1) * self.params.alpha)

    def _derivative_weights(self, lam: float, b: float) -> np.ndarray:
        """The row weights of dP/dlam and dP/db at lam > 0, stacked as
        (Pp's, Pm's) x (dlam, db) x rows."""
        j, m = self.j, (self.k + 1) * self.params.alpha
        u = self._weight(lam, b)
        u_lam = m / lam * u
        # d(b^(2j))/db = 2j b^(2j-1), with an exponent that stays >= 0 at
        # j = 0 so that b = 0 gives 0, not 0 * inf
        u_b = 2 * j * b ** np.maximum(2 * j - 1, 0) * lam ** m
        return np.array([[u_lam, u_b], [b * u_lam, (2 * j + 1) * u]])

    def theta(self, lam: float, b: float) -> float:
        """theta(lam, b) = sum b^(2j) lam^((k+1)a) beta_{j,k}."""
        return float(self._weight(lam, b) @ self.beta)

    @property
    def _field_rows(self) -> tuple:
        """(Q, Pp, Pm): the table P combines."""
        return self.gs.Q.values, self.Pp, self.Pm

    @functools.cached_property
    def _stack(self) -> tuple:
        """(base, plus, minus, y^2, i rho): Q's row, the Pp rows and the Pm
        rows of [values | Lam images | h-slopes], then y^2 and i rho as
        complex rows.  The slopes are one ``_slopes`` solve of all rows as
        complex right-hand sides, whose real part is the real solve, bit
        for bit."""
        grid = self.grid
        rows = np.vstack(self._field_rows)
        table = np.hstack(
            (rows, [apply_scaling_generator(grid, row) for row in rows],
             _slopes(grid, rows.T, grid.n).real.T))
        r = self.j.size
        return (table[0], table[1:r + 1], table[r + 1:],
                (grid.nodes ** 2).astype(complex), 1j * self.gs.rho.values)

    def _images(self, lam: float, b: float) -> np.ndarray:
        """P(lam, b), Lam P and P's h-slopes as the rows of one complex
        (3, n) array: one product of the table with P's row weights."""
        _check_region(lam, b)
        w = self._weight(lam, b)
        return self._combine(self._stack[:3], w, b * w).reshape(3, -1)

    def _derivative_images(self, lam: float, b: float) -> np.ndarray:
        """(dP/dlam, Lam dP/dlam) and (dP/db, Lam dP/db) as a complex
        (2, 2, n) array: one product of the table's values and Lam images
        with the derivatives' row weights."""
        k = 2 * self.grid.n
        table = tuple(rows[:, :k] for rows in self._stack[1:3])
        wp, wm = self._derivative_weights(lam, b)
        return self._combine(table, wp, wm).reshape(2, 2, -1)

    def _combine(self, table: tuple, wp: np.ndarray,
                 wm: np.ndarray) -> np.ndarray:
        """base + wp @ plus + i wm @ minus of a (base, plus, minus) table;
        base is Q's row, dropped for a parameter derivative (pass
        ``table[1:]``).  Weights with leading axes give images with those
        axes from one matrix product, which is not bit for bit a product
        per leading index; so ``profile_derivatives`` keeps one product per
        derivative, from which ``profile.json``'s residual slopes come."""
        *base, plus, minus = table
        out = np.empty(wp.shape[:-1] + plus.shape[1:], dtype=complex)
        if base:
            np.add(wp @ plus, base[0], out=out.real)
        else:
            out.real = wp @ plus
        out.imag = wm @ minus
        return out


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
    evaluated over the entries solved so far.  The entries are stacked
    as rows sorted by (j, k) once all are solved.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > MAX_ORDER:
        raise ValueError(
            f"profile expansion supports order <= {MAX_ORDER}, the orders "
            f"whose residual slope is certified")
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

    rows = []
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
            rows.append((j, k, Pp, Pm, beta, c, nu))

    rows.sort(key=lambda row: row[:2])
    return ProfileExpansion(gs, params, *map(np.array, zip(*rows)),
                            eps_weight=_default_weight_rate(gs))


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

def _check_region(lam: float, b: float) -> None:
    """Warn, at the profile evaluation's caller, when (lam, b) lies outside
    the expansion's accuracy region lam + |b| <= ``_ACCURACY_BOUND``."""
    if lam + abs(b) > _ACCURACY_BOUND:
        warnings.warn("profile evaluated outside its accuracy region "
                      f"(lam + |b| = {lam + abs(b):.3f} > {_ACCURACY_BOUND})",
                      stacklevel=3)


def eval_profile(expansion: ProfileExpansion, lam: float,
                 b: float) -> tuple[RadialField, float]:
    """Evaluate (P, theta) at scale lam >= 0 and curvature b."""
    if lam < 0.0:
        raise ValueError("scale parameter lam must be >= 0")
    _check_region(lam, b)
    u = expansion._weight(lam, b)
    P = expansion._combine(expansion._field_rows, u, b * u)
    return RadialField(expansion.grid, P), float(u @ expansion.beta)


def profile_derivatives(expansion: ProfileExpansion, lam: float,
                        b: float) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives (dP/dlam, dP/db) at (lam, b), lam > 0."""
    if lam <= 0.0:
        raise ValueError("parameter derivatives require lam > 0")
    rows = expansion._field_rows[1:]
    return tuple(expansion._combine(rows, *w)
                 for w in zip(*expansion._derivative_weights(lam, b)))


def residual_Psi(expansion: ProfileExpansion, lam: float, b: float,
                 dlambda_ds: float, db_ds: float) -> float:
    """Residual of the renormalized equation along supplied velocities,
    at lam > 0 (as for ``profile_derivatives``):

        Psi = i dP/ds - Lap P + (rate(|P|^2) - 1 + theta r^2/4) P,

    with the ``LocalTerms`` rate at shift lam^a.  Returns the weighted
    norm ||exp(eps*r) Psi||_H1, with eps the expansion's ``eps_weight``
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
    return norm_H1(RadialField(
        grid, np.exp(expansion.eps_weight * grid.nodes) * Psi))


# --------------------------------------------------------------------------
# Physical-space form and energy
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _slope_factor(n: int) -> tuple:
    """``dgttrf`` factor of the slope system of the cubic spline through n
    uniform nodes (i + 1/2) h and their mirror images, on the half line,
    copied to complex for ``zgttrs``.

    Row 0 folds in the mirror (odd slopes): 3 s_0 + s_1; rows 1..n-2 are
    (1, 4, 1); the last is CubicSpline's not-a-knot row 2 s_(n-2) + s_(n-1).
    The unknowns are h times the slopes, so one factor serves every h.
    The factor is real, so ``zgttrs`` solves a complex right-hand side in
    one call, each part bit for bit ``dgttrs``'s solve of that part.
    The matrix is diagonally dominant but for its last row, so ``dgttrf``
    never pivots: the LU of a leading K x K block is the leading block of
    this LU, and a window of K < n rows (see ``_slopes``) solves with the
    sliced factor, with no factorization of its own.
    """
    d = np.full(n, 4.0)
    d[0], d[-1] = 3.0, 1.0
    dl = np.ones(n - 1)
    dl[-1] = 2.0
    *factor, ipiv, _ = _lapack.dgttrf(dl, d, np.ones(n - 1))
    return (*(a.astype(complex) for a in factor), ipiv)


def even_spline(f: RadialField):
    """Quintic interpolating spline of a radial field on its even extension
    across r = 0 (``make_interp_spline`` through the 2n points -nodes[::-1],
    nodes), the resample of ``sim``'s regrid.  The cubic resamples of
    ``rescale_to_physical`` and ``modulation`` go through ``_resample``.
    """
    from scipy.interpolate import make_interp_spline

    nodes = f.grid.nodes
    vals = np.asarray(f.values, dtype=complex)
    xs = np.concatenate([-nodes[::-1], nodes])
    return make_interp_spline(xs, np.concatenate([vals[::-1], vals]), k=5)


# Nodes a windowed spline keeps past the last node its samples reach.
_WINDOW_MARGIN = 64


def _window(grid: RadialGrid, reach: float) -> int:
    """Node count of the windowed spline for samples at r <= reach:
    #(nodes <= reach) + ``_WINDOW_MARGIN``, or all n when that is more."""
    k = int(np.searchsorted(grid.nodes, reach, side="right"))
    return min(grid.n, k + _WINDOW_MARGIN)


def _slopes(grid: RadialGrid, vals: np.ndarray, K: int) -> np.ndarray:
    """h times the slopes at the first K nodes (K = n: all) of the
    not-a-knot cubic spline of the even extension of ``vals`` (node values
    on ``grid`` along axis 0, each column its own spline; only the K + 1
    nodes a window reads are needed), ``CubicSpline``'s to roundoff, in
    one ``zgttrs`` solve with ``_slope_factor(n)``.

    A window K < n keeps rows 0..K-1 of the slope system: row K-1 stays
    the interior (1, 4, 1) row, whose right-hand side reads node K, and
    the rows are solved with the leading block of the factor.
    Cutting the system changes the slopes by a factor (2 - sqrt(3)) ~ 0.27
    per node inward (de Boor, A Practical Guide to Splines, 1978), so
    ``_WINDOW_MARGIN`` = 64 nodes past the last sample leave it ~1e-37
    relative, far below one ulp: the slopes there are the full system's.
    """
    n = grid.n
    dy = np.diff(vals[:K + 1], axis=0)
    rhs = np.empty((K,) + vals.shape[1:], dtype=complex, order="F")
    rhs[0] = 3.0 * dy[0]
    mid = np.add(dy[:-1], dy[1:], out=rhs[1:len(dy)])
    mid *= 3.0
    if K == n:  # the not-a-knot row
        rhs[-1] = 0.5 * (dy[-2] + 5.0 * dy[-1])
    dl, d, du, du2, ipiv = _slope_factor(n)
    return _lapack.zgttrs(dl[:K - 1], d[:K], du[:K - 1], du2[:K - 2],
                          ipiv[:K], rhs, overwrite_b=1)[0]


def _resample(grid: RadialGrid, vals: np.ndarray, q: np.ndarray,
              y: np.ndarray, amp: float, b: float, gamma: float,
              s: np.ndarray | None = None) -> np.ndarray:
    """The cubic spline of ``vals`` (node values on ``grid``) at the
    increasing points q >= 0, times the chirp
    amp * exp(-i(b/4) y^2 + i gamma), continuous at the edge.

    The points q <= grid.nodes[-1] are sampled in Hermite form on the
    breakpoints x_j = (j - 1/2) h, j = 0..K (x_0 = -h/2 mirrors node 0),
    from values V = (f_0, f_0, ..., f_(K-1)) and h-slopes
    S = (-S_0, S_0, ..., S_(K-1)) on the window of K nodes they reach
    (``_window``): ``s``, h-slopes on at least those nodes, or if None,
    ``_slopes`` solved on the window.  With u = q/h + 1/2,
    j = min(floor(u), K - 1) and t = u - j, p = V_j + t^2 (3 - 2t)
    (V_(j+1) - V_j) + t (t - 1)^2 S_j + t^2 (t - 1) S_(j+1), bit for bit
    the cubic on all nodes.  Points in (nodes[-1], rmax) fall linearly
    from the last value to 0 at rmax, where the Dirichlet ghost sits, and
    points past rmax are 0; so a point that crosses the last node by one
    ulp moves the result by one ulp, not by the last value.  ``vals``
    needs only the K + 1 nodes the window reads, or all n when some q
    passes the last node.

    Each sample is written once, in place: the Hermite sum in the order
    above from ``take`` gathers, the linear tail, then zeros.  The chirp
    is ``_cayley`` of tan(gamma/2 - (b/8) y^2), the half angle
    ``unit_phase`` would form, bit for bit but at subnormal angles (halving
    is exact).  A real array times a complex one is numpy's complex
    product with a zero imaginary part in either order, and IEEE sums and
    products commute, so in-place operands leave every bit as it was.
    """
    m = int(np.searchsorted(q, grid.nodes[-1], side="right"))
    e = int(np.searchsorted(q, grid.rmax))
    K = _window(grid, q[m - 1])
    if s is None:
        s = _slopes(grid, vals, K)
    V = np.concatenate((vals[:1], vals[:K]))
    S = np.concatenate((-s[:1], s[:K]))
    u = q[:m] / grid.h + 0.5
    j = np.minimum(u.astype(np.intp), K - 1)
    t = u - j
    t2, w, Vj, Sj = t * t, t - 1.0, V.take(j), S.take(j)
    j += 1
    out = np.empty(q.size, dtype=complex)
    p = np.subtract(V.take(j), Vj, out=out[:m])
    p *= t2 * (3.0 - 2.0 * t)
    np.add(Vj, p, out=p)
    p += np.multiply(t * w * w, Sj, out=Sj)
    p += np.multiply(t2 * w, S.take(j), out=Sj)
    out[m:e] = (vals[-1] * (grid.rmax - q[m:e])
                / (grid.rmax - grid.nodes[-1]))
    out[e:] = 0.0
    chirp = _cayley(np.tan(0.5 * gamma - 0.125 * b * y[:e] ** 2))
    out[:e] *= np.multiply(amp, chirp, out=chirp)
    return out


def rescale_to_physical(P: RadialField, lam: float, b: float, gamma: float,
                        grid: RadialGrid) -> RadialField:
    """Rescaled field lam^(-N/2) P(x/lam) exp(-i(b/4)|x|^2/lam^2 + i gamma).

    P lives on its own (renormalized) grid; the result is interpolated to
    ``grid`` with the not-a-knot cubic spline of P's even extension,
    evaluated only at the nodes with x/lam inside the source nodes, from
    the slopes of the window of source nodes those points reach.  Between
    the last source node and rmax it falls linearly to zero, and it is
    zero beyond (``_resample``; P has decayed there).  The phase is
    applied exactly at the target nodes.
    """
    if P.grid.N != grid.N:
        raise ValueError("source and target grids must share the dimension")
    return RadialField(grid, _rescale(P.grid, P.values, lam, b, gamma, grid))


def _rescale(source: RadialGrid, vals: np.ndarray, lam: float, b: float,
             gamma: float, grid: RadialGrid, n: int | None = None,
             s: np.ndarray | None = None) -> np.ndarray:
    """``rescale_to_physical`` of the node values ``vals`` on ``source``
    at the first n of ``grid``'s nodes (None: all), from the h-slopes
    ``s`` if given (``_resample``)."""
    if lam < 4.0 * grid.h:
        raise ValueError(
            f"scale under-resolved: lam = {lam:.3e} below 4 grid spacings "
            f"({4.0 * grid.h:.3e})")
    x = grid.nodes[:n] / lam
    return _resample(source, vals, x, x, lam ** (-0.5 * grid.N), b, gamma, s)


def profile_energy(expansion: ProfileExpansion, lam: float, b: float) -> float:
    """Energy of the rescaled profile, via the exact change of variables.

    With W = P exp(-i b r^2 / 4) (the curvature twist absorbed into the
    gradient term; its factor is ``unit_phase`` of -b r^2 / 4),

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
    W = RadialField(grid, P * unit_phase(-0.25 * b * grid.nodes ** 2))
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
        th = expansion.theta(lam, b)
        wn = residual_Psi(expansion, lam, b, -b * lam, th - b * b)
        rows.append({"x": float(x), "lam": float(lam), "b": float(b),
                     "theta": float(th), "weighted_norm": float(wn)})
    return rows


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])

