"""Parameters, radial grids, quadrature, norms, and the nonlinearity catalogue.

Everything downstream works with radial fields sampled on a staggered grid
that excludes the origin.  The discrete calculus is chosen so that the key
bilinear identities hold exactly in floating point:

- quadrature weights are exact cell integrals of r^(N-1) dr, so the constant
  function integrates to rmax^N / N with no quadrature error;
- grids are uniform, and every grid has one discrete -Lap, shared by the
  elliptic solvers, the linearized operators, the profile residual and the
  propagator: the fourth-order pentadiagonal stencil for N = 1, the
  second-order conservative flux form for N = 2, 3; both are exactly
  self-adjoint in the weighted inner product;
- every banded solve goes through :class:`Operator`, that -Lap plus a
  diagonal;
- the squared gradient norm is the Dirichlet form of that operator, so
  <-Lap u, u> equals |grad u|^2 exactly;
- the inverse-power potential r^(-2*sigma) is represented by exact cell
  averages, removing the quadrature penalty of the integrable singularity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "Branch",
    "ProblemParams",
    "RadialGrid",
    "RadialField",
    "make_params",
    "p_from_sigma",
    "sigma_from_p",
    "make_grid",
    "surface_factor",
    "integrate",
    "pair",
    "inner_w",
    "norm_L2",
    "norm_Lq",
    "norm_H1",
    "norm_Sigma1",
    "weighted_norm",
    "grad_norm_sq",
    "potential_weights",
    "apply_neg_laplacian",
    "neg_laplacian_banded",
    "Operator",
    "radial_derivative",
    "apply_scaling_generator",
    "nonlinearity_eval",
    "field_to_csv",
    "field_from_csv",
]


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

class Branch(enum.Enum):
    """Sign branch of the two perturbations.

    PLUS_MINUS : C1 = +C0 (focusing power), C2 = -1 (repulsive potential)
    MINUS_PLUS : C1 = -C0 (defocusing power), C2 = +1 (attractive potential)
    CRITICAL   : C1 = C2 = 0 (unperturbed mass-critical equation)
    """

    PLUS_MINUS = "plusminus"
    MINUS_PLUS = "minusplus"
    CRITICAL = "critical"

    @classmethod
    def from_name(cls, name: str) -> "Branch":
        for member in cls:
            if member.value == name.lower():
                return member
        raise ValueError(f"unknown branch {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


def p_from_sigma(N: int, sigma: float) -> float:
    """Exponent p for which both perturbations carry the same scaling order."""
    return 1.0 + 4.0 * sigma / N


def sigma_from_p(N: int, p: float) -> float:
    """Inverse of :func:`p_from_sigma`."""
    return N * (p - 1.0) / 4.0


@dataclass
class ProblemParams:
    """Validated problem parameters with derived scaling orders.

    alpha_p = 2 - N(p-1)/2 and alpha_sigma = 2 - 2*sigma are the smallness
    orders (in the collapsing scale) of the power perturbation and of the
    potential perturbation.  alpha is set when the two coincide.  The
    threshold omega, where the two perturbations cancel each other's
    leading effect, depends on the soliton profile and is returned by
    ``groundstate.compute_omega``; a run's regime is
    ``reduced.classify_regime`` of its expansion.
    """

    N: int
    p: float
    sigma: float
    C0: float
    branch: Branch
    E0: float
    alpha_p: float
    alpha_sigma: float
    alpha: float | None
    relaxed: bool = False

    @property
    def q(self) -> float:
        """Mass-critical exponent 1 + 4/N (power of the main nonlinearity)."""
        return 1.0 + 4.0 / self.N

    @property
    def mcrit(self) -> float:
        """Exponent 2 + 4/N of the mass-critical potential energy term."""
        return 2.0 + 4.0 / self.N

    @property
    def C1(self) -> float:
        if self.branch is Branch.PLUS_MINUS:
            return self.C0
        if self.branch is Branch.MINUS_PLUS:
            return -self.C0
        return 0.0

    @property
    def C2(self) -> float:
        if self.branch is Branch.PLUS_MINUS:
            return -1.0
        if self.branch is Branch.MINUS_PLUS:
            return 1.0
        return 0.0


def make_params(
    N: int,
    p: float | None,
    sigma: float,
    C0: float,
    branch: Branch | str,
    E0: float,
    *,
    strict: bool = True,
    require_alpha_gt1: bool = False,
) -> ProblemParams:
    """Validate and derive the full parameter record.

    If ``p`` is None it is derived from sigma so that both perturbations
    carry the same scaling order: p = 1 + 4*sigma/N.  ``strict`` enforces
    sigma < min(N/4, 1); the relaxed window sigma < min(N/2, 1) is accepted
    with ``strict=False`` and recorded via ``relaxed=True``.
    ``require_alpha_gt1`` additionally rejects alpha <= 1 (needed by the
    balanced-rate regime).
    """
    if N not in (1, 2, 3):
        raise ValueError(f"dimension N must be 1, 2, or 3, got {N}")
    if isinstance(branch, str):
        branch = Branch.from_name(branch)

    sigma_cap_strict = min(N / 4.0, 1.0)
    sigma_cap_relaxed = min(N / 2.0, 1.0)
    if not (0.0 < sigma < sigma_cap_relaxed):
        raise ValueError(
            f"sigma={sigma} outside the admissible window (0, {sigma_cap_relaxed})")
    relaxed = not (sigma < sigma_cap_strict)
    if strict and relaxed:
        raise ValueError(
            f"sigma={sigma} >= min(N/4, 1) = {sigma_cap_strict}; pass "
            f"strict=False to accept the relaxed window")

    if p is None:
        p = p_from_sigma(N, sigma)
    if not (1.0 < p < 1.0 + 4.0 / N):
        raise ValueError(
            f"p={p} outside the subcritical window (1, {1.0 + 4.0 / N})")
    if C0 < 0.0:
        raise ValueError(f"C0 must be >= 0, got {C0}")

    alpha_p = 2.0 - N * (p - 1.0) / 2.0
    alpha_sigma = 2.0 - 2.0 * sigma
    alpha = alpha_p if abs(alpha_p - alpha_sigma) <= 1e-12 else None
    if require_alpha_gt1:
        if alpha is None:
            raise ValueError("balanced-rate regime requires alpha_p == alpha_sigma")
        if alpha <= 1.0:
            raise ValueError(
                f"balanced-rate regime requires alpha > 1, got alpha={alpha}")

    return ProblemParams(
        N=N, p=float(p), sigma=float(sigma), C0=float(C0), branch=branch,
        E0=float(E0), alpha_p=alpha_p, alpha_sigma=alpha_sigma, alpha=alpha,
        relaxed=relaxed,
    )


# --------------------------------------------------------------------------
# Radial grids and fields
# --------------------------------------------------------------------------

_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def surface_factor(N: int) -> float:
    """Measure of the unit sphere: full-line factor 2 in 1d, 2*pi, 4*pi."""
    return _SURFACE[N]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform staggered radial grid with exact cell-integral quadrature
    weights.

    Nodes sit strictly inside (0, rmax) at spacing h = rmax / n; node i
    owns the cell [edges[i], edges[i+1]] and its quadrature weight is the
    exact integral of r^(N-1) over that cell.  The first edge is 0 and
    carries zero flux (even parity), the last edge is rmax with a Dirichlet
    ghost value 0 mirrored at distance ``ghost_gap`` beyond the last node.
    """

    N: int
    nodes: np.ndarray
    edges: np.ndarray
    quad_weights: np.ndarray
    rmax: float

    def __post_init__(self) -> None:
        if self.nodes[0] <= 0.0:
            raise ValueError("grid must exclude the origin (nodes > 0)")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if not np.all(self.quad_weights > 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def h(self) -> float:
        """Node spacing rmax / n."""
        return float(self.rmax / self.n)

    @property
    def ghost_gap(self) -> float:
        """Distance from the last node to the mirrored Dirichlet ghost node."""
        return 2.0 * (self.rmax - float(self.nodes[-1]))

    @property
    def surface(self) -> float:
        return surface_factor(self.N)

    @property
    def fourth_order(self) -> bool:
        """True where the grid's -Lap is the fourth-order pentadiagonal
        stencil (N = 1); for N = 2, 3 it is the flux form."""
        return self.N == 1


def make_grid(N: int, n: int, rmax: float) -> RadialGrid:
    """Build the uniform staggered radial grid: nodes (i - 1/2) * h with
    h = rmax / n, i = 1..n, and cell edges i * h."""
    if n < 8:
        raise ValueError("grid needs at least 8 nodes")
    if rmax <= 0.0:
        raise ValueError("rmax must be positive")
    edges = np.linspace(0.0, rmax, n + 1)
    nodes = (np.arange(n) + 0.5) * (rmax / n)
    weights = (edges[1:] ** N - edges[:-1] ** N) / N
    return RadialGrid(N=N, nodes=nodes, edges=edges, quad_weights=weights,
                      rmax=float(rmax))


@dataclass
class RadialField:
    """Samples of a radial function at the grid nodes (even about r = 0)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n,):
            raise ValueError("field values must match the grid size")

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy())

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)


def _values_of(f: RadialField | np.ndarray) -> np.ndarray:
    return f.values if isinstance(f, RadialField) else np.asarray(f)


def _check_finite(v: np.ndarray) -> None:
    if not np.all(np.isfinite(v)):
        raise ValueError("field has non-finite samples")


# --------------------------------------------------------------------------
# Quadrature, inner products, norms
# --------------------------------------------------------------------------

def integrate(grid: RadialGrid, values: np.ndarray) -> float | complex:
    """Integral over R^N of a radial function: surface * sum(w_i * v_i)."""
    return grid.surface * np.sum(grid.quad_weights * values)


def inner_w(grid: RadialGrid, u: np.ndarray, v: np.ndarray) -> float | complex:
    """Weighted sesquilinear inner product surface * sum(w * u * conj(v))."""
    return grid.surface * np.sum(grid.quad_weights * u * np.conj(v))


def pair(grid: RadialGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Real L^2 pairing (u, v)_2 = Re integral(u * conj(v))."""
    return float(np.real(inner_w(grid, u, v)))


def norm_L2(f: RadialField) -> float:
    """L^2 norm with the radial measure."""
    v = _values_of(f)
    _check_finite(v)
    g = f.grid
    return math.sqrt(float(g.surface * np.sum(g.quad_weights * np.abs(v) ** 2)))


def norm_Lq(f: RadialField, q: float) -> float:
    """L^q norm with the radial measure."""
    v = _values_of(f)
    _check_finite(v)
    g = f.grid
    return float(g.surface * np.sum(g.quad_weights * np.abs(v) ** q)) ** (1.0 / q)


def grad_norm_sq(f: RadialField) -> float:
    """Squared gradient norm as the Dirichlet form of the grid's -Lap.

    With this definition <-Lap u, u>_w * surface == grad_norm_sq(u) for the
    same operator that ``apply_neg_laplacian`` applies.
    """
    g = f.grid
    v = _values_of(f)
    _check_finite(v)
    return float(np.real(integrate(g, np.conj(v) * apply_neg_laplacian(g, v))))


def norm_H1(f: RadialField) -> float:
    """H^1 norm: sqrt(L2^2 + |grad|^2)."""
    return math.sqrt(norm_L2(f) ** 2 + grad_norm_sq(f))


def weighted_norm(f: RadialField, weight: np.ndarray | Callable[[np.ndarray], np.ndarray]) -> float:
    """L^2 norm against a pointwise nonnegative weight: ||sqrt(weight) f||_2.

    ``weight`` is either an array of node values or a callable applied to
    the node radii.  The weight multiplies |f|^2 inside the integral.
    """
    g = f.grid
    v = _values_of(f)
    _check_finite(v)
    w = weight(g.nodes) if callable(weight) else np.asarray(weight)
    if np.any(w < 0):
        raise ValueError("weight must be nonnegative")
    return math.sqrt(float(g.surface * np.sum(g.quad_weights * w * np.abs(v) ** 2)))


def norm_Sigma1(f: RadialField) -> float:
    """Virial-space norm: sqrt(H1^2 + || r f ||_2^2)."""
    g = f.grid
    return math.sqrt(norm_H1(f) ** 2 + weighted_norm(f, g.nodes ** 2) ** 2)


def potential_weights(grid: RadialGrid, sigma: float) -> np.ndarray:
    """Exact cell averages of r^(-2*sigma) against the measure r^(N-1) dr.

    Returns the node array V with V_i = (1/w_i) * int_cell r^(N-1-2*sigma) dr,
    finite for sigma < N/2.  Using V everywhere (operators, energies, phase
    rotations) keeps the singular potential consistent across the package and
    integrates the singularity exactly.
    """
    N = grid.N
    expo = N - 2.0 * sigma
    if expo <= 0.0:
        raise ValueError("potential requires sigma < N/2")
    cell = (grid.edges[1:] ** expo - grid.edges[:-1] ** expo) / expo
    return cell / grid.quad_weights


# --------------------------------------------------------------------------
# Discrete radial operators
# --------------------------------------------------------------------------

def apply_neg_laplacian(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """The grid's one discrete -Lap applied to node values (any dtype).

    N = 1 grids use the fourth-order stencil the propagator diagonalizes
    (eigenvalues :func:`penta_symbol`); N = 2, 3 grids use the second-order
    conservative flux form.
    """
    if grid.fourth_order:
        return _penta_apply(grid, values)
    return -_flux_laplacian(grid, values)


def neg_laplacian_banded(grid: RadialGrid) -> np.ndarray:
    """The matrix of :func:`apply_neg_laplacian` in general band storage.

    ``ab`` has 2u+1 rows (u = 2 for the pentadiagonal stencil, 1 for the
    flux form), ab[u + i - j, j] = A[i, j]; :class:`Operator` solves with it.
    """
    diags = _penta_diags(grid) if grid.fourth_order else _flux_diags(grid)
    u = len(diags) // 2
    ab = np.zeros((2 * u + 1, grid.n))
    for off, d in zip(range(-u, u + 1), diags):
        if off >= 0:
            ab[u - off, off:] = d
        else:
            ab[u - off, :off] = d
    return ab


@dataclass(frozen=True)
class Operator:
    """L = -Lap + pot: the grid's -Lap plus a diagonal, the one banded
    operator behind every linear solve.

    ``ab`` is L in the storage of :func:`neg_laplacian_banded`; ``pot`` is
    a real scalar or node array, made complex by a complex :meth:`shifted`.
    """

    grid: RadialGrid
    pot: np.ndarray | float | complex
    ab: np.ndarray

    @classmethod
    def of(cls, grid: RadialGrid, pot) -> "Operator":
        ab = neg_laplacian_banded(grid)
        ab[ab.shape[0] // 2] += pot
        return cls(grid, pot, ab)

    @property
    def u(self) -> int:
        return self.ab.shape[0] // 2

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return apply_neg_laplacian(self.grid, x) + self.pot * x

    def solve(self, rhs: np.ndarray, *, check_finite: bool = True) -> np.ndarray:
        """L^-1 rhs by banded LU; ``check_finite`` as in scipy."""
        return solve_banded((self.u, self.u), self.ab, rhs,
                            check_finite=check_finite)

    def shifted(self, s: float | complex) -> "Operator":
        """L - s (a new operator; complex s gives a complex band)."""
        ab = self.ab.astype(np.result_type(self.ab, s))
        ab[self.u] -= s
        return Operator(self.grid, self.pot - s, ab)


def _flux_laplacian(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Conservative flux-form radial Laplacian (N = 2, 3) with zero inner
    flux and a Dirichlet ghost value 0 mirrored beyond rmax."""
    v = values
    flux = np.empty(grid.n + 1, dtype=v.dtype)
    flux[0] = 0.0
    flux[1:-1] = grid.edges[1:-1] ** (grid.N - 1) * np.diff(v) / np.diff(grid.nodes)
    flux[-1] = grid.edges[-1] ** (grid.N - 1) * (0.0 - v[-1]) / grid.ghost_gap
    return np.diff(flux) / grid.quad_weights


def _flux_diags(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sub, diag, super) of the flux form's -Lap; W A is symmetric with
    W = diag(quad_weights)."""
    n = grid.n
    geom = grid.edges[1:-1] ** (grid.N - 1) / np.diff(grid.nodes)  # size n-1
    bnd = grid.edges[-1] ** (grid.N - 1) / grid.ghost_gap
    w = grid.quad_weights
    diag = np.empty(n)
    diag[:-1] = geom
    diag[-1] = bnd
    diag[1:] += geom
    diag /= w
    lower = -geom / w[1:]
    upper = -geom / w[:-1]
    return lower, diag, upper


def _penta_diags(grid: RadialGrid) -> tuple[np.ndarray, ...]:
    """(sub2, sub1, diag, super1, super2) of the fourth-order -Lap (N = 1).

    The stencil acts on node values of an even function: ghosts below the
    origin are even mirror images of the first nodes, ghosts beyond rmax
    are odd mirror images of the last nodes (a reflecting wall where
    decayed tails vanish).  These mirror conditions make the stencil
    exactly diagonal in the quarter-wave cosine basis
    cos(pi (k+1/2)(j+1/2)/n) with eigenvalues penta_symbol, which the
    propagator exploits; the matrix is symmetric, so Crank-Nicolson built
    on it stays unitary.  The fourth-order truncation keeps the evolution's
    spatial error from biasing slow modulation dynamics at the marginal
    points-per-width resolutions reached between regrids.
    """
    n = grid.n
    c = 1.0 / (12.0 * grid.h ** 2)
    diag = np.full(n, 30.0 * c)
    sub1 = np.full(n - 1, -16.0 * c)
    sub2 = np.full(n - 2, 1.0 * c)
    # even reflection across r = 0: ghost(-h/2) = node 0, ghost(-3h/2) = node 1
    diag[0] = 14.0 * c
    sub1[0] = -15.0 * c
    # odd reflection across r = rmax: ghost(n) = -node(n-1), ghost(n+1) = -node(n-2)
    diag[-1] = 46.0 * c
    sub1[-1] = -17.0 * c
    super1 = sub1.copy()
    super2 = sub2.copy()
    return sub2, sub1, diag, super1, super2


def penta_symbol(grid: RadialGrid) -> np.ndarray:
    """Eigenvalues of the fourth-order -Lap stencil in its cosine basis.

    Mode k has nodal values cos(theta_k (j+1/2)) with theta_k = pi(k+1/2)/n
    and eigenvalue (30 - 32 cos theta + 2 cos 2theta) / (12 h^2) >= 0.
    """
    if not grid.fourth_order:
        raise ValueError("fourth-order stencil requires an N=1 grid")
    theta = np.pi * (np.arange(grid.n) + 0.5) / grid.n
    return (30.0 - 32.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / (
        12.0 * grid.h ** 2)


def _penta_apply(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Matrix-vector product with the fourth-order -Lap stencil (N = 1).

    Evaluated as -(16 d2 - w2) / (12 h^2) from the second differences d2
    (neighbours) and w2 (next neighbours) of the ghost-extended samples:
    differencing first keeps the rounding error proportional to the
    result instead of eps * |v| / h^2, the floor of a direct stencil sum.
    """
    v = np.asarray(values)
    # even mirror across the origin, odd mirror across rmax (as in
    # _penta_diags)
    ext = np.concatenate([v[1::-1], v, -v[:-3:-1]])
    d2 = np.diff(ext, 2)[1:-1]
    e2 = ext[2:] - ext[:-2]
    w2 = e2[2:] - e2[:-2]
    return (w2 - 16.0 * d2) / (12.0 * grid.h ** 2)


def radial_derivative(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Node derivative in r, even-parity mirrored at the origin and zero
    beyond rmax (decaying fields).

    A fourth-order centered stencil: downstream identities apply the
    Laplacian to this derivative, which amplifies the stencil error by
    curvature-scale constants, and the extra two orders keep those
    residuals below the tolerances of the operator identities.
    """
    v = np.asarray(values)
    # Ghost values follow the same conventions as the Laplacian: even
    # mirror across the origin (the staggered mirror of node i is node
    # -(i+1)) and odd mirror across rmax (Dirichlet).  Consistent ghosts
    # keep operator identities free of boundary kinks.
    ext = np.concatenate([v[1::-1], v, -v[:-3:-1]])
    return (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / (12.0 * grid.h)


def apply_scaling_generator(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Scaling generator N/2 + r d/dr applied to node values."""
    return 0.5 * grid.N * values + grid.nodes * radial_derivative(grid, values)


# --------------------------------------------------------------------------
# Nonlinearity catalogue
# --------------------------------------------------------------------------

_KINDS = ("f", "F", "g", "G")


def _exponent(kind: str, params: ProblemParams) -> float:
    if kind in ("f", "F"):
        return params.q
    if kind in ("g", "G"):
        return params.p
    raise ValueError(f"unknown nonlinearity kind {kind!r}; expected one of {_KINDS}")


def nonlinearity_eval(kind: str, z: np.ndarray | complex, params: ProblemParams):
    """Evaluate the nonlinearity catalogue at complex samples.

    f(z) = |z|^(q-1) z with q = 1 + 4/N       (mass-critical power)
    F(z) = |z|^(q+1) / (q+1)                  (its potential)
    g(z) = |z|^(p-1) z                        (subcritical power)
    G(z) = |z|^(p+1) / (p+1)                  (its potential)
    """
    e = _exponent(kind, params)
    z = np.asarray(z) if not np.isscalar(z) else z
    a = np.abs(z)
    if kind in ("f", "g"):
        return a ** (e - 1.0) * z
    return a ** (e + 1.0) / (e + 1.0)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def field_to_csv(f: RadialField, path: str) -> None:
    """Write node samples as CSV with columns r, re, im."""
    v = _values_of(f)
    data = np.column_stack([f.grid.nodes, np.real(v), np.imag(v)])
    header = "r,re,im"
    np.savetxt(path, data, delimiter=",", header=header, comments="",
               fmt="%.17g")


def field_from_csv(path: str, grid: RadialGrid) -> RadialField:
    """Read a CSV written by :func:`field_to_csv` onto a matching grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    r = data[:, 0]
    if r.size != grid.n or not np.allclose(r, grid.nodes, rtol=0, atol=1e-12 * grid.rmax):
        raise ValueError("CSV nodes do not match the supplied grid")
    vals = data[:, 1] + 1j * data[:, 2]
    if np.all(data[:, 2] == 0.0):
        vals = data[:, 1].copy()
    return RadialField(grid, vals)
