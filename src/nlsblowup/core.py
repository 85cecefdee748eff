"""Parameters, radial grids, quadrature, norms, and the equation's local terms.

The power exponent p and the scaling order alpha derive from sigma, so the
two perturbations always act at one common order (:class:`ProblemParams`).

Everything downstream works with radial fields sampled on a staggered grid
that excludes the origin.  A grid is the value (N, n, rmax): grids compare
and hash by it, and their nodes, edges and weights derive from it
(:class:`RadialGrid`).  The discrete calculus is chosen so that the key
bilinear identities hold exactly in floating point:

- quadrature weights are exact cell integrals of r^(N-1) dr, so the constant
  function integrates to rmax^N / N with no quadrature error;
- grids are uniform, and every grid has one discrete -Lap, shared by the
  elliptic solvers, the linearized operators, the profile residual and the
  propagator: the fourth-order pentadiagonal stencil for N = 1, the
  second-order conservative flux form for N = 2, 3; both are exactly
  self-adjoint in the weighted inner product;
- every banded solve goes through :class:`Operator`, that -Lap plus a
  diagonal, which factors its band once (LAPACK ?gbtrf, or ?gttrf for the
  tridiagonal flux form) and solves each right-hand side with one
  triangular sweep (?gbtrs / ?gttrs), bit for bit what
  ``scipy.linalg.solve_banded`` returns; it refines solutions on that
  factor and checks their residuals against the roundoff floor.  These
  and the profile's spline solves come from ``_lapack``, scipy's compiled
  LAPACK module loaded from its file, since importing the ``scipy.linalg``
  package would take about half of the CLI's start-up;
- the squared gradient norm is the Dirichlet form of that operator, so
  <-Lap u, u> equals |grad u|^2 exactly;
- the inverse-power potential r^(-2*sigma) is represented by exact cell
  averages, removing the quadrature penalty of the integrable singularity;
- the equation's local terms |u|^(q-1) + C1 |u|^(p-1) + C2 V and their
  potential density are written once, in :class:`LocalTerms`, which the
  propagator, the energies, the profile residual, the Lyapunov functional
  and the branch forcing all read.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np
import scipy
from numpy.linalg import LinAlgError

__all__ = [
    "ProblemParams",
    "RadialGrid",
    "RadialField",
    "make_params",
    "make_grid",
    "integrate",
    "pair",
    "pairings",
    "norm_L2",
    "norm_Lq",
    "norm_H1",
    "weighted_norm",
    "grad_norm_sq",
    "potential_weights",
    "apply_neg_laplacian",
    "neg_laplacian_banded",
    "Operator",
    "penta_symbol",
    "radial_derivative",
    "apply_scaling_generator",
    "LocalTerms",
    "unit_phase",
]


def _load_lapack():
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``: the one in
    ``sys.modules``, else loaded from its file under that name without the
    ``scipy.linalg`` package, whose later import then reuses it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        found = PathFinder.find_spec(
            "_flapack", [os.path.join(scipy.__path__[0], "linalg")])
        spec = spec_from_file_location(name, found.origin)
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_lapack = _load_lapack()


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

# (C1 / C0, C2) on each sign branch: a focusing power with a repulsive
# potential, a defocusing power with an attractive one, and the
# unperturbed mass-critical equation.
_SIGNS = {"plusminus": (1.0, -1.0), "minusplus": (-1.0, 1.0),
          "critical": (0.0, 0.0)}


@dataclass
class ProblemParams:
    """Validated problem parameters: the five independent inputs.

    The two perturbations can cancel each other's leading effect only at a
    common order in the collapsing scale, so p = 1 + 4*sigma/N and that
    order alpha = 2 - N(p-1)/2 (= 2 - 2*sigma) derive from sigma.  The
    threshold omega, where they cancel, depends on the soliton profile and
    is returned by ``groundstate.compute_omega``; a run's regime is
    ``reduced.classify_regime`` of its expansion.  ``branch`` is the sign
    branch's word: "plusminus" (C1 = +C0, C2 = -1), "minusplus" (C1 = -C0,
    C2 = +1) or "critical" (C1 = C2 = 0).
    """

    N: int
    sigma: float
    C0: float
    branch: str
    E0: float

    @property
    def p(self) -> float:
        """Exponent 1 + 4*sigma/N of the subcritical power perturbation."""
        return 1.0 + 4.0 * self.sigma / self.N

    @property
    def alpha(self) -> float:
        """Common scaling order 2 - N(p-1)/2 of the two perturbations."""
        return 2.0 - self.N * (self.p - 1.0) / 2.0

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
        return _SIGNS[self.branch][0] * self.C0

    @property
    def C2(self) -> float:
        return _SIGNS[self.branch][1]


def make_params(
    N: int,
    p: float | None,
    sigma: float,
    C0: float,
    branch: str,
    E0: float,
) -> ProblemParams:
    """Validate the inputs and return the parameter record.

    sigma must lie in (0, min(N/4, 1)), which puts p = 1 + 4*sigma/N in
    (1, 1 + 4/N).  ``p`` may be None or that value (within 1e-12): any
    other p would give the two perturbations unequal scaling orders.
    """
    if N not in (1, 2, 3):
        raise ValueError(f"dimension N must be 1, 2, or 3, got {N}")
    if branch not in _SIGNS:
        raise ValueError(f"unknown branch {branch!r}; expected one of "
                         f"{list(_SIGNS)}")

    sigma_cap = min(N / 4.0, 1.0)
    if not (0.0 < sigma < sigma_cap):
        raise ValueError(
            f"sigma={sigma} outside the admissible window (0, {sigma_cap})")
    if C0 < 0.0:
        raise ValueError(f"C0 must be >= 0, got {C0}")

    params = ProblemParams(N=N, sigma=float(sigma), C0=float(C0),
                           branch=branch, E0=float(E0))
    if p is not None and abs(p - params.p) > 1e-12:
        raise ValueError(f"p={p} gives unequal scaling orders; p must be "
                         f"1 + 4*sigma/N = {params.p}")
    return params


# --------------------------------------------------------------------------
# Radial grids and fields
# --------------------------------------------------------------------------

# Measure of the unit sphere: full-line factor 2 in 1d, 2*pi, 4*pi.
_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


@dataclass(frozen=True)
class RadialGrid:
    """Uniform staggered radial grid with exact cell-integral quadrature
    weights: the value (N, n, rmax), from which its arrays derive.

    Nodes sit strictly inside (0, rmax) at spacing h = rmax / n; node i
    owns the cell [edges[i], edges[i+1]] and its quadrature weight is the
    exact integral of r^(N-1) over that cell.  The first edge is 0 and
    carries zero flux (even parity), the last edge is rmax with a Dirichlet
    ghost value 0 mirrored at distance ``ghost_gap`` beyond the last node.
    Grids compare and hash by (N, n, rmax); each array is built on first
    use and kept.  Build grids with :func:`make_grid`, which checks n and
    rmax.
    """

    N: int
    n: int
    rmax: float

    @cached_property
    def nodes(self) -> np.ndarray:
        """(i - 1/2) h, i = 1..n."""
        return (np.arange(self.n) + 0.5) * (self.rmax / self.n)

    @cached_property
    def edges(self) -> np.ndarray:
        """Cell edges i h, i = 0..n."""
        return np.linspace(0.0, self.rmax, self.n + 1)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Exact cell integrals of r^(N-1) dr."""
        e = self.edges
        return (e[1:] ** self.N - e[:-1] ** self.N) / self.N

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
        return _SURFACE[self.N]

    @cached_property
    def _pairing_weights(self) -> np.ndarray:
        """surface * quad_weights as complex, the weights ``pairings``
        multiplies a complex stack by (kept from the first call)."""
        return (self.surface * self.quad_weights).astype(complex)

    @property
    def fourth_order(self) -> bool:
        """True where the grid's -Lap is the fourth-order pentadiagonal
        stencil (N = 1); for N = 2, 3 it is the flux form."""
        return self.N == 1


def make_grid(N: int, n: int, rmax: float) -> RadialGrid:
    """The uniform staggered radial grid (N, n, rmax): nodes (i - 1/2) * h
    with h = rmax / n, i = 1..n, and cell edges i * h."""
    if n < 8:
        raise ValueError("grid needs at least 8 nodes")
    if rmax <= 0.0:
        raise ValueError("rmax must be positive")
    return RadialGrid(N=N, n=n, rmax=float(rmax))


@dataclass
class RadialField:
    """Samples of a radial function at the grid nodes (even about r = 0)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n,):
            raise ValueError("field values must match the grid size")


def _check_finite(v: np.ndarray) -> None:
    if not np.all(np.isfinite(v)):
        raise ValueError("field has non-finite samples")


# --------------------------------------------------------------------------
# Quadrature, inner products, norms
#
# ``pair`` is one real L^2 pairing; ``pairings`` is the matrix of them for
# two stacks of rows, one BLAS product, for callers that need many at once
# (the decomposition's condition vector and Jacobian).
# --------------------------------------------------------------------------

def integrate(grid: RadialGrid, values: np.ndarray) -> float | complex:
    """Integral over R^N of a radial function: surface * sum(w_i * v_i)."""
    return grid.surface * np.sum(grid.quad_weights * values)


def pair(grid: RadialGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Real L^2 pairing (u, v)_2 = Re integral(u * conj(v))."""
    return float(np.real(grid.surface
                         * np.sum(grid.quad_weights * u * np.conj(v))))


def pairings(grid: RadialGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The real L^2 pairings (a_i, b_j)_2 of two stacks of complex rows,
    (m, n) and (k, n), as an (m, k) matrix: one real product of the
    weighted (re, im)-interleaved view of a, (m, 2n), with that of b,
    (2n, k), since Re(a conj(b)) = Re a Re b + Im a Im b.  Each entry is
    ``pair``'s to rounding."""
    aw = np.asarray(a, dtype=complex) * grid._pairing_weights
    return aw.view(np.float64) @ np.ascontiguousarray(
        b, dtype=complex).view(np.float64).T


def norm_L2(f: RadialField) -> float:
    """L^2 norm with the radial measure."""
    v = f.values
    _check_finite(v)
    g = f.grid
    return math.sqrt(float(g.surface * np.sum(g.quad_weights * np.abs(v) ** 2)))


def norm_Lq(f: RadialField, q: float) -> float:
    """L^q norm with the radial measure."""
    v = f.values
    _check_finite(v)
    g = f.grid
    return float(g.surface * np.sum(g.quad_weights * np.abs(v) ** q)) ** (1.0 / q)


def grad_norm_sq(f: RadialField) -> float:
    """Squared gradient norm as the Dirichlet form of the grid's -Lap.

    With this definition <-Lap u, u>_w * surface == grad_norm_sq(u) for the
    same operator that ``apply_neg_laplacian`` applies.
    """
    g = f.grid
    v = f.values
    _check_finite(v)
    return float(np.real(integrate(g, np.conj(v) * apply_neg_laplacian(g, v))))


def norm_H1(f: RadialField) -> float:
    """H^1 norm: sqrt(L2^2 + |grad|^2)."""
    return math.sqrt(norm_L2(f) ** 2 + grad_norm_sq(f))


def weighted_norm(f: RadialField, weight: np.ndarray) -> float:
    """L^2 norm against a pointwise nonnegative weight: ||sqrt(weight) f||_2.

    ``weight`` holds node values; it multiplies |f|^2 inside the integral.
    """
    g = f.grid
    v = f.values
    _check_finite(v)
    w = np.asarray(weight)
    if np.any(w < 0):
        raise ValueError("weight must be nonnegative")
    return math.sqrt(float(g.surface * np.sum(g.quad_weights * w * np.abs(v) ** 2)))


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
    The band is factored once, on the first :meth:`solve` in each LAPACK
    type, and the factor lives as long as the operator.
    """

    grid: RadialGrid
    pot: np.ndarray | float | complex
    ab: np.ndarray
    _solvers: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

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
        """L^-1 rhs by one triangular sweep (?gbtrs, or ?gttrs for the
        tridiagonal band) on the stored LU factor, bit for bit
        ``scipy.linalg.solve_banded``'s result; ``check_finite`` checks
        the rhs.

        A complex band or rhs is solved in complex.  The first solve in a
        type factors the band (?gbtrf / ?gttrf); it raises ``ValueError``
        if the band is not finite and ``LinAlgError`` if it is singular.
        """
        if check_finite:
            rhs = np.asarray_chkfinite(rhs)
        t = "z" if np.iscomplexobj(self.ab) or np.iscomplexobj(rhs) else "d"
        sweep = self._solvers.get(t) or self._factor(t)
        return sweep(rhs)[0]

    def _factor(self, t: str):
        """Factor the band in LAPACK type ``t``; returns the sweep."""
        np.asarray_chkfinite(self.ab)
        u = self.u
        if u == 1:
            # ?gttrf/?gttrs, not ?gbtrf: only these are bit for bit the
            # ?gtsv that solve_banded calls for a tridiagonal band
            *lu, info = getattr(_lapack, t + "gttrf")(
                self.ab[2, :-1], self.ab[1], self.ab[0, 1:])
            sweep = partial(getattr(_lapack, t + "gttrs"), *lu)
        else:
            # ?gbtrf needs u extra rows for the fill-in of its pivoting
            ab = np.zeros((3 * u + 1, self.ab.shape[1]),
                          dtype=complex if t == "z" else float)
            ab[u:] = self.ab
            lu, piv, info = getattr(_lapack, t + "gbtrf")(ab, u, u,
                                                          overwrite_ab=True)
            sweep = partial(getattr(_lapack, t + "gbtrs"), lu, u, u, ipiv=piv)
        if info > 0:
            raise LinAlgError("singular matrix")
        self._solvers[t] = sweep
        return sweep

    def refine(self, x: np.ndarray, residual, rounds: int = 2) -> np.ndarray:
        """``rounds`` sweeps x += solve(residual(x) as double) on the stored
        factor, in x's dtype (a double sweep copies nothing)."""
        for _ in range(rounds):
            x = x + self.solve(residual(x).astype(float, copy=False)).astype(
                x.dtype, copy=False)
        return x

    def check(self, x: np.ndarray, rhs: np.ndarray, res: float, rel: float,
              what: str) -> None:
        """Raise ``ValueError`` if the residual ``res`` of the solve
        ``what`` exceeds rel ||rhs|| and 100 times the roundoff floor
        eps (sum_rows max|ab| ||x|| + ||rhs||) that even an exact x
        shows in floating point."""
        floor = np.finfo(float).eps * (np.sum(np.max(np.abs(self.ab), axis=1))
                                       * np.linalg.norm(x) + np.linalg.norm(rhs))
        if res > max(100.0 * floor, rel * np.linalg.norm(rhs)):
            raise ValueError(f"{what} solve residual {res:.3e} exceeds "
                             f"tolerance (roundoff floor {floor:.3e})")

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


def _divide(x: np.ndarray, d: float) -> np.ndarray:
    """x / d for finite x and a real scalar d != 0, bit for bit: numpy
    divides a complex array by a real scalar as the product with its
    reciprocal, which this forms without the complex division loop."""
    return x * (1.0 / d) if np.iscomplexobj(x) else x / d


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
    return _divide(w2 - 16.0 * d2, 12.0 * grid.h ** 2)


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
    # -a + b written as b - a (the same bits): numpy negates a complex
    # array in a slow loop
    return _divide(8.0 * ext[3:-1] - ext[4:] - 8.0 * ext[1:-3] + ext[:-4],
                   12.0 * grid.h)


def apply_scaling_generator(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Scaling generator N/2 + r d/dr applied to node values."""
    return 0.5 * grid.N * values + grid.nodes * radial_derivative(grid, values)


# --------------------------------------------------------------------------
# The equation's local terms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalTerms:
    """The local terms of the equation on a grid, at a perturbation shift.

    With a2 = |u|^2 they are the rate |u|^(q-1) + shift (C1 |u|^(p-1)
    + C2 V) multiplying u, and its potential density.  ``shift`` is 1 in
    physical variables and lam^alpha on the renormalized profile grid.
    ``c1`` is shift * C1 and ``cV`` the node array shift * C2 * V, with V
    the ``potential_weights``, or None where C2 = 0; a zero term is
    skipped, not added.
    """

    q: float
    p: float
    c1: float
    cV: np.ndarray | None

    @classmethod
    def of(cls, params: ProblemParams, grid: RadialGrid,
           shift: float = 1.0) -> "LocalTerms":
        cV = (shift * params.C2 * potential_weights(grid, params.sigma)
              if params.C2 != 0.0 else None)
        return cls(params.q, params.p, shift * params.C1, cV)

    def _add_perturbation(self, out: np.ndarray, a2: np.ndarray) -> np.ndarray:
        if self.c1 != 0.0:
            out += self.c1 * a2 ** (0.5 * (self.p - 1.0))
        if self.cV is not None:
            out += self.cV
        return out

    def rate(self, a2: np.ndarray) -> np.ndarray:
        """|u|^(q-1) + shift (C1 |u|^(p-1) + C2 V) at a2 = |u|^2."""
        return self._add_perturbation(a2 ** (0.5 * (self.q - 1.0)), a2)

    def perturbation(self, a2: np.ndarray) -> np.ndarray:
        """shift (C1 |u|^(p-1) + C2 V) at a2 = |u|^2: the rate without the
        mass-critical power."""
        return self._add_perturbation(np.zeros(np.shape(a2)), a2)

    def density(self, u: np.ndarray) -> np.ndarray:
        """|u|^(q+1)/(q+1) + shift (C1 |u|^(p+1)/(p+1) + C2 V |u|^2 / 2),
        whose first variation is rate(|u|^2) u."""
        a2 = np.real(u) ** 2 + np.imag(u) ** 2
        out = a2 ** (0.5 * (self.q + 1.0)) / (self.q + 1.0)
        if self.c1 != 0.0:
            out += self.c1 / (self.p + 1.0) * a2 ** (0.5 * (self.p + 1.0))
        if self.cV is not None:
            out += 0.5 * self.cV * a2
        return out


def _cayley(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(1 + i y) / (1 - i y) = 2 / (1 + y^2) - 1 + i y 2 / (1 + y^2) in real
    arithmetic, into ``out`` if given: unit modulus to rounding, 1 at y = 0."""
    out = np.empty(np.shape(y), dtype=complex) if out is None else out
    d = 2.0 / (1.0 + y * y)
    np.subtract(d, 1.0, out=out.real)
    np.multiply(y, d, out=out.imag)
    return out


def unit_phase(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) as the Cayley form of tan(theta/2), for every finite
    theta: float64 tan is one vectorized pass, cos and sin two libm loops."""
    return _cayley(np.tan(0.5 * theta))
