"""Grid, quadrature, norm, and operator primitives against analytic oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import dct, idct
from scipy.integrate import quad
from scipy.linalg import LinAlgError, solve_banded

from nlsblowup.core import (Branch, LocalTerms, Operator, RadialField,
                            apply_neg_laplacian, apply_scaling_generator,
                            grad_norm_sq, integrate, make_grid, make_params,
                            neg_laplacian_banded, norm_L2, norm_Lq, pair,
                            pairings, penta_symbol, potential_weights,
                            radial_derivative, unit_phase, weighted_norm)


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

def test_branch_signs():
    pm = make_params(1, None, 0.2, 3.0, "plusminus", 1.0)
    assert pm.C1 == 3.0 and pm.C2 == -1.0
    mp = make_params(1, None, 0.2, 3.0, "minusplus", 1.0)
    assert mp.C1 == -3.0 and mp.C2 == 1.0
    cr = make_params(1, None, 0.2, 0.0, "critical", 1.0)
    assert cr.C1 == 0.0 and cr.C2 == 0.0


def test_matched_exponent_and_alpha():
    params = make_params(1, None, 0.2, 1.0, "plusminus", 1.0)
    assert params.p == pytest.approx(1.8, abs=1e-15)
    assert params.alpha == pytest.approx(1.6, abs=1e-15)
    p = make_params(2, None, 0.3, 1.0, "plusminus", 1.0).p
    assert p == pytest.approx(1.6, abs=1e-15)


def test_unequal_orders_rejected():
    # the perturbations cancel only at a common scaling order, so an
    # explicit p must be the one sigma fixes
    with pytest.raises(ValueError, match="unequal scaling orders"):
        make_params(1, 1.5, 0.2, 1.0, "plusminus", 1.0)
    assert make_params(1, 1.8, 0.2, 1.0, "plusminus", 1.0).p == 1.8


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([1, 2, 3]),
       frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_orders_derive_from_sigma(N, frac):
    # p and alpha are the record's one expression each, bit for bit, and
    # the sigma window puts p inside the subcritical window
    sigma = frac * min(N / 4.0, 1.0)
    params = make_params(N, None, sigma, 1.0, "plusminus", 1.0)
    p = 1.0 + 4.0 * sigma / N
    assert params.p == p and params.alpha == 2.0 - N * (p - 1.0) / 2.0
    assert abs(params.alpha - (2.0 - 2.0 * sigma)) <= 1e-12
    assert 1.0 < params.p < 1.0 + 4.0 / N


def test_sigma_windows():
    # the admissible window is 0 < sigma < min(N/4, 1)
    with pytest.raises(ValueError):
        make_params(1, None, 0.3, 1.0, "plusminus", 1.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_params(7, None, 0.2, 1.0, "plusminus", 1.0)
    with pytest.raises(ValueError):
        make_params(1, None, 0.2, 1.0, "nosuchbranch", 1.0)
    with pytest.raises(ValueError):
        make_params(1, None, 0.2, -1.0, "plusminus", 1.0)


def test_branch_enum_roundtrip():
    assert Branch.from_name("PlusMinus") is Branch.PLUS_MINUS
    with pytest.raises(ValueError):
        Branch.from_name("bogus")


# --------------------------------------------------------------------------
# Grids and quadrature
# --------------------------------------------------------------------------

@pytest.mark.parametrize("N", [1, 2, 3])
def test_grid_cells_and_total_volume(N):
    grid = make_grid(N, 512, 10.0)
    h = 10.0 / 512
    assert np.allclose(grid.nodes, (np.arange(512) + 0.5) * h, rtol=0,
                       atol=1e-14)
    # weights are exact cell integrals of r^(N-1): they sum to rmax^N / N,
    # and integrate() adds the surface factor (volume of the ball)
    assert grid.quad_weights.sum() == pytest.approx(10.0 ** N / N, rel=1e-13)
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[N]
    assert integrate(grid, np.ones(grid.n)) == pytest.approx(
        surface * 10.0 ** N / N, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), n=st.integers(8, 200),
       rmax=st.floats(0.5, 50.0),
       values=st.lists(st.floats(-10.0, 10.0), min_size=200, max_size=200))
def test_integrate_is_exact_on_cell_constants(N, n, rmax, values):
    # a function constant on each cell [r_i, r_i+1], r_i = i rmax / n, has
    # integral surface * sum c_i (r_i+1^N - r_i^N) / N: the reference sums
    # it in exact rationals, the gate scales with sum |c_i| cell volume
    grid = make_grid(N, n, rmax)
    c = values[:n]
    edges = [Fraction(rmax) * i / n for i in range(n + 1)]
    cells = [(edges[i + 1] ** N - edges[i] ** N) / N for i in range(n)]
    exact = sum(Fraction(ci) * w for ci, w in zip(c, cells))
    scale = sum(abs(Fraction(ci)) * w for ci, w in zip(c, cells))
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[N]
    err = abs(integrate(grid, np.array(c)) - surface * float(exact))
    assert err <= 1e-13 * surface * float(scale)


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), n=st.integers(8, 300),
       m=st.integers(1, 4), k=st.integers(1, 7),
       real_b=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_pairings_is_pair_entry_by_entry(N, n, m, k, real_b, seed):
    # one product gives every (a_i, b_j)_2 of two stacks of rows, each
    # within the rounding of a length-n sum of pair's terms
    grid = make_grid(N, n, 7.0)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    b = rng.standard_normal((k, n))
    if not real_b:
        b = b + 1j * rng.standard_normal((k, n))
    G = pairings(grid, a, b)
    assert G.shape == (m, k)
    for i in range(m):
        for j in range(k):
            scale = float(integrate(grid, np.abs(a[i] * b[j])))
            err = abs(G[i, j] - pair(grid, a[i], b[j]))
            assert err <= 4 * n * np.finfo(float).eps * scale


def test_integrate_gaussian_vs_quad():
    grid = make_grid(2, 4096, 12.0)
    vals = np.exp(-grid.nodes ** 2)
    oracle = quad(lambda r: 2 * math.pi * r * math.exp(-r * r), 0, 12.0)[0]
    # exact-cell weights make integrate() the midpoint rule for 2 pi r f(r);
    # its Euler-Maclaurin term at the origin is 2 pi h^2 f(0) / 24
    origin_term = 2 * math.pi * grid.h ** 2 / 24.0
    assert integrate(grid, vals) == pytest.approx(oracle + origin_term,
                                                  rel=1e-7)


def test_norms_of_analytic_gaussian():
    grid = make_grid(1, 8192, 20.0)
    f = RadialField(grid, np.exp(-grid.nodes ** 2 / 2))
    # ||e^{-r^2/2}||_2^2 = sqrt(pi) over the whole line
    assert norm_L2(f) ** 2 == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    # ||f'||_2^2 = integral r^2 e^{-r^2} = sqrt(pi)/2
    assert grad_norm_sq(f) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-5)
    assert norm_Lq(f, 4.0) ** 4 == pytest.approx(
        quad(lambda r: 2 * math.exp(-2 * r * r), 0, 20)[0], rel=1e-6)
    w = weighted_norm(f, grid.nodes ** 2)
    assert w ** 2 == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-6)


def test_potential_weights_are_exact_cell_averages():
    grid = make_grid(1, 64, 4.0)
    sigma = 0.2
    w = potential_weights(grid, sigma)
    for i in (0, 1, 40):
        a, b = grid.edges[i], grid.edges[i + 1]
        exact = (b ** (1 - 2 * sigma) - a ** (1 - 2 * sigma)) / (
            (1 - 2 * sigma) * (b - a))
        assert w[i] == pytest.approx(exact, rel=1e-12)


# --------------------------------------------------------------------------
# Differential operators
# --------------------------------------------------------------------------

def _gaussian_and_laplacian(grid):
    r = grid.nodes
    f = np.exp(-r ** 2)
    lap = (4 * r ** 2 - 2 * grid.N) * np.exp(-r ** 2)
    return f, lap


@pytest.mark.parametrize("N", [2, 3])
def test_apply_laplacian_second_order(N):
    # the flux form of N = 2, 3 (N = 1 is fourth order, tested below)
    errs = []
    for n in (512, 1024):
        grid = make_grid(N, n, 12.0)
        f, lap = _gaussian_and_laplacian(grid)
        err = np.max(np.abs(apply_neg_laplacian(grid, f) + lap)[: n // 2])
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_tridiag_matches_apply_and_is_weight_symmetric():
    grid = make_grid(2, 256, 8.0)
    ab = neg_laplacian_banded(grid)     # ab[1 + i - j, j] = A[i, j]
    assert ab.shape[0] == 3
    upper, diag, lower = ab[0, 1:], ab[1], ab[2, :-1]
    f, _ = _gaussian_and_laplacian(grid)
    nu = diag * f
    nu[1:] += lower * f[:-1]
    nu[:-1] += upper * f[1:]
    assert np.allclose(nu, apply_neg_laplacian(grid, f), rtol=1e-10, atol=1e-10)
    # self-adjointness in the cell-weighted inner product
    w = grid.quad_weights
    assert np.allclose(w[:-1] * upper, w[1:] * lower, rtol=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_grid_operator_form_and_band(N):
    # grad_norm_sq is the Dirichlet form of apply_neg_laplacian, and the
    # band of Operator (neg_laplacian_banded plus its diagonal) is the
    # matrix of that same operator
    grid = make_grid(N, 300, 7.0)
    rng = np.random.default_rng(1)
    v = (np.exp(-grid.nodes ** 2) * (1 + 0.1j)
         + 0.01 * rng.standard_normal(grid.n))
    Av = apply_neg_laplacian(grid, v)
    form = np.real(integrate(grid, np.conj(v) * Av))
    assert grad_norm_sq(RadialField(grid, v)) == pytest.approx(form, rel=1e-12)
    lap = Operator.of(grid, 0.0)
    assert lap.u == (2 if N == 1 else 1)
    assert np.max(np.abs(lap.solve(Av) - v)) < 1e-10
    # a nonzero diagonal, and its complex shift as the propagator uses it:
    # 1 + z(-Lap) = z(-Lap + 1/z) with z = i dt / 2
    op = Operator.of(grid, 1.0 + 0.5 * np.exp(-grid.nodes ** 2))
    for L in (op, op.shifted(-1.0 / (0.5j * 1e-3))):
        assert np.max(np.abs(L.solve(L.matvec(v)) - v)) < 1e-10


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("case", ["real", "shifted", "pivoting"])
def test_operator_solve_is_solve_banded_bit_for_bit(N, case):
    # solve after solve on one operator, its stored factor gives exactly
    # what a fresh solve_banded gives: the real operators of linops and
    # the ground state with real rhs, the propagator's complex shift with
    # complex rhs, and a random band that makes LAPACK pivot; the last rhs
    # is complex on every band, which is then solved in complex
    grid = make_grid(N, 400, 9.0)
    rng = np.random.default_rng(N)
    op = Operator.of(grid, 1.0 - 5.0 * np.exp(-grid.nodes ** 2))
    if case == "shifted":
        op = Operator.of(grid, 0.0).shifted(-1.0 / (0.5j * 1e-3))
    elif case == "pivoting":
        op = Operator(grid, 0.0, rng.standard_normal(op.ab.shape))
    for k in range(4):
        rhs = rng.standard_normal(grid.n)
        if case == "shifted" or k == 3:
            rhs = rhs + 1j * rng.standard_normal(grid.n)
        x = op.solve(rhs)
        ref = solve_banded((op.u, op.u), op.ab, rhs)
        assert x.dtype == ref.dtype
        assert np.array_equal(x, ref)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_operator_solve_finiteness_and_singular_band(N):
    grid = make_grid(N, 64, 4.0)
    op = Operator.of(grid, 1.0)
    rhs = np.ones(grid.n)
    rhs[5] = np.nan
    with pytest.raises(ValueError):
        op.solve(rhs)
    # unchecked, a NaN passes through as it does in solve_banded
    x = op.solve(rhs, check_finite=False)
    ref = solve_banded((op.u, op.u), op.ab, rhs, check_finite=False)
    assert np.isnan(x).any()
    assert np.array_equal(x, ref, equal_nan=True)
    with pytest.raises(ValueError):
        Operator.of(grid, np.where(grid.nodes < 1.0, np.inf, 1.0)).solve(
            np.ones(grid.n))
    singular = Operator(grid, 0.0, np.zeros_like(op.ab))
    for _ in range(2):  # a failed factorization is not kept
        with pytest.raises(LinAlgError):
            singular.solve(np.ones(grid.n))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_operator_checks_its_band_once(N, monkeypatch):
    grid = make_grid(N, 64, 4.0)
    # a non-finite band raises on the first solve, checked or not, and
    # leaves no factor behind
    bad = Operator.of(grid, np.where(grid.nodes < 1.0, np.nan, 1.0))
    for check in (True, False, True):
        with pytest.raises(ValueError):
            bad.solve(np.ones(grid.n), check_finite=check)
    assert not bad._solvers
    # a finite band is checked when it is factored, each rhs on each solve
    op = Operator.of(grid, 1.0)
    chkfinite = np.asarray_chkfinite
    checked = []

    def counted(a, *args, **kw):
        checked.append("band" if a is op.ab else "rhs")
        return chkfinite(a, *args, **kw)
    monkeypatch.setattr(np, "asarray_chkfinite", counted)
    for _ in range(3):
        op.solve(np.ones(grid.n))
    assert checked == ["rhs", "band", "rhs", "rhs"]
    rhs = np.ones(grid.n)
    rhs[5] = np.inf
    with pytest.raises(ValueError):
        op.solve(rhs)


def test_penta_fourth_order_and_symmetric():
    errs = []
    for n in (512, 1024):
        grid = make_grid(1, n, 12.0)
        f, lap = _gaussian_and_laplacian(grid)
        err = np.max(np.abs(apply_neg_laplacian(grid, f) + lap)[: n // 2])
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)
    ab = neg_laplacian_banded(make_grid(1, 64, 4.0))  # ab[2 + i - j, j] = A[i, j]
    assert ab.shape[0] == 5
    assert np.array_equal(ab[3, :-1], ab[1, 1:])    # sub1 == super1
    assert np.array_equal(ab[4, :-2], ab[0, 2:])    # sub2 == super2


def test_penta_symbol_diagonalizes_stencil():
    grid = make_grid(1, 257, 7.3)
    mu = penta_symbol(grid)
    assert mu.min() > 0.0
    rng = np.random.default_rng(3)
    v = rng.standard_normal(grid.n)
    via_dct = idct(mu * dct(v, type=4, norm="ortho"), type=4, norm="ortho")
    direct = apply_neg_laplacian(grid, v)
    assert np.max(np.abs(via_dct - direct)) < 1e-10 * np.max(np.abs(direct))


def test_penta_requires_uniform_one_dimensional_grid():
    with pytest.raises(ValueError):
        penta_symbol(make_grid(2, 64, 4.0))


def test_radial_derivative_and_scaling_generator():
    grid = make_grid(1, 2048, 10.0)
    r = grid.nodes
    f = np.exp(-r ** 2)
    df = radial_derivative(grid, f)
    assert np.max(np.abs(df + 2 * r * f)) < 5e-5
    lam_f = apply_scaling_generator(grid, f)
    expected = 0.5 * f + r * (-2 * r * f)
    assert np.max(np.abs(lam_f - expected)) < 5e-4


# --------------------------------------------------------------------------
# The equation's local terms
# --------------------------------------------------------------------------

@pytest.mark.parametrize("branch", ["plusminus", "minusplus"])
def test_local_terms_match_closed_forms(branch):
    # N = 1, sigma = 0.2: q = 5, p = 1.8, C1 = +-2, C2 = -+1
    params = make_params(1, None, 0.2, 2.0, branch, 1.0)
    C1, C2 = params.C1, params.C2
    grid = make_grid(1, 64, 4.0)
    V = potential_weights(grid, 0.2)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    a = np.abs(z)
    for shift in (1.0, 0.37):
        terms = LocalTerms.of(params, grid, shift)
        pert = shift * (C1 * a ** 0.8 + C2 * V)
        assert np.allclose(terms.perturbation(a ** 2), pert, rtol=1e-13)
        assert np.allclose(terms.rate(a ** 2), a ** 4 + pert, rtol=1e-13)
        assert np.allclose(
            terms.density(z),
            a ** 6 / 6.0 + shift * (C1 * a ** 2.8 / 2.8 + 0.5 * C2 * V * a ** 2),
            rtol=1e-13)
    crit = LocalTerms.of(make_params(1, None, 0.2, 0.0, "critical", 1.0), grid)
    assert crit.cV is None and crit.c1 == 0.0
    assert not np.any(crit.perturbation(a ** 2))
    assert np.array_equal(crit.rate(a ** 2), (a ** 2) ** 2.0)


@settings(max_examples=30, deadline=None)
@given(N=st.sampled_from([1, 2, 3]),
       branch=st.sampled_from(["plusminus", "minusplus"]),
       C0=st.floats(0.1, 3.0), shift=st.floats(0.05, 1.0),
       amp=st.floats(0.3, 1.5), kick=st.floats(-1.0, 1.0))
def test_rate_is_the_first_variation_of_the_density(N, branch, C0, shift,
                                                      amp, kick):
    # d/de int density(u + e v) at e = 0 equals pair(rate(|u|^2) u, v)
    params = make_params(N, None, 0.2, C0, branch, 1.0)
    grid = make_grid(N, 256, 8.0)
    r = grid.nodes
    u = amp * np.exp(-r ** 2) * (1.0 + 0.5j * r)
    v = np.exp(-1.5 * r ** 2) * (kick + 1j * (1.0 - r))
    terms = LocalTerms.of(params, grid, shift)
    e = 1e-5
    ddens = (integrate(grid, terms.density(u + e * v))
             - integrate(grid, terms.density(u - e * v))) / (2.0 * e)
    first = pair(grid, terms.rate(np.abs(u) ** 2) * u, v)
    assert ddens == pytest.approx(first, rel=1e-7, abs=1e-9)


# --------------------------------------------------------------------------
# Unit-modulus factors
# --------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(theta=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=64))
@example(theta=[math.pi, -math.pi, 0.5 * math.pi, -0.5 * math.pi, 1e-8,
                -1e-300, 5e-324, 1e4, -1e4])
def test_unit_phase_is_exp_i_theta(theta):
    # the Cayley form of tan(theta/2) is exp(i theta) for every finite theta
    theta = np.array(theta)
    e = unit_phase(theta)
    assert np.max(np.abs(e - np.exp(1j * theta))) <= 1e-15
    assert np.max(np.abs(e.real ** 2 + e.imag ** 2 - 1.0)) <= 1e-15


def test_unit_phase_dense_zero_and_nan():
    theta = np.random.default_rng(5).uniform(-1e4, 1e4, 100_000)
    e = unit_phase(theta)
    assert np.max(np.abs(e - np.exp(1j * theta))) <= 1e-15
    assert np.max(np.abs(e.real ** 2 + e.imag ** 2 - 1.0)) <= 1e-15
    exact = unit_phase(np.array([0.0, -0.0, np.nan]))
    assert exact[0] == 1.0 and exact[1] == 1.0
    assert np.isnan(exact[2].real) and np.isnan(exact[2].imag)
