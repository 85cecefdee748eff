"""Grid, quadrature, norm, and operator primitives against analytic oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.fft import dct, idct
from scipy.integrate import quad

from nlsblowup.core import (Branch, Operator, RadialField,
                            apply_neg_laplacian, apply_scaling_generator,
                            field_from_csv, field_to_csv, grad_norm_sq,
                            integrate, make_grid, make_params,
                            neg_laplacian_banded, nonlinearity_eval, norm_L2,
                            norm_Lq, p_from_sigma, penta_symbol,
                            potential_weights, radial_derivative,
                            sigma_from_p, surface_factor, weighted_norm)


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
    assert p_from_sigma(2, 0.3) == pytest.approx(1.6, abs=1e-15)
    assert sigma_from_p(2, p_from_sigma(2, 0.3)) == pytest.approx(0.3)


def test_mismatched_orders_allowed_without_common_alpha():
    params = make_params(1, 1.5, 0.2, 1.0, "plusminus", 1.0)
    assert params.alpha is None
    assert params.alpha_p == pytest.approx(1.75)
    assert params.alpha_sigma == pytest.approx(1.6)
    with pytest.raises(ValueError):
        make_params(1, 1.5, 0.2, 1.0, "plusminus", 1.0,
                    require_alpha_gt1=True)


def test_sigma_windows():
    # strict window is sigma < N/4; the relaxed one extends to N/2
    with pytest.raises(ValueError):
        make_params(1, None, 0.3, 1.0, "plusminus", 1.0)
    relaxed = make_params(1, None, 0.3, 1.0, "plusminus", 1.0, strict=False)
    assert relaxed.relaxed
    with pytest.raises(ValueError):
        make_params(1, None, 0.9, 1.0, "plusminus", 1.0, strict=False)


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
    assert integrate(grid, np.ones(grid.n)) == pytest.approx(
        surface_factor(N) * 10.0 ** N / N, rel=1e-13)


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
    w = weighted_norm(f, lambda r: r ** 2)
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
# Nonlinearities
# --------------------------------------------------------------------------

def test_nonlinearity_eval_matches_formula():
    params = make_params(1, None, 0.2, 2.0, "plusminus", 1.0)
    z = np.array([0.5 + 0.1j, 1.2 - 0.3j])
    assert np.allclose(nonlinearity_eval("f", z, params),
                       np.abs(z) ** 4 * z, rtol=1e-13)
    assert np.allclose(nonlinearity_eval("g", z, params),
                       np.abs(z) ** 0.8 * z, rtol=1e-13)
    assert np.allclose(nonlinearity_eval("F", z, params),
                       np.abs(z) ** 6 / 6.0, rtol=1e-13)
    with pytest.raises(ValueError):
        nonlinearity_eval("h", z, params)


# --------------------------------------------------------------------------
# Serialization round-trips
# --------------------------------------------------------------------------

def test_field_csv_roundtrip(tmp_path):
    grid = make_grid(1, 128, 5.0)
    f = RadialField(grid, np.exp(-grid.nodes))
    path = tmp_path / "f.csv"
    field_to_csv(f, str(path))
    g = field_from_csv(str(path), grid)
    assert np.array_equal(f.values, g.values)
