"""Soliton solver against the analytic one-dimensional profile and
quadrature oracles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nlsblowup.core import make_grid, make_params, norm_L2
from nlsblowup.groundstate import (_newton_polish, _petviashvili,
                                   default_rmax, pohozaev_residuals,
                                   solve_ground_state)

# Analytic N=1 soliton of -Q'' + Q = Q^5: Q(r) = 3^(1/4) sech^(1/2)(2r).
Q0_EXACT = 3.0 ** 0.25
MASS_EXACT = math.sqrt(3.0) * math.pi / 2.0


# the fields GroundState derives from Q on first read
DERIVED = {"Lplus", "Lminus", "rho", "Q_ld"}


def _analytic_Q(r):
    return 3.0 ** 0.25 / np.cosh(2.0 * r) ** 0.5


def test_profile_matches_analytic_soliton(gs_profile):
    r = gs_profile.grid.nodes
    core = r < 10.0
    err = np.abs(gs_profile.Q.values - _analytic_Q(r))[core]
    assert err.max() < 1e-6 * Q0_EXACT
    assert gs_profile.Q0 == pytest.approx(Q0_EXACT, rel=1e-6)
    assert gs_profile.norms["mass"] == pytest.approx(MASS_EXACT, rel=1e-6)


def test_elliptic_residual_small(gs_profile):
    assert gs_profile.residual_inf < 1e-9


def test_norms_against_quadrature_oracles(gs_profile):
    p1 = 2.8  # p + 1 for sigma = 0.2 in one dimension
    lp1 = 2 * quad(lambda r: _analytic_Q(r) ** p1, 0, 20)[0]
    virial = 2 * quad(lambda r: r ** 2 * _analytic_Q(r) ** 2, 0, 20)[0]
    potential = 2 * quad(lambda r: r ** (-0.4) * _analytic_Q(r) ** 2,
                         0, 20, points=[0.0])[0]
    crit = 2 * quad(lambda r: _analytic_Q(r) ** 6, 0, 20)[0]
    assert gs_profile.norms["lp1"] == pytest.approx(lp1, rel=1e-6)
    assert gs_profile.norms["virial"] == pytest.approx(virial, rel=1e-6)
    assert gs_profile.norms["potential"] == pytest.approx(potential, rel=1e-5)
    assert gs_profile.norms["crit"] == pytest.approx(crit, rel=1e-6)


def test_omega_against_quadrature(gs_profile, params_critical,
                                  omega_profile):
    p1 = 2.8
    lp1 = 2 * quad(lambda r: _analytic_Q(r) ** p1, 0, 20)[0]
    potential = 2 * quad(lambda r: r ** (-0.4) * _analytic_Q(r) ** 2,
                         0, 20, points=[0.0])[0]
    oracle = (p1 / 2.0) * potential / lp1
    assert omega_profile == pytest.approx(oracle, rel=1e-5)


def test_pohozaev_residuals(gs_profile):
    res1, res2 = pohozaev_residuals(gs_profile)
    assert abs(res1) < 1e-10
    assert abs(res2) < 1e-6


def test_petviashvili_agrees_with_newton(params_critical):
    # the fixed-point iteration run to convergence reaches the Q that
    # solve_ground_state polishes from its loosely converged sweeps
    grid = make_grid(1, 2048, 18.0)
    newton = solve_ground_state(params_critical, grid)
    fixedpoint, _ = _petviashvili(grid, params_critical.q, 1e-13)
    diff = np.max(np.abs(newton.Q.values - fixedpoint))
    assert diff < 1e-8


@pytest.mark.parametrize("N, trf", [(1, "dgbtrf"), (2, "dgttrf")])
def test_petviashvili_factors_its_operator_once(N, trf, factorizations):
    params = make_params(N, None, 0.2, 0.0, "critical", 1.0)
    _petviashvili(make_grid(N, 512, 15.0), params.q, 1e-13)
    assert factorizations == [trf]


@pytest.mark.parametrize("n, rmax", [(2048, 18.0), (2048, 30.0),
                                     (32768, 30.0)])
def test_newton_is_independent_of_its_seed(params_critical, n, rmax):
    # Newton from the analytic soliton, not from the fixed-point seed.  The
    # last two grids need Newton's full-step rule: from the seed, at rmax 30,
    # n 2048 the residual meets tol one step early, and at n 32768 its
    # roundoff floor hides a last step of 4.5e-13 * Q0 from the line search.
    gs = solve_ground_state(params_critical, make_grid(1, n, rmax))
    Q, _, _ = _newton_polish(gs.grid, params_critical.q, _analytic_Q(gs.grid.nodes),
                             1e-11)
    assert np.max(np.abs(Q - gs.Q.values)) < 1e-14 * gs.Q0


def test_two_dimensional_soliton():
    params = make_params(2, None, 0.3, 0.0, "critical", 1.0)
    gs = solve_ground_state(params, make_grid(2, 8192, 20.0))
    # frozen from a 131072-point, rmax=25 reference solve
    assert gs.Q0 == pytest.approx(2.206200880888523, rel=1e-5)
    assert gs.norms["mass"] == pytest.approx(11.700896, rel=1e-5)
    res1, _ = pohozaev_residuals(gs)
    assert abs(res1) < 1e-9


def test_three_dimensional_soliton():
    params = make_params(3, None, 0.3, 0.0, "critical", 1.0)
    gs = solve_ground_state(params, make_grid(3, 8192, 20.0))
    # frozen from a 131072-point, rmax=25 reference solve
    assert gs.Q0 == pytest.approx(4.19172340738898, rel=1e-5)
    assert gs.norms["mass"] == pytest.approx(63.78311374553597, rel=1e-5)
    res1, _ = pohozaev_residuals(gs)
    assert abs(res1) < 1e-9


@settings(max_examples=25, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), n=st.integers(512, 8192),
       rmax=st.floats(12.0, 30.0))
def test_ground_state_converges_on_any_grid(N, n, rmax):
    params = make_params(N, None, 0.2, 0.0, "critical", 1.0)
    gs = solve_ground_state(params, make_grid(N, n, rmax))
    Q = gs.Q.values
    assert np.min(Q) > 0.0 and np.all(np.diff(Q) < 0.0)
    assert gs.residual_inf < 1e-9
    assert abs(pohozaev_residuals(gs)[0]) < 1e-9
    assert gs.iterations["newton"] <= 8


def test_refine_longdouble_caches_and_stays_close(gs_coarse):
    gs = dataclasses.replace(gs_coarse)
    # a copy starts with nothing derived from Q; each derived field is
    # computed on its first read and the same object on every later one
    assert not DERIVED & set(vars(gs))
    for name in DERIVED:
        assert getattr(gs, name) is getattr(gs, name)
    refined = gs.Q_ld
    assert refined.dtype == np.longdouble
    assert float(np.max(np.abs(refined - gs.Q.values))) < 1e-9


def test_default_rmax_tail_negligible():
    for N in (1, 2):
        rmax = default_rmax(N)
        assert _analytic_Q(rmax / 2) < 1e-5  # decay scale is dimension-free


def test_mass_at_critical_threshold(gs_profile):
    # the soliton mass is the minimal blow-up mass; L2 norm matches it
    assert norm_L2(gs_profile.Q) ** 2 == pytest.approx(
        gs_profile.norms["mass"], rel=1e-14)
