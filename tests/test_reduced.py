"""Reduced scale/curvature flow: closed forms, initialization, conversions."""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from nlsblowup import reduced
from nlsblowup.core import make_grid, make_params
from nlsblowup.groundstate import compute_omega, solve_ground_state
from nlsblowup.profile import build_profile, profile_energy
from nlsblowup.reduced import (alpha_lt1_solutions, app_solutions,
                               init_params, integrate_reduced)


def _theta_law(theta):
    """Stand-in for an expansion whose phase correction is ``theta``."""
    return SimpleNamespace(theta=theta)


def test_zero_theta_closed_form():
    # with theta = 0: b' = -b^2, lambda'/lambda = -b have explicit solutions
    lam1, b1, s1 = 0.5, 0.2, 10.0
    traj = integrate_reduced(_theta_law(lambda lam, b: 0.0), [s1, 40.0],
                             lam1, b1, n_points=200)
    denom = 1.0 + b1 * (traj.s_grid - s1)
    b_exact = b1 / denom
    lam_exact = lam1 / denom
    assert np.max(np.abs(traj.b - b_exact)) < 1e-9
    assert np.max(np.abs(traj.lam - lam_exact)) < 1e-9


def test_constant_theta_riccati():
    # b' + b^2 = th0 with th0 > 0 relaxes to sqrt(th0)
    th0 = 0.04
    traj = integrate_reduced(_theta_law(lambda lam, b: th0), [0.0, 200.0],
                             1.0, 0.5, n_points=100)
    assert traj.b[-1] == pytest.approx(math.sqrt(th0), rel=1e-6)


def test_time_grid_is_integral_of_lambda_squared():
    traj = integrate_reduced(_theta_law(lambda lam, b: 0.0), [5.0, 25.0],
                             0.4, 0.1, n_points=400)
    # dt/ds = lambda^2: check by trapezoid quadrature
    t_quad = np.concatenate(
        [[0.0], np.cumsum(0.5 * (traj.lam[1:] ** 2 + traj.lam[:-1] ** 2)
                          * np.diff(traj.s_grid))])
    assert np.max(np.abs(traj.t_grid - t_quad)) < 1e-5 * t_quad[-1]


def test_s_range_is_two_increasing_points():
    law = _theta_law(lambda lam, b: 0.0)
    for bad in ([5.0], [5.0, 5.0], [25.0, 5.0], [5.0, 10.0, 25.0]):
        with pytest.raises(ValueError, match="s_range"):
            integrate_reduced(law, bad, 0.4, 0.1)


def test_balanced_flow_tracks_app_solution(expansion_balanced, gs_profile):
    E0, s1 = 1.0, 30.0
    lam1, b1 = init_params(expansion_balanced, E0, s1)
    traj = integrate_reduced(expansion_balanced, [s1, 300.0], lam1, b1,
                             n_points=300)
    lam_app, b_app = app_solutions(gs_profile, E0, traj.s_grid)
    ratio_lam = traj.lam[-1] / lam_app[-1]
    ratio_b = traj.b[-1] / b_app[-1]
    assert ratio_lam == pytest.approx(1.0, abs=0.03)
    assert ratio_b == pytest.approx(1.0, abs=0.03)


def test_lambda_floor_event(expansion_balanced):
    lam1, b1 = init_params(expansion_balanced, 1.0, 30.0)
    traj = integrate_reduced(expansion_balanced, [30.0, 1e6], lam1, b1,
                             lambda_floor=5e-3)
    assert traj.truncated
    assert traj.lam[-1] == pytest.approx(5e-3, rel=1e-6)


def _probe_by_probe_residual(sol, theta_fn, s_lo, s_hi):
    """The residual with one ``sol`` call per probe: the reference the
    batched evaluation of ``_resubstitution_residual`` must match."""
    span = s_hi - s_lo
    if span <= 0.0:
        return 0.0
    worst = 0.0
    for s in np.linspace(s_lo, s_hi, 101):
        h = min(0.02 * max(abs(s), 0.5), span / 8.0,
                (s - s_lo) / 3.0, (s_hi - s) / 3.0)
        if h <= 0.0:
            continue
        f = sol(np.array([s - 3 * h, s - 2 * h, s - h, s, s + h, s + 2 * h,
                          s + 3 * h]))
        d = (45.0 * (f[:, 4] - f[:, 2]) - 9.0 * (f[:, 5] - f[:, 1])
             + (f[:, 6] - f[:, 0])) / (60.0 * h)
        lam, b = f[0, 3], f[1, 3]
        th = theta_fn(max(lam, 0.0), b)
        r_lam = abs(d[0] + b * lam) / max(1.0, abs(b * lam))
        r_b = abs(d[1] + b * b - th) / max(1.0, abs(b * b) + abs(th))
        worst = max(worst, r_lam, r_b)
    return worst


@pytest.mark.parametrize("s_range, floor", [((30.0, 300.0), None),
                                            ((30.0, 1e6), 5e-3),
                                            ((-2.0, 0.5), None)])
def test_batched_residual_is_the_probe_by_probe_residual(
        expansion_balanced, monkeypatch, s_range, floor):
    # one sol call for all 101 x 7 probe points reads each probe's stencil
    # exactly as seven points of its own call did
    lam1, b1 = init_params(expansion_balanced, 1.0, 30.0)
    batched, seen = reduced._resubstitution_residual, []

    def spy(sol, theta_fn, s_lo, s_hi):
        seen.append(_probe_by_probe_residual(sol, theta_fn, s_lo, s_hi))
        return batched(sol, theta_fn, s_lo, s_hi)

    monkeypatch.setattr(reduced, "_resubstitution_residual", spy)
    traj = integrate_reduced(expansion_balanced, s_range, lam1, b1,
                             lambda_floor=floor)
    assert traj.truncated == (floor is not None)
    assert seen == [traj.ode_residual] and traj.ode_residual > 0.0


def test_init_params_energy_matched(expansion_balanced, gs_profile):
    E0, s1 = 1.0, 30.0
    lam1, b1 = init_params(expansion_balanced, E0, s1)
    assert profile_energy(expansion_balanced, lam1, b1) == pytest.approx(
        E0, rel=1e-8)
    # leading order: lambda1 * s1 = sqrt(virial / (8 E0)), b1 = 1/s1
    lead = math.sqrt(gs_profile.norms["virial"] / (8.0 * E0))
    assert lam1 * s1 == pytest.approx(lead, rel=0.02)
    assert b1 * s1 == pytest.approx(1.0, rel=0.02)


@functools.lru_cache(maxsize=None)
def _balanced_expansion(N):
    """Order-2 balanced expansion at sigma = 0.3 on a 2048-point grid."""
    critical = make_params(N, None, 0.3, 0.0, "critical", 1.0)
    gs = solve_ground_state(critical, make_grid(N, 2048, 20.0))
    params = make_params(N, None, 0.3, compute_omega(gs, critical),
                         "plusminus", 1.0)
    return build_profile(gs, params, order=2)


@pytest.mark.parametrize("N", [2, 3])
def test_init_params_stays_in_the_accuracy_region(N):
    # at sigma = 0.3 and s1 = 10, the bracket's uncapped upper end 4 b_app
    # gives lam1 + b = 0.532 (N = 2) and 0.772 (N = 3); the root b1 ~ 0.099
    # lies inside the capped bracket (an accuracy warning fails the test:
    # pyproject's filterwarnings)
    expansion = _balanced_expansion(N)
    lam1, b1 = init_params(expansion, 1.0, 10.0)
    assert lam1 + b1 <= 0.5
    assert b1 * 10.0 == pytest.approx(1.0, rel=0.02)
    assert profile_energy(expansion, lam1, b1) == pytest.approx(1.0,
                                                                rel=1e-8)


def test_init_params_needs_a_bracket_inside_the_accuracy_region():
    # N = 3 at s1 = 5 has lam1 = 0.744 > 0.5: the accuracy region holds no
    # b > 0, so the bracket is empty and nothing is evaluated outside it
    with pytest.raises(ValueError, match="no sign change"):
        init_params(_balanced_expansion(3), 1.0, 5.0)


def test_app_solutions_satisfy_energy_balance(gs_profile):
    E0 = 1.7
    s = np.linspace(20.0, 80.0, 7)
    lam_app, b_app = app_solutions(gs_profile, E0, s)
    lhs = gs_profile.norms["virial"] * (b_app / lam_app) ** 2
    assert np.allclose(lhs, 8.0 * E0, rtol=1e-12)
    with pytest.raises(ValueError):
        app_solutions(gs_profile, -1.0, s)


def test_alpha_lt1_power_law_solves_ode():
    beta01, alpha = 0.8, 0.7
    s = np.linspace(40.0, 41.0, 201)
    lam, b = alpha_lt1_solutions(beta01, alpha, s)
    # second-order one-sided differences at the ends, like the interior
    db = np.gradient(b, s, edge_order=2)
    residual = db + b ** 2 - beta01 * lam ** (2.0 * alpha)
    assert np.max(np.abs(residual)) < 1e-7
    dlam = np.gradient(lam, s, edge_order=2)
    assert np.max(np.abs(dlam + b * lam)) < 1e-7
    with pytest.raises(ValueError):
        alpha_lt1_solutions(beta01, 1.3, s)
    with pytest.raises(ValueError):
        alpha_lt1_solutions(-0.1, alpha, s)


def test_unbalanced_flow_power_law(expansion_unbalanced):
    # beta00 > 0: lambda ~ s^(-2/alpha) along the reduced flow
    alpha = expansion_unbalanced.params.alpha
    beta00 = expansion_unbalanced.beta00
    A = (2.0 * (2.0 - alpha) / (alpha ** 2 * beta00)) ** (1.0 / alpha)
    s1 = 20.0
    lam1, b1 = A * s1 ** (-2.0 / alpha), 2.0 / (alpha * s1)
    traj = integrate_reduced(expansion_unbalanced, [s1, 400.0], lam1, b1,
                             n_points=300)
    tail = traj.s_grid > 100.0
    slope = np.polyfit(np.log(traj.s_grid[tail]),
                       np.log(traj.lam[tail]), 1)[0]
    assert slope == pytest.approx(-2.0 / alpha, abs=0.05)

