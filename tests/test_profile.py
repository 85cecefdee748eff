"""Profile expansion: assembly identities, residual scaling, energy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from nlsblowup.core import RadialField, make_grid, make_params, norm_L2
from nlsblowup.groundstate import compute_omega, solve_ground_state
from nlsblowup.profile import (build_profile, eval_profile, even_spline,
                               fit_loglog_slope, profile_derivatives,
                               profile_energy, psi_slope_sweep,
                               rescale_to_physical, residual_Psi,
                               theta_value)
from nlsblowup.profile import _WINDOW_MARGIN, _even_cubic, _window
from nlsblowup.reduced import init_params


def test_entry_layout(expansion_balanced):
    # orders j + k <= J with both parities present
    keys = set(expansion_balanced.entries)
    assert (0, 0) in keys and (1, 0) in keys and (0, 1) in keys
    assert all(j + k <= 2 for j, k in keys)


def test_balanced_beta00_vanishes(expansion_balanced, expansion_unbalanced):
    # At the grid's own omega, beta00 is the O(h^2) gap between the bordered
    # multiplier and the closed-form threshold (it comes from the cell-
    # averaged potential pairing): it falls at second order from n to 2n
    # and is negligible against beta00 at twice the threshold.
    beta00 = expansion_balanced.beta_table[(0, 0)]
    grid = expansion_balanced.grid
    critical = make_params(1, None, 0.2, 0.0, "critical", 1.0)
    fine = solve_ground_state(critical, make_grid(1, 2 * grid.n, grid.rmax))
    omega = compute_omega(fine, critical)
    params = make_params(1, None, 0.2, omega, "plusminus", 1.0)
    beta00_fine = build_profile(fine, params, order=0).beta_table[(0, 0)]
    assert beta00 * beta00_fine > 0.0
    assert 3.5 <= beta00 / beta00_fine <= 4.5
    assert abs(beta00) < 1e-4 * expansion_unbalanced.beta_table[(0, 0)]


def test_unbalanced_beta00_positive(expansion_unbalanced):
    assert expansion_unbalanced.beta_table[(0, 0)] > 0.1


def test_zero_point_solvability_constant(expansion_balanced):
    # the (0,1) compatibility constant equals -||P00||_2^2 / 2
    entry = expansion_balanced.entries[(0, 1)]
    p00 = expansion_balanced.entries[(0, 0)].Pp
    assert entry.c == pytest.approx(-0.5 * norm_L2(p00) ** 2, rel=1e-10)


def test_eval_profile_matches_manual_assembly(expansion_balanced):
    lam, b = 0.07, 0.05
    P, theta = eval_profile(expansion_balanced, lam, b)
    alpha = expansion_balanced.params.alpha
    manual = expansion_balanced.gs.Q.values.astype(complex).copy()
    th_manual = 0.0
    for (j, k), entry in expansion_balanced.entries.items():
        nu = lam ** ((k + 1) * alpha)
        manual = manual + b ** (2 * j) * nu * entry.Pp.values
        manual = manual + 1j * b ** (2 * j + 1) * nu * entry.Pm.values
        th_manual += b ** (2 * j) * nu * entry.beta
    assert np.max(np.abs(P.values - manual)) < 1e-12 * np.max(np.abs(manual))
    assert theta == pytest.approx(th_manual, rel=1e-12)
    assert theta == pytest.approx(theta_value(expansion_balanced, lam, b),
                                  rel=1e-14)


def test_profile_derivatives_finite_difference(expansion_balanced):
    lam, b = 0.08, 0.04
    d_lam, d_b = profile_derivatives(expansion_balanced, lam, b)
    eps = 1e-6
    fd_lam = (eval_profile(expansion_balanced, lam + eps, b)[0].values
              - eval_profile(expansion_balanced, lam - eps, b)[0].values) / (
                  2 * eps)
    fd_b = (eval_profile(expansion_balanced, lam, b + eps)[0].values
            - eval_profile(expansion_balanced, lam, b - eps)[0].values) / (
                2 * eps)
    assert np.max(np.abs(d_lam - fd_lam)) < 1e-5 * np.max(np.abs(fd_lam))
    assert np.max(np.abs(d_b - fd_b)) < 1e-5 * np.max(np.abs(fd_b))


def test_residual_decreases_with_order(gs_profile, params_balanced):
    # lam^alpha = b^2 = 0.075 keeps lam + |b| = 0.47 inside the accuracy
    # region of eval_profile; leaving it fails (pyproject's filterwarnings)
    lam, b = 0.075 ** (1 / 1.6), math.sqrt(0.075)
    norms = []
    for order in (0, 1):
        exp_j = build_profile(gs_profile, params_balanced, order=order)
        th = theta_value(exp_j, lam, b)
        _, wn = residual_Psi(exp_j, lam, b, -b * lam, th - b * b)
        norms.append(wn)
    assert norms[1] < 0.5 * norms[0]


@pytest.fixture(scope="module")
def soliton_by_dimension(gs_profile):
    """(ground state, sigma) per N: N = 1 on the profile grid, N = 2 and 3
    at n = 4096, rmax 20, sigma 0.3."""
    out = {1: (gs_profile, 0.2)}
    for N in (2, 3):
        critical = make_params(N, None, 0.3, 0.0, "critical", 1.0)
        out[N] = (solve_ground_state(critical, make_grid(N, 4096, 20.0)), 0.3)
    return out


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("ratio", [1.0, 2.0])
@pytest.mark.parametrize("branch", ["plusminus", "minusplus"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_residual_slope_certifies_order(soliton_by_dimension, N, branch,
                                        ratio, order):
    # criterion 5's gate: the weighted residual of the order-J expansion
    # falls like x^(J+2) along the reduced flow, at C0 = ratio * omega
    gs, sigma = soliton_by_dimension[N]
    critical = make_params(N, None, sigma, 0.0, "critical", 1.0)
    params = make_params(N, None, sigma, ratio * compute_omega(gs, critical),
                         branch, 1.0)
    rows = psi_slope_sweep(build_profile(gs, params, order=order))
    slope = fit_loglog_slope([r["x"] for r in rows],
                             [r["weighted_norm"] for r in rows])
    assert slope >= order + 2 - 0.1


def test_rescale_preserves_mass(expansion_balanced):
    from nlsblowup.core import make_grid
    lam, b = 0.1, 0.03
    P, _ = eval_profile(expansion_balanced, lam, b)
    grid = make_grid(1, 4096, 6.4)
    u = rescale_to_physical(P, lam, b, 0.7, grid)
    assert norm_L2(u) == pytest.approx(norm_L2(P), rel=1e-6)


def _bump(r, kind):
    f = np.exp(-r ** 2) * (1.0 + 0.5 * np.cos(3.0 * r))
    return f * np.exp(0.7j * r ** 2) if kind == "complex" else f


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [8, 64, 4096])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_even_spline_is_the_not_a_knot_cubic_of_the_even_extension(N, n,
                                                                  kind):
    grid = make_grid(N, n, 6.0)
    r, h = grid.nodes, grid.h
    vals = _bump(r, kind)
    ref = CubicSpline(np.concatenate([-r[::-1], r]),
                      np.concatenate([vals[::-1], vals]))
    spline = even_spline(RadialField(grid, vals))
    # across r = 0, the interior, and the last cell
    q = np.concatenate([np.linspace(0.0, 0.5 * h, 5, endpoint=False),
                        np.linspace(r[0], r[-2], 301),
                        np.linspace(r[-2], r[-1], 5)])
    scale = np.max(np.abs(vals))
    for nu in (0, 1):
        err = np.max(np.abs(spline(q, nu) - ref(q, nu)))
        assert err <= 1e-13 * scale, (nu, err)


@settings(max_examples=120, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), n=st.integers(8, 4096),
       kind=st.sampled_from(["noise", "smooth"]),
       at=st.floats(0.0, 1.2), seed=st.integers(0, 2 ** 32 - 1))
@example(N=1, n=4096, kind="noise", at=1.0, seed=0)     # at the last node
@example(N=3, n=4096, kind="noise", at=0.3, seed=1)     # deep inside
def test_windowed_spline_is_the_full_spline_bit_for_bit(N, n, kind, at, seed):
    # samples r <= reach of the spline built on _window(reach) nodes are
    # those of the full spline, to the last bit, for values and slopes
    grid = make_grid(N, n, 6.0)
    r = grid.nodes
    rng = np.random.default_rng(seed)
    vals = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if kind == "noise" else _bump(r, "complex"))
    f = RadialField(grid, vals)
    reach = at * r[-1]
    K = _window(grid, reach)
    assert K == min(n, np.count_nonzero(r <= reach) + _WINDOW_MARGIN)
    top = min(reach, r[-1])
    q = np.sort(np.concatenate([rng.uniform(0.0, top, 200), r[r <= top],
                                [0.0, top]]))
    window, full = _even_cubic(f, K), even_spline(f)
    assert window.x[-1] == r[K - 1]
    for nu in (0, 1):
        assert np.array_equal(window(q, nu), full(q, nu)), nu


@pytest.mark.parametrize("N", [1, 2, 3])
def test_rescale_to_physical_evaluates_only_the_source_support(N):
    src = make_grid(N, 512, 6.0)
    P = RadialField(src, _bump(src.nodes, "complex"))
    lam, b, gamma = 0.3, 0.05, 0.7
    grid = make_grid(N, 2048, 4.0)       # x/lam reaches 13.3 > 6
    u = rescale_to_physical(P, lam, b, gamma, grid)
    y = grid.nodes / lam
    inside = y <= src.nodes[-1]
    assert 0 < np.count_nonzero(inside) < grid.n
    assert np.all(u.values[~inside] == 0.0)
    ref = (even_spline(P)(y) * lam ** (-0.5 * N)
           * np.exp(-0.25j * b * y ** 2 + 1j * gamma))[inside]
    err = np.max(np.abs(u.values[inside] - ref))
    assert err <= 1e-14 * np.max(np.abs(ref))


def test_profile_energy_matches_initialization(expansion_balanced):
    lam1, b1 = init_params(expansion_balanced, 1.0, 30.0)
    assert profile_energy(expansion_balanced, lam1, b1) == pytest.approx(
        1.0, rel=1e-8)


def test_profile_energy_vanishes_at_soliton(expansion_balanced):
    # b = 0, lambda -> 0: energy of the bare soliton tends to zero
    e_small = profile_energy(expansion_balanced, 1e-4, 0.0)
    e_large = profile_energy(expansion_balanced, 1e-2, 0.0)
    assert abs(e_small) < abs(e_large)
    assert abs(e_small) < 1e-3

