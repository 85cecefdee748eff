"""Profile expansion: assembly identities, residual scaling, energy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nlsblowup.core import (RadialField, make_grid, make_params, norm_L2,
                            norm_Sigma1)
from nlsblowup.groundstate import compute_omega, solve_ground_state
from nlsblowup.profile import (build_profile, decay_envelope, eval_profile,
                               fit_loglog_slope, profile_derivatives,
                               profile_energy, psi_slope_sweep,
                               rescale_to_physical, residual_Psi,
                               theta_value)
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


def test_residual_slope_certifies_order_zero(gs_profile, params_balanced):
    exp0 = build_profile(gs_profile, params_balanced, order=0)
    rows = psi_slope_sweep(exp0)
    slope = fit_loglog_slope([r["x"] for r in rows],
                             [r["weighted_norm"] for r in rows])
    assert slope >= 1.9


def test_rescale_preserves_mass(expansion_balanced):
    from nlsblowup.core import make_grid
    lam, b = 0.1, 0.03
    P, _ = eval_profile(expansion_balanced, lam, b)
    grid = make_grid(1, 4096, 6.4)
    u = rescale_to_physical(P, lam, b, 0.7, grid)
    assert norm_L2(u) == pytest.approx(norm_L2(P), rel=1e-6)


def test_profile_energy_matches_initialization(expansion_balanced,
                                               gs_profile):
    lam1, b1 = init_params(expansion_balanced, gs_profile, 1.0, 30.0)
    assert profile_energy(expansion_balanced, lam1, b1) == pytest.approx(
        1.0, rel=1e-8)


def test_profile_energy_vanishes_at_soliton(expansion_balanced):
    # b = 0, lambda -> 0: energy of the bare soliton tends to zero
    e_small = profile_energy(expansion_balanced, 1e-4, 0.0)
    e_large = profile_energy(expansion_balanced, 1e-2, 0.0)
    assert abs(e_small) < abs(e_large)
    assert abs(e_small) < 1e-3


def test_corrections_decay_like_soliton(gs_profile, expansion_balanced):
    C, kappa = decay_envelope(gs_profile, expansion_balanced.entries[(0, 0)].Pp)
    assert np.isfinite(C) and np.isfinite(kappa)
    assert C < 1e3 and kappa < 4.0


def test_sigma_norm_finite(expansion_balanced):
    P, _ = eval_profile(expansion_balanced, 0.1, 0.05)
    assert np.isfinite(norm_Sigma1(P))
