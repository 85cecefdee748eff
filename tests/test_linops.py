"""Linearized operators: analytic identities, bordered solves, coercivity."""

from __future__ import annotations

import numpy as np
import pytest

from nlsblowup.core import RadialField, inner_w, make_params, norm_L2
from nlsblowup.linops import (apply_Lminus, apply_Lplus, beta_closed_form,
                              branch_forcing, coercivity_spectrum,
                              lminus_unconstrained_min,
                              lplus_unconstrained_min,
                              operator_identity_residuals, solve_bordered,
                              solve_rho)
from nlsblowup.linops import _bottom_eigenvalues


def test_lplus_on_soliton_analytic(gs_profile):
    # L+ Q = -(q-1) Q^q follows from differentiating the profile equation
    q = 5.0
    lhs = apply_Lplus(gs_profile, gs_profile.Q).values
    rhs = -(q - 1.0) * gs_profile.Q.values ** q
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_lminus_annihilates_soliton(gs_profile):
    img = apply_Lminus(gs_profile, gs_profile.Q)
    assert norm_L2(img) < 1e-9 * norm_L2(gs_profile.Q)


def test_identity_residuals_structure(gs_profile):
    res = operator_identity_residuals(gs_profile)
    assert set(res) == {"lminus_Q", "lplus_LamQ", "lminus_r2Q", "lplus_rho"}
    assert all(v < 1e-4 for v in res.values())


def test_solve_rho_satisfies_equation(gs_profile):
    rho = solve_rho(gs_profile)
    img = apply_Lplus(gs_profile, rho).values
    target = gs_profile.grid.nodes ** 2 * gs_profile.Q.values
    rel = norm_L2(RadialField(gs_profile.grid, img - target)) / norm_L2(
        RadialField(gs_profile.grid, target))
    assert rel < 1e-5


def test_bordered_solution_solves_system(gs_profile, params_unbalanced):
    F = branch_forcing(gs_profile, params_unbalanced)
    sol = solve_bordered(gs_profile, F)
    # L+ P = F + beta * r^2 Q / 4, with the Q-component of P prescribed to 0
    grid = gs_profile.grid
    img = apply_Lplus(gs_profile, sol.P).values
    target = F.values + 0.25 * sol.beta * grid.nodes ** 2 * gs_profile.Q.values
    rel = norm_L2(RadialField(grid, img - target)) / max(norm_L2(F), 1e-30)
    assert rel < 1e-6
    q_comp = abs(inner_w(grid, sol.P.values, gs_profile.Q.values))
    assert q_comp < 1e-8 * norm_L2(sol.P) * norm_L2(gs_profile.Q)


def test_beta_affine_in_coupling(gs_profile, omega_profile):
    # beta depends affinely on C0; three collinear samples pin the line
    betas = []
    for ratio in (0.5, 1.0, 2.0):
        params = make_params(1, None, 0.2, ratio * omega_profile,
                             "plusminus", 1.0)
        params.omega = omega_profile
        betas.append(beta_closed_form(gs_profile, params))
    slope1 = (betas[1] - betas[0]) / 0.5
    slope2 = (betas[2] - betas[1]) / 1.0
    assert slope1 == pytest.approx(slope2, rel=1e-12)
    # vanishes at the balance point by construction of omega
    assert abs(betas[1]) < 1e-10 * abs(betas[2])


def test_beta_sign_flips_across_branches(gs_profile, omega_profile):
    pm = make_params(1, None, 0.2, 2.0 * omega_profile, "plusminus", 1.0)
    mp = make_params(1, None, 0.2, 2.0 * omega_profile, "minusplus", 1.0)
    assert beta_closed_form(gs_profile, pm) > 0.0
    assert beta_closed_form(gs_profile, mp) < 0.0


def test_bordered_beta_matches_closed_form(gs_profile, params_unbalanced):
    F = branch_forcing(gs_profile, params_unbalanced)
    sol = solve_bordered(gs_profile, F)
    closed = beta_closed_form(gs_profile, params_unbalanced)
    assert sol.beta == pytest.approx(closed, rel=1e-4)


def test_unconstrained_minima(gs_coarse):
    assert lplus_unconstrained_min(gs_coarse) < -1e-3
    # L- >= 0 with kernel spanned by the soliton itself: a zero bottom
    # eigenvalue, Q in the kernel, and a gap above it, so the kernel is
    # one-dimensional and therefore span{Q}
    assert abs(lminus_unconstrained_min(gs_coarse)) < 1e-8
    img = apply_Lminus(gs_coarse, gs_coarse.Q)
    assert norm_L2(img) < 1e-9 * norm_L2(gs_coarse.Q)
    assert _bottom_eigenvalues(gs_coarse, "minus", 2)[1] > 0.5


def test_constrained_coercivity(gs_coarse):
    rho = solve_rho(gs_coarse)
    assert coercivity_spectrum(gs_coarse, rho) > 0.0
