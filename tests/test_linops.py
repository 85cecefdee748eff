"""Linearized operators: analytic identities, bordered solves, coercivity."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eig_banded

from nlsblowup.core import Operator, RadialField, make_params, norm_L2, pair
from nlsblowup.linops import (beta_closed_form, branch_forcing,
                              coercivity_spectrum, lminus_unconstrained_min,
                              lplus_unconstrained_min,
                              operator_identity_residuals, solve_bordered,
                              solve_lminus_orthogonal, solve_rho)
from nlsblowup.linops import _operator, _symmetric_band


def _apply(gs, which, v):
    """L+ (which = 0) or L- (which = 1) of gs applied to the field v."""
    op = _operator(gs, ("plus", "minus")[which])
    return RadialField(gs.grid, op.matvec(v.values))


def test_lplus_on_soliton_analytic(gs_profile):
    # L+ Q = -(q-1) Q^q follows from differentiating the profile equation
    q = 5.0
    lhs = _apply(gs_profile, 0, gs_profile.Q).values
    rhs = -(q - 1.0) * gs_profile.Q.values ** q
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_lminus_annihilates_soliton(gs_profile):
    img = _apply(gs_profile, 1, gs_profile.Q)
    assert norm_L2(img) < 1e-9 * norm_L2(gs_profile.Q)


def test_identity_residuals_structure(gs_profile):
    res = operator_identity_residuals(gs_profile)
    assert set(res) == {"lminus_Q", "lplus_LamQ", "lminus_r2Q", "lplus_rho"}
    assert all(v < 1e-4 for v in res.values())


def test_solve_rho_satisfies_equation(gs_profile):
    rho = solve_rho(gs_profile)
    img = _apply(gs_profile, 0, rho).values
    target = gs_profile.grid.nodes ** 2 * gs_profile.Q.values
    rel = norm_L2(RadialField(gs_profile.grid, img - target)) / norm_L2(
        RadialField(gs_profile.grid, target))
    assert rel < 1e-5


def test_bordered_solution_solves_system(gs_profile, params_unbalanced):
    F = branch_forcing(gs_profile, params_unbalanced)
    sol = solve_bordered(gs_profile, F)
    # L+ P = F + beta * r^2 Q / 4, with the Q-component of P prescribed to 0
    grid = gs_profile.grid
    img = _apply(gs_profile, 0, sol.P).values
    target = F.values + 0.25 * sol.beta * grid.nodes ** 2 * gs_profile.Q.values
    rel = norm_L2(RadialField(grid, img - target)) / max(norm_L2(F), 1e-30)
    assert rel < 1e-6
    q_comp = abs(pair(grid, sol.P.values, gs_profile.Q.values))
    assert q_comp < 1e-8 * norm_L2(sol.P) * norm_L2(gs_profile.Q)


@pytest.mark.parametrize("branch", ["plusminus", "minusplus"])
def test_beta_affine_in_coupling(gs_profile, omega_profile, branch):
    # beta depends affinely on C0, in closed form and from the bordered
    # solve of branch_forcing alike; three collinear samples pin each line
    closed, bordered = [], []
    for ratio in (0.5, 1.0, 2.0):
        params = make_params(1, None, 0.2, ratio * omega_profile, branch, 1.0)
        closed.append(beta_closed_form(gs_profile, params))
        bordered.append(solve_bordered(
            gs_profile, branch_forcing(gs_profile, params)).beta)
    for betas in (closed, bordered):
        slope1 = (betas[1] - betas[0]) / 0.5
        slope2 = (betas[2] - betas[1]) / 1.0
        assert slope1 == pytest.approx(slope2, rel=1e-12)
    # the closed form vanishes at the balance point by construction of omega
    assert abs(closed[1]) < 1e-10 * abs(closed[2])


def test_beta_sign_flips_across_branches(gs_profile, omega_profile):
    pm = make_params(1, None, 0.2, 2.0 * omega_profile, "plusminus", 1.0)
    mp = make_params(1, None, 0.2, 2.0 * omega_profile, "minusplus", 1.0)
    assert beta_closed_form(gs_profile, pm) > 0.0
    assert beta_closed_form(gs_profile, mp) < 0.0


@pytest.mark.parametrize("branch", ["plusminus", "minusplus"])
def test_bordered_beta_matches_closed_form(gs_profile, omega_profile, branch):
    params = make_params(1, None, 0.2, 2.0 * omega_profile, branch, 1.0)
    sol = solve_bordered(gs_profile, branch_forcing(gs_profile, params))
    closed = beta_closed_form(gs_profile, params)
    assert sol.beta == pytest.approx(closed, rel=1e-4)


def test_unconstrained_minima(gs_coarse):
    assert lplus_unconstrained_min(gs_coarse) < -1e-3
    # L- >= 0 with kernel spanned by the soliton itself: a zero bottom
    # eigenvalue, Q in the kernel, and a gap above it, so the kernel is
    # one-dimensional and therefore span{Q}
    assert abs(lminus_unconstrained_min(gs_coarse)) < 1e-8
    img = _apply(gs_coarse, 1, gs_coarse.Q)
    assert norm_L2(img) < 1e-9 * norm_L2(gs_coarse.Q)
    second = eig_banded(_symmetric_band(gs_coarse, "minus"), lower=False,
                        eigvals_only=True, select="i", select_range=(1, 1))
    assert second[0] > 0.5


def test_constrained_coercivity(gs_coarse):
    rho = solve_rho(gs_coarse)
    assert coercivity_spectrum(gs_coarse, rho) > 0.0


@pytest.mark.parametrize("solver, factors", [
    (lambda gs, F: solve_rho(gs), 1),
    (lambda gs, F: solve_bordered(gs, F), 1),
    (lambda gs, F: solve_lminus_orthogonal(gs, F.values), 1),
    (lambda gs, F: coercivity_spectrum(gs, gs.rho), 2),
], ids=["solve_rho", "solve_bordered", "solve_lminus_orthogonal",
        "coercivity_spectrum"])
def test_each_operator_is_factored_once_per_call(gs_coarse, factorizations,
                                                 solver, factors):
    # the refinement sweeps and the Lanczos iterations reuse the factor
    F = RadialField(gs_coarse.grid, gs_coarse.grid.nodes ** 2
                    * gs_coarse.Q.values)
    solve_rho(gs_coarse)
    factorizations.clear()
    solver(gs_coarse, F)
    assert factorizations == ["dgbtrf"] * factors


@pytest.mark.parametrize("solver, built", [
    (lambda gs, F: solve_rho(gs), ["plus"]),
    (lambda gs, F: solve_bordered(gs, F), ["plus"]),
    (lambda gs, F: solve_lminus_orthogonal(gs, F.values), ["minus"]),
    (lambda gs, F: _symmetric_band(gs, "plus"), ["plus"]),
    (lambda gs, F: _symmetric_band(gs, "minus"), ["minus"]),
    (lambda gs, F: coercivity_spectrum(gs, gs.rho), ["plus", "minus"]),
], ids=["solve_rho", "solve_bordered", "solve_lminus_orthogonal",
        "symmetric_band_plus", "symmetric_band_minus", "coercivity_spectrum"])
def test_each_solver_builds_only_the_operators_it_uses(gs_coarse, monkeypatch,
                                                       solver, built):
    q = gs_coarse.params.q
    Qpow = np.abs(gs_coarse.Q.values) ** (q - 1.0)
    pots = {"plus": 1.0 - q * Qpow, "minus": 1.0 - Qpow}
    of = Operator.of.__func__
    seen = []

    def counted(cls, grid, pot):
        seen.extend(k for k, v in pots.items() if np.array_equal(pot, v))
        return of(cls, grid, pot)
    F = RadialField(gs_coarse.grid, gs_coarse.grid.nodes ** 2
                    * gs_coarse.Q.values)
    solve_rho(gs_coarse)
    monkeypatch.setattr(Operator, "of", classmethod(counted))
    solver(gs_coarse, F)
    assert seen == built
