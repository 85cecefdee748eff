"""Linearized operators: analytic identities, bordered solves, coercivity."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh

from nlsblowup.core import (Operator, RadialField, make_grid, make_params,
                            norm_L2, pair)
from nlsblowup.groundstate import (compute_omega, default_rmax,
                                   solve_ground_state)
from nlsblowup.linops import (beta_closed_form, branch_forcing,
                              coercivity_spectrum, lminus_unconstrained_min,
                              lplus_unconstrained_min,
                              operator_identity_residuals, solve_bordered,
                              solve_lminus_orthogonal)
from nlsblowup.profile import build_profile


def _apply(gs, which, v):
    """L+ (which = 0) or L- (which = 1) of gs applied to the field v."""
    op = (gs.Lplus, gs.Lminus)[which]
    return RadialField(gs.grid, op.matvec(v.values))


def _symmetrized(gs, op):
    """Dense W^(1/2) L W^(-1/2) of gs's Lplus or Lminus, read off the band."""
    u, n = op.u, gs.grid.n
    # ab[u + i - j, j] = L[i, j]: diagonal d = j - i is row u - d of ab
    L = sum(np.diag(op.ab[u - d, max(d, 0):n + min(d, 0)], d)
            for d in range(-u, u + 1))
    sw = np.sqrt(gs.grid.quad_weights)
    return sw[:, None] * L / sw[None, :]


def _fresh(gs):
    """The ground state with none of its derived fields computed yet."""
    fresh = dataclasses.replace(gs)
    assert not {"Lplus", "Lminus", "rho", "Q_ld"} & set(vars(fresh))
    return fresh


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
    rho = gs_profile.rho
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


@functools.cache
def _ground_and_omega(N):
    """An N-dimensional soliton on a coarse grid and its balance point."""
    crit = make_params(N, None, 0.2, 0.0, "critical", 1.0)
    gs = solve_ground_state(crit, make_grid(N, 1024, default_rmax(N)))
    return gs, compute_omega(gs, crit)


@settings(max_examples=40, deadline=None)
@given(N=st.sampled_from([1, 2, 3]),
       branch=st.sampled_from(["plusminus", "minusplus"]),
       ratio=st.floats(0.0, 4.0))
def test_beta_is_affine_in_C0_and_vanishes_at_omega(N, branch, ratio):
    # beta(r omega) lies on the line through beta(omega) = 0 and beta(2 omega)
    gs, omega = _ground_and_omega(N)

    def beta(r):
        return beta_closed_form(gs, make_params(N, None, 0.2, r * omega,
                                                branch, 1.0))

    two = beta(2.0)
    assert abs(beta(1.0)) <= 1e-10 * abs(two)
    assert abs(beta(ratio) - (ratio - 1.0) * two) <= (
        1e-10 * max(1.0, ratio) * abs(two))


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
    second = eigvalsh(_symmetrized(gs_coarse, gs_coarse.Lminus),
                      subset_by_index=[1, 1])
    assert second[0] > 0.5


@pytest.mark.parametrize("N", [1, 2, 3])
def test_bottom_eigenvalues_match_dense_reference(N):
    params = make_params(N, None, 0.2, 0.0, "critical", 1.0)
    gs = solve_ground_state(params, make_grid(N, 512, default_rmax(N)))
    for op, bottom in ((gs.Lplus, lplus_unconstrained_min),
                       (gs.Lminus, lminus_unconstrained_min)):
        ref = eigvalsh(_symmetrized(gs, op), subset_by_index=[0, 0])[0]
        assert abs(bottom(gs) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_constrained_coercivity(gs_coarse):
    assert coercivity_spectrum(gs_coarse) > 0.0


@pytest.mark.parametrize("solver, first, again", [
    (lambda gs, F: gs.rho, 1, 0),
    (lambda gs, F: solve_bordered(gs, F), 1, 0),
    (lambda gs, F: solve_lminus_orthogonal(gs, F.values), 2, 0),
    (lambda gs, F: coercivity_spectrum(gs), 3, 2),
    (lambda gs, F: operator_identity_residuals(gs), 1, 0),
], ids=["solve_rho", "solve_bordered", "solve_lminus_orthogonal",
        "coercivity_spectrum", "operator_identity_residuals"])
def test_each_operator_is_factored_once_per_call(gs_coarse, factorizations,
                                                 solver, first, again):
    # Lplus and Lminus are factored at most once per ground state: the
    # first call factors those it solves with (rho is an Lplus solve), and
    # the refinement sweeps (Q_ld's too) and every later call reuse them;
    # coercivity_spectrum's Lanczos iterations reuse the two shifted
    # operators it factors per call
    gs = _fresh(gs_coarse)
    F = RadialField(gs.grid, gs.grid.nodes ** 2 * gs.Q.values)
    solver(gs, F)
    assert factorizations == ["dgbtrf"] * first
    factorizations.clear()
    solver(gs, F)
    assert factorizations == ["dgbtrf"] * again


def test_profile_build_factors_each_operator_once(gs_coarse, factorizations):
    params_critical = make_params(1, None, 0.2, 0.0, "critical", 1.0)
    omega = compute_omega(gs_coarse, params_critical)
    params = make_params(1, None, 0.2, 2.0 * omega, "plusminus", 1.0)
    gs = _fresh(gs_coarse)
    build_profile(gs, params, order=2)
    assert factorizations == ["dgbtrf"] * 2
    factorizations.clear()
    solve_bordered(gs, branch_forcing(gs, params))
    assert factorizations == []


@pytest.mark.parametrize("solver, built", [
    (lambda gs, F: gs.rho, ["plus"]),
    (lambda gs, F: solve_bordered(gs, F), ["plus"]),
    (lambda gs, F: solve_lminus_orthogonal(gs, F.values), ["plus", "minus"]),
    (lambda gs, F: lplus_unconstrained_min(gs), ["plus"]),
    (lambda gs, F: lminus_unconstrained_min(gs), ["minus"]),
    (lambda gs, F: coercivity_spectrum(gs), ["plus", "minus"]),
    (lambda gs, F: operator_identity_residuals(gs), ["plus"]),
], ids=["solve_rho", "solve_bordered", "solve_lminus_orthogonal",
        "lplus_unconstrained_min", "lminus_unconstrained_min",
        "coercivity_spectrum", "operator_identity_residuals"])
def test_each_solver_builds_only_the_operators_it_uses(gs_coarse, monkeypatch,
                                                       solver, built):
    # each operator is built at most once per ground state, however often
    # the solvers run on it
    gs = _fresh(gs_coarse)
    q = gs.params.q
    Qpow = np.abs(gs.Q.values) ** (q - 1.0)
    pots = {"plus": 1.0 - q * Qpow, "minus": 1.0 - Qpow}
    of = Operator.of.__func__
    seen = []

    def counted(cls, grid, pot):
        seen.extend(k for k, v in pots.items() if np.array_equal(pot, v))
        return of(cls, grid, pot)
    F = RadialField(gs.grid, gs.grid.nodes ** 2 * gs.Q.values)
    monkeypatch.setattr(Operator, "of", classmethod(counted))
    solver(gs, F)
    solver(gs, F)
    assert seen == built
