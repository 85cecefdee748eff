"""Modulation decomposition: recovery, gauge structure, tube handling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from scipy.linalg import lapack

from nlsblowup import modulation, profile
from nlsblowup.core import (RadialField, apply_scaling_generator, make_grid,
                            make_params, norm_H1, norm_L2, pair)
from nlsblowup.modulation import (ModulationState, TubeExit, _remainder,
                                  decompose, energy_inequality_check,
                                  hat_epsilon, lyapunov_S, reconstruct)
from nlsblowup.profile import build_profile, eval_profile, rescale_to_physical
from nlsblowup.reduced import classify_regime


def _pure_profile_field(expansion, lam, b, gamma):
    P, _ = eval_profile(expansion, lam, b)
    return rescale_to_physical(P, lam, b, gamma, expansion.gs.grid)


def test_exact_recovery_of_parameters(expansion_balanced):
    lam, b, gamma = 0.18, 0.06, 1.1
    u = _pure_profile_field(expansion_balanced, lam, b, gamma)
    state = decompose(u, expansion_balanced, (0.2, 0.0, 1.0))
    assert state.lam == pytest.approx(lam, abs=1e-8)
    assert state.b == pytest.approx(b, abs=1e-8)
    assert state.gamma == pytest.approx(gamma, abs=1e-8)
    assert state.eps_H1 < 1e-7


def test_reconstruct_inverts_decompose(expansion_balanced):
    lam, b, gamma = 0.22, -0.04, 0.4
    u = _pure_profile_field(expansion_balanced, lam, b, gamma)
    state = decompose(u, expansion_balanced, (0.2, 0.0, 0.5))
    back = reconstruct(state, u.grid)
    err = norm_H1(RadialField(u.grid, back.values - u.values))
    assert err < 1e-8 * norm_H1(u)


def test_orthogonality_conditions_enforced(expansion_balanced):
    u = _pure_profile_field(expansion_balanced, 0.2, 0.05, 0.3)
    # perturb so the remainder is nonzero, then decompose
    bump = np.exp(-(u.grid.nodes / 0.2) ** 2) * 1e-3
    up = RadialField(u.grid, u.values + bump * np.exp(0.3j))
    state = decompose(up, expansion_balanced, (0.2, 0.0, 0.3))
    assert max(abs(o) for o in state.orth) < 1e-9


def test_decompose_evaluates_the_profile_once_per_iterate(expansion_balanced,
                                                          monkeypatch):
    lam, b, gamma = 0.2, 0.05, 0.9
    u = _pure_profile_field(expansion_balanced, lam, b, gamma)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eval_profile(*args, **kwargs)
    monkeypatch.setattr(modulation, "eval_profile", counted)
    state = decompose(u, expansion_balanced, (lam, b, gamma))
    assert len(calls) == 1
    assert state.iterations == 1 and not state.fd_jacobian
    # the state carries the converged iterate's profile; reconstruct and
    # the Lyapunov functional read it instead of evaluating it again
    assert np.array_equal(
        state.P.values,
        eval_profile(expansion_balanced, state.lam, state.b)[0].values)
    calls.clear()
    reconstruct(state, u.grid)
    lyapunov_S(state)
    assert len(calls) == 0

    # a perturbed field iterates; the returned remainder, conditions and
    # pairing are those of the returned parameters
    bump = 1e-3 * np.exp(-(u.grid.nodes / 0.2) ** 2)
    up = RadialField(u.grid, u.values + bump * np.exp(0.3j))
    calls.clear()
    state = decompose(up, expansion_balanced, (0.21, 0.04, 0.8))
    assert state.iterations == len(calls) > 1
    grid = expansion_balanced.grid
    eps, P, _ = _remainder(up, expansion_balanced, state.lam, state.b,
                           state.gamma)
    R = (pair(grid, eps, 1j * apply_scaling_generator(grid, P)),
         pair(grid, eps, grid.nodes ** 2 * P),
         pair(grid, eps, 1j * expansion_balanced.gs.rho.values))
    assert np.max(np.abs(state.eps.values - eps)) < 1e-12
    assert np.max(np.abs(np.subtract(state.orth, R))) < 1e-12
    assert state.eps_P == pytest.approx(pair(grid, eps, P), abs=1e-12)


def _tube_cases(expansion):
    """An exact, a biased and a phase-shifted tube state on a field grid
    that reaches past lam * y[-1], as the tube benchmark builds them."""
    grid = make_grid(1, 16384, 12.0)
    lam, b, gamma, shift = 0.23, -0.06, 2.1, 0.45
    P, _ = eval_profile(expansion, lam, b)
    u = rescale_to_physical(P, lam, b, gamma, grid)
    shifted = RadialField(grid, u.values * np.exp(1j * shift))
    return [(u, (lam, b, gamma)), (u, (lam * 1.05, b + 0.01, gamma + 0.1)),
            (shifted, (lam, b, gamma + shift))]


def test_windowed_splines_decompose_bit_for_bit(expansion_balanced,
                                                monkeypatch):
    cases = _tube_cases(expansion_balanced)
    states = [decompose(u, expansion_balanced, g) for u, g in cases]
    assert any(s.iterations > 1 for s in states)   # the Jacobian ran
    # the reference: every spline on all of its nodes
    monkeypatch.setattr(profile, "_WINDOW_MARGIN", 10 ** 9)
    for (u, g), s in zip(cases, states):
        ref = decompose(u, expansion_balanced, g)
        for name in ("lam", "b", "gamma", "eps_H1", "eps_P", "orth",
                     "iterations", "fd_jacobian"):
            assert np.array_equal(getattr(s, name), getattr(ref, name)), name
        assert np.array_equal(s.P.values, ref.P.values)
        assert np.array_equal(s.eps.values, ref.eps.values)


def test_decompose_solves_a_window_of_the_cached_slope_factor(
        expansion_balanced, factorizations, monkeypatch):
    u, guess = _tube_cases(expansion_balanced)[1]
    rows = []

    def counted(dl, d, *args, _trs=lapack.dgttrs, **kw):
        rows.append(d.size)
        return _trs(dl, d, *args, **kw)
    monkeypatch.setattr(lapack, "dgttrs", counted)
    for n in (u.grid.n, expansion_balanced.grid.n):
        profile._slope_factor(n)
    factorizations.clear()
    state = decompose(u, expansion_balanced, guess)
    assert factorizations == []
    # D's spline solves the rows its samples lam * y <= lam * y[-1] reach
    reach = state.lam * expansion_balanced.grid.nodes[-1]
    assert reach < u.grid.nodes[-1]
    assert profile._window(u.grid, reach) in rows
    assert max(rows) < u.grid.n


def test_guess_independence(expansion_balanced):
    u = _pure_profile_field(expansion_balanced, 0.16, 0.03, 2.0)
    s1 = decompose(u, expansion_balanced, (0.13, -0.02, 1.6))
    s2 = decompose(u, expansion_balanced, (0.21, 0.08, 2.4))
    assert s1.lam == pytest.approx(s2.lam, abs=1e-9)
    assert s1.b == pytest.approx(s2.b, abs=1e-9)
    assert s1.gamma == pytest.approx(s2.gamma, abs=1e-9)


def test_gauge_coherence(expansion_balanced):
    u = _pure_profile_field(expansion_balanced, 0.2, 0.05, 0.9)
    phi = 0.37
    u_rot = RadialField(u.grid, u.values * np.exp(1j * phi))
    s0 = decompose(u, expansion_balanced, (0.2, 0.0, 0.9))
    s1 = decompose(u_rot, expansion_balanced, (0.2, 0.0, 1.2))
    assert s1.gamma == pytest.approx(s0.gamma + phi, abs=1e-8)
    assert s1.lam == pytest.approx(s0.lam, abs=1e-10)
    diff = norm_H1(RadialField(u.grid, s1.eps.values - s0.eps.values))
    assert diff < 1e-8 * max(norm_H1(u), 1.0)


def test_tube_exit_raised_far_from_profile(expansion_balanced):
    grid = expansion_balanced.gs.grid
    junk = RadialField(grid, np.exp(-grid.nodes ** 2).astype(complex))
    # the Newton run wanders outside the profile's accuracy region on the way
    with pytest.raises(TubeExit), pytest.warns(UserWarning,
                                               match="accuracy region"):
        decompose(junk, expansion_balanced, (0.2, 0.0, 0.0))


def test_hat_epsilon_l2_invariance(expansion_balanced):
    u = _pure_profile_field(expansion_balanced, 0.2, 0.05, 0.0)
    bump = 1e-3 * np.exp(-(u.grid.nodes / 0.15) ** 2)
    up = RadialField(u.grid, u.values + bump)
    state = decompose(up, expansion_balanced, (0.2, 0.0, 0.0))
    hat = hat_epsilon(state)
    assert norm_L2(hat) == pytest.approx(norm_L2(state.eps), rel=1e-6)


def test_lyapunov_scales_like_remainder(expansion_balanced):
    u = _pure_profile_field(expansion_balanced, 0.2, 0.02, 0.0)
    state0 = decompose(u, expansion_balanced, (0.2, 0.0, 0.0))
    lyap0 = lyapunov_S(state0)
    bump = 2e-3 * np.exp(-(u.grid.nodes / 0.12) ** 2)
    # S is coercive on the critical-mass sphere only: a bump that adds mass
    # moves eps along the negative direction of Lplus, so the perturbed
    # field is scaled back to the mass of u
    up = RadialField(u.grid, u.values + bump)
    up.values *= norm_L2(u) / norm_L2(up)
    state1 = decompose(up, expansion_balanced, (0.2, 0.0, 0.0))
    lyap1 = lyapunov_S(state1)
    assert np.isfinite(lyap0) and np.isfinite(lyap1)
    assert lyap1 > lyap0


def test_energy_inequality_nonnegative_margin(expansion_balanced):
    from nlsblowup.reduced import init_params
    lam1, b1 = init_params(expansion_balanced, 1.0, 30.0)
    u = _pure_profile_field(expansion_balanced, lam1, b1, 0.0)
    state = decompose(u, expansion_balanced, (lam1, 0.0, 0.0))
    margin = energy_inequality_check(state, 1.0)
    assert np.isfinite(margin)


def test_energy_inequality_follows_the_classified_regime(gs_profile,
                                                         omega_profile):
    # C0 = 1.0001 omega is off the exact threshold, but its beta00 lies in
    # the balanced band, so the run starts and is fitted as balanced; the
    # energy inequality must judge it balanced too (E0 = 0 is excluded)
    params = make_params(1, None, 0.2, 1.0001 * omega_profile, "plusminus",
                         1.0)
    expansion = build_profile(gs_profile, params, order=0)
    assert classify_regime(expansion) == "balanced"
    grid = expansion.grid
    state = ModulationState(lam=0.1, b=0.05, gamma=0.0,
                            P=eval_profile(expansion, 0.1, 0.05)[0],
                            eps=RadialField(grid, np.zeros(grid.n, complex)),
                            expansion=expansion, eps_H1=0.0,
                            eps_P=0.0, orth=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="needs E0 > 0"):
        energy_inequality_check(state, E0=0.0)
