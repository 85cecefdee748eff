"""Profile expansion: assembly identities, residual scaling, energy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import lapack

from nlsblowup import profile
from nlsblowup.core import (RadialField, make_grid, make_params, norm_L2,
                            unit_phase)
from nlsblowup.groundstate import compute_omega, solve_ground_state
from nlsblowup.profile import (build_profile, eval_profile, fit_loglog_slope,
                               profile_derivatives, profile_energy,
                               psi_slope_sweep, rescale_to_physical,
                               residual_Psi)
from nlsblowup.profile import (_WINDOW_MARGIN, _resample, _slope_factor,
                               _slopes, _window)
from nlsblowup.reduced import init_params
from oracles import even_cubic


def test_entry_layout(expansion_balanced):
    # the rows are every (j, k) with j + k <= J, sorted, so row 0 is (0, 0)
    # and beta00 is theta's row-0 coefficient
    e = expansion_balanced
    keys = list(zip(e.j.tolist(), e.k.tolist()))
    assert keys == sorted((j, level - j) for level in range(3)
                          for j in range(level + 1))
    assert keys[0] == (0, 0) and all(j + k <= 2 for j, k in keys)
    assert e.Pp.shape == e.Pm.shape == (len(keys), e.grid.n)
    assert e.beta.shape == e.c.shape == e.nu.shape == (len(keys),)
    # the order-0 build solves only (0, 0), the same first solve
    assert e.beta00 == e.beta[0] == build_profile(e.gs, e.params,
                                                  order=0).beta00


def test_balanced_beta00_vanishes(expansion_balanced, expansion_unbalanced):
    # At the grid's own omega, beta00 is the O(h^2) gap between the bordered
    # multiplier and the closed-form threshold (it comes from the cell-
    # averaged potential pairing): it falls at second order from n to 2n
    # and is negligible against beta00 at twice the threshold.
    beta00 = expansion_balanced.beta00
    grid = expansion_balanced.grid
    critical = make_params(1, None, 0.2, 0.0, "critical", 1.0)
    fine = solve_ground_state(critical, make_grid(1, 2 * grid.n, grid.rmax))
    omega = compute_omega(fine, critical)
    params = make_params(1, None, 0.2, omega, "plusminus", 1.0)
    beta00_fine = build_profile(fine, params, order=0).beta00
    assert beta00 * beta00_fine > 0.0
    assert 3.5 <= beta00 / beta00_fine <= 4.5
    assert abs(beta00) < 1e-4 * expansion_unbalanced.beta00


def test_unbalanced_beta00_positive(expansion_unbalanced):
    assert expansion_unbalanced.beta00 > 0.1


def test_zero_point_solvability_constant(expansion_balanced):
    # the (0,1) compatibility constant equals -||P00||_2^2 / 2
    e = expansion_balanced
    row01 = np.flatnonzero((e.j == 0) & (e.k == 1))[0]
    p00 = RadialField(e.grid, e.Pp[0])
    assert e.c[row01] == pytest.approx(-0.5 * norm_L2(p00) ** 2, rel=1e-10)


def test_eval_profile_matches_manual_assembly(expansion_balanced):
    lam, b = 0.07, 0.05
    P, theta = eval_profile(expansion_balanced, lam, b)
    alpha = expansion_balanced.params.alpha
    manual = expansion_balanced.gs.Q.values.astype(complex).copy()
    th_manual = 0.0
    e = expansion_balanced
    for j, k, Pp, Pm, beta in zip(e.j, e.k, e.Pp, e.Pm, e.beta):
        nu = lam ** ((k + 1) * alpha)
        manual = manual + b ** (2 * j) * nu * Pp
        manual = manual + 1j * b ** (2 * j + 1) * nu * Pm
        th_manual += b ** (2 * j) * nu * beta
    assert np.max(np.abs(P.values - manual)) < 1e-12 * np.max(np.abs(manual))
    assert theta == pytest.approx(th_manual, rel=1e-12)
    assert theta == pytest.approx(expansion_balanced.theta(lam, b),
                                  rel=1e-14)


@pytest.mark.parametrize("b", [0.04, 0.0, -0.03])
def test_profile_derivatives_finite_difference(expansion_balanced, b):
    # b = 0: d(b^(2j))/db at j = 0 must not form 0 * b^(-1)
    lam = 0.08
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
        th = exp_j.theta(lam, b)
        wn = residual_Psi(exp_j, lam, b, -b * lam, th - b * b)
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
    # _resample (amp 1, b = gamma = 0) and its slopes are CubicSpline's
    grid = make_grid(N, n, 6.0)
    r, h = grid.nodes, grid.h
    vals = _bump(r, kind)
    f = RadialField(grid, vals)
    ref = even_cubic(f)
    # across r = 0, the interior, and the last cell
    q = np.concatenate([np.linspace(0.0, 0.5 * h, 5, endpoint=False),
                        np.linspace(r[0], r[-2], 301),
                        np.linspace(r[-2], r[-1], 5)])
    scale = np.max(np.abs(vals))
    err = np.max(np.abs(_resample(grid, vals, q, q, 1.0, 0.0, 0.0) - ref(q)))
    assert err <= 1e-13 * scale, err
    err = np.max(np.abs(_slopes(grid, f.values, n) / h - ref(r, 1)))
    assert err <= 1e-13 * scale, err


@pytest.mark.parametrize("window", ["part", "all"])
@pytest.mark.parametrize("n", [8, 4096, 16384])
def test_complex_slope_solve_is_the_real_solve_bit_for_bit(n, window):
    # zgttrs on the complex copy of the factor solves each part as dgttrs
    # on the real factor does, to the last bit
    grid = make_grid(1, n, 6.0)
    rng = np.random.default_rng(n)
    f = RadialField(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    K = n if window == "all" else n // 2 + 1
    dy = np.diff(f.values[:K + 1])
    rhs = np.empty((K, 2), order="F")
    rhs[0] = 3.0 * dy[0].real, 3.0 * dy[0].imag
    inner = 3.0 * (dy[:-1] + dy[1:])
    rhs[1:dy.size, 0], rhs[1:dy.size, 1] = inner.real, inner.imag
    if K == n:
        last = 0.5 * (dy[-2] + 5.0 * dy[-1])
        rhs[-1] = last.real, last.imag
    dl, d, du, du2, ipiv = (a.real.copy() if a.dtype == complex else a
                            for a in _slope_factor(n))
    x, info = lapack.dgttrs(dl[:K - 1], d[:K], du[:K - 1], du2[:K - 2],
                            ipiv[:K], rhs)
    assert info == 0
    s = _slopes(grid, f.values, K)
    assert s.shape == (K,)
    assert np.array_equal(s.real, x[:, 0]) and np.array_equal(s.imag, x[:, 1])


def _full_resample(f, q):
    """_resample with the slopes of all of f's nodes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profile, "_WINDOW_MARGIN", 10 ** 9)
        return _resample(f.grid, f.values, q, q, 1.0, 0.0, 0.0)


@settings(max_examples=120, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), n=st.integers(8, 4096),
       kind=st.sampled_from(["noise", "smooth"]),
       at=st.floats(0.0, 1.2), seed=st.integers(0, 2 ** 32 - 1))
@example(N=1, n=4096, kind="noise", at=1.0, seed=0)     # at the last node
@example(N=3, n=4096, kind="noise", at=0.3, seed=1)     # deep inside
@example(N=2, n=300, kind="noise", at=0.0, seed=2)      # q = 0 only
@example(N=1, n=4096, kind="noise", at=1e-4, seed=3)    # in [0, h/2)
@example(N=2, n=8, kind="smooth", at=1.0, seed=4)       # on node K - 1 = n - 1
def test_windowed_spline_is_the_full_spline_bit_for_bit(N, n, kind, at, seed):
    # samples r <= reach of the cubic from the slopes of _window(reach)
    # nodes are those of the cubic on all nodes, to the last bit
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
    assert np.array_equal(_resample(grid, vals, q, q, 1.0, 0.0, 0.0),
                          _full_resample(f, q))
    # the slopes the samples read: up to the node after the last reached
    k = np.count_nonzero(r <= reach) + 1
    assert np.array_equal(_slopes(grid, vals, K)[:k],
                          _slopes(grid, vals, n)[:k])


def _resample_expression(grid, vals, q, y, amp, b, gamma, s=None):
    """_resample as one expression per output segment, the reference its
    in-place evaluation must match bit for bit."""
    m = int(np.searchsorted(q, grid.nodes[-1], side="right"))
    e = int(np.searchsorted(q, grid.rmax))
    K = _window(grid, q[m - 1])
    if s is None:
        s = _slopes(grid, vals, K)
    V = np.concatenate((vals[:1], vals[:K]))
    S = np.concatenate((-s[:1], s[:K]))
    u = q[:m] / grid.h + 0.5
    j = np.minimum(u.astype(np.intp), K - 1)
    t = u - j
    t2, w, Vj = t * t, t - 1.0, V[j]
    out = np.zeros(q.size, dtype=complex)
    out[:m] = (Vj + t2 * (3.0 - 2.0 * t) * (V[j + 1] - Vj)
               + t * w * w * S[j] + t2 * w * S[j + 1])
    out[m:e] = (vals[-1] * (grid.rmax - q[m:e])
                / (grid.rmax - grid.nodes[-1]))
    out[:e] *= amp * unit_phase(gamma - 0.25 * b * y[:e] ** 2)
    return out


@pytest.mark.parametrize("slopes", ["solved", "given"])
@pytest.mark.parametrize("reach", ["window", "past rmax"])
@pytest.mark.parametrize("gamma", [0.7, -0.0])
def test_resample_is_the_expression_form_bit_for_bit(gamma, reach, slopes):
    # the in-place Hermite sum, take gathers and half-angle chirp give the
    # expression form's bits, signs of zero included
    grid = make_grid(1, 512, 6.0)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    r = grid.nodes
    if reach == "window":         # K < n nodes
        q = np.sort(np.concatenate([rng.uniform(0.0, 0.3 * r[-1], 300),
                                    r[:40], [0.0]]))
        assert _window(grid, q[-1]) < grid.n
    else:                         # past the last node and past rmax
        q = np.sort(np.concatenate([rng.uniform(0.0, 1.2 * grid.rmax, 300),
                                    r, np.linspace(r[-1], grid.rmax, 7)]))
        assert np.any((q > r[-1]) & (q < grid.rmax))
        assert np.any(q > grid.rmax)
    s = (None if slopes == "solved" else
         rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    y = q / 0.3
    amp, b = 1.7, 0.35
    got = _resample(grid, vals, q, y, amp, b, gamma, s)
    ref = _resample_expression(grid, vals, q, y, amp, b, gamma, s)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("N", [1, 2, 3])
def test_rescale_to_physical_evaluates_only_the_source_support(N):
    src = make_grid(N, 512, 6.0)
    P = RadialField(src, _bump(src.nodes, "complex"))
    lam, b, gamma = 0.3, 0.05, 0.7
    grid = make_grid(N, 2048, 4.0)       # x/lam reaches 13.3 > 6
    u = rescale_to_physical(P, lam, b, gamma, grid)
    y = grid.nodes / lam
    inside = y <= src.nodes[-1]
    past = y >= src.rmax
    ramp = ~inside & ~past
    assert 0 < np.count_nonzero(inside) < grid.n
    assert np.count_nonzero(ramp) == 1
    assert np.all(u.values[past] == 0.0)
    chirp = lam ** (-0.5 * N) * np.exp(-0.25j * b * y ** 2 + 1j * gamma)
    # from P's last node to rmax, a line from P's last value down to 0
    line = P.values[-1] * (src.rmax - y) / (src.rmax - src.nodes[-1])
    ref = np.where(inside, even_cubic(P)(y), line) * chirp
    err = np.max(np.abs(u.values[inside] - ref[inside]))
    assert err <= 1e-14 * np.max(np.abs(ref))
    assert np.allclose(u.values[ramp], ref[ramp], rtol=1e-14, atol=0.0)


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

