"""Propagator, conservation, dynamic rescaling, and rate fitting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_banded

from nlsblowup.core import (RadialField, apply_neg_laplacian, grad_norm_sq,
                            make_grid, make_params, neg_laplacian_banded,
                            norm_L2, potential_weights)
from nlsblowup.groundstate import solve_ground_state
from nlsblowup.sim import (SimConfig, Snapshot, SnapshotSeries, _Stepper,
                           conserved, energy_positivity_check,
                           fit_blowup_rate, initial_datum, lambda_hat,
                           lower_bound_check, propagate,
                           pseudo_conformal_reference, simulate_blowup, step)

CRIT = make_params(1, None, 0.2, 0.0, "critical", 1.0)
# all three local terms switched on, in each dimension
PLUSMINUS = {N: make_params(N, None, 0.2, 2.0, "plusminus", 1.0)
             for N in (1, 2, 3)}


def _free_gaussian(grid, t, a0=1.0):
    # exact solution of i u_t + u_rr = 0 from u(0) = exp(-r^2/a0)
    A = a0 + 4j * t
    return (a0 / A) ** 0.5 * np.exp(-grid.nodes ** 2 / A)


def test_linear_step_exact_solution_and_order():
    grid = make_grid(1, 2048, 40.0)
    u0 = RadialField(grid, _free_gaussian(grid, 0.0))
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        u = propagate(u0, dt, int(round(0.2 / dt)), CRIT, linear_only=True)
        errs.append(norm_L2(RadialField(grid, u.values
                                        - _free_gaussian(grid, 0.2))))
    assert errs[-1] < 1e-5
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_step_matches_propagate():
    grid = make_grid(1, 512, 20.0)
    u = RadialField(grid, _free_gaussian(grid, 0.0))
    once = step(step(u, 1e-3, CRIT), 1e-3, CRIT)
    twice = propagate(u, 1e-3, 2, CRIT)
    assert np.max(np.abs(once.values - twice.values)) < 1e-14


def test_mass_conserved_to_rounding():
    params = make_params(1, None, 0.2, 2.0, "plusminus", 1.0)
    grid = make_grid(1, 1024, 25.0)
    u = RadialField(grid, (1.3 * np.exp(-grid.nodes ** 2)).astype(complex))
    m0 = norm_L2(u) ** 2
    u = propagate(u, 2e-3, 200, params)
    assert abs(norm_L2(u) ** 2 / m0 - 1.0) < 1e-12


def test_conserved_against_quadrature():
    params = make_params(1, None, 0.2, 2.0, "plusminus", 1.0)
    grid = make_grid(1, 8192, 20.0)
    u = RadialField(grid, np.exp(-grid.nodes ** 2).astype(complex))
    mass, energy = conserved(u, params)
    mass_q = 2 * quad(lambda r: math.exp(-2 * r * r), 0, 20)[0]
    kin_q = quad(lambda r: 4 * r * r * math.exp(-2 * r * r), 0, 20)[0]
    # E carries the critical term with 1/(2 + 4/N) = 1/6 in one dimension
    crit_q = (1 / 6.0) * 2 * quad(lambda r: math.exp(-6 * r * r), 0, 20)[0]
    sub_q = (params.C1 / 2.8) * 2 * quad(
        lambda r: math.exp(-2.8 * r * r), 0, 20)[0]
    pot_q = 0.5 * params.C2 * 2 * quad(
        lambda r: r ** (-0.4) * math.exp(-2 * r * r), 0, 20, points=[0.0])[0]
    assert mass == pytest.approx(mass_q, rel=1e-6)
    assert energy == pytest.approx(kin_q - crit_q - sub_q - pot_q, rel=1e-6)


def test_soliton_held_by_propagator():
    gs = solve_ground_state(CRIT, make_grid(1, 2048, 18.0))
    u = RadialField(gs.grid, gs.Q.values.astype(complex))
    steps = 500
    u = propagate(u, 1e-3, steps, CRIT)
    ref = gs.Q.values * np.exp(1j * steps * 1e-3)
    err = norm_L2(RadialField(gs.grid, u.values - ref)) / norm_L2(gs.Q)
    assert err < 5e-3


def test_pseudo_conformal_solution_convergence():
    grid = make_grid(1, 1024, 15.0)
    gs = solve_ground_state(CRIT, grid)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        u = pseudo_conformal_reference(-1.0, grid, gs)
        u = propagate(u, dt, int(round(0.4 / dt)), CRIT)
        ref = pseudo_conformal_reference(-0.6, grid, gs)
        errs.append(norm_L2(RadialField(grid, u.values - ref.values)))
    assert errs[-1] < 1e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_pseudo_conformal_reference_invariants():
    grid = make_grid(1, 2048, 18.0)
    gs = solve_ground_state(CRIT, grid)
    m_ref = gs.norms["mass"]
    for t in (-1.0, -0.5, -0.25):
        S = pseudo_conformal_reference(t, grid, gs)
        assert norm_L2(S) ** 2 == pytest.approx(m_ref, rel=1e-6)
        _, energy = conserved(S, CRIT)
        assert energy == pytest.approx(gs.norms["virial"] / 8.0, rel=1e-3)


def test_lambda_hat_tracks_rescaling():
    grid = make_grid(1, 4096, 18.0)
    gs = solve_ground_state(CRIT, grid)
    lam = 0.25
    small = make_grid(1, 4096, 18.0 * lam)
    from nlsblowup.profile import even_spline
    spline = even_spline(gs.Q)
    u = RadialField(small, (spline(small.nodes / lam) / math.sqrt(lam)
                            ).astype(complex))
    assert lambda_hat(u, gs) == pytest.approx(lam, rel=1e-3)


# --------------------------------------------------------------------------
# The fused march against the unfused Strang step
# --------------------------------------------------------------------------

def _wave(grid):
    r = grid.nodes
    return 1.2 * np.exp(-r ** 2) * (1.0 + 0.4j * r)


def _unfused_step(grid, params, v, dt):
    """Phase half (complex exp of |v|), banded Crank-Nicolson, phase half."""
    pot = params.C2 * potential_weights(grid, params.sigma)

    def phase(v):
        a = np.abs(v)
        rot = a ** (params.q - 1.0) + params.C1 * a ** (params.p - 1.0) + pot
        return v * np.exp(0.5j * dt * rot)

    lap = neg_laplacian_banded(grid)
    u = lap.shape[0] // 2
    ab = 0.5j * dt * lap
    ab[u] += 1.0
    v = phase(v)
    v = solve_banded((u, u), ab, v - 0.5j * dt * apply_neg_laplacian(grid, v))
    return phase(v)


def _fused_march(stepper, v, dts):
    pending = 0.0
    for dt in dts:
        stepper.set_dt(dt)
        v, _ = stepper.linear(stepper.rotate(v, pending + 0.5 * dt))
        pending = 0.5 * dt
    return stepper.rotate(v, pending)


@pytest.mark.parametrize("N", [1, 2])
def test_fused_march_equals_unfused_steps(N):
    # N = 1 takes the DCT path, N = 2 the banded one; dt varies every step
    params = PLUSMINUS[N]
    grid = make_grid(N, 512, 12.0)
    dts = 1e-3 * (1.0 + 0.5 * np.sin(np.arange(40)))
    ref = _wave(grid)
    for dt in dts:
        ref = _unfused_step(grid, params, ref, dt)
    fused = _fused_march(_Stepper(grid, params, dts[0]), _wave(grid), dts)
    assert np.max(np.abs(fused - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [1, 2])
def test_linear_returns_the_gradient_norm_it_keeps(N):
    params = PLUSMINUS[N]
    grid = make_grid(N, 512, 12.0)
    v = _wave(grid)
    out, g = _Stepper(grid, params, 2e-3).linear(v)
    assert g == pytest.approx(grad_norm_sq(RadialField(grid, v)), rel=1e-12)
    assert g == pytest.approx(grad_norm_sq(RadialField(grid, out)), rel=1e-12)


@pytest.mark.parametrize("N", [1, 2])
def test_nan_raises_at_its_step(N):
    params = PLUSMINUS[N]
    grid = make_grid(N, 256, 12.0)
    stepper = _Stepper(grid, params, 1e-3)
    v = _wave(grid)
    for k in range(6):
        if k == 4:
            v[grid.n // 3] = np.nan
        v, g = stepper.linear(stepper.rotate(v, 1e-3))
        assert math.isfinite(g) == (k < 4)
    bad = _wave(grid)
    bad[-1] = np.nan
    with pytest.raises(RuntimeError, match="at step 0"):
        propagate(RadialField(grid, bad), 1e-3, 5, params)


@settings(max_examples=25, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), amp=st.floats(0.2, 1.5),
       width=st.floats(0.5, 2.0), dt=st.floats(1e-4, 5e-3),
       n_steps=st.integers(1, 30))
def test_fused_march_conserves_mass(N, amp, width, dt, n_steps):
    grid = make_grid(N, 256, 12.0)
    r = grid.nodes
    u = RadialField(grid, amp * np.exp(-(r / width) ** 2) * (1.0 + 0.5j * r))
    out = propagate(u, dt, n_steps, PLUSMINUS[N])
    assert abs(norm_L2(out) ** 2 / norm_L2(u) ** 2 - 1.0) < 1e-12


# --------------------------------------------------------------------------
# Dynamic rescaling on a short balanced run
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_run(expansion_balanced):
    config = SimConfig(params=expansion_balanced.params, n=1024,
                       rmax_factor=64.0, c_dt=2.5e-3, lambda_floor=6e-3,
                       snapshot_ds=0.5, drift_abort=1e-2)
    return config, simulate_blowup(config, expansion_balanced, 1.0, 30.0)


def test_short_run_reaches_floor_with_regrids(short_run):
    config, series = short_run
    assert not series.tube_exit, series.abort_reason
    assert len(series.regrid_log) >= 1
    assert series.snapshots[-1].lam_hat <= 2.1 * config.lambda_floor


def test_regrid_mass_invariance(short_run):
    _, series = short_run
    for entry in series.regrid_log:
        rel = abs(entry["mass_after"] / entry["mass_before"] - 1.0)
        assert rel < 1e-8


def test_snapshot_monotonicity_and_drift(short_run):
    _, series = short_run
    s_vals = [sn.s for sn in series.snapshots]
    assert all(b > a for a, b in zip(s_vals, s_vals[1:]))
    assert max(sn.drift for sn in series.snapshots) < 1e-4
    assert max(sn.eps_H1 for sn in series.snapshots) < 0.1


def test_series_csv_roundtrip(short_run, tmp_path):
    _, series = short_run
    path = tmp_path / "snapshots.csv"
    series.to_csv(str(path))
    header = path.read_text().splitlines()[0].split(",")
    for col in ("t", "s", "lam", "b", "eps_H1", "mass", "energy", "drift"):
        assert col in header


def test_initial_datum_energy_and_grid(expansion_balanced):
    config = SimConfig(params=expansion_balanced.params, n=2048,
                       rmax_factor=64.0)
    u0, lam1, b1 = initial_datum(config, expansion_balanced, 1.0, 30.0)
    assert u0.grid.rmax == pytest.approx(64.0 * lam1)
    e0, positive = energy_positivity_check(u0, expansion_balanced.params)
    assert positive and e0 == pytest.approx(1.0, rel=2e-2)


# --------------------------------------------------------------------------
# Rate fitting on synthetic series
# --------------------------------------------------------------------------

def _synthetic_series(T=0.8, expo=0.85, coeff=1.3, n=400):
    t = np.linspace(0.0, T - 0.01, n)
    lam = coeff * (T - t) ** expo
    snaps = [Snapshot(t=tk, s=0.0, lam=lk, b=0.0, gamma=0.0, eps_H1=0.0,
                      eps_P=0.0, lam_hat=lk, grad_norm=1.0 / lk, mass=1.0,
                      energy=1.0, lyap=0.0)
             for tk, lk in zip(t, lam)]
    return SnapshotSeries(snapshots=snaps, E0=1.0, s1=0.0, mass0=1.0,
                          energy0=1.0)


def test_fit_recovers_synthetic_power_law():
    series = _synthetic_series()
    fit = fit_blowup_rate(series)
    assert fit.exponent == pytest.approx(0.85, abs=1e-6)
    assert fit.coefficient == pytest.approx(1.3, rel=1e-6)
    assert fit.T_est == pytest.approx(0.8, abs=1e-6)
    assert fit.r2 > 0.999999


def test_fit_window_spans_last_decade():
    series = _synthetic_series()
    fit = fit_blowup_rate(series)
    t_lo, t_hi = fit.window
    lam_min = min(sn.lam for sn in series.snapshots)
    in_window = [sn.lam for sn in series.snapshots if t_lo <= sn.t <= t_hi]
    # scales inside the window live in the last decade, with the bottom
    # tenth (log scale) excluded
    assert max(in_window) <= 10.001 * lam_min
    assert min(in_window) >= 10.0 ** 0.1 * lam_min * 0.999


def test_lower_bound_positive_on_synthetic():
    series = _synthetic_series(expo=1.0)
    fit = fit_blowup_rate(series)
    params = make_params(1, None, 0.2, 0.0, "critical", 1.0)
    inf_val = lower_bound_check(series, fit, params)
    assert np.isfinite(inf_val) and inf_val > 0.0
