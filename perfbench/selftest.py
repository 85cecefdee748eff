"""Self-test of the benchmark: every check rejects a corrupted output.

    python3 perfbench/selftest.py  (or python3 -m pytest perfbench/selftest.py)

Each check is first fed an output built from the reference values, which
it must accept, and then that output with one field corrupted, which it
must reject.  The tracer's span accounting, the meter's scaling and the
metric names (against BENCHMARK.json) are checked as well.  Nothing here
runs a workload.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

REF = checks.reference()


def _rejects(check, good, corrupt, *extra) -> None:
    assert check(good, *extra) == [], check(good, *extra)
    for label, mutate in corrupt:
        bad = copy.deepcopy(good)
        mutate(bad)
        assert check(bad, *extra), f"{check.__name__} accepted {label}"


def _set(key, value):
    def mutate(d):
        d[key] = value
    return mutate


def test_reference_matches_closed_forms():
    assert abs(REF.Q0 - checks.Q0_EXACT) < 1e-15
    assert abs(REF.mass / checks.MASS_EXACT - 1.0) < 1e-12
    assert abs(REF.omega - 2.449600) < 1e-6
    assert abs(REF.balanced_coefficient(1.0) - 2.18331) < 1e-5
    assert abs(REF.lambda_s_limit(1.0) - 0.458021) < 1e-6
    assert abs(checks.EXPONENT_POWERLAW - 5.0 / 6.0) < 1e-15
    assert REF.beta(1.0) == 0.0


def _blowup_out(regime):
    E0 = 1.02
    return {
        "regime": regime, "E0": E0,
        "exponent": (1.0 if regime == "balanced"
                     else checks.EXPONENT_POWERLAW) + 0.004,
        "coefficient": REF.balanced_coefficient(E0) * 0.985,
        "lam_s_last": REF.lambda_s_limit(E0) * 1.001,
        "mass_rel_max": 2e-12, "drift_max": 4.9e-7, "drift_abort": 1e-6,
        "truncated": False, "n_snapshots": 40, "lower_bound": 0.3,
        "energy0": E0,
    }


def test_check_blowup_balanced():
    _rejects(checks.check_blowup, _blowup_out("balanced"), [
        ("exponent of the power law", _set("exponent", 5.0 / 6.0)),
        ("coefficient 10% off", _set(
            "coefficient", REF.balanced_coefficient(1.02) * 1.1)),
        ("lambda*s of E0 = 1", _set("lam_s_last", REF.lambda_s_limit(0.9))),
        ("E(u0) <= 0", _set("energy0", -1e-3)),
        ("drift at the gate", _set("drift_max", 1e-6)),
        ("mass drift", _set("mass_rel_max", 1e-6)),
        ("truncated", _set("truncated", True)),
        ("few snapshots", _set("n_snapshots", 5)),
        ("lower bound 0", _set("lower_bound", 0.0)),
        ("NaN exponent", _set("exponent", math.nan)),
        ("unknown regime", _set("regime", "critical")),
    ], REF)


def test_check_blowup_powerlaw():
    _rejects(checks.check_blowup, _blowup_out("power-law"), [
        ("balanced exponent", _set("exponent", 1.0)),
        ("drift above the gate", _set("drift_max", 2e-6)),
        ("negative lower bound", _set("lower_bound", -0.1)),
    ], REF)


def test_check_tube():
    good = {"lam": 0.2, "b": 0.05, "gamma": 3.1, "lam_fit": 0.2 * (1 + 1e-12),
            "b_fit": 0.05, "gamma_fit": 3.1 - 2.0 * math.pi,
            "recon_defect": 0.0}
    _rejects(checks.check_tube, good, [
        ("scale off", _set("lam_fit", 0.2 * (1 + 1e-6))),
        ("curvature off", _set("b_fit", 0.05 + 1e-7)),
        ("phase off", _set("gamma_fit", 3.1 + 1e-6)),
        ("phase off by pi", _set("gamma_fit", 3.1 + math.pi)),
        ("reconstruct defect", _set("recon_defect", 1e-6)),
        ("missing field", lambda d: d.pop("b_fit")),
    ])


def test_check_ground():
    good = {"Q0": REF.Q0 * (1 + 1e-12), "norms": {"mass": REF.mass},
            "omega": REF.omega * (1 + 1e-7),
            "residuals": {"elliptic_inf": 6e-10}}
    _rejects(checks.check_ground, good, [
        ("Q0 of another soliton", _set("Q0", 1.0)),
        ("mass off", lambda d: d["norms"].update(mass=REF.mass * 1.001)),
        ("omega off", _set("omega", REF.omega * 1.001)),
        ("residual", lambda d: d["residuals"].update(elliptic_inf=1e-6)),
    ], REF)


def _beta_rows(shift=0.0):
    return [{"C0_over_omega": r, "beta_bordered": REF.beta(r) + shift}
            for r in (0.5, 0.75, 1.0, 1.5, 2.0)]


def test_check_linops():
    good = {"omega": REF.omega * (1 - 1.4e-5),
            "lplus_unconstrained_min": -8.0000003,
            "lminus_unconstrained_min": 4.5e-13,
            "constrained_min_eig": 0.104,
            "identity_residuals": {"lminus_Q": 3e-16, "lplus_LamQ": 2.3e-6}}
    _rejects(checks.check_linops, good, [
        ("L+ bottom", _set("lplus_unconstrained_min", -9.0)),
        ("L- bottom", _set("lminus_unconstrained_min", -1e-3)),
        ("constrained min", _set("constrained_min_eig", -0.01)),
        ("identity", lambda d: d["identity_residuals"].update(lminus_Q=1e-3)),
        ("omega", _set("omega", REF.omega * 1.01)),
    ], _beta_rows(1.6e-4), REF)
    assert checks.check_linops(good, _beta_rows(5e-3), REF)
    assert checks.check_linops(good, _beta_rows()[:-1], REF)


def test_check_profile():
    good = {"omega": REF.omega, "order": 2, "residual_slope": 4.4,
            "entries": [{"j": 0, "k": 0, "beta": 4e-6},
                        {"j": 1, "k": 0, "beta": 0.78}]}
    _rejects(checks.check_profile, good, [
        ("unbalanced beta00", lambda d: d["entries"][0].update(beta=0.1)),
        ("missing beta00", lambda d: d["entries"].pop(0)),
        ("slope of order 1", _set("residual_slope", 3.0)),
        ("omega", _set("omega", 2.5)),
    ], REF)


def test_check_reduced():
    E0 = 1.1
    good = {"omega": REF.omega, "balanced": True, "truncated": True,
            "lambda_final": 1e-3,
            "s_final": REF.lambda_s_limit(E0) / 1e-3 * 1.002,
            "ode_residual": 1e-11}
    _rejects(checks.check_reduced, good, [
        ("lambda*s of another E0", _set(
            "s_final", REF.lambda_s_limit(1.0) / 1e-3)),
        ("not at the floor", _set("lambda_final", 2e-3)),
        ("not truncated", _set("truncated", False)),
        ("not balanced", _set("balanced", False)),
        ("ODE residual", _set("ode_residual", 1e-5)),
    ], E0, 1e-3, REF)


def test_self_time_subtracts_children():
    from spans import Summary
    spans = [["bench.round", "bench", 0.0, 10.0, -1],
             ["sim.simulate_blowup", "bench", 1.0, 9.0, 0],
             ["sim.lambda_hat", "sim", 2.0, 3.0, 1],
             ["core.grad_norm_sq", "sim", 2.2, 2.7, 2],
             ["modulation.decompose", "sim", 4.0, 6.0, 1],
             ["profile.eval_profile", "modulation", 4.5, 5.0, 4],
             ["bench.setup", "bench", 10.0, 11.0, -1],
             ["sim.lambda_hat", "sim", 10.2, 10.4, 6]]
    s = Summary(spans)
    assert s.rounds == 1
    assert math.isclose(s.self_total("sim.simulate_blowup"), 5.0)
    assert math.isclose(s.self_total("sim.lambda_hat"), 0.7)
    assert s.calls("sim.lambda_hat") == 1.0          # setup not counted
    assert math.isclose(s.per_call("sim.lambda_hat"), 0.6)
    assert s.calls("profile.eval_profile",
                   lambda i: s.parent_name(i) == "modulation.decompose") == 1


def test_meter_scales_by_the_kernels_around_each_stretch():
    import time
    from types import SimpleNamespace

    import calib
    samples = iter([2.0, 2.0, 4.0])     # in units of REFERENCE_S
    real = calib.kernel_seconds
    calib.kernel_seconds = lambda: next(samples) * calib.REFERENCE_S
    try:
        meter = calib.Meter()
        meter.INTERVAL_S = 0.0
        op = SimpleNamespace(seconds=0.0, scaled=0.0)
        with meter.timed(op):
            time.sleep(0.01)             # between kernels 2 and 2: x 1/2
            meter.poll()
            time.sleep(0.01)             # between kernels 2 and 4: x 1/3
        meter.close()
    finally:
        calib.kernel_seconds = real
    assert op.seconds >= 0.02
    assert op.seconds / 3.0 < op.scaled < op.seconds / 2.0


def test_tracer_restores_every_function():
    sys.path.insert(0, str(HERE.parent / "src"))
    import nlsblowup.modulation
    import nlsblowup.sim
    from spans import Tracer
    before = (nlsblowup.sim.decompose, nlsblowup.sim.lambda_hat,
              nlsblowup.modulation.eval_profile, nlsblowup.sim.grad_norm_sq)
    tracer = Tracer()
    tracer.install()
    try:
        assert nlsblowup.sim.decompose is not before[0]
        assert nlsblowup.sim.lambda_hat.__wrapped__ is before[1]
        grid = nlsblowup.sim.make_grid(1, 64, 1.0)
        field = nlsblowup.core.RadialField(grid, grid.nodes ** 2)
        nlsblowup.sim.grad_norm_sq(field)
    finally:
        tracer.remove()
    after = (nlsblowup.sim.decompose, nlsblowup.sim.lambda_hat,
             nlsblowup.modulation.eval_profile, nlsblowup.sim.grad_norm_sq)
    assert after == before
    assert [s[0] for s in tracer.spans] == ["core.make_grid",
                                            "core.grad_norm_sq"]


def test_metric_names_match_benchmark_json():
    import json

    sys.path.insert(0, str(HERE.parent / "src"))
    import run
    from spans import Summary
    from workloads import Op
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rounds = [[Op("rate_balanced", 2.0, stats={"steps": 10,
                                                "point_steps": 40960})]]
    spans = [["bench.round", "bench", 0.0, 2.0, -1]]
    metrics = run._per_layer(Summary(spans), rounds, rounds)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert set(run._units("end_to_end")) == {"setup_s", "peak_rss_mb",
                                             "round_s"}


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
