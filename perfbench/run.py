"""Benchmark of the nlsblowup laboratory.

    python3 perfbench/run.py --workload {blowup,tube,reports,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the package is imported from ``src/`` of
the checkout this file sits in, never from anywhere else.  A run sets up
(SETUP_REPEATS times; the median counts), then repeats whole rounds of
the workload's operations while another round still fits in ``--seconds``
(at least one).  With ``--trace 1`` half the time goes to untraced rounds
and half to traced ones, and the per-layer metrics come from the spans.
The last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("blowup", "tube", "reports")   # as in workloads.WORKLOADS
SETUP_REPEATS = 3

OP_METRICS = {  # untraced per-operation figures, also printed on trace 0
    "rate_balanced_s": "s", "rate_powerlaw_s": "s", "decompose_per_s": "1/s",
    "ground_s": "s", "linops_s": "s", "profile_s": "s", "reduced_s": "s",
}
SUBCOMMANDS = ("ground", "linops", "profile", "reduced")


def _import_package():
    src = ROOT / "src"
    if not (src / "nlsblowup" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/nlsblowup under {ROOT}; run from a "
                 "full checkout")
    sys.path.insert(0, str(src))
    import nlsblowup.cli  # noqa: F401  (imports every layer)
    if Path(nlsblowup.cli.__file__).resolve().parents[1] != src:
        sys.exit(f"perfbench: imported nlsblowup from "
                 f"{nlsblowup.cli.__file__}, not from {src}")


def _measure(wl, seconds: float, span, poll: bool) -> list[list]:
    """Whole rounds while another round of the longest length so far fits.

    Operations are timed by a ``calib.Meter``.  With ``poll`` the meter
    also samples inside ``simulate_blowup``, at its snapshot decompositions
    (about every 0.2 s), through a wrapper on ``nlsblowup.sim.decompose``
    that is removed again before returning.
    """
    import calib
    import nlsblowup.sim

    meter = calib.Meter()

    @contextmanager
    def clock(op, span_name=None):
        with meter.timed(op), span(span_name or op.name):
            yield

    decompose = nlsblowup.sim.decompose
    if poll:
        def polled(*args, **kwargs):
            meter.poll()
            return decompose(*args, **kwargs)
        nlsblowup.sim.decompose = polled
    rounds, longest = [], 0.0
    t0 = time.perf_counter()
    try:
        while True:
            t_round = time.perf_counter()
            with span("bench.inputs"):
                cases = wl.inputs()
            with span("bench.round"):
                rounds.append([wl.op(case, clock) for case in cases])
            now = time.perf_counter()
            longest = max(longest, now - t_round)
            if now - t0 + longest > seconds:
                break
    finally:
        nlsblowup.sim.decompose = decompose
    meter.close()
    return rounds


def _null_span(name):
    return nullcontext()


def _op_metrics(rounds: list[list]) -> dict:
    times: dict[str, list[float]] = {}
    for ops in rounds:
        for op in ops:
            if not op.failed:
                times.setdefault(op.name, []).append(op.scaled)
    out = {}
    for name in OP_METRICS:
        if name == "decompose_per_s":
            dec = [t for k, v in times.items() if k.startswith("decompose_")
                   for t in v]
            out[name] = len(dec) / sum(dec) if dec else 0.0
        else:
            op = name[:-2]
            out[name] = statistics.median(times[op]) if op in times else 0.0
    return out


def _round_seconds(rounds: list[list]) -> list[float]:
    return [sum(op.scaled for op in ops) for ops in rounds]


def _per_layer(summary, untraced: list[list], traced: list[list]) -> dict:
    s = summary
    stats: dict[str, float] = {}
    for ops in traced:
        for op in ops:
            for k, v in op.stats.items():
                stats[k] = stats.get(k, 0.0) + v
    n_rounds = len(traced)
    steps = stats.get("steps", 0.0)
    sim_self = s.self_total("sim.simulate_blowup")
    decompose_calls = s.calls("modulation.decompose")
    evals = s.calls("profile.eval_profile", lambda i: (
        s.spans[i][1] == "modulation"
        and s.parent_name(i) == "modulation.decompose"))
    core_spans = [i for i, sp in enumerate(s.spans)
                  if sp[0].startswith("core.") and s.in_round[i]]
    m = {
        "sim.steps": steps / n_rounds,
        "sim.step_us": sim_self / steps * 1e6 if steps else 0.0,
        "sim.point_step_ns": (sim_self / stats["point_steps"] * 1e9
                              if steps else 0.0),
        "sim.lambda_hat.calls": s.calls("sim.lambda_hat"),
        "sim.lambda_hat.us": s.per_call("sim.lambda_hat") * 1e6,
        "sim.conserved.calls": s.calls("sim.conserved"),
        "sim.conserved.ms": s.per_call("sim.conserved") * 1e3,
        "sim.snapshots": stats.get("snapshots", 0.0) / n_rounds,
        "sim.regrids": stats.get("regrids", 0.0) / n_rounds,
        "modulation.decompose.calls": decompose_calls,
        "modulation.decompose.ms": s.per_call("modulation.decompose") * 1e3,
        "modulation.lyapunov_S.ms": s.per_call("modulation.lyapunov_S") * 1e3,
        "modulation.evals_per_decompose": (evals / decompose_calls
                                           if decompose_calls else 0.0),
        "profile.eval_profile.calls": s.calls("profile.eval_profile"),
        "profile.eval_profile.us": s.per_call("profile.eval_profile") * 1e6,
        "profile.even_spline.calls": s.calls("profile.even_spline"),
        "profile.even_spline.us": s.per_call("profile.even_spline") * 1e6,
        "profile.rescale_to_physical.us":
            s.per_call("profile.rescale_to_physical") * 1e6,
        "profile.profile_derivatives.calls":
            s.calls("profile.profile_derivatives"),
        "profile.build_profile.s": s.per_call("profile.build_profile"),
        "profile.psi_slope_sweep.s": s.per_call("profile.psi_slope_sweep"),
    }
    for n in (2048, 8192, 32768):
        m[f"groundstate.solve_ground_state.n{n}.s"] = s.per_call(
            f"groundstate.solve_ground_state.n{n}")
    m["groundstate.refine_longdouble.s"] = s.per_call(
        "groundstate.refine_longdouble")
    m["linops.solve_rho.s"] = s.per_call("linops.solve_rho")
    m["linops.solve_bordered.calls"] = s.calls("linops.solve_bordered")
    m["linops.solve_bordered.ms"] = s.per_call("linops.solve_bordered") * 1e3
    m["linops.solve_lminus_orthogonal.ms"] = s.per_call(
        "linops.solve_lminus_orthogonal") * 1e3
    for name in ("operator_identity_residuals", "lplus_unconstrained_min",
                 "lminus_unconstrained_min", "coercivity_spectrum"):
        m[f"linops.{name}.s"] = s.per_call(f"linops.{name}")
    m["reduced.init_params.ms"] = s.per_call("reduced.init_params") * 1e3
    m["reduced.integrate_reduced.s"] = s.per_call("reduced.integrate_reduced")
    for sub in SUBCOMMANDS:
        calls = len(s.indices(f"cli.{sub}"))
        m[f"cli.{sub}.self_s"] = (s.self_total(f"cli.{sub}") / calls
                                  if calls else 0.0)
        sizes = [op.stats["artifact_bytes"] for ops in traced for op in ops
                 if op.name == sub and not op.failed]
        m[f"cli.{sub}.artifact_bytes"] = (statistics.median(sizes)
                                          if sizes else 0.0)
    m["core.calls"] = len(core_spans) / n_rounds
    m["core.s"] = sum(s.spans[i][3] - s.spans[i][2]
                      for i in core_spans) / n_rounds
    m["trace.spans"] = sum(s.in_round) / n_rounds
    m["trace.overhead_s"] = (statistics.median(_round_seconds(traced))
                             - statistics.median(_round_seconds(untraced)))
    m.update(_op_metrics(untraced))
    return m


def _run_workload(args) -> dict:
    _import_package()
    import_s = time.perf_counter() - T_START

    import calib
    import checks
    import workloads
    from spans import Summary, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, checks.reference())
    print(f"workload {wl.name} seed {args.seed}: {wl.describe()}")

    kernel = calib.kernel_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    kernel = 0.5 * (kernel + calib.kernel_seconds())
    setup_s = ((import_s + statistics.median(setups))
               * calib.REFERENCE_S / kernel)

    if args.trace:
        untraced = _measure(wl, args.seconds / 2.0, _null_span, True)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                wl.setup()
            traced = _measure(wl, args.seconds / 2.0, tracer.span, False)
        finally:
            tracer.remove()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.csv")
        rounds = untraced + traced
        metrics = _per_layer(Summary(tracer.spans), untraced, traced)
        units = _units("per_layer")
    else:
        rounds = _measure(wl, args.seconds, _null_span, True)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "round_s": statistics.median(_round_seconds(rounds)),
        }
        units = _units("end_to_end")
        for name, value in _op_metrics(rounds).items():
            if value:
                print(f"metric {name} {value!r} {OP_METRICS[name]}")
        wall = statistics.median(sum(op.seconds for op in ops)
                                 for ops in rounds)
        print(f"wall round_s {wall!r} s (unscaled)")

    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "disagree with BENCHMARK.json")
    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.failed]
    wrong = [op for op in ops if not op.failed and op.problems]
    for op in failed + wrong:
        for problem in op.problems:
            print(f"{'FAILED' if op.failed else 'WRONG'} {op.name}: "
                  f"{problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"ops attempted={len(ops)} failed={len(failed)} "
          f"rounds={len(rounds)} wrong={len(wrong)}")
    return {"correct": not wrong, "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def _units(kind: str) -> dict:
    """Metric name -> unit for 'end_to_end' or 'per_layer'."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return _run_all(args)
    result = _run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
