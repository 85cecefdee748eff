"""Command-line front end: artifacts, exit codes, determinism, sweep."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsblowup import cli
from nlsblowup.cli import _READS, _write_csv, build_parser, run
from nlsblowup.core import make_grid, make_params
from nlsblowup.groundstate import compute_omega, solve_ground_state
from nlsblowup.profile import build_profile
from nlsblowup.reduced import initial_params

GROUND_ARGS = ["ground", "--N", "1", "--sigma", "0.2",
               "--grid-n", "2048", "--rmax", "25"]


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="module")
def ground_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    assert run(GROUND_ARGS + ["--out", str(root)]) == 0
    return root


def test_ground_emits_expected_artifacts(ground_root, capsys):
    code, out = _run(capsys, GROUND_ARGS + ["--out", str(ground_root)])
    assert code == 0
    rundir = Path(out["outdir"])
    assert (rundir / "ground.json").exists()
    assert (rundir / "ground.csv").exists()
    assert (rundir / "manifest.json").exists()
    report = json.loads((rundir / "ground.json").read_text())
    # spec-level smoke value: the analytic peak height to ~5 digits
    assert report["Q0"] == pytest.approx(1.316074, abs=5e-5)
    assert report["residuals"]["elliptic_inf"] < 1e-9
    assert set(report["iterations"]) == {"seed_sweeps", "newton"}
    latest = (ground_root / "latest").read_text().strip()
    assert latest == rundir.name


def test_field_csv_roundtrip(ground_root):
    # ground.csv holds every node and Q sample exactly (17 digits)
    rundir = next(ground_root.glob("ground-*"))
    data = np.loadtxt(rundir / "ground.csv", delimiter=",", skiprows=1)
    params = make_params(1, None, 0.2, 0.0, "critical", 1.0)
    gs = solve_ground_state(params, make_grid(1, 2048, 25.0))
    assert np.array_equal(data[:, 0], gs.grid.nodes)
    assert np.array_equal(data[:, 1], gs.Q.values)
    assert not data[:, 2].any()


@pytest.mark.parametrize("argv", [
    GROUND_ARGS,
    ["linops", "--grid-n", "2048"],
    ["profile", "--grid-n", "2048", "--rmax", "18"],
    ["reduced", "--grid-n", "2048", "--rmax", "18"],
], ids=["ground", "linops", "profile", "reduced"])
def test_rerun_reproduces_artifact_bytes(argv, tmp_path, capsys):
    code, out = _run(capsys, argv + ["--out", str(tmp_path)])
    assert code == 0
    rundir = Path(out["outdir"])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in rundir.iterdir() if p.name != "manifest.json"}
    assert run(argv + ["--out", str(tmp_path)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256(
            (rundir / name).read_bytes()).hexdigest() == digest


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                   1.7976931348623157e308]
_PY_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_FLOATS = st.one_of(_PY_FLOATS, _PY_FLOATS.map(np.float64))
_TEXT = st.text(st.sampled_from('az09 .-,"\r\n%'), max_size=6)
_CELLS = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), _TEXT)


@st.composite
def _tables(draw):
    k = draw(st.integers(2, 5))
    header = draw(st.lists(_TEXT, min_size=k, max_size=k))
    # a column is all floats (one %.17g field) or mixed (a %s field)
    kinds = draw(st.lists(st.sampled_from([_FLOATS, _CELLS]),
                          min_size=k, max_size=k))
    rows = draw(st.lists(st.tuples(*kinds), max_size=20))
    return header, rows


@settings(max_examples=200, deadline=None)
@given(table=_tables())
@example(table=(["x", "y%"], []))
def test_csv_writer_matches_csv_module_bytes(table, tmp_path_factory):
    # the writer's bytes are those of csv.writer fed %.17g text for every
    # float cell; a % in a header or a cell comes out as one %
    header, rows = table
    root = tmp_path_factory.getbasetemp()
    _write_csv(root / "table.csv", header, rows)
    with open(root / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(float(x), ".17g") if isinstance(x, float)
                          else x for x in row] for row in rows)
    assert ((root / "table.csv").read_bytes()
            == (root / "reference.csv").read_bytes())


def test_manifest_records_resolved_config(ground_root):
    rundir = next(ground_root.glob("ground-*"))
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["subcommand"] == "ground"
    assert manifest["config"]["grid_n"] == 2048
    assert manifest["config"]["sigma"] == 0.2
    assert manifest["version"]
    assert manifest["wall_time_s"] >= 0.0


def test_validate_passes_on_fresh_artifacts(ground_root, capsys):
    code, out = _run(capsys, ["validate", "--out", str(ground_root)])
    assert code == 0
    assert out["all_pass"] is True


def test_validate_missing_ground_state(tmp_path, capsys):
    code, out = _run(capsys, ["validate", "--out", str(tmp_path)])
    assert code == 1
    assert "missing ground state" in out["error"]


def test_domain_error_is_machine_readable(tmp_path, capsys):
    # C0 = 1.001 omega on this grid: the reduced ODE fails to integrate
    for argv in (["ground", "--N", "9"],
                 ["reduced", "--branch", "plusminus", "--C0", "2.4521",
                  "--grid-n", "1024", "--rmax", "15"]):
        code, out = _run(capsys, argv + ["--out", str(tmp_path)])
        assert code == 1
        assert out["subcommand"] == argv[0] and "error" in out


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["nosuchcommand"])
    assert exc.value.code == 2


def test_exponent_flag_is_gone(tmp_path, capsys):
    # p derives from sigma: --p is a usage error and a config file's "p"
    # an unknown key
    with pytest.raises(SystemExit) as exc:
        run(["ground", "--p", "1.5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 1.5}))
    code, out = _run(capsys, ["ground", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 1
    assert out["error"].rsplit(": ", 1)[1].split(", ") == ["p"]


# cheap argv per subcommand; each writes its manifest (validate and
# simulate exit 1 after their settings are resolved)
_CHEAP = {
    "ground": ["--grid-n", "512", "--rmax", "15"],
    "linops": ["--grid-n", "512", "--rmax", "15"],
    "profile": ["--grid-n", "1024", "--rmax", "15", "--order", "1"],
    "reduced": ["--grid-n", "1024", "--rmax", "15", "--order", "1"],
    "simulate": ["--profile-n", "1024", "--profile-rmax", "15",
                 "--order", "1", "--dt-c", "0.5"],
    "validate": [],
    "sweep": [],
}


@pytest.mark.parametrize("sub", list(_CHEAP))
def test_each_subcommand_takes_and_records_only_what_it_reads(sub, tmp_path,
                                                              capsys):
    parser = build_parser()._subparsers._group_actions[0].choices[sub]
    dests = {a.dest for a in parser._actions if a.dest != "help"}
    scalar = {k for k in _READS[sub] if not k.endswith("_values")}
    assert dests == scalar | {"seed", "out", "config"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma_values": []} if sub == "sweep" else {}))
    code, out = _run(capsys, [sub] + _CHEAP[sub] + [
        "--config", str(cfg), "--out", str(tmp_path)])
    assert code == (1 if sub in ("simulate", "validate") else 0), out
    rundir = next(tmp_path.glob(f"{sub}-*"))
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert set(manifest["config"]) == set(_READS[sub]) | {"seed", "out"}
    if sub == "reduced":
        # the scale floor the flow stops at is recorded
        report = json.loads((rundir / "reduced.json").read_text())
        assert manifest["config"]["lambda_floor"] == 0.001
        assert report["lambda_final"] == pytest.approx(0.001, rel=1e-6)


def test_unread_settings_are_usage_errors(tmp_path, capsys):
    # a flag the subcommand does not read, or an abbreviation of one it
    # does, exits 2; a config-file key it does not read is unknown
    for argv in (["ground", "--s1", "5"], ["ground", "--lam", "0.5"],
                 ["simulate", "--rmax", "5"], ["sweep", "--C0", "1"],
                 ["validate", "--N", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2, argv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s1": 30}))
    code, out = _run(capsys, ["ground", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 1
    assert out["error"].rsplit(": ", 1)[1].split(", ") == ["s1"]
    assert not list(tmp_path.glob("ground-*"))


def test_validate_reads_configs_that_carry_p(ground_root, tmp_path, capsys):
    # run roots written while p was a flag hold "p": null in each manifest
    src = next(ground_root.glob("ground-*"))
    old = tmp_path / src.name
    old.mkdir()
    (old / "ground.json").write_bytes((src / "ground.json").read_bytes())
    manifest = json.loads((src / "manifest.json").read_text())
    manifest["config"]["p"] = None
    (old / "manifest.json").write_text(json.dumps(manifest))
    code, out = _run(capsys, ["validate", "--out", str(tmp_path)])
    assert code == 0
    assert out["validated"] == [src.name]


def test_branch_requires_coupling(tmp_path, capsys):
    code, out = _run(capsys, ["reduced", "--branch", "plusminus",
                              "--grid-n", "512", "--rmax", "15",
                              "--out", str(tmp_path)])
    assert code == 1
    assert "C0" in out["error"]
    assert not list(tmp_path.glob("reduced-*"))


@pytest.mark.parametrize("sub", ["profile", "reduced", "simulate"])
@pytest.mark.parametrize("branch", ["balanced", "critical"])
def test_branch_that_fixes_coupling_rejects_C0(sub, branch, tmp_path,
                                                capsys):
    # balanced sets C0 = omega and critical C0 = 0: a C0 setting would be
    # recorded and hashed but never read, so as a flag or a config key it
    # is a domain error before any run directory is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C0": 5.0}))
    root = tmp_path / "runs"
    for extra in (["--C0", "5"], ["--config", str(cfg)]):
        code, out = _run(capsys, [sub, "--branch", branch, *extra,
                                  "--out", str(root)])
        assert code == 1
        assert "fixes C0" in out["error"]
    assert not root.exists()


def test_linops_records_the_sign_branch_it_solves(tmp_path, capsys):
    # the beta sweep solves plusminus on the balanced, critical and
    # plusminus branches alike: one run directory that records plusminus
    outdirs = {}
    for branch in ("balanced", "critical", "plusminus", "minusplus"):
        code, out = _run(capsys, ["linops", "--grid-n", "512", "--rmax",
                                  "15", "--branch", branch,
                                  "--out", str(tmp_path)])
        assert code == 0
        outdirs[branch] = Path(out["outdir"])
        manifest = json.loads(
            (outdirs[branch] / "manifest.json").read_text())
        assert manifest["config"]["branch"] == (
            "minusplus" if branch == "minusplus" else "plusminus")
    assert len(set(outdirs.values())) == 2
    assert outdirs["balanced"] == outdirs["critical"] == outdirs["plusminus"]


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 512, "rmax": 20.0, "sigma": 0.25}))
    code, out = _run(capsys, ["ground", "--config", str(cfg),
                              "--sigma", "0.2", "--out", str(tmp_path)])
    assert code == 0
    manifest_dir = Path(out["outdir"])
    manifest = json.loads((manifest_dir / "manifest.json").read_text())
    assert manifest["config"]["grid_n"] == 512      # from file
    assert manifest["config"]["sigma"] == 0.2       # flag overrides file


def test_unknown_config_keys_rejected(tmp_path, capsys):
    # a misspelt key must not fall back silently to the default it meant
    # to override; the sweep axes are known to sweep only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gridn": 2048, "rmax": 18.0,
                               "sigma_values": [0.2]}))
    code, out = _run(capsys, ["ground", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 1
    assert "gridn" in out["error"] and "sigma_values" in out["error"]
    assert "rmax" not in out["error"]


def test_malformed_config_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = _run(capsys, ["ground", "--config", str(bad),
                              "--out", str(tmp_path)])
    assert code == 1
    assert "malformed" in out["error"]


@pytest.mark.parametrize("key, value", [("grid_n", "2048"),
                                        ("sigma", "0.2"),
                                        ("grid_n", 2048.0)])
def test_mistyped_config_value_rejected(tmp_path, capsys, key, value):
    # a value of the wrong type is a domain error naming its key, not a
    # TypeError from deep inside the pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out = _run(capsys, ["ground", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 1
    assert key in out["error"] and out["subcommand"] == "ground"


def test_reduced_emits_trajectory(tmp_path, capsys):
    code, out = _run(capsys, ["reduced", "--branch", "balanced",
                              "--grid-n", "1024", "--rmax", "15",
                              "--order", "1", "--s1", "30",
                              "--lambda-floor", "0.002",
                              "--out", str(tmp_path)])
    assert code == 0
    rundir = Path(out["outdir"])
    with open(rundir / "reduced.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"s", "t", "lambda", "b", "lambda_app", "b_app",
            "ratio_lambda", "ratio_b"} <= set(rows[0])
    assert len(rows) > 50
    # balanced flow stays near the leading-order approximant
    assert float(rows[-1]["ratio_lambda"]) == pytest.approx(1.0, abs=0.05)


def test_reduced_subthreshold_advice_follows_branch(tmp_path, capsys):
    # on minusplus beta00 falls as C0 grows: C0 = 5 > omega is subthreshold,
    # and the way back is a smaller C0, not a larger one
    code, out = _run(capsys, ["reduced", "--branch", "minusplus",
                              "--C0", "5.0", "--grid-n", "2048",
                              "--rmax", "15", "--out", str(tmp_path)])
    assert code == 1
    assert "beta00" in out["error"]
    assert "raise C0" not in out["error"]
    assert "below omega" in out["error"]


def test_simulate_without_rate_fit_is_a_domain_error(tmp_path, capsys):
    # the run aborts on drift after enough snapshots but with lambda too
    # close to its start for the fit window: an error record, not a crash
    code, out = _run(capsys, ["simulate", "--grid-n", "1024",
                              "--dt-c", "2.5e-3", "--lambda-floor", "6e-3",
                              "--s1", "30", "--out", str(tmp_path)])
    assert code == 1
    assert "rate fit" in out["error"]
    assert "conservation drift" in out["error"]


def test_simulate_verdicts_record_the_initial_datum(tmp_path, capsys):
    # a coarse balanced run that reaches a rate fit, so verdicts.json is
    # written; the fitted exponent means nothing at these settings
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"profile_n": 2048, "profile_rmax": 18,
                               "grid_n": 1024, "dt_c": 1e-2,
                               "drift_abort": 1e-2, "s1": 30}))
    code, out = _run(capsys, ["simulate", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 0, out
    rundir = Path(out["outdir"])
    verdicts = json.loads((rundir / "verdicts.json").read_text())
    conservation = json.loads((rundir / "conservation.json").read_text())
    crit = make_params(1, None, 0.2, 0.0, "critical", 1.0)
    gs = solve_ground_state(crit, make_grid(1, 2048, 18.0))
    params = make_params(1, None, 0.2, compute_omega(gs, crit), "plusminus",
                         1.0)
    expansion = build_profile(gs, params, order=2)
    assert (verdicts["lambda1"], verdicts["b1"]) == initial_params(
        expansion, 1.0, 30.0)
    assert verdicts["initial_energy"] == conservation["energy0"]
    assert verdicts["energy_positive"]


def test_linops_beta_sweep_artifact(tmp_path, capsys):
    code, out = _run(capsys, ["linops", "--grid-n", "2048", "--rmax", "20",
                              "--out", str(tmp_path)])
    assert code == 0
    rundir = Path(out["outdir"])
    with open(rundir / "beta_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    ratios = [float(r["C0_over_omega"]) for r in rows]
    assert ratios == [0.5, 0.75, 1.0, 1.5, 2.0]
    mid = [r for r in rows if float(r["C0_over_omega"]) == 1.0][0]
    assert abs(float(mid["beta_closed_form"])) < 1e-8


def test_linops_at_its_default_grid(tmp_path, capsys):
    # n = 32768: every operator is factored once and each bottom
    # eigenvalue is a shift-invert solve, so the default grid is cheap
    code, out = _run(capsys, ["linops", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((Path(out["outdir"]) / "linops.json").read_text())
    assert abs(report["lplus_unconstrained_min"] + 8.0) < 1e-5
    assert abs(report["lminus_unconstrained_min"]) < 1e-8


def test_sweep_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sigma_values": [],
                               "C0_over_omega_values": [1.0],
                               "E0_values": [1.0]}))
    code, out = _run(capsys, ["sweep", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 0
    assert out["n_cells"] == 0


def test_sweep_manifest_records_simulation_defaults(tmp_path, capsys):
    # the run-dir hash covers the resolved config, so the SimConfig defaults
    # a sweep runs with must be in it
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sigma_values": []}))
    code, out = _run(capsys, ["sweep", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((Path(out["outdir"]) / "manifest.json").read_text())
    assert manifest["config"]["grid_n"] == 8192
    assert manifest["config"]["dt_c"] == 8.5e-4
    assert manifest["config"]["drift_abort"] == 1e-6
    # the default balanced branch runs its cells on plusminus at the
    # C0/omega ratios, and records that branch
    assert manifest["config"]["branch"] == "plusminus"


def test_critical_sweep_takes_one_C0_over_omega_value(tmp_path, capsys):
    # critical fixes C0 = 0, so cells at two C0/omega ratios would run one
    # computation under two labels: a domain error before any run
    # directory is written; a single ratio still runs
    cfg = tmp_path / "sweep.json"
    root = tmp_path / "runs"
    for ratios, expected in (([0.5, 2.0], 1), ([0.5], 0)):
        cfg.write_text(json.dumps({"sigma_values": [], "branch": "critical",
                                   "C0_over_omega_values": ratios}))
        code, out = _run(capsys, ["sweep", "--config", str(cfg),
                                  "--out", str(root)])
        assert code == expected
        if code:
            assert "fixes C0" in out["error"]
            assert not root.exists()


def test_sweep_dedupes_and_records_failures(tmp_path, capsys):
    # duplicate grid points collapse; a subthreshold cell fails and is
    # recorded while the sweep exits cleanly
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "sigma_values": [0.2, 0.2],
        "C0_over_omega_values": [0.5, 0.5],
        "E0_values": [1.0],
        "branch": "plusminus",
        "profile_n": 1024, "profile_rmax": 15.0,
        "order": 1,
    }))
    code, out = _run(capsys, ["sweep", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 0
    assert out["n_cells"] == 1
    assert out["n_failed"] == 1
    rundir = Path(out["outdir"])
    with open(rundir / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["regime"] == "subthreshold"
    assert rows[0]["error"]


def test_sweep_on_one_allowed_cpu_runs_serially(tmp_path, capsys,
                                                monkeypatch):
    # the pool is sized by the CPUs this process may use, not by
    # os.cpu_count(): on one allowed CPU both cells run in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    pids = []

    def failing_stage(cfg, c0_ratio=None):
        pids.append(os.getpid())
        raise RuntimeError("stage skipped")

    monkeypatch.setattr(cli, "_profile_stage", failing_stage)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sigma_values": [0.2, 0.3],
                               "C0_over_omega_values": [1.0],
                               "E0_values": [1.0]}))
    code, out = _run(capsys, ["sweep", "--config", str(cfg),
                              "--out", str(tmp_path)])
    assert code == 0
    assert (out["n_cells"], out["n_failed"]) == (2, 2)
    assert pids == [os.getpid()] * 2
