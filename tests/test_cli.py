"""Command-line front end: artifacts, exit codes, determinism, sweep."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import pytest

from nlsblowup.cli import run

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
    latest = (ground_root / "latest").read_text().strip()
    assert latest == rundir.name


@pytest.mark.parametrize("argv", [GROUND_ARGS,
                                  ["linops", "--grid-n", "2048"]],
                         ids=["ground", "linops"])
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
    code, out = _run(capsys, ["ground", "--N", "9", "--out", str(tmp_path)])
    assert code == 1
    assert "error" in out


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["nosuchcommand"])
    assert exc.value.code == 2


def test_branch_requires_coupling(tmp_path, capsys):
    code, out = _run(capsys, ["reduced", "--branch", "plusminus",
                              "--grid-n", "512", "--rmax", "15",
                              "--out", str(tmp_path)])
    assert code == 1
    assert "C0" in out["error"]


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


def test_malformed_config_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = _run(capsys, ["ground", "--config", str(bad),
                              "--out", str(tmp_path)])
    assert code == 1
    assert "malformed" in out["error"]


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
