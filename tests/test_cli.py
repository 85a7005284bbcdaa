"""End-to-end tests of the command-line interface and artifact files."""
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sfase import ensemble, io, kernel
from sfase.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from sfase.params import ParameterError
from sfase.plans import ExperimentPlan
from sfase.solver import SolverError


@pytest.fixture()
def toy_file(tmp_path, toy_dict):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(toy_dict))
    return str(path)


# ---------------------------------------------------------------------------
# validate / oracle
# ---------------------------------------------------------------------------

def test_validate_preset(capsys):
    assert main(["validate", "fig3a"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "alpha = 192" in out
    assert "grid:" in out


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/scenario.json"]) == EXIT_CONFIG


def test_validate_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == EXIT_CONFIG


def test_oracle_reports_analytics(capsys, tmp_path):
    out_dir = tmp_path / "oracle"
    assert main(["oracle", "fig3a", "--out", str(out_dir)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["alpha"] == pytest.approx(192.0)
    assert report["eta_thz_per_mm"] == pytest.approx(96.0)
    on_disk = json.loads((out_dir / "oracle.json").read_text())
    assert on_disk["alpha"] == pytest.approx(192.0)
    assert (out_dir / "manifest.json").exists()


# ---------------------------------------------------------------------------
# run / ensemble
# ---------------------------------------------------------------------------

def test_run_writes_record(tmp_path, toy_file):
    out = tmp_path / "run"
    assert main(["run", "--scenario", toy_file, "--out", str(out),
                 "--seed", "3"]) == EXIT_OK
    assert (out / "manifest.json").exists()
    record = out / "run.csv"
    assert record.exists()
    t, re_p = io.read_xy_csv(record, "t_ps", "re_omega_plus")
    _, im_p = io.read_xy_csv(record, "t_ps", "im_omega_plus")
    assert len(t) > 100
    assert np.max(np.hypot(np.asarray(re_p), np.asarray(im_p))) > 0.0


def test_ensemble_outputs_and_manifest_replay(tmp_path, toy_file):
    out = tmp_path / "ens"
    assert main(["ensemble", "--scenario", toy_file, "--out", str(out),
                 "--ne", "4", "--seed", "11"]) == EXIT_OK
    realizations = (out / "realizations.csv").read_text()
    assert realizations.count("\n") == 5        # header + 4 rows
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_realizations"] == 4
    assert 0.0 <= summary["forward"]["threshold_probability"] <= 1.0

    # replaying the manifest must reproduce the realization scalars bitwise
    out2 = tmp_path / "ens_replay"
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["plan"]["out_dir"] = str(out2)
    replay = tmp_path / "manifest2.json"
    replay.write_text(json.dumps(manifest))
    assert main(["ensemble", "--from-manifest", str(replay)]) == EXIT_OK
    assert (out2 / "realizations.csv").read_text() == realizations


def test_manifest_records_environment_and_replays_from_plan(tmp_path, toy_file):
    out = tmp_path / "run"
    assert main(["run", "--scenario", toy_file, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "scipy", "platform", "cpu_count",
                        "noise_stream", "kernel", "compiler"}
    assert env["numpy"] == np.__version__
    assert env["noise_stream"] == "v1"
    # the step kernel that produced the numbers, and the compiler that built it
    assert env["kernel"] == kernel.kernel_hash()
    assert env["compiler"] == kernel.info()["compiler"] != ""
    # a manifest from another machine replays: only its plan is read
    manifest["environment"] = {"python": "0.0", "platform": "elsewhere"}
    manifest["plan"]["out_dir"] = str(tmp_path / "replay")
    replay = tmp_path / "manifest2.json"
    replay.write_text(json.dumps(manifest))
    assert main(["run", "--from-manifest", str(replay)]) == EXIT_OK
    assert ((tmp_path / "replay" / "run.csv").read_bytes()
            == (out / "run.csv").read_bytes())


def test_ensemble_requires_scenario_and_out(toy_file):
    assert main(["ensemble", "--scenario", toy_file]) == EXIT_CONFIG
    assert main(["ensemble", "--out", "/tmp/x"]) == EXIT_CONFIG


def test_snapshots_only_for_run(tmp_path, toy_file):
    out = tmp_path / "run"
    assert main(["run", "--scenario", toy_file, "--out", str(out),
                 "--snapshots", "50"]) == EXIT_OK
    assert (out / "inversion_snapshots.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["plan"]["snapshot_stride"] == 50
    # ensemble and sweep never record snapshots, so they reject the flag
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--scenario", toy_file, "--out",
              str(tmp_path / "ens"), "--snapshots", "5"])
    assert exc.value.code == 2
    assert not (tmp_path / "ens").exists()


def test_ne_preset_spelling(tmp_path, toy_file):
    out = tmp_path / "bad_ne"
    assert main(["ensemble", "--scenario", toy_file, "--out", str(out),
                 "--ne", "dozen"]) == EXIT_CONFIG


@pytest.mark.parametrize("command, kind", [
    ("run", "ensemble"), ("ensemble", "single"), ("ensemble", "sweep"),
    ("sweep", "ensemble"), ("sweep", "single"),
])
def test_manifest_kind_must_match_command(tmp_path, toy_dict, command, kind):
    out = tmp_path / "out"
    plan = {"kind": kind, "scenario": toy_dict, "out_dir": str(out),
            "n_realizations": 1, "axes": {"L": [0.03]}}
    if kind != "sweep":
        del plan["axes"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"plan": plan}))
    assert main([command, "--from-manifest", str(manifest)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_key_range_is_config_error(tmp_path, toy_dict, toy_file,
                                               seed):
    # the seed keys Philox's 128 bits: a seed outside [0, 2**128) fails the
    # plan up front, from --seed and from a manifest, and writes nothing
    out = tmp_path / "out"
    assert main(["ensemble", "--scenario", toy_file, "--out", str(out),
                 "--ne", "2", f"--seed={seed}"]) == EXIT_CONFIG
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"plan": {
        "kind": "ensemble", "scenario": toy_dict, "out_dir": str(out),
        "n_realizations": 2, "master_seed": seed}}))
    assert main(["ensemble", "--from-manifest", str(manifest)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("seed", [1.0, True, "3"])
def test_seed_must_be_an_integer(toy_dict, seed):
    with pytest.raises(ParameterError, match="master seed"):
        ExperimentPlan(kind="ensemble", scenario=toy_dict, out_dir="x",
                       master_seed=seed)


def test_largest_seed_runs(tmp_path, toy_file):
    out = tmp_path / "out"
    assert main(["run", "--scenario", toy_file, "--out", str(out),
                 f"--seed={2**128 - 1}"]) == EXIT_OK


# toy grid too coarse for the scenario: dt = 0.1 ps against a 0.01 ps limit
COARSE_NZ = 1
# an integer too large for a float (JSON writes it as a plain integer)
HUGE = 10**400
# (command, flags, scenario keys replaced, what the error message names)
BAD_SIZES = [
    *[(command, flags, overrides, field)
      for command in ("run", "ensemble", "sweep")
      for flags, overrides, field in [
          (["--ne", "0"], {}, "n_realizations"),
          (["--workers", "0"], {}, "workers"),
          (["--grid-nz", "0"], {}, "grid_nz"),
          (["--grid-nz", "-3"], {}, "grid_nz"),
          (["--t-end", "0"], {}, "t_end_ps"),
          (["--t-end", "inf"], {}, "t_end_ps"),
          (["--grid-nz", str(HUGE)], {}, "grid_nz"),
          ([], {"r_um": 0.0}, "medium.r"),
          ([], {"L_mm": math.inf}, "L_mm"),
          ([], {"L_mm": HUGE}, "L_mm")]],
    ("run", ["--snapshots", "-1"], {}, "snapshot_stride"),
    ("run", ["--grid-nz", str(COARSE_NZ)], {}, "resolution limit"),
    ("ensemble", ["--grid-nz", str(COARSE_NZ)], {}, "resolution limit"),
    ("sweep", ["--fixed-alpha", "0"], {}, "fixed_alpha"),
    ("sweep", ["--fixed-alpha", "inf"], {}, "fixed_alpha"),
    ("sweep", ["--l-grid", "inf"], {}, "axes"),
    ("validate", ["--grid-nz", "0"], {}, "nz"),
    ("validate", ["--grid-nz", "-3"], {}, "nz"),
    ("validate", ["--grid-nz", str(HUGE)], {}, "nz"),
    ("validate", [], {"r_um": 0.0}, "medium.r"),
    ("validate", [], {"L_mm": math.inf}, "L_mm"),
    ("validate", [], {"L_mm": HUGE}, "L_mm"),
]


def _bad_size_id(command, flags, overrides, field):
    """command-field and the flags; HUGE reads "huge", and an override of
    HUGE adds it (the other overrides differ in their field)."""
    shown = "".join(flags) + ("huge" if HUGE in overrides.values() else "")
    return f"{command}-{field}{shown.replace(str(HUGE), 'huge')}"


@pytest.mark.parametrize("command, flags, overrides, field", BAD_SIZES,
                         ids=[_bad_size_id(*case) for case in BAD_SIZES])
def test_bad_count_or_size_is_config_error(tmp_path, toy_dict, capsys, command,
                                           flags, overrides, field):
    # checked before anything is written: no manifest, no output directory
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**toy_dict, **overrides}))
    if command == "validate":
        argv = ["validate", str(scenario)]
    else:
        argv = [command, "--scenario", str(scenario),
                "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--kind", "L", "--l-grid", "0.02,0.03"]
    assert main(argv + flags) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [scenario]


@pytest.mark.parametrize("kind, field, value", [
    ("ensemble", "n_realizations", 0),
    ("ensemble", "n_realizations", True),
    ("ensemble", "n_realizations", 2.0),
    ("ensemble", "workers", 0),
    ("ensemble", "grid_nz", 0),
    ("ensemble", "t_end_ps", -1.0),
    ("ensemble", "t_end_ps", math.inf),
    ("single", "snapshot_stride", -1),
    ("sweep", "fixed_alpha", 0.0),
    ("sweep", "fixed_alpha", math.inf),
    pytest.param("sweep", "axes", {"L": [0.02, math.inf]}, id="sweep-axes-inf"),
    ("ensemble", "L_mm", math.inf),
    pytest.param("ensemble", "t_end_ps", HUGE, id="ensemble-t_end_ps-huge"),
    pytest.param("ensemble", "grid_nz", HUGE, id="ensemble-grid_nz-huge"),
    pytest.param("sweep", "fixed_alpha", HUGE, id="sweep-fixed_alpha-huge"),
    pytest.param("sweep", "axes", {"L": [0.02, HUGE]}, id="sweep-axes-huge"),
    pytest.param("sweep_Tp", "tp_grid_fs", [HUGE], id="sweep_Tp-tp_grid_fs-huge"),
    pytest.param("ensemble", "L_mm", HUGE, id="ensemble-L_mm-huge"),
])
def test_bad_manifest_count_or_size_is_config_error(tmp_path, toy_dict, capsys,
                                                    kind, field, value):
    # a field of the scenario's flat schema replaces that key of the scenario
    out = tmp_path / "out"
    plan = {"kind": kind, "scenario": toy_dict, "out_dir": str(out),
            "n_realizations": 1, "axes": {"L": [0.02, 0.03]}}
    if field in toy_dict:
        plan["scenario"] = {**toy_dict, field: value}
    else:
        plan[field] = value
    if kind != "sweep":
        del plan["axes"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"plan": plan}))
    command = {"single": "run", "ensemble": "ensemble", "sweep": "sweep",
               "sweep_Tp": "sweep"}[kind]
    assert main([command, "--from-manifest", str(manifest)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["single", "ensemble"])
def test_manifest_grid_above_resolution_limit_writes_nothing(
        tmp_path, toy_dict, capsys, kind):
    out = tmp_path / "out"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"plan": {
        "kind": kind, "scenario": toy_dict, "out_dir": str(out),
        "n_realizations": 1, "grid_nz": COARSE_NZ}}))
    command = {"single": "run", "ensemble": "ensemble"}[kind]
    assert main([command, "--from-manifest", str(manifest)]) == EXIT_CONFIG
    assert "resolution limit" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_replay_takes_explicit_workers(tmp_path, toy_file):
    out = tmp_path / "ens"
    assert main(["ensemble", "--scenario", toy_file, "--out", str(out),
                 "--ne", "3", "--seed", "4"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["plan"]["workers"] == 1
    replay_out = tmp_path / "replay"
    manifest["plan"]["out_dir"] = str(replay_out)
    replay = tmp_path / "manifest2.json"
    replay.write_text(json.dumps(manifest))
    assert main(["ensemble", "--from-manifest", str(replay),
                 "--workers", "2"]) == EXIT_OK
    replayed = json.loads((replay_out / "manifest.json").read_text())
    assert replayed["plan"]["workers"] == 2
    # outputs do not depend on the worker count
    for name in ("realizations.csv", "summary.json", "avg_spectrum.csv"):
        assert (replay_out / name).read_bytes() == (out / name).read_bytes()


# ---------------------------------------------------------------------------
# sweep / fit
# ---------------------------------------------------------------------------

def test_sweep_length_fixed_alpha(tmp_path, toy_file):
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "L", "--scenario", toy_file,
                 "--out", str(out), "--ne", "2", "--l-grid", "0.02,0.03",
                 "--fixed-alpha", "480"]) == EXIT_OK
    text = (out / "map.csv").read_text()
    assert "alpha" in text.splitlines()[0]
    assert text.count("\n") == 3
    assert (out / "point_000").is_dir()


def test_sweep_length_density_product(tmp_path, toy_file):
    out = tmp_path / "ln"
    assert main(["sweep", "--kind", "Ln", "--scenario", toy_file,
                 "--out", str(out), "--ne", "2", "--l-grid", "0.02,0.03",
                 "--n-grid", "2e15,2.5e15"]) == EXIT_OK
    # the L axis is outer, the n axis inner
    length, n = io.read_xy_csv(out / "map.csv", "L", "n")
    assert list(length) == [0.02, 0.02, 0.03, 0.03]
    assert list(n) == [2e15, 2.5e15, 2e15, 2.5e15]
    assert (out / "point_003").is_dir()


def test_sweep_radius_photons_in_mm_and_manifest_replay(tmp_path, toy_file):
    out = tmp_path / "rnp"
    assert main(["sweep", "--kind", "rNp", "--scenario", toy_file,
                 "--out", str(out), "--ne", "2", "--r-grid", "1.5,2",
                 "--np-grid", "20e12,30e12"]) == EXIT_OK
    r, n_p = io.read_xy_csv(out / "map.csv", "r", "n_p")
    assert list(r) == [1.5e-3, 1.5e-3, 2e-3, 2e-3]
    assert list(n_p) == [20e12, 30e12, 20e12, 30e12]

    # the replay keeps the axis order (r before n_p) and so the row order
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["plan"]["out_dir"] = str(tmp_path / "replay")
    replay = tmp_path / "manifest2.json"
    replay.write_text(json.dumps(manifest))
    assert main(["sweep", "--from-manifest", str(replay)]) == EXIT_OK
    assert ((tmp_path / "replay" / "map.csv").read_bytes()
            == (out / "map.csv").read_bytes())


def test_sweep_missing_grid_writes_nothing(tmp_path, toy_file):
    out = tmp_path / "ln"
    assert main(["sweep", "--kind", "Ln", "--scenario", toy_file,
                 "--out", str(out), "--l-grid", "0.02,0.03"]) == EXIT_CONFIG
    assert not out.exists()


def _artifacts(out):
    """Every file of a sweep but its manifest, as {relative path: bytes}."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"}


def _map_errors(out):
    with open(out / "map.csv", newline="") as fh:
        return [row["error"] for row in csv.DictReader(fh)]


def test_sweep_artifacts_independent_of_workers(tmp_path, toy_file):
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert main(["sweep", "--kind", "L", "--scenario", toy_file,
                     "--out", str(out), "--ne", "3", "--seed", "9",
                     "--l-grid", "0.02,0.025,0.03", "--fixed-alpha", "480",
                     "--workers", str(w)]) == EXIT_OK
    serial, pooled = (_artifacts(out) for out in outs)
    assert "map.csv" in serial and "point_002/realizations.csv" in serial
    assert serial == pooled


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_failed_point_keeps_stream_aligned(tmp_path, toy_file,
                                                 monkeypatch, workers):
    # one failure in 3 breaks the middle point's 1% budget; it must still
    # take all 3 of its outcomes, or the last point would fold the middle
    # point's leftovers
    args = ["sweep", "--kind", "L", "--scenario", toy_file, "--ne", "3",
            "--l-grid", "0.02,0.025,0.03", "--fixed-alpha", "480",
            "--workers", str(workers)]
    clean, failed = tmp_path / "clean", tmp_path / "failed"
    assert main(args + ["--out", str(clean)]) == EXIT_OK
    real_run = ensemble.run

    def run_failing_middle(scen, grid, noise):
        if scen.medium.L == 0.025 and noise.realization_index == 0:
            raise SolverError("injected")
        return real_run(scen, grid, noise)

    # the pool's forked workers see the patched run too
    monkeypatch.setattr(ensemble, "run", run_failing_middle)
    assert main(args + ["--out", str(failed)]) == EXIT_RUNTIME
    assert _map_errors(failed) == [
        "", "1/3 realizations failed: realization 0: injected", ""]
    assert not (failed / "point_001").exists()
    for point in ("point_000", "point_002"):
        assert ((failed / point / "realizations.csv").read_bytes()
                == (clean / point / "realizations.csv").read_bytes())


def _exit_at_realization_1(real_run):
    def run(scen, grid, noise):
        if noise.realization_index == 1:
            os._exit(1)          # the worker process dies, no exception
        return real_run(scen, grid, noise)
    return run


# the pool's workers see the patched run only if they are forked
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="patching workers needs the fork start method")


@needs_fork
def test_sweep_dead_worker_gives_error_rows(tmp_path, toy_file, monkeypatch):
    monkeypatch.setattr(ensemble, "run", _exit_at_realization_1(ensemble.run))
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "L", "--scenario", toy_file,
                 "--out", str(out), "--l-grid", "0.02,0.03",
                 "--fixed-alpha", "480", "--ne", "3",
                 "--workers", "2"]) == EXIT_RUNTIME
    first, second = _map_errors(out)
    # realization 0 may finish before the pool notices the dead worker;
    # from there on every realization is charged, by index
    assert "realizations failed" in first
    assert "realization 1: lost, a pool worker died" in first
    assert second.startswith("3/3 realizations failed")
    for index in range(3):
        assert f"realization {index}: lost, a pool worker died" in second


@needs_fork
def test_ensemble_dead_worker_exits_runtime(tmp_path, toy_file, monkeypatch,
                                            capsys):
    monkeypatch.setattr(ensemble, "run", _exit_at_realization_1(ensemble.run))
    assert main(["ensemble", "--scenario", toy_file, "--out",
                 str(tmp_path / "ens"), "--ne", "3",
                 "--workers", "2"]) == EXIT_RUNTIME
    assert "pool worker died" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_sweep_exception_in_realization_gives_error_rows(tmp_path, toy_file,
                                                         monkeypatch, workers):
    # an exception other than SolverError is charged to the realization
    # that raised it: each point loses realization 1, breaks its 1% budget
    # and becomes an error row, and the sweep still writes map.csv
    real_run = ensemble.run

    def run_raising_at_1(scen, grid, noise):
        if noise.realization_index == 1:
            raise FloatingPointError("overflow encountered in multiply")
        return real_run(scen, grid, noise)

    monkeypatch.setattr(ensemble, "run", run_raising_at_1)
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "L", "--scenario", toy_file,
                 "--out", str(out), "--l-grid", "0.02,0.03",
                 "--fixed-alpha", "480", "--ne", "3",
                 "--workers", str(workers)]) == EXIT_RUNTIME
    assert _map_errors(out) == [
        "1/3 realizations failed: realization 1: FloatingPointError: "
        "overflow encountered in multiply"] * 2


def test_sweep_point_without_grid_is_error_row(tmp_path, toy_file):
    # nz = 12 resolves L = 0.02 mm but not L = 0.05 mm
    out = tmp_path / "sweep"
    assert main(["sweep", "--kind", "L", "--scenario", toy_file,
                 "--out", str(out), "--ne", "1", "--l-grid", "0.02,0.05",
                 "--grid-nz", "12"]) == EXIT_RUNTIME
    errors = _map_errors(out)
    assert errors[0] == ""
    assert "resolution limit" in errors[1]
    assert (out / "point_000" / "summary.json").exists()
    assert not (out / "point_001").exists()


@pytest.mark.parametrize("axes", [
    {"L": [0.02], "length": [0.03]},        # not a Scenario.replace field
    {"L": ["0.02", "0.03"]},                # not numbers
    {"L": [0.03, 0.02]},                    # not increasing
    [["L", [0.02]]],                        # not a mapping
], ids=["unknown", "strings", "decreasing", "list"])
def test_sweep_bad_axes_are_config_errors(tmp_path, toy_dict, axes):
    out = tmp_path / "bogus"
    plan = {"kind": "sweep", "scenario": toy_dict, "out_dir": str(out),
            "n_realizations": 2, "axes": axes}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"plan": plan}))
    assert main(["sweep", "--from-manifest", str(manifest)]) == EXIT_CONFIG
    assert not out.exists()


def test_sweep_requires_kind(tmp_path, toy_file):
    assert main(["sweep", "--scenario", toy_file,
                 "--out", str(tmp_path / "s")]) == EXIT_CONFIG


def test_sweep_tp_quadrature(tmp_path):
    out = tmp_path / "tp"
    assert main(["sweep", "--kind", "Tp", "--scenario", "fig4",
                 "--out", str(out), "--tp-grid", "10,20,30",
                 "--q-grid", "1,4"]) == EXIT_OK
    tp, inv1 = io.read_xy_csv(out / "pump_study.csv",
                              "tau_p_fs", "max_inversion_q1")
    _, inv4 = io.read_xy_csv(out / "pump_study.csv",
                             "tau_p_fs", "max_inversion_q4")
    assert len(tp) == 3
    assert np.all(np.asarray(inv1) <= 1.0)
    assert np.all(np.asarray(inv4) <= 1.0)
    # stronger pump at the same duration leaves more inversion
    assert np.all(np.asarray(inv4) >= np.asarray(inv1))


def test_sweep_tp_bad_row_is_error_row(tmp_path):
    # tau_p = 110 fs breaks fig4's tau_i >= 3 tau_p bound: that row becomes
    # an error row, the 20 fs row is still computed, and the run exits 3
    out, clean = tmp_path / "tp", tmp_path / "clean"
    assert main(["sweep", "--kind", "Tp", "--scenario", "fig4",
                 "--out", str(out), "--tp-grid", "20,110",
                 "--q-grid", "1"]) == EXIT_RUNTIME
    assert main(["sweep", "--kind", "Tp", "--scenario", "fig4",
                 "--out", str(clean), "--tp-grid", "20",
                 "--q-grid", "1"]) == EXIT_OK
    with open(out / "pump_study.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(clean / "pump_study.csv", newline="") as fh:
        (clean_row,) = list(csv.DictReader(fh))
    assert [r["tau_p_fs"] for r in rows] == ["20.0", "110.0"]
    assert rows[0] == clean_row
    assert rows[1]["max_inversion_q1"] == ""
    assert "tau_i" in rows[1]["error"]
    # the fit reads the good rows only
    tp, inv = io.read_xy_csv(out / "pump_study.csv", "tau_p_fs",
                             "max_inversion_q1")
    assert list(tp) == [20.0]


def test_fit_command(tmp_path):
    x = np.linspace(100, 600, 10)
    y = 0.5 * np.exp(0.02 * x)
    data = tmp_path / "data.csv"
    io.write_csv(data, ["alpha", "peak_fwd_mean"], [list(x), list(y)])
    out = tmp_path / "fit"
    assert main(["fit", "--family", "exp_gain", "--data", str(data),
                 "--out", str(out)]) == EXIT_OK
    result = json.loads((out / "fit.json").read_text())
    assert result["coefficients"][1] == pytest.approx(0.02, rel=1e-4)
    assert result["converged"]


def test_fit_reads_sweep_map_with_default_columns(tmp_path, toy_file):
    out = tmp_path / "ln"
    assert main(["sweep", "--kind", "Ln", "--scenario", toy_file,
                 "--out", str(out), "--ne", "2", "--l-grid", "0.02,0.03",
                 "--n-grid", "2e15,2.5e15"]) == EXIT_OK
    assert main(["fit", "--family", "exp_gain",
                 "--data", str(out / "map.csv"),
                 "--out", str(tmp_path / "fit")]) == EXIT_OK
    result = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert len(result["coefficients"]) == 2


def test_only_fit_manifests_record_fit_columns(tmp_path, toy_file):
    out = tmp_path / "ens"
    assert main(["ensemble", "--scenario", toy_file, "--out", str(out),
                 "--ne", "2"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert not [k for k in manifest["plan"] if k.startswith("fit_")]
    # a manifest written when every plan carried the fit columns still runs
    manifest["plan"].update(fit_x_col="alpha", fit_y_col="peak_fwd",
                            out_dir=str(tmp_path / "old"))
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["ensemble", "--from-manifest", str(old)]) == EXIT_OK

    data = tmp_path / "data.csv"
    io.write_csv(data, ["alpha", "peak_fwd_mean"],
                 [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
    assert main(["fit", "--family", "exp_gain", "--data", str(data),
                 "--out", str(tmp_path / "fit")]) == EXIT_OK
    plan = json.loads((tmp_path / "fit" / "manifest.json").read_text())["plan"]
    assert (plan["fit_x_col"], plan["fit_y_col"]) == ("alpha", "peak_fwd_mean")


def test_fit_names_columns_when_no_row_has_both(tmp_path, capsys):
    # a map.csv whose points all failed has no peak values
    data = tmp_path / "map.csv"
    io.write_csv(data, ["alpha", "peak_fwd_mean", "error"],
                 [[100.0, 200.0], ["", ""], ["boom", "boom"]])
    assert main(["fit", "--family", "pump_decay", "--data", str(data),
                 "--out", str(tmp_path / "fit")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{data}: no row has both 'alpha' and 'peak_fwd_mean'" in err


def test_fit_unknown_family(tmp_path, monkeypatch, capsys):
    # an unknown family, a missing data file or column is a config error,
    # found before anything is written: no manifest, no output directory
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "d.csv"
    io.write_csv(data, ["alpha", "peak_fwd_mean"], [[1, 2, 3], [1, 2, 3]])
    for flags, named in [(["--family", "cubic"], "cubic"),
                         (["--data", "missing.csv"], "missing.csv"),
                         (["--y-col", "nope"], "nope")]:
        assert main(["fit", "--family", "pump_decay", "--data", str(data),
                     "--out", str(tmp_path / "f"), *flags]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]


# ---------------------------------------------------------------------------
# io round trips
# ---------------------------------------------------------------------------

def test_csv_roundtrip_preserves_floats(tmp_path):
    path = tmp_path / "x.csv"
    x = [0.1, 1.0 / 3.0, 1e-300]
    y = [1.5, 2.5, 3.5]
    io.write_csv(path, ["a", "b"], [x, y])
    xa, ya = io.read_xy_csv(path, "a", "b")
    np.testing.assert_array_equal(xa, x)
    np.testing.assert_array_equal(ya, y)


def test_read_xy_missing_column(tmp_path):
    path = tmp_path / "x.csv"
    io.write_csv(path, ["a", "b"], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        io.read_xy_csv(path, "a", "missing")


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

# scipy subpackages that take most of scipy's import time; only the
# quadrature oracle and the fits use them
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.special",
               "scipy.linalg")

_IMPORT_PROBE = """
import json, sys
heavy = {heavy!r}
loaded = lambda: [m for m in heavy if m in sys.modules]
seen = {{}}
import sfase.cli
seen["import"] = loaded()
seen["scipy_at_import"] = "scipy" in sys.modules
seen["ensemble"] = sfase.cli.main(["ensemble", "--scenario", {toy!r},
                                   "--out", {ens!r}, "--ne", "2"])
seen["after_ensemble"] = loaded()
seen["oracle"] = sfase.cli.main(["oracle", "fig3a"])
seen["tp"] = sfase.cli.main(["sweep", "--kind", "Tp", "--scenario", "fig4",
                             "--out", {tp!r}, "--tp-grid", "20"])
seen["fit"] = sfase.cli.main(["fit", "--family", "exp_gain",
                              "--data", {data!r}, "--out", {fit!r}])
seen["after_all"] = loaded()
print(json.dumps(seen))
"""


def test_simulation_path_loads_no_heavy_scipy(tmp_path, toy_file):
    # a fresh interpreter: this one has scipy loaded by other tests
    data = tmp_path / "data.csv"
    x = np.linspace(100, 600, 10)
    io.write_csv(data, ["alpha", "peak_fwd_mean"], [list(x), list(np.exp(x / 50))])
    code = _IMPORT_PROBE.format(
        heavy=HEAVY_SCIPY, toy=toy_file, ens=str(tmp_path / "ens"),
        tp=str(tmp_path / "tp"), data=str(data), fit=str(tmp_path / "fit"))
    src = str(Path(ensemble.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    # not even bare scipy: the manifest imports it for its version
    assert seen["scipy_at_import"] is False
    assert seen["ensemble"] == EXIT_OK
    assert seen["after_ensemble"] == []
    # the commands that need scipy still load it when they run
    assert seen["oracle"] == seen["tp"] == seen["fit"] == EXIT_OK
    assert {"scipy.integrate", "scipy.optimize"} <= set(seen["after_all"])
