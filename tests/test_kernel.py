"""The compiled step kernel against the numpy reference step, and its build,
cache and failure paths."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import level_state
from reference_step import reference_step
from sfase import io, kernel, solver
from sfase.cli import EXIT_KERNEL, EXIT_OK
from sfase.solver import NoiseSpec, initialize, make_grid, run, step

# Per-step agreement with the reference, both stepped from the same state:
# populations (whose trace is 1) to this absolute error, and every row of
# coh, omega and jp to this error relative to the row's largest magnitude.
# About 10 ulp of 1: libm's exp and numpy's differ by 1 ulp on some
# arguments, and the measured worst case is 2.4e-16.
STEP_TOL = 2.0e-15
# a whole noisy fig5 run stepped by each: omega_out per direction, relative
# to its largest magnitude (measured 7.7e-15)
RUN_TOL = 5.0e-14
FIELDS = ("pop", "coh", "omega", "jp")


def _src_env(**extra) -> dict:
    src = str(Path(kernel.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def assert_step_agrees(got, want):
    assert (got.t, got.istep) == (want.t, want.istep)
    np.testing.assert_allclose(got.pop, want.pop, rtol=0, atol=STEP_TOL)
    for name in FIELDS[1:]:
        for g_row, w_row in zip(np.atleast_2d(getattr(got, name)),
                                np.atleast_2d(getattr(want, name))):
            scale = np.max(np.abs(w_row))
            np.testing.assert_allclose(g_row, w_row, rtol=0,
                                       atol=STEP_TOL * scale, err_msg=name)


def step_side_by_side(scen, grid, state, noise, nsteps):
    """Step the kernel for nsteps, checking each step against the reference
    from the same state; the kernel's states."""
    states = [state]
    for _ in range(nsteps):
        new = step(states[-1], scen, grid, noise)
        assert_step_agrees(new, reference_step(states[-1], scen, grid, noise))
        states.append(new)
    return states


def test_kernel_matches_reference_through_pump_exit(toy):
    # the ground state, pumped and noisy, until J_p has left the medium and
    # the pump stages are skipped
    grid = make_grid(toy, t_end=18.0)
    states = step_side_by_side(toy, grid, initialize(toy, grid),
                               NoiseSpec(master_seed=4, realization_index=1),
                               grid.nsteps)
    assert any(s.jp.any() for s in states)
    assert not states[-1].jp.any()
    assert np.abs(states[-1].coh).max() > 0.0


def test_kernel_matches_reference_from_inverted_state(toy):
    grid = make_grid(toy)
    states = step_side_by_side(toy, grid, level_state(toy, grid, 2, 1e-8),
                               None, grid.nsteps)
    # the seeded burst fires, so the coupling terms are exercised
    assert max(np.abs(s.omega).max() for s in states) > 1e-3


def test_kernel_matches_reference_on_noisy_fig5(fig5, monkeypatch):
    grid = make_grid(fig5)
    noise = NoiseSpec(master_seed=851, realization_index=0)
    step_side_by_side(fig5, grid, initialize(fig5, grid), noise, 400)
    rec = run(fig5, grid, noise)
    monkeypatch.setattr(solver, "step", reference_step)
    ref = run(fig5, grid, noise)
    np.testing.assert_array_equal(rec.t, ref.t)
    for got, want in zip(rec.omega_out, ref.omega_out):
        scale = np.max(np.abs(want))
        assert scale > 0.0
        np.testing.assert_allclose(got, want, rtol=0, atol=RUN_TOL * scale)


@pytest.mark.parametrize("name, cell, value, named", [
    # a NaN in rho21 reaches np.maximum through rho22 in the noise scale
    ("coh", (1, 4), complex(np.nan, 0.0), "pop[1, 3]"),
    # an infinite J_p makes the influx inf*0 = NaN while delta stays
    # finite: np.minimum must return the NaN, not delta
    ("jp", (5,), np.inf, "pop[1, 5]"),
], ids=["nan-coh", "inf-jp"])
def test_non_finite_reaches_check_finite_as_in_reference(toy, name, cell,
                                                         value, named):
    # numpy's minimum and maximum carry a NaN, so the kernel must too: a
    # non-finite input cell spoils the same cells of every array in both
    # steps, and check_finite names the same array, row and cell
    grid = make_grid(toy)
    noise = NoiseSpec(master_seed=2)
    state = step_side_by_side(toy, grid, initialize(toy, grid), noise, 60)[-1]
    assert state.jp.any()
    getattr(state, name)[cell] = value
    with np.errstate(invalid="ignore"):
        got = step(state, toy, grid, noise)
        want = reference_step(state, toy, grid, noise)
    for field in FIELDS:
        np.testing.assert_array_equal(np.isfinite(getattr(got, field)),
                                      np.isfinite(getattr(want, field)),
                                      err_msg=field)
        np.testing.assert_array_equal(np.isnan(getattr(got, field)),
                                      np.isnan(getattr(want, field)),
                                      err_msg=field)
    messages = []
    for result in (got, want):
        with pytest.raises(solver.SolverError) as err:
            result.check_finite()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert f"non-finite value in {named} at step 61 " in messages[0]


# ---------------------------------------------------------------------------
# build and load
# ---------------------------------------------------------------------------

_RACE = """
import json, sys
from sfase import kernel
print("ready", flush=True)
sys.stdin.readline()
lib, ffi = kernel.load()
print(json.dumps(kernel.info()))
"""


def test_concurrent_cold_builds_both_load(tmp_path):
    # two processes find the cache empty and build at the same moment; each
    # installs a whole module with os.replace, so both load one
    env = _src_env(XDG_CACHE_HOME=str(tmp_path))
    procs = [subprocess.Popen([sys.executable, "-c", _RACE], env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    try:
        for proc in procs:
            assert proc.stdout.readline().strip() == "ready"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        results = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (out, errs) in zip(procs, results):
        assert proc.returncode == 0, errs
        assert json.loads(out)["kernel"] == kernel.kernel_hash()
    assert [p.name for p in (tmp_path / "sfase").iterdir()] == [
        kernel.module_path().name]


_NO_COMPILER = """
import json, sys
from sfase import kernel
from sfase.cli import main
from sfase.ensemble import EnsembleSpec, realization_outcomes
from sfase.params import scenario_from_dict
from sfase.solver import make_grid
toy, out = sys.argv[1], sys.argv[2]
codes = [main(["ensemble", "--scenario", toy, "--out", out + "/ens",
               "--ne", "2", "--workers", "2"]),
         main(["sweep", "--kind", "L", "--scenario", toy, "--out",
               out + "/sweep", "--l-grid", "0.02,0.03", "--ne", "2"])]
scen = scenario_from_dict(json.load(open(toy)))
spec = EnsembleSpec(scenario=scen, grid=make_grid(scen), n_realizations=3,
                    master_seed=0)
try:
    next(realization_outcomes([spec]))
    stream = "no error"
except kernel.KernelError as err:
    stream = "KernelError"
print(json.dumps({"codes": codes, "stream": stream}))
"""


def test_missing_compiler_fails_stepping_commands_up_front(tmp_path,
                                                           toy_dict):
    toy = tmp_path / "toy.json"
    toy.write_text(json.dumps(toy_dict))
    missing = str(tmp_path / "no-such-cc")
    env = _src_env(XDG_CACHE_HOME=str(tmp_path / "cache"), CC=missing)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_COMPILER, str(toy), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"codes": [EXIT_KERNEL, EXIT_KERNEL], "stream": "KernelError"}
    # one message per command, naming the compiler; nothing written, so no
    # manifest and no error rows
    assert proc.stderr.count(f"C compiler {missing!r} cannot be run") == 2
    assert not (tmp_path / "out").exists()


_NON_STEPPING = """
import json, sys
import sfase.cli
toy, out, data = sys.argv[1:4]
codes = [sfase.cli.main(["validate", toy]),
         sfase.cli.main(["oracle", toy, "--out", out + "/oracle"]),
         sfase.cli.main(["sweep", "--kind", "Tp", "--scenario", "fig4",
                         "--out", out + "/tp", "--tp-grid", "20"]),
         sfase.cli.main(["fit", "--family", "exp_gain", "--data", data,
                         "--out", out + "/fit"])]
loaded = sorted(m for m in sys.modules
                if m.startswith(("_sfase_step", "cffi", "_cffi_backend")))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_non_stepping_commands_never_build_or_load_kernel(tmp_path, toy_dict):
    # a fresh interpreter, an empty cache and no compiler: these commands
    # must not need the kernel
    toy = tmp_path / "toy.json"
    toy.write_text(json.dumps(toy_dict))
    data = tmp_path / "data.csv"
    x = np.linspace(100, 600, 10)
    io.write_csv(data, ["alpha", "peak_fwd_mean"], [x, np.exp(x / 50)])
    cache = tmp_path / "cache"
    env = _src_env(XDG_CACHE_HOME=str(cache), CC=str(tmp_path / "no-such-cc"))
    proc = subprocess.run(
        [sys.executable, "-c", _NON_STEPPING, str(toy), str(tmp_path / "out"),
         str(data)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"codes": [EXIT_OK] * 4, "loaded": []}
    assert not cache.exists()
    manifest = json.loads((tmp_path / "out" / "tp" / "manifest.json").read_text())
    assert "kernel" not in manifest["environment"]
