"""The compiled step kernel against the numpy reference step, and its build,
cache and failure paths."""
import functools
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import level_state
from reference_step import reference_step
from sfase import io, kernel, solver
from sfase.cli import EXIT_KERNEL, EXIT_OK, EXIT_RUNTIME, main
from sfase.solver import (NoiseSpec, initialize, make_grid, noise_normals,
                          run, step)

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
# the v1 noise draw
# ---------------------------------------------------------------------------

# |x| above the ziggurat's base-strip edge r comes only from its tail branch
ZIGGURAT_R = 3.6541528853610087963519472518


def kernel_normals(noise: NoiseSpec, istep: int, n: int) -> np.ndarray:
    """The kernel's v1 normals for one step, shape (4, n) like noise_normals.

    One sfase_step from zero coherences and fields with rho22 = 1, no pump,
    gamma = 0, dt = 2 and a noise power of 1: every deterministic term is 0
    and the noise scale sqrt(dt/2 * 1 * rho22) is exactly 1, so the new
    coherences are the drawn normals themselves."""
    lib, ffi = kernel.load()
    pop = np.zeros((3, n))
    pop[2] = 1.0
    zeros = np.zeros((2, n), dtype=complex)
    out = [np.empty((3, n)), np.empty((2, n), dtype=complex),
           np.empty((2, n), dtype=complex), np.empty(n)]
    buf = functools.partial(ffi.from_buffer, "double[]")
    seed = noise.master_seed
    assert lib.sfase_step(
        n, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, buf(pop), buf(zeros),
        buf(zeros), buf(np.zeros(n)), True, seed % 2**64, seed >> 64,
        noise.realization_index, istep, *(buf(a, True) for a in out)) == 0
    coh = out[1]
    # rows (Re+, Im+, Re-, Im-)
    return np.stack([coh[0].real, coh[0].imag, coh[1].real, coh[1].imag])


def random_coordinates(rng, count: int):
    """(NoiseSpec, istep, n_nodes) triples: seeds below 2**63, every fourth
    one with a nonzero high word as well, and indices, steps and node
    counts up to 700; the last triple has a single node."""
    for k in range(count):
        seed = int(rng.integers(0, 2**63))
        if k % 4 == 3:
            seed += int(rng.integers(1, 2**63)) << 64
        n = 1 if k == count - 1 else int(rng.integers(1, 701))
        yield (NoiseSpec(seed, int(rng.integers(0, 2**20))),
               int(rng.integers(0, 2**17)), n)


def test_kernel_noise_equals_numpy_v1():
    # about 1.1M normals: enough to pass through the ziggurat's tail (about
    # 2.6e-4 of the draws) and wedge (about 1%) rejection branches
    rng = np.random.default_rng(20260514)
    normals = tail = 0
    for noise, istep, n in [*random_coordinates(rng, 800),
                            (NoiseSpec(2**64 + 5, 2), 7, 557),
                            (NoiseSpec(2**128 - 1, 2**40), 2**33, 1)]:
        want = noise_normals(noise, istep, n)
        got = kernel_normals(noise, istep, n)
        np.testing.assert_array_equal(got, want, err_msg=f"{noise} step {istep}")
        normals += want.size
        tail += np.count_nonzero(np.abs(want) > ZIGGURAT_R)
    assert normals > 1_000_000
    assert tail > 150


# noise_normals(NoiseSpec(851, 3), 100, 557).ravel(): the first and last four
GOLDEN_851 = [1.261542552936106, -1.0185040608286728, -1.8312788929556338,
              0.32949311433785494, -0.7074352375117653, 0.4927241743997063,
              2.519594547925555, 0.010049242616707867]
# noise_normals(NoiseSpec(2**64 + 5, 7), 0, 1).ravel(): a seed that sets the
# key's high word
GOLDEN_HIGH_KEY = [-0.6083750606136694, -0.45027724945666925,
                   -1.4956743526370093, -0.953870990657995]


@pytest.mark.parametrize("draw", [noise_normals, kernel_normals],
                         ids=["numpy", "kernel"])
def test_v1_normals_are_pinned(draw):
    # v1 is these numbers: a numpy release with another ziggurat, or a
    # kernel change, fails here rather than changing seeded results
    z = draw(NoiseSpec(851, 3), 100, 557).ravel()
    assert [*z[:4], *z[-4:]] == GOLDEN_851
    assert list(draw(NoiseSpec(2**64 + 5, 7), 0, 1).ravel()) == GOLDEN_HIGH_KEY


def numpy_ziggurat_tables() -> dict:
    """ki_double, wi_double and fi_double as compiled into numpy: the local
    symbols of the distributions object in numpy's static libnpyrandom.a,
    read from a little-endian ELF64 member of the archive."""
    archive = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"
    if not archive.exists():
        pytest.skip("numpy ships no libnpyrandom.a here")
    data = archive.read_bytes()
    pos, tables = 8, {}  # after the "!<arch>\n" magic
    while pos + 60 <= len(data):
        size = int(data[pos + 48:pos + 58])
        member = data[pos + 60:pos + 60 + size]
        pos += 60 + size + size % 2
        if member[:6] != b"\x7fELF\x02\x01":
            continue
        shoff, = struct.unpack_from("<Q", member, 0x28)
        shnum, = struct.unpack_from("<H", member, 0x3C)
        # (type, offset, size, link) of every section
        sections = [struct.unpack_from("<4xI16xQQI", member, shoff + 64 * i)
                    for i in range(shnum)]
        for kind, offset, length, link in sections:
            if kind != 2:  # SHT_SYMTAB
                continue
            names = sections[link][1]
            for at in range(offset, offset + length, 24):
                name_at, shndx, value, nbytes = struct.unpack_from(
                    "<I2xHQQ", member, at)
                name = member[names + name_at:member.index(
                    b"\0", names + name_at)].decode()
                if name in ("ki_double", "wi_double", "fi_double"):
                    start = sections[shndx][1] + value
                    tables[name] = np.frombuffer(
                        member[start:start + nbytes],
                        "<u8" if name == "ki_double" else "<f8")
    if len(tables) != 3:
        pytest.skip("no ELF ziggurat tables in numpy's libnpyrandom.a")
    return tables


def test_ziggurat_tables_are_numpys():
    # a one-ulp change to a wedge or acceptance bound shows in about one
    # draw in 2**52, so no sample finds it: compare the tables themselves
    source = (Path(kernel.__file__).parent / kernel.SOURCE).read_text()
    for name, want in numpy_ziggurat_tables().items():
        body = re.search(rf"{name}\[256\] = {{(.*?)}};", source, re.S)[1]
        literals = [v.strip() for v in body.split(",")]
        got = ([int(v.removesuffix("ULL"), 16) for v in literals]
               if name == "ki_double" else [float(v) for v in literals])
        assert got == want.tolist(), name


def test_portable_mulhilo_draws_the_same_normals(tmp_path, monkeypatch):
    # a compiler without __uint128_t takes the 32-bit-limb product
    monkeypatch.setattr(kernel, "CFLAGS",
                        kernel.CFLAGS + ("-U__SIZEOF_INT128__",))
    monkeypatch.setattr(kernel, "_loaded", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert not kernel.module_path().exists()
    rng = np.random.default_rng(5)
    for noise, istep, n in random_coordinates(rng, 40):
        np.testing.assert_array_equal(kernel_normals(noise, istep, n),
                                      noise_normals(noise, istep, n))
    assert kernel.module_path().exists()


def test_noise_allocation_failure_raises(toy, toy_dict, tmp_path,
                                         monkeypatch):
    # the kernel returns -1 when it cannot allocate the normals: step
    # raises, and the CLI reports a runtime failure
    lib, ffi = kernel.load()

    class NoMemory:
        def __getattr__(self, name):
            return getattr(lib, name)

        def sfase_step(self, *args):
            return -1

    monkeypatch.setattr(kernel, "load", lambda: (NoMemory(), ffi))
    grid = make_grid(toy)
    with pytest.raises(MemoryError,
                       match=f"noise normals of {grid.n_nodes} nodes"):
        step(initialize(toy, grid), toy, grid, NoiseSpec(1))
    toy_file = tmp_path / "toy.json"
    toy_file.write_text(json.dumps(toy_dict))
    assert main(["run", "--scenario", str(toy_file),
                 "--out", str(tmp_path / "run")]) == EXIT_RUNTIME


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
    next(realization_outcomes([spec], 1))
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
