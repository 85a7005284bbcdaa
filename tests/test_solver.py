"""Tests of the characteristic-grid integrator: grid construction, noise,
conservation laws, propagation physics, and reproducibility."""
import math

import numpy as np
import pytest

from conftest import level_state
from reference_step import noise_variance
from sfase import ensemble, solver
from sfase.params import C_MM_PER_PS
from sfase.solver import (
    DECAY_RESOLUTION,
    GridError,
    NoiseSpec,
    SolverError,
    default_t_end,
    initialize,
    make_grid,
    noise_normals,
    pump_boundary,
    run,
    step,
)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_make_grid_unit_cfl(fig5):
    grid = make_grid(fig5)
    assert grid.dz == pytest.approx(grid.dt * C_MM_PER_PS, rel=1e-12)
    assert grid.nz * grid.dz == pytest.approx(fig5.medium.L, rel=1e-12)


def test_make_grid_resolves_pump_and_decay(fig5, toy):
    for scen in (fig5, toy):
        grid = make_grid(scen)
        assert grid.dt <= scen.pump.tau_p / 20 * (1 + 1e-12)
        assert grid.dt <= scen.transition.tau2 / DECAY_RESOLUTION * (1 + 1e-12)


def test_make_grid_rejects_coarse_nz(fig5):
    with pytest.raises(GridError):
        make_grid(fig5, nz=3)


def test_default_horizon_covers_burst(fig5):
    t_end = default_t_end(fig5)
    expected = (fig5.pump.tau_i + fig5.medium.L / C_MM_PER_PS
                + 6.0 * fig5.transition.tau2)
    assert t_end == pytest.approx(expected)


def test_grid_times_axis(toy):
    grid = make_grid(toy)
    t = grid.times
    assert t[0] == 0.0
    assert len(t) == grid.nsteps + 1
    assert np.allclose(np.diff(t), grid.dt)


# ---------------------------------------------------------------------------
# noise stream
# ---------------------------------------------------------------------------

def test_noise_normals_deterministic():
    noise = NoiseSpec(master_seed=42, realization_index=7)
    a = noise_normals(noise, istep=13, n_nodes=50)
    b = noise_normals(noise, istep=13, n_nodes=50)
    assert a.shape == (4, 50)
    np.testing.assert_array_equal(a, b)


def test_noise_normals_match_fresh_philox_stream():
    # the v1 stream is numpy's Philox stream keyed by the seed, started at
    # counter (0, 0, index, step), whatever was drawn before
    coords = [(42, 7, 13), (42, 7, 14), (5, 0, 13), (42, 8, 0), (42, 7, 13)]
    for seed, index, istep in coords:
        got = noise_normals(NoiseSpec(master_seed=seed, realization_index=index),
                            istep=istep, n_nodes=50)
        fresh = np.random.Generator(np.random.Philox(
            key=seed, counter=[0, 0, index, istep])).standard_normal((4, 50))
        np.testing.assert_array_equal(got, fresh)


def test_noise_normals_decorrelated_across_keys():
    base = NoiseSpec(master_seed=42, realization_index=7)
    a = noise_normals(base, istep=13, n_nodes=50)
    assert not np.array_equal(a, noise_normals(base, istep=14, n_nodes=50))
    other = NoiseSpec(master_seed=42, realization_index=8)
    assert not np.array_equal(a, noise_normals(other, istep=13, n_nodes=50))
    other_seed = NoiseSpec(master_seed=43, realization_index=7)
    assert not np.array_equal(a, noise_normals(other_seed, istep=13, n_nodes=50))


def test_noise_variance_scales(fig5):
    k1 = noise_variance(1.0, fig5)
    assert noise_variance(0.25, fig5) == pytest.approx(0.25 * k1, rel=1e-12)
    assert noise_variance(0.0, fig5) == 0.0
    # prefactor carries the 1/n density scaling
    denser = fig5.replace(n=10 * fig5.medium.n)
    assert noise_variance(1.0, denser) == pytest.approx(k1 / 10.0, rel=1e-12)


def test_pump_boundary_peak(fig5):
    peak = pump_boundary(fig5.pump.tau_i, fig5.pump, fig5.medium)
    expected = fig5.pump.n_p / (math.pi**1.5 * fig5.medium.r**2 * fig5.pump.tau_p)
    assert peak == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def test_initialize_ground_state(toy):
    state = initialize(toy, make_grid(toy))
    assert np.all(state.pop[0] == 1.0)
    assert not state.pop[1:].any()
    assert not (state.coh.any() or state.omega.any() or state.jp.any())
    assert state.trace_error() == 0.0
    assert (state.t, state.istep) == (0.0, 0)


# ---------------------------------------------------------------------------
# conservation and propagation physics
# ---------------------------------------------------------------------------

def test_trace_conserved_with_noise(toy, monkeypatch):
    monkeypatch.setattr(solver, "CHECK_STRIDE", 1)
    grid = make_grid(toy)
    rec = run(toy, grid, NoiseSpec(master_seed=1, realization_index=0))
    assert rec.max_trace_error < 1e-10


def test_beer_lambert_weak_pump(toy_dict):
    # pump flux too weak to deplete the ground state: transmitted peak obeys
    # exp(-n sigma L); cross section raised to make the optical depth visible
    toy_dict["n_p"] = 1.0e7
    toy_dict["sigma_m2"] = 3.336e-21
    from sfase.params import scenario_from_dict
    scen = scenario_from_dict(toy_dict)
    grid = make_grid(scen)
    rec = run(scen, grid, None)
    nsl = scen.medium.n * scen.medium.sigma * scen.medium.L
    peak_in = pump_boundary(scen.pump.tau_i, scen.pump, scen.medium)
    assert float(np.max(rec.jp_out)) / peak_in == pytest.approx(
        math.exp(-nsl), rel=1e-3)


def test_no_emission_without_noise_or_seed(toy):
    grid = make_grid(toy)
    rec = run(toy, grid, None)
    assert np.all(rec.omega_out[0] == 0.0)
    assert np.all(rec.omega_out[1] == 0.0)


def test_seeded_inversion_amplifies(toy):
    grid = make_grid(toy)
    rec = run(toy, grid, None, initial=level_state(toy, grid, 2, 1e-8))
    # alpha = 480: the tiny coherence seed must grow by many orders
    assert float(np.max(np.abs(rec.omega_out[0]))) > 1e-3


def test_absorbing_medium_attenuates_injected_pulse(toy):
    grid = make_grid(toy)
    t0, tau = 1.0, 0.2

    def boundary(t):
        return 1.0e-3 * math.exp(-(((t - t0) / tau) ** 2))

    # the pulse enters at z = 0: set the incoming + envelope before each
    # step and record what arrives at z = L
    state = level_state(toy, grid, 1)
    out = []
    for _ in range(grid.nsteps):
        state.omega[0, 0] = boundary(state.t)
        state = step(state, toy, grid)
        out.append(state.omega[0, -1])
    energy_in = sum(abs(boundary(t)) ** 2 for t in grid.times) * grid.dt
    energy_out = float(np.sum(np.abs(out) ** 2) * grid.dt)
    assert energy_out < 0.5 * energy_in


def test_forward_field_causal(fig5):
    # nothing can reach z=L before the pump front arrives there
    grid = make_grid(fig5)
    rec = run(fig5, grid, NoiseSpec(master_seed=3, realization_index=0))
    transit = fig5.medium.L / C_MM_PER_PS
    early = rec.t < transit
    assert np.all(np.abs(rec.omega_out[0, early]) == 0.0)
    assert np.all(rec.jp_out[early] == 0.0)


def test_inversion_trace_recording(toy):
    # a stride-1 snapshot column is the inversion trace of one node on
    # rec.t[1:], and the snapshot times are that axis exactly
    grid = make_grid(toy)
    rec = run(toy, grid, None, snapshot_stride=1)
    np.testing.assert_array_equal(rec.snapshot_times, rec.t[1:])
    assert rec.snapshot_inversion.shape == (grid.nsteps, grid.n_nodes)
    assert rec.snapshot_inversion[:, 0].max() > 0.0


def test_snapshots(toy):
    grid = make_grid(toy)
    rec = run(toy, grid, None, snapshot_stride=100)
    assert rec.snapshot_inversion is not None
    assert rec.snapshot_inversion.shape[1] == grid.n_nodes
    assert len(rec.snapshot_times) == grid.nsteps // 100


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_bitwise_seed_reproducibility(toy):
    grid = make_grid(toy)
    noise = NoiseSpec(master_seed=5, realization_index=2)
    a = run(toy, grid, noise)
    b = run(toy, grid, noise)
    np.testing.assert_array_equal(a.omega_out[0], b.omega_out[0])
    np.testing.assert_array_equal(a.omega_out[1], b.omega_out[1])


def test_different_realizations_differ(toy):
    grid = make_grid(toy)
    a = run(toy, grid, NoiseSpec(master_seed=5, realization_index=0))
    b = run(toy, grid, NoiseSpec(master_seed=5, realization_index=1))
    assert not np.array_equal(a.omega_out[0], b.omega_out[0])


@pytest.mark.parametrize("level, rho21", [(0, 0.0), (2, 1e-6)],
                         ids=["ground", "inverted"])
def test_single_step_matches_run_prefix(toy, level, rho21):
    # 18 ps: the pump's incident flux underflows to 0 (27 tau_p after
    # tau_i) and J_p leaves the medium about 300 steps before the end
    grid = make_grid(toy, t_end=18.0)
    noise = NoiseSpec(master_seed=9, realization_index=0)
    initial = level_state(toy, grid, level, rho21)
    kept = {name: arr.copy() for name, arr in vars(initial).items()
            if isinstance(arr, np.ndarray)}
    states = [initial]
    for _ in range(grid.nsteps):
        states.append(step(states[-1], toy, grid, noise))
    rec = run(toy, grid, noise, initial=initial)
    for name, arr in kept.items():
        np.testing.assert_array_equal(getattr(initial, name), arr)
    assert (initial.t, initial.istep) == (0.0, 0)
    np.testing.assert_array_equal([s.omega[0, -1] for s in states],
                                  rec.omega_out[0])
    np.testing.assert_array_equal([s.omega[1, 0] for s in states],
                                  rec.omega_out[1])
    np.testing.assert_array_equal([s.jp[-1] for s in states], rec.jp_out)
    # once the pump has left the medium, J_p stays 0 and rho00 is frozen
    # bit for bit
    exit_step = next(i for i in range(1, len(states))
                     if not states[i].jp.any())
    assert 3 < exit_step < grid.nsteps
    for prev, cur in zip(states[exit_step:], states[exit_step + 1:]):
        assert not cur.jp.any()
        assert cur.pop[0].tobytes() == prev.pop[0].tobytes()


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

def test_check_finite_names_array_row_and_cell(toy):
    state = initialize(toy, make_grid(toy))
    state.check_finite()
    state.coh[1, 4] = complex(np.nan, 0.0)
    with pytest.raises(SolverError, match=r"coh\[1, 4\] at step 0"):
        state.check_finite()


def test_non_finite_pump_fails_run_with_realization_index(toy, monkeypatch):
    # run names the array, cell and step; the ensemble adds the realization
    monkeypatch.setattr(solver, "pump_boundary", lambda *args: np.nan)
    monkeypatch.setattr(solver, "CHECK_STRIDE", 1)
    grid = make_grid(toy)
    with pytest.raises(SolverError,
                       match=r"^non-finite value in pop\[0, 0\] at step 1 "):
        run(toy, grid, NoiseSpec(master_seed=1, realization_index=3))
    outcome = ensemble._reduce_one(
        ensemble.EnsembleSpec(scenario=toy, grid=grid, master_seed=1), 3)
    assert isinstance(outcome, SolverError)
    assert str(outcome).startswith(
        "realization 3: non-finite value in pop[0, 0] at step 1 ")
