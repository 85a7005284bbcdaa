"""Tests of per-realization reductions and seeded-ensemble aggregation."""
import functools
import math
import tracemalloc
from contextlib import closing

import numpy as np
import pytest

from sfase import ensemble, io, oracle
from sfase.ensemble import (
    EnsembleSpec,
    RealizationScalars,
    delay_time,
    detect_spectral_splitting,
    histogram,
    photon_bin_edges,
    pulse_area,
    realization_outcomes,
    run_ensemble,
    spectrum,
)
from sfase.solver import NoiseSpec, RunRecord, SolverError, make_grid, run


def _fake_record(t, omega_plus, omega_minus=None, jp=None):
    n = len(t)
    return RunRecord(
        t=t, omega_out=np.array([omega_plus, np.zeros(n) if omega_minus is None
                                 else omega_minus], dtype=complex),
        jp_out=np.zeros(n) if jp is None else np.asarray(jp, dtype=float))


def _ensemble(spec: EnsembleSpec, workers: int = 1):
    """`run_ensemble` of spec, folded from a stream of its own."""
    with closing(realization_outcomes([spec], workers)) as outcomes:
        return run_ensemble(spec, outcomes)


# ---------------------------------------------------------------------------
# scalar reductions
# ---------------------------------------------------------------------------

def test_pulse_area_rectangle():
    dt = 0.01
    omega = np.full(100, 2.0 + 0.0j)
    assert pulse_area(omega, dt) == pytest.approx(2.0 * 100 * dt, rel=1e-12)


def test_pulse_area_uses_magnitude():
    dt = 0.5
    omega = np.array([3.0 + 4.0j, -5.0])
    assert pulse_area(omega, dt) == pytest.approx(5.0, rel=1e-12)


def test_spectrum_parseval():
    rng = np.random.default_rng(0)
    dt = 0.004
    omega = rng.normal(size=600) + 1j * rng.normal(size=600)
    w, s = spectrum(omega, dt)
    dw = w[1] - w[0]
    energy_t = float(np.sum(np.abs(omega) ** 2) * dt)
    energy_w = float(np.sum(s) * dw / (2.0 * math.pi))
    assert energy_w == pytest.approx(energy_t, rel=1e-9)


def test_spectrum_frequency_convention():
    # S(w) = |integral Omega e^{iwt} dt|^2: an envelope exp(-i w0 t) must
    # appear at +w0, and its conjugate at -w0
    dt = 0.01
    t = np.arange(2048) * dt
    w0 = 40.0
    w, s = spectrum(np.exp(-1j * w0 * t), dt)
    assert w[np.argmax(s)] == pytest.approx(w0, abs=2 * (w[1] - w[0]))
    w, s = spectrum(np.exp(1j * w0 * t), dt)
    assert w[np.argmax(s)] == pytest.approx(-w0, abs=2 * (w[1] - w[0]))


def test_spectrum_axis_is_padded(toy):
    grid = make_grid(toy)
    omega = np.zeros(grid.nsteps + 1, dtype=complex)
    w, s = spectrum(omega, grid.dt)
    assert len(w) == 4 * len(omega)
    assert np.all(np.diff(w) > 0)


def test_delay_time_zero_for_pump_shaped_pulse():
    t = np.linspace(0.0, 5.0, 501)
    jp = np.exp(-((t - 2.0) ** 2))
    rec = _fake_record(t, omega_plus=np.sqrt(jp), jp=jp)
    assert delay_time(rec)[0] == 0.0


def test_delay_time_positive_shift():
    t = np.linspace(0.0, 5.0, 501)
    jp = np.exp(-(((t - 1.0) / 0.1) ** 2))
    omega = np.exp(-(((t - 2.5) / 0.2) ** 2))
    rec = _fake_record(t, omega_plus=omega, jp=jp)
    assert delay_time(rec)[0] == pytest.approx(1.5, abs=0.02)


def test_delay_time_missing_for_dark_run():
    t = np.linspace(0.0, 5.0, 501)
    rec = _fake_record(t, omega_plus=np.zeros(501))
    forward, backward = delay_time(rec)
    assert math.isnan(forward)
    assert math.isnan(backward)


def test_histogram_counts_everything():
    values = np.array([1.0, 2.0, 3.0, 10.0])
    edges = np.array([0.0, 2.5, 20.0])
    counts, e = histogram(values, edges)
    assert counts.sum() == 4
    np.testing.assert_array_equal(e, edges)


def test_photon_bin_edges_log_spaced():
    vals = np.array([1e3, 1e5, 1e9])
    edges = photon_bin_edges(vals)
    assert len(edges) == 31
    ratios = edges[1:] / edges[:-1]
    assert np.allclose(ratios, ratios[0])
    assert edges[0] <= vals.min() and edges[-1] >= vals.max()


# ---------------------------------------------------------------------------
# ensemble aggregation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_ensemble(toy):
    grid = make_grid(toy)
    spec = EnsembleSpec(scenario=toy, grid=grid, n_realizations=8,
                        master_seed=21)
    return spec, _ensemble(spec)


def test_ensemble_scalar_consistency(toy, toy_ensemble):
    spec, (summary, scalars) = toy_ensemble
    assert summary.n_realizations == 8
    assert summary.n_failed == 0
    assert [s.index for s in scalars] == list(range(8))
    areas = np.array([s.area[0] for s in scalars])
    assert summary.stats[0]["threshold_probability"] == pytest.approx(
        float(np.mean(areas >= math.pi / 2)))
    peaks = np.array([s.peak[0] for s in scalars])
    assert summary.stats[0]["peak_intensity_mean"] == pytest.approx(
        float(np.mean(peaks)), rel=1e-12)


def test_ensemble_average_matches_reruns(toy, toy_ensemble):
    spec, (summary, _) = toy_ensemble
    grid = spec.grid
    acc = np.zeros(grid.nsteps + 1)
    for k in range(8):
        rec = run(toy, grid, NoiseSpec(master_seed=21, realization_index=k))
        acc += np.abs(rec.omega_out[0]) ** 2
    np.testing.assert_allclose(summary.avg_intensity[0], acc / 8, rtol=1e-12)


def test_ensemble_schedule_independence(toy, toy_ensemble):
    spec, (summary1, scalars1) = toy_ensemble
    summary2, scalars2 = _ensemble(spec, workers=2)
    # every statistic of both directions, bit for bit
    np.testing.assert_array_equal(summary1.avg_intensity,
                                  summary2.avg_intensity)
    np.testing.assert_array_equal(summary1.avg_spectrum,
                                  summary2.avg_spectrum)
    assert summary1.stats == summary2.stats
    for hist1, hist2 in zip(summary1.photon_hist + summary1.delay_hist,
                            summary2.photon_hist + summary2.delay_hist):
        for array1, array2 in zip(hist1, hist2):
            np.testing.assert_array_equal(array1, array2)
    assert [s.area[0] for s in scalars1] == [s.area[0] for s in scalars2]


def test_ensemble_bootstrap_ci_brackets_mean(toy_ensemble):
    _, (summary, _) = toy_ensemble
    lo, hi = summary.stats[0]["peak_intensity_ci95"]
    assert lo <= summary.stats[0]["peak_intensity_mean"] <= hi


def test_ensemble_delay_histogram_domain(toy_ensemble):
    spec, (summary, _) = toy_ensemble
    _, edges = summary.delay_hist[0]
    assert edges[0] == pytest.approx(0.0)
    assert edges[-1] <= spec.grid.t_end


def test_ensemble_spec_validation(toy):
    grid = make_grid(toy)
    with pytest.raises(ValueError):
        EnsembleSpec(scenario=toy, grid=grid, n_realizations=0)


class _TwoArgumentError(Exception):
    """An exception that cannot be rebuilt from its args, so it does not
    survive pickling."""

    def __init__(self, what, where):
        super().__init__(f"{what} {where}")


def _run_failing_at(bad: set[int], error=SolverError):
    """Stand-in for solver.run: a cheap fixed record, `error` at bad."""
    def fake_run(scen, grid, noise):
        if noise.realization_index in bad:
            raise error("injected")
        n = grid.nsteps + 1
        return _fake_record(grid.times, omega_plus=np.full(n, 0.1),
                            jp=np.ones(n))
    return fake_run


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_failure_budget(toy, monkeypatch, workers):
    # at most 1% of realizations may fail; the pool's forked workers see
    # the patched run too
    spec = EnsembleSpec(scenario=toy, grid=make_grid(toy), n_realizations=100,
                        master_seed=0)
    monkeypatch.setattr(ensemble, "run", _run_failing_at({17}))
    summary, scalars = _ensemble(spec, workers)
    assert summary.n_failed == 1
    assert summary.n_realizations == 99
    assert [s.index for s in scalars] == [i for i in range(100) if i != 17]
    monkeypatch.setattr(ensemble, "run", _run_failing_at({17, 63}))
    with pytest.raises(SolverError, match=r"^2/100 realizations failed: "
                       r"realization 17: injected; realization 63: injected$"):
        _ensemble(spec, workers)
    # any other exception is charged to its realization alone, also one
    # that a pool could not carry back to this process
    for error in (FloatingPointError,
                  functools.partial(_TwoArgumentError, where="in the pump")):
        monkeypatch.setattr(ensemble, "run",
                            _run_failing_at({42}, error=error))
        summary, scalars = _ensemble(spec, workers)
        assert summary.n_failed == 1
        assert [s.index for s in scalars] == [i for i in range(100) if i != 42]


def test_ensemble_memory_flat_in_realizations(toy, monkeypatch):
    # realizations are folded into running sums as they arrive, so peak
    # memory does not grow with ne (holding every realization's intensities
    # and padded spectra made it about 4x from ne = 50 to 200)
    monkeypatch.setattr(ensemble, "run", _run_failing_at(set()))
    grid = make_grid(toy)

    def peak(n):
        spec = EnsembleSpec(scenario=toy, grid=grid, n_realizations=n,
                            master_seed=0)
        tracemalloc.start()
        try:
            _ensemble(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) <= 1.2 * peak(50)


def test_realizations_csv_header_and_missing_delay(tmp_path):
    # quantity-major columns, forward before backward; a direction without
    # emission has no delay and gets an empty cell
    scalars = RealizationScalars(index=3, values=np.array(
        [[2.0, 0.5], [1.0e9, 0.0], [40.0, 0.25], [0.125, np.nan]]))
    path = tmp_path / "realizations.csv"
    io.write_realizations([scalars], path)
    assert path.read_text().splitlines() == [
        "index,area_fwd,area_bwd,photons_fwd,photons_bwd,"
        "peak_fwd,peak_bwd,delay_fwd,delay_bwd",
        "3,2.0,0.5,1000000000.0,0.0,40.0,0.25,0.125,"]


def test_reduce_one_rows_equal_one_dimensional_reductions(toy):
    # the stacked reductions give, row by row, bitwise the values of the
    # same reductions applied to each direction's series alone
    grid = make_grid(toy)
    spec = EnsembleSpec(scenario=toy, grid=grid, n_realizations=1,
                        master_seed=21)
    scalars, intensity, spec_out, _ = ensemble._reduce_one(spec, 3)
    rec = run(toy, grid, NoiseSpec(master_seed=21, realization_index=3))
    tr = toy.transition
    assert scalars.index == 3
    for row, series in enumerate(rec.omega_out):
        assert np.any(series != 0.0)
        assert scalars.area[row] == pulse_area(series, grid.dt)
        assert scalars.photons[row] == oracle.photons_from_envelope(
            series, grid.dt, toy.medium.r, tr.d, tr.omega)
        assert scalars.peak[row] == float(np.max(np.abs(series) ** 2))
        np.testing.assert_array_equal(intensity[row], np.abs(series) ** 2)
        np.testing.assert_array_equal(spec_out[row],
                                      spectrum(series, grid.dt)[1])


# ---------------------------------------------------------------------------
# spectral splitting detector
# ---------------------------------------------------------------------------

def test_split_detector_single_lobe():
    w = np.linspace(-50, 50, 2001)
    s = np.exp(-(w / 5.0) ** 2)
    assert not detect_spectral_splitting(w, s, resolution=1.0)


def test_split_detector_double_lobe():
    w = np.linspace(-50, 50, 2001)
    s = np.exp(-(((w - 8) / 3.0) ** 2)) + np.exp(-(((w + 8) / 3.0) ** 2))
    assert detect_spectral_splitting(w, s, resolution=1.0)


def test_split_detector_requires_separation():
    w = np.linspace(-50, 50, 2001)
    s = np.exp(-(((w - 8) / 3.0) ** 2)) + np.exp(-(((w + 8) / 3.0) ** 2))
    assert not detect_spectral_splitting(w, s, resolution=10.0)


def test_split_detector_ignores_small_side_lobes():
    w = np.linspace(-50, 50, 2001)
    s = np.exp(-(w / 3.0) ** 2) + 0.2 * np.exp(-(((w - 20) / 3.0) ** 2))
    assert not detect_spectral_splitting(w, s, resolution=1.0)


def test_split_detector_empty_spectrum():
    w = np.linspace(-50, 50, 101)
    assert not detect_spectral_splitting(w, np.zeros(101), resolution=1.0)
