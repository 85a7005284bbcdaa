"""End-to-end acceptance criteria.

Eight criteria, one test each, each printing a single
``criterion N: PASS/FAIL - detail`` line (visible with ``pytest -s``).
The ensemble-heavy criteria (5, 6, 7) dominate the runtime (about 5 min on
two CPUs; each of their fixtures streams its realizations through one
two-process pool of the production executor); everything else runs in
seconds.
"""

import math
import os
from contextlib import closing
from itertools import islice

import numpy as np
import pytest
from scipy.signal import find_peaks

from conftest import level_state
from sfase import oracle, solver
from sfase.ensemble import (
    EnsembleSpec,
    detect_spectral_splitting,
    pulse_area,
    realization_outcomes,
    run_ensemble,
    spectrum,
)
from sfase.fitting import classify_regime, fit
from sfase.params import gamma_from_dipole, solid_angle
from sfase.oracle import max_inversion
from sfase.solver import NoiseSpec, SolverError, make_grid, noise_normals, run

LN2 = math.log(2.0)
HALF_PI = math.pi / 2.0
# processes for the ensemble fixtures of criteria 5-7
FIXTURE_WORKERS = min(2, os.cpu_count() or 1)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _reductions(specs: list[EnsembleSpec]):
    """Every spec's per-realization reductions, in (spec, index) order.

    They come from one stream of the production executor, which runs the
    realizations of all specs on a single pool; each item is what
    `ensemble._reduce_one` returns, with rows (forward, backward).  A
    failed realization fails the fixture.
    """
    with closing(realization_outcomes(specs, FIXTURE_WORKERS)) as outcomes:
        for outcome in outcomes:
            if isinstance(outcome, SolverError):
                raise outcome
            yield outcome


def _ensembles(specs: list[EnsembleSpec]):
    """Every spec's (summary, scalars), as `run_ensemble` folds them from one
    stream of the production executor (a single pool runs the realizations
    of all specs).  A failed realization fails the fixture.
    """
    with closing(realization_outcomes(specs, FIXTURE_WORKERS)) as outcomes:
        results = [run_ensemble(spec, outcomes) for spec in specs]
    for summary, _ in results:
        assert summary.n_failed == 0
    return results


def _all(checks: list[tuple[str, bool]]) -> tuple[bool, str]:
    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}={'ok' if flag else 'BAD'}"
                       for name, flag in checks)
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 1: reference constants
# ---------------------------------------------------------------------------

def test_criterion_1_reference_constants(fig3a, fig4):
    phi_urad = solid_angle(0.002, 1.0) * 1.0e6
    gamma = gamma_from_dipole(3.33e-31, 1.29e6)
    peak_si = float(np.max(oracle.jp_analytic(
        np.linspace(0.0, 0.6, 2001), 0.0, fig4))) * 1.0e18
    n_pi_half = oracle.pi_half_photons(0.002, 1.46e-6)
    u = oracle.u_factor(fig3a)
    checks = [
        ("solid_angle_12.566urad", abs(phi_urad - 12.566) < 0.01),
        ("alpha_192", fig3a.derived.alpha == pytest.approx(192.0, rel=1e-12)),
        ("eta_96", fig3a.derived.eta == pytest.approx(96.0, rel=1e-12)),
        ("gamma_1THz", gamma == pytest.approx(1.0, rel=0.02)),
        ("pump_peak_4.5e37", peak_si == pytest.approx(4.5e37, rel=0.01)),
        ("pi_half_1.75e7", n_pi_half == pytest.approx(1.75e7, rel=0.01)),
        ("u_factor_1.5649", u == pytest.approx(1.5649, abs=2e-4)),
    ]
    ok, detail = _all(checks)
    _report(1, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 2: small-signal gain bounds
# ---------------------------------------------------------------------------

def test_criterion_2_gain_parameter_bounds(fig5, fig6):
    est5 = oracle.gain_estimate(fig5)
    est6 = oracle.gain_estimate(fig6)
    # 2xi rises monotonically toward its long-window limit
    vs = np.linspace(est5.v_min, est5.v_max, 7)
    curve = [oracle.gain_estimate(fig5, v=v).two_xi for v in vs]
    checks = [
        ("limit_0.055", est5.two_xi_limit == pytest.approx(0.055, abs=1e-3)),
        ("limit_0.076", est6.two_xi_limit == pytest.approx(0.076, abs=1e-3)),
        ("bounded", 0.0 < est5.two_xi <= est5.two_xi_limit * (1 + 1e-9)),
        ("monotone", bool(np.all(np.diff(curve) > 0.0))),
        ("endpoint", curve[-1] == pytest.approx(est5.two_xi_limit, rel=1e-9)),
    ]
    ok, detail = _all(checks)
    _report(2, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 3: noise-off inversion dynamics and gain window
# ---------------------------------------------------------------------------

def test_criterion_3_inversion_window(fig3a):
    grid = make_grid(fig3a)
    # the z = 0 column of the per-step snapshots, on the grid times
    # (accumulated state.t differs from them in the last bits)
    rec = run(fig3a, grid, None, snapshot_stride=1)
    inv, t = rec.snapshot_inversion[:, 0], rec.t[1:]
    quad = oracle.inversion_quadrature(t, fig3a)
    max_diff = float(np.max(np.abs(inv - quad)))
    onset = float(t[np.argmax(np.gradient(inv, t))])
    down = np.where((inv[:-1] > 0) & (inv[1:] <= 0) & (t[1:] > 0.5))[0]
    crossing = float(t[down[0] + 1]) if len(down) else math.nan
    duration = crossing - onset
    expected_duration = fig3a.transition.tau2 * LN2
    checks = [
        ("quadrature_1e-3", max_diff <= 1e-3),
        ("onset_0.2", abs(onset - 0.2) <= 0.02),
        ("zero_cross_0.9", abs(crossing - 0.9) <= 0.02),
        ("duration_tau2ln2",
         duration == pytest.approx(expected_duration, rel=0.05)),
    ]
    ok, detail = _all(checks)
    _report(3, ok, f"max|dI|={max_diff:.1e} onset={onset:.3f} "
                   f"cross={crossing:.3f}; {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 4: pump-duration study
# ---------------------------------------------------------------------------

def _max_inversion_qtp(base, q: float, tp_fs: float) -> float:
    # unit-amplitude pump family: n_p = Q*T_p x 1e12 photons, tau_p = T_p fs;
    # the injection delay must stay >= 3 tau_p for long pumps
    tau_i = max(0.3, 3.5 * tp_fs * 1e-3)
    scen = base.replace(n_p=q * tp_fs * 1e12, tau_p=tp_fs * 1e-3, tau_i=tau_i)
    return max_inversion(scen)


def test_criterion_4_pump_duration_study(fig4):
    tp_grid = np.array([1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
    inv = np.array([_max_inversion_qtp(fig4, 1.0, tp) for tp in tp_grid])
    deltas = {}
    t_fit = np.arange(15.0, 91.0, 5.0)
    for q in (2.0, 16.0, 256.0):
        y = np.array([_max_inversion_qtp(fig4, q, tp) for tp in t_fit])
        res = fit("pump_decay", t_fit, y)
        deltas[q] = float(res.coefficients[1])
    checks = [
        ("max_inv_0.69", abs(inv[0] - 0.69) <= 0.01),
        ("monotone_decreasing", bool(np.all(np.diff(inv) < 0.0))),
        ("small_at_60fs", inv[-1] < 0.05),
    ] + [(f"delta_q{q:g}_in_[0.07,0.1]", 0.07 <= d <= 0.10)
         for q, d in deltas.items()]
    ok, detail = _all(checks)
    _report(4, ok, f"inv(1fs)={inv[0]:.4f} inv(60fs)={inv[-1]:.4f} "
                   f"deltas={[round(d, 4) for d in deltas.values()]}; {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: ASE -> SF transition with gain
# ---------------------------------------------------------------------------

ALPHAS = np.array([100.0, 200.0, 360.0, 500.0, 720.0,
                   1080.0, 1500.0, 2000.0, 2500.0, 3000.0])
N_SCAN = 100


@pytest.fixture(scope="module")
def alpha_scan(fig5):
    grid = make_grid(fig5)
    specs = [EnsembleSpec(
        scenario=fig5.replace(
            n=alpha / (fig5.transition.sigma_r * fig5.medium.L)),
        grid=grid, n_realizations=N_SCAN, master_seed=7) for alpha in ALPHAS]
    summaries = [summary for summary, _ in _ensembles(specs)]
    # forward: row 0 of the averages, block 0 of the statistics
    peak_avg = [float(s.avg_intensity[0].max()) for s in summaries]
    mean_delay = [s.stats[0]["delay_mean_ps"] for s in summaries]
    return np.array(peak_avg), np.array(mean_delay)


def test_criterion_5_regime_transition(alpha_scan):
    peak_avg, mean_delay = alpha_scan
    low = ALPHAS <= 500.0
    high = ALPHAS >= 1080.0
    b = float(fit("exp_gain", ALPHAS[low], peak_avg[low],
                  relative=True).coefficients[1])
    p = float(fit("power_offset", ALPHAS[high], peak_avg[high],
                  relative=True).coefficients[1])
    low_delay_flat = bool(np.all(np.abs(mean_delay[low] - 0.551) <= 0.2 * 0.551))
    delay_fit = fit("delay_law", ALPHAS[high], mean_delay[high],
                    relative=True)
    report = classify_regime(ALPHAS, peak_avg)
    w_lo, w_hi = report.watershed
    checks = [
        ("exp_gain_b_in_(0,0.055]", 0.0 < b <= 0.055),
        ("power_exponent_in_[1.7,2.3]", 1.7 <= p <= 2.3),
        ("low_delay_flat_0.551+-20%", low_delay_flat),
        ("high_delay_decreasing",
         bool(np.all(np.diff(mean_delay[high]) < 0.0))),
        ("high_delay_law_compatible",
         delay_fit.converged and delay_fit.residual < 0.1),
        ("watershed_overlaps_[500,1200]", w_lo <= 1200.0 and w_hi >= 500.0),
    ]
    ok, detail = _all(checks)
    _report(5, ok, f"b={b:.4f} p={p:.3f} watershed=({w_lo:.0f},{w_hi:.0f}) "
                   f"label={report.label}; {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 6: forward/backward asymmetry
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def asymmetry(fig5):
    specs = {}
    for length, n_real in ((0.25, 40), (0.025, 80)):
        n = 1500.0 / (fig5.transition.sigma_r * length)
        scen = fig5.replace(L=length, n=n)
        specs[length] = EnsembleSpec(
            scenario=scen, grid=make_grid(scen), n_realizations=n_real,
            master_seed=11)
    results = _reductions(list(specs.values()))
    out = {}
    for length, spec in specs.items():
        n_real = spec.n_realizations
        fwd_areas, bwd_areas, lobe_ratios = [], [], []
        sum_bwd = np.zeros(len(spec.grid.times))
        for scalars, intensity, _, _ in islice(results, n_real):
            fwd_areas.append(scalars.area[0])
            bwd_areas.append(scalars.area[1])
            i_bwd = intensity[1]
            peaks, _ = find_peaks(i_bwd, height=0.1 * i_bwd.max())
            heights = np.sort(i_bwd[peaks])[::-1]
            lobe_ratios.append(
                heights[1] / heights[0] if len(heights) > 1 else 0.0)
            sum_bwd += i_bwd
        avg_bwd = sum_bwd / n_real
        lobes, _ = find_peaks(avg_bwd, height=0.2 * avg_bwd.max())
        out[length] = {
            "fwd_prob": float(np.mean(np.array(fwd_areas) >= HALF_PI)),
            "bwd_prob": float(np.mean(np.array(bwd_areas) >= HALF_PI)),
            "bwd_ring_frac": float(np.mean(np.array(lobe_ratios) >= 0.5)),
            "bwd_avg_lobes": int(len(lobes)),
        }
    return out


def test_criterion_6_forward_backward_asymmetry(asymmetry):
    long_l, short_l = asymmetry[0.25], asymmetry[0.025]
    checks = [
        ("long_fwd>=0.99", long_l["fwd_prob"] >= 0.99),
        ("long_bwd<=0.05", long_l["bwd_prob"] <= 0.05),
        ("short_bwd>=0.90", short_l["bwd_prob"] >= 0.90),
        # half-peak ringing appears in a majority of single-shot backward
        # traces of the long sample (second lobe >= half the first) ...
        ("long_bwd_ringing>=0.5", long_l["bwd_ring_frac"] >= 0.5),
        # ... and the short-sample average backward pulse keeps a multi-lobe
        # structure (lobes above 0.2x of its maximum); its second lobe
        # converges to ~0.28 of the peak, below the half-peak level
        ("short_bwd_multilobe", short_l["bwd_avg_lobes"] >= 2),
    ]
    ok, detail = _all(checks)
    _report(6, ok,
            f"L=0.25: fwd={long_l['fwd_prob']:.2f} bwd={long_l['bwd_prob']:.2f} "
            f"ring={long_l['bwd_ring_frac']:.2f}; "
            f"L=0.025: bwd={short_l['bwd_prob']:.2f} "
            f"lobes={short_l['bwd_avg_lobes']}; {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 7: photon statistics and spectral splitting along the gain axis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def length_points(fig5):
    specs = {}
    for label, length in (("c", 0.25), ("e", 0.5), ("g", 0.75)):
        scen = fig5.replace(L=length)
        specs[label] = EnsembleSpec(scenario=scen, grid=make_grid(scen),
                                    n_realizations=12, master_seed=5)
    results = _ensembles(list(specs.values()))
    out = {}
    for (label, spec), (summary, scalars) in zip(specs.items(), results):
        grid = spec.grid
        resolution = 2.0 * math.pi / (grid.dt * len(grid.times))
        out[label] = {
            "median_photons": float(np.median([s.photons[0]
                                               for s in scalars])),
            "split": detect_spectral_splitting(
                summary.spectral_axis, summary.avg_spectrum[0], resolution),
        }
    return out


def test_criterion_7_photon_statistics_shift(length_points):
    pts = length_points
    ratio = pts["g"]["median_photons"] / pts["c"]["median_photons"]
    checks = [
        ("photon_shift>=100x", ratio >= 100.0),
        ("ordered",
         pts["c"]["median_photons"] < pts["e"]["median_photons"]
         < pts["g"]["median_photons"]),
        ("no_split_at_low_gain", pts["c"]["split"] is False),
        ("split_at_high_gain", pts["g"]["split"] is True),
    ]
    ok, detail = _all(checks)
    medians = ["%.3g" % pts[k]["median_photons"] for k in "ceg"]
    _report(7, ok,
            f"medians={medians} ratio={ratio:.0f} "
            f"splits={[pts[k]['split'] for k in 'ceg']}; {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 8: numerical property suite
# ---------------------------------------------------------------------------

def test_criterion_8_numerical_properties(toy, monkeypatch):
    grid = make_grid(toy)
    noise = NoiseSpec(master_seed=13, realization_index=2)

    # density-matrix trace conservation under noise, checked every step
    monkeypatch.setattr(solver, "CHECK_STRIDE", 1)
    rec = run(toy, grid, noise)
    trace_ok = rec.max_trace_error <= 1e-6

    # step-halving convergence on a deterministic seeded-inversion burst
    def burst(grid_):
        r = run(toy, grid_, None, initial=level_state(toy, grid_, 2, 1e-3))
        intensity = np.abs(r.omega_out[0]) ** 2
        return (pulse_area(r.omega_out[0], grid_.dt),
                float(intensity.max()),
                float(r.t[int(np.argmax(intensity))]))

    # the seed is large enough to saturate the burst inside the horizon,
    # so all three metrics are grid-converged rather than gain-sensitive
    coarse = burst(make_grid(toy, nz=44, t_end=3.0))
    fine = burst(make_grid(toy, nz=88, t_end=3.0))
    halving_ok = all(
        f == pytest.approx(c, rel=0.01) for c, f in zip(coarse, fine))

    # noise stream is standard normal (Monte Carlo moments, ~400k draws)
    draws = np.concatenate([
        noise_normals(noise, istep=i, n_nodes=200).ravel()
        for i in range(500)])
    mc_ok = (abs(float(draws.mean())) < 0.01
             and float(draws.var()) == pytest.approx(1.0, rel=0.01))

    # discrete Parseval identity of the spectral estimator
    _, s = spectrum(rec.omega_out[0], grid.dt)
    d_omega = 2.0 * math.pi / (grid.dt * len(s))
    lhs = float(np.sum(s)) * d_omega / (2.0 * math.pi)
    rhs = grid.dt * float(np.sum(np.abs(rec.omega_out[0]) ** 2))
    parseval_ok = lhs == pytest.approx(rhs, rel=1e-3)

    # bitwise reproducibility of a seeded realization
    rec2 = run(toy, grid, noise)
    bitwise_ok = (np.array_equal(rec.omega_out[0], rec2.omega_out[0])
                  and np.array_equal(rec.omega_out[1], rec2.omega_out[1]))

    # worker-count independence of ensemble statistics
    spec = EnsembleSpec(scenario=toy, grid=grid, n_realizations=4,
                        master_seed=99)
    averages = []
    for workers in (1, 2):
        with closing(realization_outcomes([spec], workers)) as outcomes:
            averages.append(run_ensemble(spec, outcomes)[0].avg_intensity)
    workers_ok = np.array_equal(*averages)

    checks = [
        ("trace<=1e-6", trace_ok),
        ("step_halving_1%", halving_ok),
        ("noise_moments_1%", mc_ok),
        ("parseval_0.1%", parseval_ok),
        ("bitwise_seed", bitwise_ok),
        ("workers_independent", workers_ok),
    ]
    ok, detail = _all(checks)
    _report(8, ok, detail)
    assert ok, detail
