"""Tests of the analytic/quadrature reference results (pump, inversion, gain)."""
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import erf

from sfase import oracle
from sfase.oracle import (
    ValidityWarning,
    gain_estimate,
    gain_window,
    inversion_closed_form,
    inversion_quadrature,
    jp_analytic,
    pi_half_photons,
    photons_from_envelope,
    rho00_analytic,
    rho22_quadrature,
    sf_delay,
    u_factor,
)
from sfase.params import C_MM_PER_PS

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# pump flux and ground-state depletion
# ---------------------------------------------------------------------------

def test_pump_peak_flux_si(fig4):
    # unit-amplitude pump family: n_p = T_p x 10^12 photons, tau_p = T_p fs,
    # r = 2 um gives a fixed peak flux of 4.49e37 photons/(s m^2)
    peak_internal = float(np.max(jp_analytic(
        np.linspace(0.0, 0.6, 2001), 0.0, fig4)))
    peak_si = peak_internal * 1.0e18      # 1/(ps mm^2) -> 1/(s m^2)
    assert peak_si == pytest.approx(4.5e37, rel=0.01)


def test_jp_attenuation_along_z(fig3a):
    t = fig3a.pump.tau_i + np.array([0.0])
    j0 = jp_analytic(t, 0.0, fig3a)[0]
    z = fig3a.medium.L
    jL = jp_analytic(t + z / C_MM_PER_PS, z, fig3a)[0]
    nsl = fig3a.medium.n * fig3a.medium.sigma * z
    assert jL / j0 == pytest.approx(math.exp(-nsl), rel=1.0e-12)


def test_jp_warns_when_depletion_large(fig3a):
    thick = fig3a.replace(n=1.0e17)
    with pytest.warns(ValidityWarning):
        jp_analytic(0.3, 0.0, thick)


def test_rho00_limits(fig3a):
    assert rho00_analytic(0.0, 0.0, fig3a) == pytest.approx(1.0, abs=1e-6)
    q = fig3a.pump.n_p * fig3a.medium.sigma / (2.0 * math.pi * fig3a.medium.r**2)
    assert rho00_analytic(10.0, 0.0, fig3a) == pytest.approx(
        math.exp(-2.0 * q), rel=1e-9)


def test_rho00_monotone_decreasing(fig3a):
    t = np.linspace(0.0, 2.0, 400)
    r00 = rho00_analytic(t, 0.0, fig3a)
    assert np.all(np.diff(r00) <= 0.0)


# ---------------------------------------------------------------------------
# excited population: quadrature vs an independent stiff ODE solve
# ---------------------------------------------------------------------------

def test_rho22_quadrature_matches_ode(toy):
    sigma = toy.medium.sigma
    gamma = toy.transition.gamma

    def rhs(t, y):
        jp = float(jp_analytic(t, 0.0, toy))
        r00, r22 = y
        return [-sigma * jp * r00, sigma * jp * r00 - gamma * r22]

    # same convention as the integral form: the ground state follows the
    # untruncated-Gaussian erf solution, the excited state starts empty at t=0
    y0 = [float(rho00_analytic(0.0, 0.0, toy)), 0.0]
    sol = solve_ivp(rhs, (0.0, 4.0), y0, method="Radau",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    t = np.linspace(0.1, 4.0, 25)
    r22_ode = sol.sol(t)[1]
    r22_quad = rho22_quadrature(t, toy)
    assert np.max(np.abs(r22_quad - r22_ode)) < 1.0e-6


def _rho22_direct(t, scen):
    """One adaptive quadrature from 0 to t (the recurrence's reference)."""
    gamma, tau_p, tau_i = scen.transition.gamma, scen.pump.tau_p, scen.pump.tau_i
    sigma, r = scen.medium.sigma, scen.medium.r
    peak = scen.pump.n_p / (math.pi**1.5 * r**2 * tau_p)
    q = scen.pump.n_p * sigma / (2.0 * math.pi * r**2)

    def integrand(s):
        x = (s - tau_i) / tau_p
        return (sigma * peak * math.exp(-x * x) * math.exp(-q * (1.0 + erf(x)))
                * math.exp(-gamma * (t - s)))

    pts = [p for p in (tau_i - 3 * tau_p, tau_i, tau_i + 3 * tau_p) if 0 < p < t]
    val, _ = quad(integrand, 0.0, t, points=pts or None, epsabs=1e-13,
                  epsrel=1e-12, limit=500)
    return val


def _fig4_q256_90fs(fig4):
    return fig4.replace(tau_p=0.09, n_p=256.0 * 90.0e12)


@pytest.mark.parametrize("name, times", [
    ("toy", [0.1, 0.9, 1.5, 2.2, 4.0]),
    ("fig4", [0.01, 0.02, 0.035, 0.05, 0.1, 0.3]),
])
def test_rho22_recurrence_matches_direct_quadrature(name, times, toy, fig4):
    scen = toy if name == "toy" else _fig4_q256_90fs(fig4)
    got = rho22_quadrature(np.array(times), scen)
    want = [_rho22_direct(t, scen) for t in times]
    assert np.max(np.abs(got - want)) < 1.0e-10


def test_rho22_order_independent(fig4):
    scen = _fig4_q256_90fs(fig4)
    t = np.linspace(0.0, 1.0, 40)
    perm = np.random.default_rng(7).permutation(t.size)
    np.testing.assert_array_equal(rho22_quadrature(t[perm], scen),
                                  rho22_quadrature(t, scen)[perm])


def test_rho22_scalar_returns_float(toy):
    assert type(rho22_quadrature(1.0, toy)) is float
    assert rho22_quadrature(1.0, toy) == rho22_quadrature(np.array([1.0]), toy)[0]


def test_rho22_zero_before_start(toy):
    assert rho22_quadrature(0.0, toy) == 0.0
    assert rho22_quadrature(-1.0, toy) == 0.0
    vals = rho22_quadrature(np.array([-1.0, 0.0, 1.0]), toy)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] > 0.0


def test_rho22_one_quad_per_positive_time(fig4, monkeypatch):
    # the benchmark's traced check counts exactly these calls
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return quad(*args, **kwargs)

    monkeypatch.setattr(oracle, "quad", counted)
    t = np.linspace(-0.1, 1.0, 57)
    rho22_quadrature(t, _fig4_q256_90fs(fig4))
    assert calls == np.count_nonzero(t > 0.0)


def _rate_equation_max_inversion(scen, n_t=400):
    """Peak of I(t, 0) from DOP853 on the z=0 rate equations, on the window
    max_inversion uses.  The integration starts 12 tau_p before the pump
    peak and carries u = ln rho00, which keeps the depletion non-stiff."""
    tau_p, tau_i = scen.pump.tau_p, scen.pump.tau_i
    gamma = scen.transition.gamma
    rate_peak = scen.medium.sigma * float(jp_analytic(tau_i, 0.0, scen))
    ts = np.linspace(max(tau_i - 4.0 * tau_p, 0.0),
                     tau_i + 6.0 * tau_p + 3.0 * scen.transition.tau2, n_t)

    def rhs(t, y):
        x = (t - tau_i) / tau_p
        rate = rate_peak * math.exp(-x * x)
        # Runge-Kutta stages may overshoot above u = 0; rho00 <= 1 always
        return [-rate, rate * math.exp(min(y[0], 0.0)) - gamma * y[1]]

    sol = solve_ivp(rhs, (tau_i - 12.0 * tau_p, ts[-1]), [0.0, 0.0],
                    method="DOP853", t_eval=ts, rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    rho00, rho22 = np.exp(sol.y[0]), sol.y[1]
    return float(np.max(2.0 * rho22 + rho00 - 1.0))


@pytest.mark.parametrize("q", [1.0, 256.0])
@pytest.mark.parametrize("tp_fs", [15.0, 40.0, 65.0])
def test_max_inversion_matches_rate_equations(fig4, tp_fs, q):
    # the sweep_Tp point: fixed peak flux per Q, n_p = Q T_p[fs] 1e12
    scen = fig4.replace(tau_p=tp_fs * 1.0e-3, n_p=q * tp_fs * 1.0e12)
    assert abs(oracle.max_inversion(scen)
               - _rate_equation_max_inversion(scen)) < 2.0e-8


def test_inversion_quadrature_bounds(fig3a):
    t = np.linspace(0.0, 3.0, 40)
    inv = inversion_quadrature(t, fig3a)
    assert np.all(inv <= 1.0 + 1e-12)
    assert np.all(inv >= -1.0 - 1e-12)
    assert inv.max() > 0.5          # strong pump produces real inversion


# ---------------------------------------------------------------------------
# closed-form inversion and gain window
# ---------------------------------------------------------------------------

def test_u_factor_reference(fig3a):
    assert u_factor(fig3a) == pytest.approx(1.5649, abs=2e-4)


def test_u_factor_monotone_in_pump_strength(fig3a):
    n_ps = np.logspace(11, 14, 12)
    us = [u_factor(fig3a.replace(n_p=v)) for v in n_ps]
    assert np.all(np.diff(us) > 0)


def test_closed_form_matches_quadrature_peak(fig3a):
    t = np.linspace(0.2, 1.2, 120)
    approx = inversion_closed_form(t, 0.0, fig3a)
    exact = inversion_quadrature(t, fig3a)
    assert np.max(np.abs(approx - exact)) < 0.08
    assert abs(float(approx.max()) - float(exact.max())) < 0.02


def test_closed_form_warns_for_slow_pump(toy):
    with pytest.warns(ValidityWarning):
        inversion_closed_form(1.0, 0.0, toy)   # tau_p = 0.5 ps >= tau2


def test_heaviside_form_zero_before_onset(fig3a):
    onset, _ = gain_window(fig3a)
    vals = inversion_closed_form(
        np.array([onset - 0.05, onset + 1e-6]), 0.0, fig3a, heaviside=True)
    assert vals[0] == 0.0
    assert vals[1] > 0.0


def test_gain_window_duration_is_tau2_ln2(fig3a, fig3b):
    for scen in (fig3a, fig3b):
        onset, end = gain_window(scen)
        assert end - onset == pytest.approx(scen.transition.tau2 * LN2)


def test_gain_window_shifts_with_z(fig3a):
    on0, _ = gain_window(fig3a, z=0.0)
    onL, _ = gain_window(fig3a, z=fig3a.medium.L)
    assert onL - on0 == pytest.approx(fig3a.medium.L / C_MM_PER_PS)


# ---------------------------------------------------------------------------
# swept-gain exponent
# ---------------------------------------------------------------------------

def test_gain_exponent_limits(fig5, fig6):
    assert gain_estimate(fig5).two_xi_limit == pytest.approx(0.055, abs=1e-3)
    assert gain_estimate(fig6).two_xi_limit == pytest.approx(0.076, abs=1e-3)


def test_gain_exponent_monotone_in_velocity(fig5):
    est = gain_estimate(fig5)
    vs = np.linspace(est.v_min, est.v_max, 30)
    vals = [gain_estimate(fig5, v=v).two_xi for v in vs]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] == pytest.approx(est.two_xi_limit, rel=1e-12)


def test_gain_exponent_warns_below_vmin(fig5):
    est = gain_estimate(fig5)
    with pytest.warns(ValidityWarning):
        gain_estimate(fig5, v=0.9 * est.v_min)


def test_gain_exponent_short_pump_limit(fig5):
    # u tau_p Gamma -> 0 collapses the exponent to P (2 - ln4) / 4
    short = fig5.replace(tau_p=1.0e-6, n_p=1.0e6, tau_i=0.24)
    est = gain_estimate(short)
    assert est.two_xi_limit == pytest.approx(0.5 * (2 - math.log(4)) / 4, rel=1e-3)


def test_gain_estimate_rejects_bad_inputs(fig5):
    with pytest.raises(ValueError):
        gain_estimate(fig5, v=-1.0)


# ---------------------------------------------------------------------------
# delay law and photon conversions
# ---------------------------------------------------------------------------

def test_sf_delay_monotone_and_vanishing():
    alphas = np.logspace(1, 6, 50)    # all above e^2/(2 pi)
    d = sf_delay(alphas)
    assert np.all(np.diff(d) < 0)
    assert sf_delay(1e12) < 1e-9
    half = sf_delay(100.0, scale=0.5)
    assert half == pytest.approx(0.5 * float(sf_delay(100.0)), rel=1e-12)


def test_sf_delay_domain():
    with pytest.raises(ValueError):
        sf_delay(0.1)


def test_pi_half_photons_reference():
    assert pi_half_photons(0.002, 1.46e-6) == pytest.approx(1.75e7, rel=0.01)


def test_pi_half_photons_scales_with_area():
    base = pi_half_photons(0.002, 1.46e-6)
    assert pi_half_photons(0.004, 1.46e-6) == pytest.approx(4 * base, rel=1e-12)
    with pytest.raises(ValueError):
        pi_half_photons(0.0, 1.0)


def test_photons_from_envelope_quadratic_in_field(fig5):
    t = np.linspace(0, 4, 2001)
    dt = t[1] - t[0]
    omega = np.exp(-((t - 2.0) ** 2)) * (1.0 + 0.3j)
    tr = fig5.transition
    n1 = photons_from_envelope(omega, dt, fig5.medium.r, tr.d, tr.omega)
    n2 = photons_from_envelope(2.0 * omega, dt, fig5.medium.r, tr.d, tr.omega)
    assert n2 == pytest.approx(4.0 * n1, rel=1e-12)
    assert n1 > 0


def test_photons_pi_half_consistency(fig5):
    # a pi/2-area Gaussian with 1/e half-width tau2*ln2 carries the same
    # photon count as the closed-form estimate (same pulse model)
    tr = fig5.transition
    tau_g = tr.tau2 * LN2
    t = np.linspace(-4.0, 4.0, 40001)
    dt = t[1] - t[0]
    amp = 0.5 * math.pi / (tau_g * math.sqrt(math.pi))   # area = pi/2
    omega = amp * np.exp(-(t / tau_g) ** 2)
    n_sim = photons_from_envelope(omega, dt, fig5.medium.r, tr.d, tr.omega)
    n_formula = pi_half_photons(fig5.medium.r, tr.lam)
    assert n_sim == pytest.approx(n_formula, rel=0.02)
