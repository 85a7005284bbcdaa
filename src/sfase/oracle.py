"""Closed-form and semi-analytic results used as independent solver checks.

Everything here is valid in the weak-field pumping regime (|Omega| << Gamma
< sigma*J_p) where the pump dynamics decouple from the emitted fields, plus
the linearized swept-gain estimate for the forward ASE exponent.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import C_MM_PER_PS, EPS0_SI, HBAR_SI, Scenario, depletion_scale

LN2 = math.log(2.0)
QUAD_TOL = 1.0e-8            # absolute tolerance of rho22_quadrature
MAX_INVERSION_POINTS = 400   # window times max_inversion evaluates
FORWARD_WEIGHT = 0.5         # forward weighting P of the gain exponent


class OracleError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


class ValidityWarning(UserWarning):
    """An analytic result is being evaluated outside its stated regime."""


@functools.cache
def _scipy_quad():
    from scipy.integrate import quad as scipy_quad
    return scipy_quad


def quad(func, a, b, *, points, epsabs, epsrel, limit):
    """scipy.integrate.quad with the options this module sets, imported on
    the first call.

    scipy.integrate (with scipy.linalg and scipy.special) takes about 0.3 s
    to import, and the solver and ensemble path never integrates.  Every
    quadrature in this module calls this name, so a tracer or a test can
    count or replace the calls.  The options are
    named rather than passed as **kwargs, which would cost about 1 us a
    call, 5% of a pump-study point.
    """
    return _scipy_quad()(func, a, b, points=points, epsabs=epsabs,
                         epsrel=epsrel, limit=limit)


def _pump_peak(scen: Scenario) -> float:
    p, m = scen.pump, scen.medium
    return p.n_p / (math.pi**1.5 * m.r**2 * p.tau_p)


def jp_analytic(t, z, scen: Scenario):
    """Attenuation-free propagated pump flux (valid while rho00 ~ 1)."""
    nsl = scen.medium.n * scen.medium.sigma * scen.medium.L
    if nsl > 0.05:
        warnings.warn(f"n*sigma*L = {nsl:.3g} > 0.05: pump depletion is not "
                      f"negligible", ValidityWarning, stacklevel=2)
    t = np.asarray(t, dtype=float)
    arg = (t - scen.pump.tau_i - z / C_MM_PER_PS) / scen.pump.tau_p
    return _pump_peak(scen) * np.exp(-scen.medium.n * scen.medium.sigma * z
                                     - arg**2)


def rho00_analytic(t, z, scen: Scenario):
    """Ground-state population under the attenuation-free pump (erf form)."""
    from scipy.special import erf

    t = np.asarray(t, dtype=float)
    arg = (t - scen.pump.tau_i - z / C_MM_PER_PS) / scen.pump.tau_p
    return np.exp(-depletion_scale(scen) * (1.0 + erf(arg)))


def rho22_quadrature(t, scen: Scenario):
    """Excited-state population at z=0 from the exact linear-ODE integral.

    rho22(t) = integral_0^t sigma*J_p(s)*rho00(s) * exp(-Gamma(t-s)) ds, and
    rho22 = 0 for t <= 0.  The times are visited in ascending order and each
    step adds one adaptive quadrature over the interval since the previous
    time t' to the decayed previous value (exact for the linear ODE):

        rho22(t) = rho22(t') exp(-Gamma(t-t'))
                   + integral_t'^t sigma*J_p*rho00 * exp(-Gamma(t-s)) ds.

    The quadrature error estimates accumulate through the same recurrence;
    OracleError is raised once the accumulated estimate exceeds 10*QUAD_TOL.
    The exponent is assembled inside the integrand so it stays bounded even
    when the depletion scale is large.  Accepts a scalar (returns a float) or an
    array of times in any order (returns an array of the same shape).
    """
    gamma = scen.transition.gamma
    tau_p, tau_i = scen.pump.tau_p, scen.pump.tau_i
    q = depletion_scale(scen)
    amp = scen.medium.sigma * _pump_peak(scen)
    epsabs = QUAD_TOL / max(amp, 1.0)
    # integrand is a single pulse centered near tau_i; pass it as a point
    breaks = (tau_i - 3 * tau_p, tau_i, tau_i + 3 * tau_p)

    def interval(t0: float, t1: float) -> tuple[float, float]:
        # plain-float math (scipy's erf would make numpy scalars): quad
        # calls this about 21 times per interval.  gamma*(s - t1) and
        # q*(1 + erf) stay factored; expanding either loses digits to
        # cancellation when q is large
        def integrand(s):
            x = (s - tau_i) / tau_p
            return math.exp(gamma * (s - t1) - q * (1.0 + math.erf(x)) - x * x)

        pts = [p for p in breaks if t0 < p < t1]
        return quad(integrand, t0, t1, points=pts or None,
                    epsabs=epsabs, epsrel=1.0e-10, limit=200)

    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    values = flat.tolist()      # plain floats and int indices: cheaper per time
    out = np.zeros_like(flat)
    prev_t = r22 = err = 0.0
    for k in np.argsort(flat, kind="stable").tolist():
        ti = values[k]
        if ti <= 0.0:
            continue
        val, val_err = interval(prev_t, ti)
        decay = math.exp(-gamma * (ti - prev_t))
        r22 = r22 * decay + amp * val
        err = err * decay + amp * val_err
        if err > 10.0 * QUAD_TOL:
            raise OracleError(
                f"rho22 quadrature at t={ti:g} ps: estimated error "
                f"{err:.3g} exceeds tolerance {QUAD_TOL:g}")
        out[k] = r22
        prev_t = ti
    if np.isscalar(t):
        return float(out[0])
    return out.reshape(times.shape)


def inversion_quadrature(t, scen: Scenario):
    """I(t, 0) = rho22 - rho11 with rho22 from quadrature and trace closure."""
    r22 = rho22_quadrature(t, scen)
    r00 = rho00_analytic(t, 0.0, scen)
    return 2.0 * r22 + r00 - 1.0


def max_inversion(scen: Scenario) -> float:
    """Peak of I(t, 0) from the analytic quadrature, on a pump-resolved grid."""
    t_hi = scen.pump.tau_i + 6.0 * scen.pump.tau_p + 3.0 * scen.transition.tau2
    t_lo = max(scen.pump.tau_i - 4.0 * scen.pump.tau_p, 0.0)
    ts = np.linspace(t_lo, t_hi, MAX_INVERSION_POINTS)
    return float(np.max(inversion_quadrature(ts, scen)))


def u_factor(scen: Scenario) -> float:
    """Leading-edge shift factor: the pump consumes rho00 fastest at
    t = tau_i - u*tau_p (inflection of the depletion exponential)."""
    x = scen.pump.n_p * scen.medium.sigma
    a = math.e * math.pi**1.5 * scen.medium.r**2
    return 2.0 + (a / x) * (1.0 - math.sqrt(1.0 + 4.0 * x / a))


def inversion_closed_form(t, z, scen: Scenario, heaviside: bool = False):
    """Approximate inversion I(t,z) for tau_p < tau2.

    Default: (1 - rho00) * (2 exp(-Gamma(t - tau_i - z/c + u tau_p)) - 1).
    With heaviside=True the depletion factor is replaced by a unit step at
    the onset (the form used for the gain-factor estimate).
    """
    if scen.pump.tau_p >= scen.transition.tau2:
        warnings.warn(
            f"tau_p = {scen.pump.tau_p:g} ps >= tau2 = {scen.transition.tau2:g} "
            f"ps: closed-form inversion is outside its validity regime",
            ValidityWarning, stacklevel=2)
    t = np.asarray(t, dtype=float)
    gamma = scen.transition.gamma
    shift = t - scen.pump.tau_i - z / C_MM_PER_PS + u_factor(scen) * scen.pump.tau_p
    osc = 2.0 * np.exp(-gamma * shift) - 1.0
    if heaviside:
        return osc * (shift > 0.0)
    return (1.0 - rho00_analytic(t, z, scen)) * osc


def gain_window(scen: Scenario, z: float = 0.0) -> tuple[float, float]:
    """Zero crossings of the closed-form inversion: onset and end of gain."""
    u = u_factor(scen)
    onset = scen.pump.tau_i + z / C_MM_PER_PS - u * scen.pump.tau_p
    return onset, onset + scen.transition.tau2 * LN2


@dataclass(frozen=True)
class GainEstimate:
    two_xi: float         # gain factor at the requested group velocity
    two_xi_limit: float   # v -> c upper bound
    v_min: float          # slowest group velocity still inside the gain window
    v_max: float          # = c


def _two_xi_of_v(v: float, l_gamma: float, utg: float) -> float:
    """Gain factor 2*xi; x = (1/c - 1/v)*L*Gamma stays finite as v -> c."""
    c = C_MM_PER_PS
    x = (1.0 / c - 1.0 / v) * l_gamma
    phase = math.expm1(x) / x if x != 0.0 else 1.0
    return (FORWARD_WEIGHT / 4.0) * (
        l_gamma / v - l_gamma / c + 2.0 * utg - 2.0 - math.log(4.0)
        + 4.0 * math.exp(-utg) * phase)


def gain_estimate(scen: Scenario, v: float | None = None) -> GainEstimate:
    """Swept-gain ASE exponent 2*xi(v), its v->c bound, and the valid v range."""
    c = C_MM_PER_PS
    gamma = scen.transition.gamma
    l_gamma = scen.medium.L * gamma
    utg = u_factor(scen) * scen.pump.tau_p * gamma
    # v_min = c L Gamma / (L Gamma + c ln2 - c Gamma u tau_p)
    v_min = c * l_gamma / (l_gamma + c * (LN2 - utg))
    if v is None:
        v = c
    if not 0.0 < v <= c:
        raise ValueError(f"group velocity v = {v:g} must be in (0, c]")
    if v < v_min:
        warnings.warn(
            f"v = {v:g} mm/ps is below the gain-window bound {v_min:g} mm/ps: "
            f"emission at this velocity is reabsorbed", ValidityWarning,
            stacklevel=2)
    two_xi = _two_xi_of_v(v, l_gamma, utg)
    limit = _two_xi_of_v(c, l_gamma, utg)
    return GainEstimate(two_xi=two_xi, two_xi_limit=limit,
                        v_min=v_min, v_max=c)


def sf_delay(alpha, scale: float = 1.0):
    """Superfluorescence delay law: scale * alpha^-1 * (ln(2 pi alpha)/2)^2."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 1.0 / (2.0 * math.pi)):
        raise ValueError("sf_delay requires alpha > 1/(2 pi)")
    return scale / alpha * (0.5 * np.log(2.0 * math.pi * alpha)) ** 2


def pi_half_photons(r: float, lam: float) -> float:
    """Photon count of a pi/2 Gaussian pulse of duration tau2*ln2:
    pi^(7/2) r^2 / (6 sqrt(2) lambda^2 ln2).  r and lambda in the same unit."""
    if r <= 0 or lam <= 0:
        raise ValueError("r and lambda must be strictly positive")
    return math.pi**3.5 * r**2 / (6.0 * math.sqrt(2.0) * lam**2 * LN2)


def photons_from_envelope(omega_series, dt: float, r: float, d: float,
                          omega: float):
    """Convert a Rabi-envelope record to an emitted photon number.

    n_e = c eps0 pi r^2 hbar * integral |Omega|^2 dt / (2 d^2 omega), with
    internal units (Omega rad/ps, dt ps, r mm, omega rad/ps) converted to SI.
    The integral runs over the last (time) axis: a float for one series,
    one value per row for stacked series.
    """
    series = np.asarray(omega_series)
    intg = np.sum(np.abs(series) ** 2, axis=-1) * dt   # rad^2/ps
    intg_si = intg * 1.0e12                            # rad^2/s
    r_si = r * 1.0e-3
    omega_si = omega * 1.0e12
    c_si = C_MM_PER_PS * 1.0e9
    photons = (c_si * EPS0_SI * math.pi * r_si**2 * HBAR_SI
               * intg_si / (2.0 * d**2 * omega_si))
    return float(photons) if photons.ndim == 0 else photons
