"""Checks of sfase artifacts against computations the benchmark makes itself.

Every check returns a list of problems (empty when the artifact is right).
The reference values come from identities the method must satisfy
(discrete Parseval, the photon-number calibration, trace conservation),
from the paper's physics (swept-gain asymmetry, the length-induced
backward transition, the pump-duration trend), or from independent
numerics (a rate-equation ODE integration and scipy's curve_fit).  No
check compares against a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import curve_fit

# SI constants (CODATA 2018), written here so the photon check does not
# borrow the program's own values
C_SI = 299792458.0
EPS0_SI = 8.8541878128e-12
HBAR_SI = 1.054571817e-34

PARSEVAL_RTOL = 1.0e-9
PHOTON_RTOL = 1.0e-9
TRACE_MAX = 1.0e-6
FIT_RTOL = 1.0e-6
HALF_PI = math.pi / 2.0
# a threshold probability is tested against the realizations behind it: it
# fails only when the counts are this unlikely under the stated bound
BINOMIAL_ALPHA = 1.0e-3
# the oracle promises rho22 to 1e-8 absolute; the inversion 2*rho22 + rho00 - 1
# carries twice that
INVERSION_ATOL = 2.0e-8
INVERSION_WINDOW_POINTS = 400


def read_columns(path: str | Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _floats(values: list[str]) -> np.ndarray:
    return np.array([float(v) for v in values])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0e-300)


def photons_per_intensity_integral(scen_raw: dict) -> float:
    """n / integral |Omega|^2 dt for Omega in rad/ps and t in ps.

    n = c eps0 pi r^2 hbar * integral |Omega|^2 dt / (2 d^2 omega), in SI.
    """
    r = scen_raw["r_um"] * 1.0e-6
    d = scen_raw["d_coulomb_m"]
    omega = scen_raw["omega_rad_thz"] * 1.0e12
    return C_SI * EPS0_SI * math.pi * r**2 * HBAR_SI * 1.0e12 / (2.0 * d**2 * omega)


def check_ensemble_dir(out_dir: str | Path, scen_raw: dict
                       ) -> tuple[list[str], dict]:
    """Parseval, photon number and trace checks on one ensemble's artifacts.

    Returns the problems and the summary.json contents, with the number of
    realizations whose pulse area reaches pi/2 added as summary["above"]
    (per direction) after checking it against the threshold probabilities.
    """
    out = Path(out_dir)
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    inten = read_columns(out / "avg_intensity.csv")
    spec = read_columns(out / "avg_spectrum.csv")
    real = read_columns(out / "realizations.csv")
    t = _floats(inten["t_ps"])
    dt = float(t[1] - t[0])
    w = _floats(spec["detuning_rad_per_ps"])
    dw = (w[-1] - w[0]) / (len(w) - 1)
    per_photon = photons_per_intensity_integral(scen_raw)
    for tag in ("fwd", "bwd"):
        energy = dt * float(np.sum(_floats(inten[f"avg_intensity_{tag}"])))
        spectral = float(np.sum(_floats(spec[f"avg_spectrum_{tag}"]))) * dw / (2.0 * math.pi)
        if not _rel(spectral, energy) <= PARSEVAL_RTOL:
            problems.append(f"{out.name}: Parseval {tag}: spectrum integral "
                            f"{spectral!r} vs dt*sum intensity {energy!r}")
        photons = float(np.mean(_floats(real[f"photons_{tag}"])))
        expected = per_photon * energy
        if not _rel(photons, expected) <= PHOTON_RTOL:
            problems.append(f"{out.name}: mean photons_{tag} {photons!r} vs "
                            f"calibrated {expected!r}")
    if not summary["max_trace_error"] <= TRACE_MAX:
        problems.append(f"{out.name}: max_trace_error "
                        f"{summary['max_trace_error']!r} > {TRACE_MAX}")
    n = len(real["index"])
    if summary["n_realizations"] != n:
        problems.append(f"{out.name}: summary counts {summary['n_realizations']} "
                        f"realizations, realizations.csv {n}")
    summary["above"] = {}
    for tag, key in (("fwd", "forward"), ("bwd", "backward")):
        above = int(np.count_nonzero(_floats(real[f"area_{tag}"]) >= HALF_PI))
        summary["above"][key] = above
        if summary[key]["threshold_probability"] != above / n:
            problems.append(f"{out.name}: {key} threshold probability "
                            f"{summary[key]['threshold_probability']!r} vs "
                            f"{above}/{n} pulse areas >= pi/2")
    return problems, summary


def _binomial_cdf(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def check_probability_at_least(above: int, n: int, p: float, what: str
                               ) -> list[str]:
    """P(area >= pi/2) >= p, unless `above` of `n` is too few to allow it."""
    if _binomial_cdf(above, n, p) < BINOMIAL_ALPHA:
        return [f"{what}: {above}/{n} above threshold rules out P >= {p}"]
    return []


def check_probability_at_most(above: int, n: int, p: float, what: str
                              ) -> list[str]:
    """P(area >= pi/2) <= p, unless `above` of `n` is too many to allow it."""
    if _binomial_cdf(n - above, n, 1.0 - p) < BINOMIAL_ALPHA:
        return [f"{what}: {above}/{n} above threshold rules out P <= {p}"]
    return []


def check_peak_asymmetry(fwd_mean: float, bwd_mean: float) -> list[str]:
    """The long swept-gain medium emits forward: the forward mean peak
    intensity exceeds the backward one by more than 10^3."""
    if not fwd_mean > 1.0e3 * bwd_mean:
        return [f"forward/backward mean peak ratio {fwd_mean / bwd_mean:.4g} <= 1e3"]
    return []


def check_length_transition(bwd_means: list[float]) -> list[str]:
    """Fixed alpha, increasing L: the backward mean peak intensity strictly falls."""
    if not all(b < a for a, b in zip(bwd_means, bwd_means[1:])):
        return [f"backward mean peak not strictly decreasing in L: {bwd_means}"]
    return []


def inversion_window(tau_i: float, tau_p: float, tau2: float,
                     n_t: int = INVERSION_WINDOW_POINTS) -> np.ndarray:
    """Pump-resolved window [max(tau_i - 4 tau_p, 0), tau_i + 6 tau_p + 3 tau2]."""
    t_hi = tau_i + 6.0 * tau_p + 3.0 * tau2
    t_lo = max(tau_i - 4.0 * tau_p, 0.0)
    return np.linspace(t_lo, t_hi, n_t)


def rate_equation_inversion(ts: np.ndarray, *, n_p: float, tau_p: float,
                            tau_i: float, sigma: float, r: float,
                            gamma: float) -> np.ndarray:
    """I(t, 0) = rho22 - rho11 from the z=0 rate equations.

    d rho00/dt = -sigma J rho00, d rho22/dt = sigma J rho00 - Gamma rho22,
    rho11 = 1 - rho00 - rho22, with the untruncated Gaussian pump
    J(t) = n_p / (pi^1.5 r^2 tau_p) exp(-((t - tau_i)/tau_p)^2).  The
    integration starts 12 tau_p before the pump peak, where J/J_peak is
    e^-144, and carries u = ln rho00 so the depletion stays non-stiff.
    Units: ps, mm, mm^2.
    """
    rate_peak = sigma * n_p / (math.pi**1.5 * r**2 * tau_p)

    def rhs(t, y):
        x = (t - tau_i) / tau_p
        rate = rate_peak * math.exp(-x * x)
        # Runge-Kutta stages may overshoot above u = 0; rho00 <= 1 always
        return [-rate, rate * math.exp(min(y[0], 0.0)) - gamma * y[1]]

    sol = solve_ivp(rhs, (tau_i - 12.0 * tau_p, float(ts[-1])), [0.0, 0.0],
                    method="DOP853", t_eval=ts, rtol=1.0e-12, atol=1.0e-14)
    if not sol.success:
        raise RuntimeError(f"rate-equation integration failed: {sol.message}")
    rho00 = np.exp(sol.y[0])
    rho22 = sol.y[1]
    return rho22 - (1.0 - rho00 - rho22)


def pump_point(scen_raw: dict, tp_fs: float, q: float) -> dict:
    """The sweep's (T_p, Q) point: fixed peak flux per Q, so n_p = Q T_p[fs] 1e12."""
    return {"n_p": q * tp_fs * 1.0e12, "tau_p": tp_fs * 1.0e-3,
            "tau_i": scen_raw["tau_i_ps"], "sigma": scen_raw["sigma_m2"] * 1.0e6,
            "r": scen_raw["r_um"] * 1.0e-3, "gamma": 1.0 / scen_raw["tau2_ps"]}


def pump_reference(scen_raw: dict, tp_grid: list[float], q_grid: list[float]
                   ) -> dict[float, np.ndarray]:
    """Rate-equation max inversion on the sweep's windows, per Q column."""
    tau2 = scen_raw["tau2_ps"]
    out = {}
    for q in q_grid:
        col = []
        for tp in tp_grid:
            pt = pump_point(scen_raw, tp, q)
            ts = inversion_window(pt["tau_i"], pt["tau_p"], tau2)
            col.append(float(np.max(rate_equation_inversion(ts, **pt))))
        out[q] = np.array(col)
    return out


def window_times_after_zero(scen_raw: dict, tp_grid: list[float],
                            q_grid: list[float]) -> int:
    """Quadratures the sweep needs: one per window time t > 0 per point."""
    tau2 = scen_raw["tau2_ps"]
    per_q = sum(int(np.count_nonzero(inversion_window(
        scen_raw["tau_i_ps"], tp * 1.0e-3, tau2) > 0.0)) for tp in tp_grid)
    return per_q * len(q_grid)


def check_pump_column(values: np.ndarray) -> list[str]:
    if not np.all(np.diff(values) < 0.0):
        return [f"max inversion not strictly decreasing in T_p: {list(values)}"]
    return []


def decay_fit(tp: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares A exp(-delta T_p) by scipy's MINPACK LM, started from the
    log-linear fit of the positive values."""
    pos = values > 0.0
    slope, icpt = np.polyfit(tp[pos], np.log(values[pos]), 1)
    coef, _ = curve_fit(lambda x, a, d: a * np.exp(-d * x), tp, values,
                        p0=[math.exp(icpt), -slope], method="lm",
                        ftol=1.0e-15, xtol=1.0e-15, gtol=1.0e-15, maxfev=10000)
    return coef


def check_fit(fit_json: str | Path, tp: np.ndarray, values: np.ndarray
              ) -> list[str]:
    coeffs = json.loads(Path(fit_json).read_text())["coefficients"]
    ref = decay_fit(tp, values)
    problems = []
    for name, got, want in zip(("A", "delta"), coeffs, ref):
        if not _rel(got, want) <= FIT_RTOL:
            problems.append(f"{Path(fit_json).parent.name}: {name} = {got!r}, "
                            f"curve_fit gives {want!r}")
    if not coeffs[1] > 0.0:
        problems.append(f"{Path(fit_json).parent.name}: delta = {coeffs[1]!r} <= 0")
    return problems


def pump_failures(values: np.ndarray, reference: np.ndarray) -> int:
    """Points whose max inversion misses the rate-equation value."""
    return int(np.count_nonzero(np.abs(values - reference) > INVERSION_ATOL))
