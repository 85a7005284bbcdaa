"""Tests of the Levenberg-Marquardt fitter and the regime classifier."""
import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from sfase.fitting import FAMILIES, FitError, classify_regime, fit
from sfase.plans import max_inversion


def _eval(family, coeffs, x):
    return FAMILIES[family].func(np.asarray(coeffs, float), x)


# ---------------------------------------------------------------------------
# exact recovery, one case per family
# ---------------------------------------------------------------------------

EXACT_CASES = [
    ("exp_gain", [2.0, 0.03], np.linspace(100, 600, 12)),
    ("power2", [1.5e-3], np.linspace(1000, 3000, 8)),
    ("power", [2.0e-4, 2.2], np.linspace(1000, 3000, 8)),
    ("power_offset", [2.0e-4, 2.0, -500.0], np.linspace(1200, 3000, 10)),
    ("delay_law", [1.2, 0.05], np.linspace(500, 4000, 12)),
    ("pump_decay", [0.9, 0.08], np.linspace(10, 80, 10)),
    ("exp_linear", [0.07, 0.2, 0.15, 1e-4], np.linspace(1, 300, 20)),
]


@pytest.mark.parametrize("family,coeffs,x", EXACT_CASES,
                         ids=[c[0] for c in EXACT_CASES])
def test_exact_recovery(family, coeffs, x):
    y = _eval(family, coeffs, x)
    result = fit(family, x, y)
    assert result.converged
    np.testing.assert_allclose(result.coefficients, coeffs, rtol=1e-5)
    assert result.residual < 1e-10 * float(np.sum(y**2) + 1.0)


def test_noisy_recovery_rate():
    # 5% multiplicative noise on an exponential: at least 95 of 100 seeded
    # trials must recover the exponent within 10%
    x = np.linspace(100, 600, 15)
    true = [1.0, 0.022]
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y = _eval("exp_gain", true, x) * (1 + 0.05 * rng.standard_normal(15))
        res = fit("exp_gain", x, y, relative=True)
        if res.converged and abs(res.coefficients[1] - true[1]) < 0.1 * true[1]:
            hits += 1
    assert hits >= 95


def test_fit_no_worse_than_initial_guess():
    x = np.linspace(10, 80, 12)
    rng = np.random.default_rng(3)
    y = _eval("pump_decay", [0.9, 0.08], x) + 0.01 * rng.standard_normal(12)
    guess = FAMILIES["pump_decay"].guess(x, y)
    res = fit("pump_decay", x, y)
    assert res.converged
    assert res.residual <= float(np.sum((_eval("pump_decay", guess, x) - y) ** 2))


def test_pump_decay_matches_curve_fit(fig4):
    # the fig4 Q = 256 pump column, fitted independently by MINPACK through
    # curve_fit from the log-linear guess of its positive values; scipy's
    # default 1e-8 tolerances land about 1e-6 away, so this pins TOL
    tp = np.arange(15.0, 91.0, 5.0)
    y = np.array([max_inversion(fig4.replace(tau_p=t * 1.0e-3,
                                             n_p=256.0 * t * 1.0e12))
                  for t in tp])
    pos = y > 0.0
    slope, icpt = np.polyfit(tp[pos], np.log(y[pos]), 1)
    ref, _ = curve_fit(lambda x, a, d: a * np.exp(-d * x), tp, y,
                       p0=[math.exp(icpt), -slope], method="lm",
                       ftol=1e-15, xtol=1e-15, gtol=1e-15)
    res = fit("pump_decay", tp, y)
    assert res.converged
    np.testing.assert_allclose(res.coefficients, ref, rtol=1e-6)


def test_relative_fit_scale_invariant():
    x = np.linspace(100, 3000, 10)
    y = _eval("power", [1e-4, 2.3], x) * (1 + 0.02 * np.sin(x))
    a = fit("power", x, y, relative=True)
    b = fit("power", x, 1.0e6 * y, relative=True)
    assert a.coefficients[1] == pytest.approx(b.coefficients[1], rel=1e-8)
    assert a.residual == pytest.approx(b.residual, rel=1e-6)


def test_fit_input_validation():
    x = np.linspace(0, 1, 5)
    with pytest.raises(FitError):
        fit("exp_gain", x[:2], x[:2])                      # too few points
    with pytest.raises(FitError):
        fit("exp_gain", x, np.array([1, 2, np.nan, 4, 5]))  # non-finite
    with pytest.raises(FitError):
        fit("exp_gain", x, np.ones((5, 1)))                 # wrong shape
    with pytest.raises(FitError):
        fit("exp_gain", x, np.array([1, 0, 1, 1, 1.0]), relative=True)
    with pytest.raises(FitError):
        fit("parabola", x, np.ones(5))


def test_std_errors_finite_for_well_posed_fit():
    x = np.linspace(10, 80, 12)
    rng = np.random.default_rng(5)
    y = _eval("pump_decay", [0.9, 0.08], x) * (1 + 0.01 * rng.standard_normal(12))
    res = fit("pump_decay", x, y)
    assert np.all(np.isfinite(res.std_errors))
    assert np.all(res.std_errors > 0)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def _composite(alpha, break_alpha=800.0):
    """Exponential below the break, quadratic (continuous) above."""
    a_exp, b = 1.0e-3, 0.012
    y_break = a_exp * math.exp(b * break_alpha)
    a_pow = y_break / break_alpha**2
    return np.where(alpha <= break_alpha,
                    a_exp * np.exp(b * alpha), a_pow * alpha**2)


def test_classify_pure_exponential_is_ase():
    alpha = np.linspace(100, 3000, 14)
    y = 2.0 * np.exp(0.004 * alpha)
    report = classify_regime(alpha, y)
    assert report.label == "ASE"
    assert report.watershed is None


def test_classify_pure_quadratic_is_sf():
    alpha = np.linspace(100, 3000, 14)
    report = classify_regime(alpha, 1e-3 * alpha**2)
    assert report.label == "SF"


def test_classify_composite_finds_watershed():
    alpha = np.array([100, 200, 300, 450, 600, 800, 1100, 1500,
                      2000, 2600, 3000], dtype=float)
    report = classify_regime(alpha, _composite(alpha))
    assert report.label == "transition"
    lo, hi = report.watershed
    assert lo <= 800.0 <= hi
    assert report.low_fit.coefficients[1] == pytest.approx(0.012, rel=0.05)


def test_classify_scale_invariant():
    alpha = np.array([100, 200, 300, 450, 600, 800, 1100, 1500,
                      2000, 2600, 3000], dtype=float)
    y = _composite(alpha)
    a = classify_regime(alpha, y)
    b = classify_regime(alpha, 1.0e9 * y)
    assert a.label == b.label
    assert a.watershed == b.watershed


def test_classify_indeterminate_for_thin_data():
    alpha = np.linspace(100, 300, 6)
    report = classify_regime(alpha, np.exp(0.01 * alpha))
    assert report.label == "indeterminate"


def test_classify_rejects_nonpositive_intensity():
    alpha = np.linspace(100, 3000, 12)
    y = np.ones(12)
    y[3] = 0.0
    assert classify_regime(alpha, y).label == "indeterminate"
