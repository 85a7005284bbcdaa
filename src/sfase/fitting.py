"""Nonlinear least-squares fits of the regime and pump model families.

The minimizer is MINPACK's Levenberg-Marquardt (scipy's least_squares with
method="lm", forward-difference Jacobian).  Its accepted steps never increase
the residual.  The ftol, xtol and gtol tolerances are all TOL: scipy's
default 1e-8 stops the pump-decay fits about 1e-6 short of the minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1.0e-15


class FitError(ValueError):
    """Bad input data for a fit (too few points, non-finite values)."""


@dataclass(frozen=True)
class ModelFamily:
    name: str
    n_params: int
    func: Callable[[np.ndarray, np.ndarray], np.ndarray]   # (coeffs, x) -> y
    guess: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (x, y) -> coeffs


def _log_linear_guess(x, y, sign=1.0):
    """Slope/intercept of log|y| vs x; bootstrap for exponential families."""
    mask = np.abs(y) > 0
    if mask.sum() < 2:
        return np.array([1.0, sign * 0.01])
    coef = np.polyfit(x[mask], np.log(np.abs(y[mask])), 1)
    return np.array([math.exp(coef[1]), coef[0]])


def _delay_basis(x):
    return (0.5 * np.log(2.0 * math.pi * x)) ** 2 / x


def _guess_exp_gain(x, y):
    return _log_linear_guess(x, y)


def _guess_power2(x, y):
    return np.array([float(np.mean(y / x**2))])


def _guess_power(x, y):
    mask = (y > 0) & (x > 0)
    if mask.sum() < 2:
        return np.array([1.0, 2.0])
    coef = np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)
    return np.array([math.exp(coef[1]), coef[0]])


def _guess_power_offset(x, y):
    # coarse exponent grid with linear least squares for amplitude and
    # offset; a log-log slope guess with c=0 strands the minimizer in a
    # zero-offset local minimum when the true offset is large
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = np.where(np.abs(y) > 0.0, np.abs(y), 1.0)
    best = None
    for p in np.linspace(0.25, 3.5, 66):
        basis = np.column_stack([x**p, np.ones_like(x)]) / scale[:, None]
        coef, *_ = np.linalg.lstsq(basis, y / scale, rcond=None)
        rss = float(np.sum((basis @ coef - y / scale) ** 2))
        if best is None or rss < best[0]:
            best = (rss, p, coef)
    _, p, coef = best
    return np.array([coef[0], p, coef[1]])


def _guess_delay_law(x, y):
    basis = np.column_stack([_delay_basis(x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return coef


def _guess_pump_decay(x, y):
    amp, slope = _log_linear_guess(x, y, sign=-1.0)
    return np.array([amp, max(-slope, 1.0e-6)])


def _guess_exp_linear(x, y):
    # tail slope for the linear part, head excess for the exponential part
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    half = max(len(xs) // 2, 2)
    g = np.polyfit(xs[-half:], ys[-half:], 1)[0]
    a = ys[-1] - g * xs[-1]
    b = ys[0] - a - g * xs[0]
    span = xs[-1] - xs[0]
    return np.array([a, b if b != 0.0 else 1.0, 3.0 / span if span > 0 else 1.0, g])


FAMILIES: dict[str, ModelFamily] = {
    "exp_gain": ModelFamily(
        "exp_gain", 2, lambda c, x: c[0] * np.exp(c[1] * x), _guess_exp_gain),
    "power2": ModelFamily(
        "power2", 1, lambda c, x: c[0] * x**2, _guess_power2),
    "power": ModelFamily(
        "power", 2, lambda c, x: c[0] * x**c[1], _guess_power),
    "power_offset": ModelFamily(
        "power_offset", 3, lambda c, x: c[0] * x**c[1] + c[2],
        _guess_power_offset),
    "delay_law": ModelFamily(
        "delay_law", 2, lambda c, x: c[0] * _delay_basis(x) + c[1],
        _guess_delay_law),
    "pump_decay": ModelFamily(
        "pump_decay", 2, lambda c, x: c[0] * np.exp(-c[1] * x),
        _guess_pump_decay),
    "exp_linear": ModelFamily(
        "exp_linear", 4,
        lambda c, x: c[0] + c[1] * np.exp(-c[2] * x) + c[3] * x,
        _guess_exp_linear),
}


@dataclass
class FitResult:
    family: str
    coefficients: np.ndarray
    residual: float                 # sum of squared residuals
    std_errors: np.ndarray
    converged: bool
    n_iterations: int               # MINPACK function evaluations
    message: str = ""


def fit(family: str, x, y, relative: bool = False) -> FitResult:
    """Levenberg-Marquardt fit of one FAMILIES model from its own guess.

    relative=True divides residuals by |y| (scale-free fit for positive
    data spanning decades).  Deterministic for identical inputs.
    """
    # imported here: scipy.optimize takes about 0.2 s to load, and only
    # the fit command and the regime classifier minimize
    from scipy.optimize import least_squares

    if family not in FAMILIES:
        raise FitError(
            f"unknown model family {family!r}; choose from {sorted(FAMILIES)}")
    model = FAMILIES[family]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise FitError("x and y must be 1D arrays of equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise FitError("fit data must be finite")
    if len(x) < model.n_params + 1:
        raise FitError(
            f"{model.name} needs at least {model.n_params + 1} points, got {len(x)}")
    weights = 1.0
    if relative:
        scale = np.abs(y)
        if np.any(scale == 0.0):
            raise FitError("relative fit requires non-zero data")
        weights = 1.0 / scale
    coeffs = np.asarray(model.guess(x, y), dtype=float)

    def residuals(c):
        return weights * (model.func(c, x) - y)

    # x_scale="jac" is MINPACK's own scaling; spelled out because scipy
    # before 1.16 defaulted to unscaled steps
    res = least_squares(residuals, coeffs, method="lm", x_scale="jac",
                        ftol=TOL, xtol=TOL, gtol=TOL)
    rss = float(res.fun @ res.fun)
    dof = len(x) - model.n_params
    std = np.full(model.n_params, np.nan)
    try:
        cov = np.linalg.inv(res.jac.T @ res.jac) * (rss / dof)
        std = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        pass
    return FitResult(family=model.name, coefficients=res.x, residual=rss,
                     std_errors=std, converged=bool(res.success),
                     n_iterations=int(res.nfev), message=res.message)


@dataclass
class RegimeReport:
    label: str                          # 'ASE', 'transition', 'SF', 'indeterminate'
    watershed: tuple[float, float] | None
    low_fit: FitResult | None           # exp_gain on the low-alpha segment
    high_fit: FitResult | None          # power2 on the high-alpha segment
    message: str = ""


def classify_regime(alpha, peak_intensity) -> RegimeReport:
    """Locate the exponential-to-quadratic watershed in peak intensity data.

    Fits exp_gain below and power2 above a swept break point using relative
    residuals (the labels depend on shape, not amplitude), and reports the
    break interval whose combined residual is within 50% of the best.
    """
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(peak_intensity, dtype=float)
    order = np.argsort(alpha)
    alpha, y = alpha[order], y[order]
    if len(alpha) < 8 or alpha[-1] < 10.0 * alpha[0]:
        return RegimeReport("indeterminate", None, None, None,
                            "need >= 8 points spanning a decade of alpha")
    if np.any(y <= 0.0):
        return RegimeReport("indeterminate", None, None, None,
                            "peak intensities must be positive")

    full_exp = fit("exp_gain", alpha, y, relative=True)
    full_pow = fit("power2", alpha, y, relative=True)
    m = len(alpha)

    best: dict[int, tuple[float, FitResult, FitResult]] = {}
    min_side = 4
    for k in range(min_side, m - min_side + 1):
        lo = fit("exp_gain", alpha[:k], y[:k], relative=True)
        hi = fit("power2", alpha[k:], y[k:], relative=True)
        best[k] = (lo.residual + hi.residual, lo, hi)
    k_best = min(best, key=lambda k: best[k][0])
    rss_comb, lo_fit, hi_fit = best[k_best]

    # a single family explaining everything as well as the split model means
    # there is no watershed in range
    floor = 1.0e-12 * m
    if full_exp.residual <= max(2.0 * rss_comb, floor):
        return RegimeReport("ASE", None, full_exp, None,
                            "exponential gain fits the whole range")
    if full_pow.residual <= max(2.0 * rss_comb, floor):
        return RegimeReport("SF", None, None, full_pow,
                            "quadratic power law fits the whole range")

    near = [k for k, (rss, _, _) in best.items()
            if rss <= 1.5 * rss_comb + floor]
    ws = (float(alpha[min(near) - 1]), float(alpha[max(near)]))
    return RegimeReport("transition", ws, lo_fit, hi_fit,
                        f"watershed between alpha = {ws[0]:g} and {ws[1]:g}")
