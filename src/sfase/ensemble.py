"""Seeded ensemble runner and the ASE-SF transition diagnostics.

Realizations are independent work units; each one draws from its own
counter-based noise stream, so results are identical for any worker count
or scheduling.  One stream per command runs every point's realizations
(on one process pool when there are workers) and yields their reductions
in (point, index) order; aggregation folds them into running sums in that
order, which makes the ensemble output bit-for-bit equal to a serial run.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .params import Scenario
from .solver import GridSpec, NoiseSpec, RunRecord, SolverError, run
from . import oracle

HALF_PI = math.pi / 2.0
SPECTRUM_PAD = 4
PHOTON_BINS = 30
DELAY_BINS = 50
BOOTSTRAP_RESAMPLES = 1000
# resampled values a bootstrap holds at once, whatever the ensemble size
BOOTSTRAP_CHUNK = 1 << 14
# tasks a pool keeps in flight per worker: enough to compute ahead while the
# consumer folds and writes, few enough that memory stays flat
IN_FLIGHT_PER_WORKER = 4


def pulse_area(omega_series, dt: float) -> float:
    """Rabi angle integral sum(|Omega|) * dt on the solver grid."""
    return float(np.sum(np.abs(np.asarray(omega_series))) * dt)


def spectrum(omega_series, dt: float,
             pad_factor: int = SPECTRUM_PAD) -> tuple[np.ndarray, np.ndarray]:
    """Spectral intensity |integral Omega(t) e^{i w t} dt|^2 of the envelope.

    Returns (detuning axis rad/ps ascending, intensity).  No window; the
    series is zero-padded pad_factor-fold for peak localization.  The dt
    factor is kept so the discrete Parseval identity holds exactly.
    """
    series = np.asarray(omega_series, dtype=complex)
    n_pad = pad_factor * len(series)
    coeffs = dt * np.fft.fft(series, n=n_pad)
    # fft uses e^{-iwt}; the e^{+iwt} transform is the same set of values on
    # the negated frequency axis
    omega_axis = -2.0 * math.pi * np.fft.fftfreq(n_pad, d=dt)
    order = np.argsort(omega_axis)
    return omega_axis[order], np.abs(coeffs[order]) ** 2


def delay_time(record: RunRecord, direction: str = "forward") -> float | None:
    """Peak of |Omega|^2 minus peak of J_p(t, L); None if no emission."""
    out = (record.omega_plus_out if direction == "forward"
           else record.omega_minus_out)
    intensity = np.abs(out) ** 2
    if not np.any(intensity > 0.0):
        return None
    if not np.any(record.jp_out > 0.0):
        raise ValueError("delay_time needs a non-zero pump series")
    # np.argmax returns the earliest index on ties
    return float(record.t[int(np.argmax(intensity))]
                 - record.t[int(np.argmax(record.jp_out))])


def histogram(values, edges) -> tuple[np.ndarray, np.ndarray]:
    """Counts over explicit bin edges; values outside are clipped in."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("histogram needs at least one value")
    edges = np.asarray(edges, dtype=float)
    clipped = np.clip(values, edges[0], np.nextafter(edges[-1], -np.inf))
    counts, _ = np.histogram(clipped, bins=edges)
    return counts, edges


def photon_bin_edges(values: np.ndarray, nbins: int = PHOTON_BINS) -> np.ndarray:
    """Logarithmic edges spanning the observed positive range."""
    positive = values[values > 0.0]
    if positive.size == 0:
        return np.logspace(0.0, 1.0, nbins + 1)
    lo, hi = positive.min(), positive.max()
    if hi <= lo * (1.0 + 1.0e-12):
        lo, hi = lo * 0.5, hi * 2.0
    return np.logspace(math.log10(lo), math.log10(hi), nbins + 1)


@dataclass(frozen=True)
class EnsembleSpec:
    scenario: Scenario
    grid: GridSpec
    n_realizations: int = 1000
    master_seed: int = 0
    workers: int = 1
    noise_enabled: bool = True

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class DirectionSummary:
    """Per-direction ensemble statistics (forward: z=L, backward: z=0)."""

    avg_temporal_intensity: np.ndarray    # <|Omega|^2>(t), rad^2/ps^2
    avg_spectral_intensity: np.ndarray    # <S>(w) on spectral_axis
    threshold_probability: float          # P(pulse area >= pi/2)
    threshold_ci: tuple[float, float]     # bootstrap 95% interval
    photon_hist_counts: np.ndarray
    photon_hist_edges: np.ndarray
    delay_hist_counts: np.ndarray
    delay_hist_edges: np.ndarray
    peak_intensity_mean: float
    peak_intensity_std: float
    peak_intensity_ci: tuple[float, float]
    delay_mean: float | None
    delay_std: float | None
    n_delay_missing: int


@dataclass
class EnsembleSummary:
    t: np.ndarray
    spectral_axis: np.ndarray
    forward: DirectionSummary
    backward: DirectionSummary
    n_realizations: int
    n_failed: int
    master_seed: int
    max_trace_error: float


@dataclass
class RealizationScalars:
    """Per-realization reductions persisted for downstream fitting."""

    index: int
    area_fwd: float
    area_bwd: float
    photons_fwd: float
    photons_bwd: float
    peak_fwd: float
    peak_bwd: float
    delay_fwd: float | None
    delay_bwd: float | None

    FIELDS = ("index", "area_fwd", "area_bwd", "photons_fwd", "photons_bwd",
              "peak_fwd", "peak_bwd", "delay_fwd", "delay_bwd")


def _reduce_one(spec: EnsembleSpec, index: int):
    """Run one realization and reduce it to scalars + per-t/per-w arrays."""
    noise = NoiseSpec(master_seed=spec.master_seed, realization_index=index,
                      enabled=spec.noise_enabled)
    rec = run(spec.scenario, spec.grid, noise)
    dt = spec.grid.dt
    tr = spec.scenario.transition
    r = spec.scenario.medium.r
    _, s_fwd = spectrum(rec.omega_plus_out, dt)
    _, s_bwd = spectrum(rec.omega_minus_out, dt)
    scalars = RealizationScalars(
        index=index,
        area_fwd=pulse_area(rec.omega_plus_out, dt),
        area_bwd=pulse_area(rec.omega_minus_out, dt),
        photons_fwd=oracle.photons_from_envelope(rec.omega_plus_out, dt, r,
                                                 tr.d, tr.omega),
        photons_bwd=oracle.photons_from_envelope(rec.omega_minus_out, dt, r,
                                                 tr.d, tr.omega),
        peak_fwd=float(np.max(np.abs(rec.omega_plus_out) ** 2)),
        peak_bwd=float(np.max(np.abs(rec.omega_minus_out) ** 2)),
        delay_fwd=delay_time(rec, "forward"),
        delay_bwd=delay_time(rec, "backward"),
    )
    return (index, scalars, np.abs(rec.omega_plus_out) ** 2,
            np.abs(rec.omega_minus_out) ** 2, s_fwd, s_bwd,
            rec.max_trace_error)


def _bootstrap_ci(values: np.ndarray, seed: int, stat=np.mean,
                  n_resamples: int = BOOTSTRAP_RESAMPLES) -> tuple[float, float]:
    # drawn in blocks of rows: the generator yields the same index stream
    # for any block size, so the interval does not depend on it
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = len(values)
    rows = max(1, BOOTSTRAP_CHUNK // n)
    stats = np.concatenate([
        stat(values[rng.integers(0, n, size=(min(rows, n_resamples - start), n))],
             axis=1)
        for start in range(0, n_resamples, rows)])
    return (float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5)))


def _direction_summary(areas, photons, peaks, delays, t_end, tau_i,
                       sum_intensity, sum_spectrum, n_ok, seed) -> DirectionSummary:
    over = (areas >= HALF_PI).astype(float)
    prob = float(np.mean(over))
    delays_valid = np.array([d for d in delays if d is not None])
    ph_counts, ph_edges = histogram(photons, photon_bin_edges(photons))
    d_edges = np.linspace(0.0, max(t_end - tau_i, 1.0e-12), DELAY_BINS + 1)
    if delays_valid.size:
        d_counts, _ = histogram(delays_valid, d_edges)
        delay_mean = float(np.mean(delays_valid))
        delay_std = float(np.std(delays_valid))
    else:
        d_counts = np.zeros(DELAY_BINS, dtype=int)
        delay_mean = delay_std = None
    return DirectionSummary(
        avg_temporal_intensity=sum_intensity / n_ok,
        avg_spectral_intensity=sum_spectrum / n_ok,
        threshold_probability=prob,
        threshold_ci=_bootstrap_ci(over, seed),
        photon_hist_counts=ph_counts, photon_hist_edges=ph_edges,
        delay_hist_counts=d_counts, delay_hist_edges=d_edges,
        peak_intensity_mean=float(np.mean(peaks)),
        peak_intensity_std=float(np.std(peaks)),
        peak_intensity_ci=_bootstrap_ci(peaks, seed + 1),
        delay_mean=delay_mean, delay_std=delay_std,
        n_delay_missing=len(delays) - delays_valid.size,
    )


def realization_outcomes(specs: list[EnsembleSpec]) -> Iterator:
    """Outcomes of every (point, realization index) task, in that order.

    An outcome is what `_reduce_one` returns, or the `SolverError` it
    raised.  With more than one worker the tasks run on a single process
    pool that keeps IN_FLIGHT_PER_WORKER * workers of them in flight, so
    workers compute ahead while the consumer folds and writes what it has;
    otherwise each `_reduce_one` runs lazily when its outcome is pulled.
    A worker that dies breaks the pool: the first task found broken and
    every task after it become `SolverError`s that name their index and
    the cause, and nothing more is submitted.  Closing the stream, or an
    exception leaving it, shuts the pool down and cancels the tasks not
    yet started.
    """
    tasks = ((spec, index) for spec in specs
             for index in range(spec.n_realizations))
    workers = max((spec.workers for spec in specs), default=1)
    if workers == 1 or sum(spec.n_realizations for spec in specs) == 1:
        for spec, index in tasks:
            try:
                yield _reduce_one(spec, index)
            except SolverError as err:
                yield err
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        window = deque(_submit(pool, *task) for task in
                       itertools.islice(tasks, IN_FLIGHT_PER_WORKER * workers))
        while window:
            index, future = window.popleft()
            for task in itertools.islice(tasks, 1):
                window.append(_submit(pool, *task))
            try:
                outcome = future.result()
            except SolverError as err:
                outcome = err
            except BrokenProcessPool as err:
                for lost in itertools.chain((index,), (i for i, _ in window),
                                            (i for _, i in tasks)):
                    yield SolverError(f"realization {lost}: lost, a pool "
                                      f"worker died ({err})")
                return
            yield outcome
    finally:
        pool.shutdown(cancel_futures=True)


def _submit(pool: ProcessPoolExecutor, spec: EnsembleSpec, index: int
            ) -> tuple[int, Future]:
    """(index, future of `_reduce_one`); a broken pool gives a future that
    holds the BrokenProcessPool error instead of raising it here."""
    try:
        return index, pool.submit(_reduce_one, spec, index)
    except BrokenProcessPool as err:
        future = Future()
        future.set_exception(err)
        return index, future


def run_ensemble(spec: EnsembleSpec, outcomes: Iterator | None = None
                 ) -> tuple[EnsembleSummary, list[RealizationScalars]]:
    """Run all realizations and aggregate Eq.-style averages and statistics.

    Takes exactly spec.n_realizations outcomes from `outcomes` (by default
    a stream of this spec alone, see `realization_outcomes`) and folds them
    in index order into running sums, so the result is bitwise that of a
    serial run and memory does not grow with the realization count.
    Failed realizations are excluded; the whole ensemble fails if more than
    1% of them fail.
    """
    if outcomes is None:
        with closing(realization_outcomes([spec])) as own:
            return _fold(spec, own)
    return _fold(spec, outcomes)


def _fold(spec: EnsembleSpec, outcomes: Iterator
          ) -> tuple[EnsembleSummary, list[RealizationScalars]]:
    nt = spec.grid.nsteps + 1
    nw = SPECTRUM_PAD * nt
    sum_if = np.zeros(nt)
    sum_ib = np.zeros(nt)
    sum_sf = np.zeros(nw)
    sum_sb = np.zeros(nw)
    scalars: list[RealizationScalars] = []
    failures: dict[int, str] = {}
    max_trace = 0.0
    for index, outcome in enumerate(
            itertools.islice(outcomes, spec.n_realizations)):
        if isinstance(outcome, SolverError):
            failures[index] = str(outcome)
            continue
        _, sc, intf, intb, sf, sb, trace_err = outcome
        scalars.append(sc)
        sum_if += intf
        sum_ib += intb
        sum_sf += sf
        sum_sb += sb
        max_trace = max(max_trace, trace_err)

    n_failed = len(failures)
    if n_failed > 0.01 * spec.n_realizations:
        raise SolverError(
            f"{n_failed}/{spec.n_realizations} realizations failed: "
            + "; ".join(list(failures.values())[:3]))

    n_ok = len(scalars)
    w_axis, _ = spectrum(np.zeros(nt, dtype=complex), spec.grid.dt)
    tau_i = spec.scenario.pump.tau_i
    t_end = spec.grid.t_end
    seed_fwd = spec.master_seed ^ 0x5F5F
    fwd = _direction_summary(
        np.array([s.area_fwd for s in scalars]),
        np.array([s.photons_fwd for s in scalars]),
        np.array([s.peak_fwd for s in scalars]),
        [s.delay_fwd for s in scalars],
        t_end, tau_i, sum_if, sum_sf, n_ok, seed_fwd)
    bwd = _direction_summary(
        np.array([s.area_bwd for s in scalars]),
        np.array([s.photons_bwd for s in scalars]),
        np.array([s.peak_bwd for s in scalars]),
        [s.delay_bwd for s in scalars],
        t_end, tau_i, sum_ib, sum_sb, n_ok, seed_fwd + 2)
    summary = EnsembleSummary(
        t=spec.grid.times, spectral_axis=w_axis, forward=fwd, backward=bwd,
        n_realizations=n_ok, n_failed=n_failed,
        master_seed=spec.master_seed, max_trace_error=max_trace)
    return summary, scalars


def detect_spectral_splitting(omega_axis: np.ndarray, s: np.ndarray,
                              resolution: float,
                              min_separation_bins: int = 3,
                              rel_height: float = 0.5) -> bool:
    """True if the spectrum has two maxima above rel_height of the global
    peak separated by at least min_separation_bins resolution widths."""
    from scipy.signal import find_peaks

    if not np.any(s > 0.0):
        return False
    peaks, _ = find_peaks(s, height=rel_height * float(np.max(s)))
    if len(peaks) < 2:
        return False
    sep = omega_axis[peaks[-1]] - omega_axis[peaks[0]]
    return bool(sep >= min_separation_bins * resolution)
