"""Seeded ensemble runner and the ASE-SF transition diagnostics.

Realizations are independent work units; each one draws from its own
counter-based noise stream, so results are identical for any worker count
or scheduling.  One stream per command runs every point's realizations on
the command's workers (one pool for more than one) and yields their
reductions in (point, index) order; `run_ensemble` folds them into running
sums in that order, so the ensemble output is bit-for-bit a serial run's.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .params import Scenario
from .solver import GridSpec, NoiseSpec, RunRecord, SolverError, run
from . import kernel, oracle

HALF_PI = math.pi / 2.0
SPECTRUM_PAD = 4
PHOTON_BINS = 30
DELAY_BINS = 50
BOOTSTRAP_RESAMPLES = 1000
SPLIT_REL_HEIGHT = 0.5
SPLIT_MIN_SEPARATION = 3
# resampled values a bootstrap holds at once, whatever the ensemble size
BOOTSTRAP_CHUNK = 1 << 14
# tasks a pool keeps in flight per worker: enough to compute ahead while the
# consumer folds and writes, few enough that memory stays flat
IN_FLIGHT_PER_WORKER = 4
# (summary.json key, artifact suffix) of each direction, in the row order of
# RunRecord.omega_out: forward emission at z = L, backward at z = 0.  Every
# per-direction column, key and file name is built from these.
DIRECTIONS = (("forward", "fwd"), ("backward", "bwd"))
# the statistics of a direction's summary.json block that a sweep's map.csv
# also carries (as prob_fwd, peak_fwd_mean and delay_fwd_mean, ...)
PROBABILITY, PEAK_MEAN, DELAY_MEAN = (
    "threshold_probability", "peak_intensity_mean", "delay_mean_ps")


def direction_names(name: str) -> list[str]:
    """`name` with each direction's suffix, forward first."""
    return [f"{name}_{tag}" for _, tag in DIRECTIONS]


def pulse_area(omega_series, dt: float):
    """Rabi angle integral sum(|Omega|) * dt over the last (time) axis; a
    float for one series, one value per row for stacked series."""
    area = np.sum(np.abs(np.asarray(omega_series)), axis=-1) * dt
    return float(area) if area.ndim == 0 else area


def spectrum(omega_series, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectral intensity |integral Omega(t) e^{i w t} dt|^2 of the envelope.

    Returns (detuning axis rad/ps ascending, intensity); stacked series are
    transformed along their last (time) axis.  No window; the series is
    zero-padded SPECTRUM_PAD-fold for peak localization.  The dt factor is
    kept so the discrete Parseval identity holds exactly.
    """
    series = np.asarray(omega_series, dtype=complex)
    n_pad = SPECTRUM_PAD * series.shape[-1]
    coeffs = dt * np.fft.fft(series, n=n_pad, axis=-1)
    omega_axis, order = spectral_axis(n_pad, dt)
    return omega_axis, np.abs(coeffs[..., order]) ** 2


def spectral_axis(n_pad: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending detuning axis (rad/ps) of an n_pad-point transform, and the
    permutation that puts fft output in its order."""
    # fft uses e^{-iwt}; the e^{+iwt} transform is the same set of values on
    # the negated frequency axis
    omega_axis = -2.0 * math.pi * np.fft.fftfreq(n_pad, d=dt)
    order = np.argsort(omega_axis)
    return omega_axis[order], order


def delay_time(record: RunRecord) -> np.ndarray:
    """Peak of |Omega|^2 minus peak of J_p(t, L) for each direction (the
    rows of record.omega_out); NaN where a direction has no emission."""
    intensity = np.abs(record.omega_out) ** 2
    emits = np.any(intensity > 0.0, axis=-1)
    if emits.any() and not np.any(record.jp_out > 0.0):
        raise ValueError("delay_time needs a non-zero pump series")
    # np.argmax returns the earliest index on ties
    delay = (record.t[np.argmax(intensity, axis=-1)]
             - record.t[np.argmax(record.jp_out)])
    return np.where(emits, delay, np.nan)


def histogram(values, edges) -> tuple[np.ndarray, np.ndarray]:
    """Counts over explicit bin edges; values outside are clipped in."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("histogram needs at least one value")
    edges = np.asarray(edges, dtype=float)
    clipped = np.clip(values, edges[0], np.nextafter(edges[-1], -np.inf))
    counts, _ = np.histogram(clipped, bins=edges)
    return counts, edges


def photon_bin_edges(values: np.ndarray) -> np.ndarray:
    """PHOTON_BINS logarithmic bins spanning the observed positive range."""
    positive = values[values > 0.0]
    if positive.size == 0:
        return np.logspace(0.0, 1.0, PHOTON_BINS + 1)
    lo, hi = positive.min(), positive.max()
    if hi <= lo * (1.0 + 1.0e-12):
        lo, hi = lo * 0.5, hi * 2.0
    return np.logspace(math.log10(lo), math.log10(hi), PHOTON_BINS + 1)


@dataclass(frozen=True)
class EnsembleSpec:
    scenario: Scenario
    grid: GridSpec
    n_realizations: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")


@dataclass
class EnsembleSummary:
    """Ensemble statistics; every per-direction field is in DIRECTIONS order
    (forward: z = L, backward: z = 0)."""

    t: np.ndarray
    spectral_axis: np.ndarray
    avg_intensity: np.ndarray    # (2, nt) <|Omega|^2>(t), rad^2/ps^2
    avg_spectrum: np.ndarray     # (2, nw) <S>(w) on spectral_axis
    photon_hist: list[tuple[np.ndarray, np.ndarray]]   # (counts, edges)
    delay_hist: list[tuple[np.ndarray, np.ndarray]]    # (counts, edges), ps
    stats: list[dict]            # each direction's summary.json block
    n_realizations: int
    n_failed: int
    master_seed: int
    max_trace_error: float


# the per-direction quantities of a realization, in realizations.csv order
QUANTITIES = ("area", "photons", "peak", "delay")


@dataclass(frozen=True, slots=True)
class RealizationScalars:
    """Per-realization reductions persisted for downstream fitting.

    `values` has one row per quantity (QUANTITIES order) and one column per
    direction (DIRECTIONS order); each quantity reads as its row.  One small
    array per realization keeps an ensemble's list of them compact.
    """

    index: int
    values: np.ndarray

    area = property(lambda self: self.values[0])      # pulse area (rad)
    photons = property(lambda self: self.values[1])   # emitted photons
    peak = property(lambda self: self.values[2])      # max |Omega|^2
    # delay after the pump peak (ps); NaN for a direction without emission
    delay = property(lambda self: self.values[3])


def _reduce_one(spec: EnsembleSpec, index: int):
    """Run one realization and reduce both directions at once.

    Returns (scalars, |Omega|^2 (2, nt), spectrum (2, nw), max trace
    error), rows in DIRECTIONS order; or, for any exception raised on the
    way, a `SolverError` that charges it to this realization alone.  The
    failure is labelled here, where the realization runs, so only a
    SolverError crosses a pool's process boundary.
    """
    try:
        noise = NoiseSpec(master_seed=spec.master_seed, realization_index=index)
        rec = run(spec.scenario, spec.grid, noise)
        dt = spec.grid.dt
        tr = spec.scenario.transition
        intensity = np.abs(rec.omega_out) ** 2
        _, spec_out = spectrum(rec.omega_out, dt)
        scalars = RealizationScalars(index, np.array([
            pulse_area(rec.omega_out, dt),
            oracle.photons_from_envelope(rec.omega_out, dt,
                                         spec.scenario.medium.r, tr.d,
                                         tr.omega),
            np.max(intensity, axis=-1),
            delay_time(rec)]))
    except Exception as err:
        cause = (str(err) if isinstance(err, SolverError)
                 else f"{type(err).__name__}: {err}")
        return SolverError(f"realization {index}: {cause}")
    return scalars, intensity, spec_out, rec.max_trace_error


def _bootstrap_ci(values: np.ndarray, seed: int) -> tuple[float, float]:
    """95% percentile interval of the mean over BOOTSTRAP_RESAMPLES resamples."""
    # drawn in blocks of rows: the generator yields the same index stream
    # for any block size, so the interval does not depend on it
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = len(values)
    rows = max(1, BOOTSTRAP_CHUNK // n)
    stats = np.concatenate([
        np.mean(values[rng.integers(
            0, n, size=(min(rows, BOOTSTRAP_RESAMPLES - start), n))], axis=1)
        for start in range(0, BOOTSTRAP_RESAMPLES, rows)])
    return (float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5)))


def _direction_summary(areas, photons, peaks, delays, t_end, tau_i, seed):
    """A direction's summary.json block, then its photon and delay
    histograms, each (counts, edges)."""
    over = (areas >= HALF_PI).astype(float)
    delays_valid = delays[~np.isnan(delays)]
    d_edges = np.linspace(0.0, max(t_end - tau_i, 1.0e-12), DELAY_BINS + 1)
    if delays_valid.size:
        d_counts, _ = histogram(delays_valid, d_edges)
        delay_mean = float(np.mean(delays_valid))
        delay_std = float(np.std(delays_valid))
    else:
        d_counts = np.zeros(DELAY_BINS, dtype=int)
        delay_mean = delay_std = None
    stats = {
        PROBABILITY: float(np.mean(over)),     # P(pulse area >= pi/2)
        "threshold_ci95": _bootstrap_ci(over, seed),
        PEAK_MEAN: float(np.mean(peaks)),      # of max |Omega|^2
        "peak_intensity_std": float(np.std(peaks)),
        "peak_intensity_ci95": _bootstrap_ci(peaks, seed + 1),
        DELAY_MEAN: delay_mean,                # None without emission
        "delay_std_ps": delay_std,
        "n_delay_missing": len(delays) - delays_valid.size,
    }
    return (stats, histogram(photons, photon_bin_edges(photons)),
            (d_counts, d_edges))


def realization_outcomes(specs: list[EnsembleSpec], workers: int) -> Iterator:
    """Outcomes of every (point, realization index) task, in that order.

    An outcome is what `_reduce_one` returns: a realization's reductions,
    or the `SolverError` that charges its failure to it.  With more than
    one of the command's `workers`, the tasks run on a single process pool
    that keeps IN_FLIGHT_PER_WORKER * workers of them in flight, so
    workers compute ahead while the consumer folds and writes what it has;
    otherwise (or for a single task) each `_reduce_one` runs lazily when
    its outcome is pulled.
    A worker that dies breaks the pool: the first task found broken and
    every task after it become `SolverError`s that name their index and
    the cause, and nothing more is submitted.  Closing the stream, or an
    exception leaving it, shuts the pool down and cancels the tasks not
    yet started.
    The step kernel is loaded first: a kernel that cannot be built raises
    `kernel.KernelError` once, before any task, not once per realization.
    """
    kernel.load()
    tasks = ((spec, index) for spec in specs
             for index in range(spec.n_realizations))
    if workers == 1 or sum(spec.n_realizations for spec in specs) <= 1:
        for spec, index in tasks:
            yield _reduce_one(spec, index)
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


def run_ensemble(spec: EnsembleSpec, outcomes: Iterator
                 ) -> tuple[EnsembleSummary, list[RealizationScalars]]:
    """Aggregate Eq.-style averages and statistics of one ensemble.

    Takes the next spec.n_realizations outcomes from `outcomes`, a stream
    of `realization_outcomes`, and folds them in index order into running
    sums, so the result is bitwise that of a serial run and memory does
    not grow with the realization count.
    Failed realizations are excluded; the whole ensemble fails if more than
    1% of them fail.
    """
    nt = spec.grid.nsteps + 1
    sum_intensity = np.zeros((len(DIRECTIONS), nt))
    sum_spectrum = np.zeros((len(DIRECTIONS), SPECTRUM_PAD * nt))
    scalars: list[RealizationScalars] = []
    failures: dict[int, str] = {}
    max_trace = 0.0
    for index, outcome in enumerate(
            itertools.islice(outcomes, spec.n_realizations)):
        if isinstance(outcome, SolverError):
            failures[index] = str(outcome)
            continue
        sc, intensity, spec_out, trace_err = outcome
        scalars.append(sc)
        sum_intensity += intensity
        sum_spectrum += spec_out
        max_trace = max(max_trace, trace_err)

    n_failed = len(failures)
    if n_failed > 0.01 * spec.n_realizations:
        raise SolverError(
            f"{n_failed}/{spec.n_realizations} realizations failed: "
            + "; ".join(list(failures.values())[:3]))

    n_ok = len(scalars)
    w_axis, _ = spectral_axis(SPECTRUM_PAD * nt, spec.grid.dt)
    tau_i = spec.scenario.pump.tau_i
    t_end = spec.grid.t_end
    # direction d bootstraps with seeds seed + 2d and seed + 2d + 1
    seed = spec.master_seed ^ 0x5F5F
    # (quantity, direction, realization)
    stacked = np.stack([s.values for s in scalars], axis=-1)
    stats, photon_hist, delay_hist = zip(*(
        _direction_summary(*stacked[:, d], t_end, tau_i, seed + 2 * d)
        for d in range(len(DIRECTIONS))))
    summary = EnsembleSummary(
        t=spec.grid.times, spectral_axis=w_axis,
        avg_intensity=sum_intensity / n_ok, avg_spectrum=sum_spectrum / n_ok,
        photon_hist=list(photon_hist), delay_hist=list(delay_hist),
        stats=list(stats), n_realizations=n_ok, n_failed=n_failed,
        master_seed=spec.master_seed, max_trace_error=max_trace)
    return summary, scalars


def detect_spectral_splitting(omega_axis: np.ndarray, s: np.ndarray,
                              resolution: float) -> bool:
    """True if the spectrum has two maxima above SPLIT_REL_HEIGHT of the
    global peak separated by at least SPLIT_MIN_SEPARATION resolution widths."""
    from scipy.signal import find_peaks

    if not np.any(s > 0.0):
        return False
    peaks, _ = find_peaks(s, height=SPLIT_REL_HEIGHT * float(np.max(s)))
    if len(peaks) < 2:
        return False
    sep = omega_axis[peaks[-1]] - omega_axis[peaks[0]]
    return bool(sep >= SPLIT_MIN_SEPARATION * resolution)
