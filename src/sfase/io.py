"""CSV/JSON artifact writers and the reproducibility manifest."""
from __future__ import annotations

import csv
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .ensemble import (QUANTITIES, EnsembleSummary, RealizationScalars,
                       direction_names)
from .solver import NOISE_STREAM, RunRecord


def write_csv(path: str | Path, header: list[str], columns: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # tolist() gives Python floats, which csv writes as their shortest
        # exact repr; numpy scalars would be written as "np.float64(...)"
        writer.writerows(zip(*(np.asarray(col).tolist() for col in columns)))


def write_json(path: str | Path, payload: dict, sort_keys: bool = True) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")


def write_run_record(rec: RunRecord, path: str | Path) -> None:
    """Boundary series as columnar CSV (t, Re/Im Omega+, Re/Im Omega-, J_p)."""
    plus, minus = rec.omega_out
    write_csv(path,
              ["t_ps", "re_omega_plus", "im_omega_plus",
               "re_omega_minus", "im_omega_minus", "jp_out"],
              [rec.t, plus.real, plus.imag, minus.real, minus.imag,
               rec.jp_out])


def write_realizations(scalars: list[RealizationScalars], path: str | Path) -> None:
    """One row per realization: its index, then each quantity once per
    direction; a NaN (the delay of a direction without emission) is an
    empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", *(name for q in QUANTITIES
                                    for name in direction_names(q))])
        for s in scalars:
            writer.writerow([s.index, *("" if math.isnan(v) else repr(v)
                                        for v in s.values.ravel().tolist())])


def read_xy_csv(path: str | Path, x_col: str, y_col: str
                ) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for col in (x_col, y_col):
        if col not in rows[0]:
            raise ValueError(f"{path}: no column {col!r}")
    pairs = [(float(r[x_col]), float(r[y_col])) for r in rows
             if r[x_col] != "" and r[y_col] != ""]
    if not pairs:
        raise ValueError(f"{path}: no row has both {x_col!r} and {y_col!r}")
    xs, ys = zip(*pairs)
    return np.array(xs), np.array(ys)


def _direction_stats(d) -> dict:
    return {
        "threshold_probability": d.threshold_probability,
        "threshold_ci95": list(d.threshold_ci),
        "peak_intensity_mean": d.peak_intensity_mean,
        "peak_intensity_std": d.peak_intensity_std,
        "peak_intensity_ci95": list(d.peak_intensity_ci),
        "delay_mean_ps": d.delay_mean,
        "delay_std_ps": d.delay_std,
        "n_delay_missing": d.n_delay_missing,
    }


def write_ensemble_outputs(summary: EnsembleSummary,
                           scalars: list[RealizationScalars],
                           out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    directions = summary.directions()
    write_json(out / "summary.json", {
        "n_realizations": summary.n_realizations,
        "n_failed": summary.n_failed,
        "master_seed": summary.master_seed,
        "max_trace_error": summary.max_trace_error,
        **{attr: _direction_stats(d) for attr, _, d in directions},
    })
    write_csv(out / "avg_intensity.csv",
              ["t_ps", *direction_names("avg_intensity")],
              [summary.t, *(d.avg_temporal_intensity for _, _, d in directions)])
    write_csv(out / "avg_spectrum.csv",
              ["detuning_rad_per_ps", *direction_names("avg_spectrum")],
              [summary.spectral_axis,
               *(d.avg_spectral_intensity for _, _, d in directions)])
    for _, tag, d in directions:
        write_csv(out / f"histogram_photons_{tag}.csv",
                  ["bin_left", "bin_right", "count"],
                  [d.photon_hist_edges[:-1], d.photon_hist_edges[1:],
                   d.photon_hist_counts])
        write_csv(out / f"histogram_delay_{tag}.csv",
                  ["bin_left_ps", "bin_right_ps", "count"],
                  [d.delay_hist_edges[:-1], d.delay_hist_edges[1:],
                   d.delay_hist_counts])
    write_realizations(scalars, out / "realizations.csv")


def environment() -> dict:
    """The software and machine that produce a run's numbers."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "cpu_count": os.cpu_count(), "noise_stream": NOISE_STREAM}


def write_manifest(plan_dict: dict, out_dir: str | Path) -> None:
    # unsorted: the order of plan["axes"] is the order of the sweep points
    write_json(Path(out_dir) / "manifest.json",
               {"sfase_version": __version__, "environment": environment(),
                "plan": plan_dict}, sort_keys=False)


def load_manifest_plan(path: str | Path) -> dict:
    raw = json.loads(Path(path).read_text())
    if "plan" not in raw:
        raise ValueError(f"{path}: not a manifest (no 'plan' key)")
    return raw["plan"]
