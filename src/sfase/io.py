"""CSV/JSON artifact writers and the reproducibility manifest."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import EnsembleSummary, RealizationScalars
from .solver import RunRecord


def write_csv(path: str | Path, header: list[str], columns: list) -> None:
    arrays = [np.asarray(col) for col in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*arrays):
            # repr(float(...)) gives the shortest exact decimal; numpy scalar
            # repr would not parse back
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def write_json(path: str | Path, payload: dict, sort_keys: bool = True) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")


def write_run_record(rec: RunRecord, path: str | Path) -> None:
    """Boundary series as columnar CSV (t, Re/Im Omega+, Re/Im Omega-, J_p)."""
    write_csv(path,
              ["t_ps", "re_omega_plus", "im_omega_plus",
               "re_omega_minus", "im_omega_minus", "jp_out"],
              [rec.t,
               rec.omega_plus_out.real, rec.omega_plus_out.imag,
               rec.omega_minus_out.real, rec.omega_minus_out.imag,
               rec.jp_out])


def write_realizations(scalars: list[RealizationScalars], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RealizationScalars.FIELDS)
        for s in scalars:
            writer.writerow(["" if (v := getattr(s, f)) is None
                             else repr(float(v)) if isinstance(v, float) else v
                             for f in RealizationScalars.FIELDS])


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
    write_json(out / "summary.json", {
        "n_realizations": summary.n_realizations,
        "n_failed": summary.n_failed,
        "master_seed": summary.master_seed,
        "max_trace_error": summary.max_trace_error,
        "forward": _direction_stats(summary.forward),
        "backward": _direction_stats(summary.backward),
    })
    write_csv(out / "avg_intensity.csv",
              ["t_ps", "avg_intensity_fwd", "avg_intensity_bwd"],
              [summary.t, summary.forward.avg_temporal_intensity,
               summary.backward.avg_temporal_intensity])
    write_csv(out / "avg_spectrum.csv",
              ["detuning_rad_per_ps", "avg_spectrum_fwd", "avg_spectrum_bwd"],
              [summary.spectral_axis, summary.forward.avg_spectral_intensity,
               summary.backward.avg_spectral_intensity])
    for tag, d in (("fwd", summary.forward), ("bwd", summary.backward)):
        write_csv(out / f"histogram_photons_{tag}.csv",
                  ["bin_left", "bin_right", "count"],
                  [d.photon_hist_edges[:-1], d.photon_hist_edges[1:],
                   d.photon_hist_counts])
        write_csv(out / f"histogram_delay_{tag}.csv",
                  ["bin_left_ps", "bin_right_ps", "count"],
                  [d.delay_hist_edges[:-1], d.delay_hist_edges[1:],
                   d.delay_hist_counts])
    write_realizations(scalars, out / "realizations.csv")


def write_manifest(plan_dict: dict, out_dir: str | Path) -> None:
    # unsorted: the order of plan["axes"] is the order of the sweep points
    write_json(Path(out_dir) / "manifest.json",
               {"sfase_version": __version__, "plan": plan_dict}, sort_keys=False)


def load_manifest_plan(path: str | Path) -> dict:
    raw = json.loads(Path(path).read_text())
    if "plan" not in raw:
        raise ValueError(f"{path}: not a manifest (no 'plan' key)")
    return raw["plan"]
