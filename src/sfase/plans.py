"""Experiment plans: single runs, ensembles, parameter sweeps, analytics.

A plan is a plain dict-serializable description of everything needed to
reproduce an experiment (scenario, grids, seeds, worker count).  run_plan
writes the artifacts plus a manifest; re-running from the manifest alone
reproduces the outputs bitwise.
"""
from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import io, kernel, oracle
from .ensemble import (DELAY_MEAN, DIRECTIONS, PEAK_MEAN, PROBABILITY,
                       EnsembleSpec, direction_names, realization_outcomes,
                       run_ensemble)
from .fitting import fit
from .oracle import max_inversion
from .params import (REPLACEABLE, Scenario, ParameterError,
                     scenario_from_dict, validation_warnings)
from .solver import GridError, NoiseSpec, SolverError, make_grid, run

KINDS = ("single", "ensemble", "sweep", "sweep_Tp", "oracle", "fit")
# kinds that step the integrator: they load the compiled step kernel before
# writing anything, so a kernel that cannot be built fails the plan once
STEPPING_KINDS = ("single", "ensemble", "sweep")
# plan fields a kind cannot run without
REQUIRED = {"sweep": ("axes",), "sweep_Tp": ("tp_grid_fs",),
            "fit": ("fit_family", "fit_data")}
# columns a fit reads by default: the alpha and forward mean peak columns of
# a sweep's map.csv
FIT_X_COL = "alpha"
FIT_Y_COL = f"{direction_names('peak')[0]}_mean"


def _check_grid(name: str, grid) -> None:
    if (not isinstance(grid, (list, tuple)) or len(grid) == 0
            or not all(isinstance(v, (int, float))
                       and abs(v) <= sys.float_info.max
                       for v in grid)
            or np.any(np.diff(grid) <= 0)):
        raise ParameterError(f"plan.{name} must be a non-empty, strictly "
                             f"increasing list of finite numbers")


@dataclass
class ExperimentPlan:
    kind: str
    scenario: dict                      # flat scenario schema (unit-suffixed keys)
    out_dir: str
    master_seed: int = 0
    workers: int = 1
    n_realizations: int = 100
    grid_nz: int | None = None
    t_end_ps: float | None = None
    snapshot_stride: int = 0
    # sweep: Scenario.replace field name (internal units) -> strictly
    # increasing values; the points are the product of the axes in key order
    axes: dict[str, list[float]] | None = None
    fixed_alpha: float | None = None    # sweep: derive n from alpha at each L
    # sweep_Tp grids (each strictly increasing)
    tp_grid_fs: list[float] | None = None
    q_grid: list[float] | None = None
    # fit inputs
    fit_family: str | None = None
    fit_data: str | None = None
    # None outside fit plans, so other manifests carry no fit columns; a
    # fit plan resolves them to FIT_X_COL and FIT_Y_COL
    fit_x_col: str | None = None
    fit_y_col: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown plan kind {self.kind!r}")
        # the v1 noise stream keys Philox with the seed's 128 bits
        seed = self.master_seed
        if (not isinstance(seed, int) or isinstance(seed, bool)
                or not 0 <= seed < 2**128):
            raise ParameterError(
                f"master seed must be an integer in [0, 2**128), got {seed!r}")
        for name, least in (("n_realizations", 1), ("workers", 1),
                            ("grid_nz", 1), ("snapshot_stride", 0)):
            value = getattr(self, name)
            if name == "grid_nz" and value is None:
                continue
            if (not isinstance(value, int) or isinstance(value, bool)
                    or not least <= value <= sys.float_info.max):
                raise ParameterError(
                    f"plan.{name} must be an integer from {least} to "
                    f"{sys.float_info.max:.4g}, got {value!r}")
        for name in ("t_end_ps", "fixed_alpha"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, (int, float))
                                      or isinstance(value, bool)
                                      or not 0 < value <= sys.float_info.max):
                raise ParameterError(
                    f"plan.{name} must be a finite number > 0, got {value!r}")
        missing = [f for f in REQUIRED.get(self.kind, ()) if not getattr(self, f)]
        if missing:
            raise ParameterError(f"{self.kind} plan needs {' and '.join(missing)}")
        if self.kind == "fit":
            self.fit_x_col = self.fit_x_col or FIT_X_COL
            self.fit_y_col = self.fit_y_col or FIT_Y_COL
        axes = self.axes or {}
        if not isinstance(axes, dict):
            raise ParameterError("plan.axes must map scenario fields to values")
        for name, grid in axes.items():
            if name not in REPLACEABLE:
                raise ParameterError(f"plan.axes: unknown scenario field {name!r}")
            _check_grid(f"axes[{name!r}]", grid)
        for name in ("tp_grid_fs", "q_grid"):
            if getattr(self, name) is not None:
                _check_grid(name, getattr(self, name))
        if self.fixed_alpha is not None and "n" in axes:
            raise ParameterError("fixed_alpha derives n; drop the n axis")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentPlan":
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ParameterError(f"unknown plan keys: {', '.join(unknown)}")
        return cls(**raw)


def oracle_report(scen: Scenario) -> dict:
    """Derived analytics for a scenario, no simulation."""
    d = scen.derived
    est = oracle.gain_estimate(scen)
    onset, end = oracle.gain_window(scen)
    return {
        "alpha": d.alpha,
        "eta_thz_per_mm": d.eta,
        "phi_urad": d.phi * 1.0e6,
        "fresnel": d.fresnel,
        "noise_prefactor_per_ps": d.noise_prefactor,
        "gain_length_pump_mm": d.l_g,
        "gain_length_coherence_mm": d.l_g_coherence,
        "u_factor": oracle.u_factor(scen),
        "gain_window_ps": [onset, end],
        "two_xi_limit": est.two_xi_limit,
        "v_min_mm_per_ps": est.v_min,
        "pi_half_photons": oracle.pi_half_photons(scen.medium.r,
                                                  scen.transition.lam),
        "warnings": validation_warnings(scen),
    }


def _ensemble_spec(scen: Scenario, plan: ExperimentPlan) -> EnsembleSpec:
    grid = make_grid(scen, nz=plan.grid_nz, t_end=plan.t_end_ps)
    return EnsembleSpec(scenario=scen, grid=grid,
                        n_realizations=plan.n_realizations,
                        master_seed=plan.master_seed)


def _ensemble_point(spec: EnsembleSpec, out_dir: Path,
                    outcomes: Iterator) -> dict:
    """Aggregate one ensemble from the command's stream of outcomes into
    out_dir; its map row."""
    summary, scalars = run_ensemble(spec, outcomes)
    io.write_ensemble_outputs(summary, scalars, out_dir)
    row = {"alpha": spec.scenario.derived.alpha}
    for (_, tag), stats in zip(DIRECTIONS, summary.stats):
        row[f"prob_{tag}"] = stats[PROBABILITY]
        row[f"peak_{tag}_mean"] = stats[PEAK_MEAN]
        row[f"delay_{tag}_mean"] = stats[DELAY_MEAN]
    return row


def _run_sweep(plan: ExperimentPlan, out: Path, points: list[dict],
               base: Scenario) -> None:
    """Shared sweep executor: one ensemble per point, one map row each.

    Every point's scenario and grid are resolved first; a point that
    cannot be built, or whose ensemble fails, becomes an error row.  The
    valid points then share one stream of outcomes, so the workers compute
    the next point while this process folds and writes the current one.
    """
    rows = [dict(overrides) for overrides in points]
    specs: dict[int, EnsembleSpec] = {}
    for i, overrides in enumerate(points):
        try:
            specs[i] = _ensemble_spec(base.replace(**overrides), plan)
        except (ParameterError, GridError) as err:
            rows[i]["error"] = str(err)
    with closing(realization_outcomes(list(specs.values()),
                                      plan.workers)) as outcomes:
        for i, spec in specs.items():
            try:
                rows[i].update(_ensemble_point(spec, out / f"point_{i:03d}",
                                               outcomes))
                rows[i]["error"] = ""
            except SolverError as err:
                rows[i]["error"] = str(err)
    failed = sum(1 for row in rows if row["error"])
    keys = sorted({k for r in rows for k in r})
    io.write_csv(out / "map.csv", keys,
                 [[r.get(k, "") for r in rows] for k in keys])
    if failed:
        raise SolverError(f"{failed}/{len(points)} sweep points failed "
                          f"(see error markers in map.csv)")


def run_plan(plan: ExperimentPlan) -> Path:
    """Execute a plan, writing all artifacts plus the manifest.

    The scenario, the grid of a single run or an ensemble, and a fit's
    data and result are made before anything is written, so a bad one
    leaves no artifacts behind (a sweep point whose grid cannot be built
    becomes an error row instead).
    """
    scen = None if plan.kind == "fit" else scenario_from_dict(plan.scenario)
    if plan.kind == "single":
        grid = make_grid(scen, nz=plan.grid_nz, t_end=plan.t_end_ps)
    elif plan.kind == "ensemble":
        spec = _ensemble_spec(scen, plan)
    elif plan.kind == "fit":
        x, y = io.read_xy_csv(plan.fit_data, plan.fit_x_col, plan.fit_y_col)
        result = fit(plan.fit_family, x, y)
    step_kernel = kernel.info() if plan.kind in STEPPING_KINDS else None
    out = Path(plan.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_manifest(plan.to_dict(), out, step_kernel)

    if plan.kind == "oracle":
        io.write_json(out / "oracle.json", oracle_report(scen))

    elif plan.kind == "single":
        noise = NoiseSpec(master_seed=plan.master_seed, realization_index=0)
        rec = run(scen, grid, noise, snapshot_stride=plan.snapshot_stride)
        io.write_run_record(rec, out / "run.csv")
        if rec.snapshot_times is not None:
            io.write_csv(out / "inversion_snapshots.csv",
                         ["t_ps"] + [f"z_{k}" for k in range(grid.n_nodes)],
                         [rec.snapshot_times]
                         + [rec.snapshot_inversion[:, k]
                            for k in range(grid.n_nodes)])

    elif plan.kind == "ensemble":
        with closing(realization_outcomes([spec], plan.workers)) as outcomes:
            _ensemble_point(spec, out, outcomes)

    elif plan.kind == "sweep":
        points = [dict(zip(plan.axes, values))
                  for values in itertools.product(*plan.axes.values())]
        if plan.fixed_alpha is not None:
            for p in points:
                p["n"] = plan.fixed_alpha / (scen.transition.sigma_r
                                             * p.get("L", scen.medium.L))
        _run_sweep(plan, out, points, scen)

    elif plan.kind == "sweep_Tp":
        # pump-structure study: max inversion at z=0 from the analytic
        # quadrature, scanning pump duration at fixed peak flux per Q; a T_p
        # row that cannot be built or integrated becomes an error row
        qs = plan.q_grid or [1.0]
        rows = []
        for tp_fs in plan.tp_grid_fs:
            try:
                values = [max_inversion(scen.replace(tau_p=tp_fs * 1.0e-3,
                                                     n_p=q * tp_fs * 1.0e12))
                          for q in qs]
                error = ""
            except (ParameterError, oracle.OracleError) as err:
                values, error = [""] * len(qs), str(err)
            rows.append([tp_fs, *values, error])
        io.write_csv(out / "pump_study.csv",
                     ["tau_p_fs", *(f"max_inversion_q{q:g}" for q in qs), "error"],
                     list(zip(*rows)))
        failed = sum(1 for row in rows if row[-1])
        if failed:
            raise SolverError(f"{failed}/{len(rows)} pump-study rows failed "
                              f"(see error markers in pump_study.csv)")

    elif plan.kind == "fit":
        io.write_json(out / "fit.json", {
            "family": result.family,
            "coefficients": list(result.coefficients),
            "residual": result.residual,
            "std_errors": list(result.std_errors),
            "converged": result.converged,
            "n_iterations": result.n_iterations,
            "message": result.message,
        })

    return out
