"""Command-line entry point.

Subcommands: validate, run, ensemble, sweep, oracle, fit.
Exit codes: 0 success, 2 config error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from .fitting import FitError
from .io import load_manifest_plan
from .params import ParameterError, scenario_from_dict, validation_warnings
from .plans import FIT_X_COL, FIT_Y_COL, ExperimentPlan, oracle_report, run_plan
from .solver import GridError, SolverError, make_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

PRESETS = ("fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7", "fig10")
NE_PRESETS = {"desk": 100, "paper": 1000}
# sweep --kind -> axes: (Scenario.replace field, grid option, factor to
# internal units)
SWEEP_AXES = {
    "Ln": (("L", "l_grid", 1.0), ("n", "n_grid", 1.0)),
    "rNp": (("r", "r_grid", 1.0e-3), ("n_p", "np_grid", 1.0)),
    "L": (("L", "l_grid", 1.0),),
}
# plan kinds each simulation subcommand runs from a manifest
MANIFEST_KINDS = {"run": ("single",), "ensemble": ("ensemble",),
                  "sweep": ("sweep", "sweep_Tp")}


def _scenario_dict(ref: str) -> dict:
    """Load a scenario from a preset name or a JSON file path."""
    if ref in PRESETS:
        text = (resources.files("sfase") / "presets" / f"{ref}.json").read_text()
        return json.loads(text)
    raw = json.loads(Path(ref).read_text())
    if not isinstance(raw, dict):
        raise ParameterError(f"{ref}: scenario file must hold a flat JSON object")
    return raw


def _add_common(sub, out_required=True):
    sub.add_argument("--scenario", help=f"scenario JSON path or preset name "
                     f"({', '.join(PRESETS)})")
    sub.add_argument("--from-manifest", help="re-run the plan stored in a manifest")
    if out_required:
        sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--workers", type=int, default=None,
                     help="worker processes (default 1; with --from-manifest, "
                          "the stored count); outputs do not depend on it")
    sub.add_argument("--ne", default="desk",
                     help="realization count: integer or preset desk/paper")
    sub.add_argument("--grid-nz", type=int, default=None)
    sub.add_argument("--t-end", type=float, default=None, help="horizon (ps)")


def _parse_ne(value: str) -> int:
    if value in NE_PRESETS:
        return NE_PRESETS[value]
    return int(value)


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfase",
        description="1D stochastic Maxwell-Bloch simulator of the "
                    "ASE-superfluorescence transition")
    subs = parser.add_subparsers(dest="command", required=True)

    val = subs.add_parser("validate", help="validate a scenario file")
    val.add_argument("scenario", help="scenario JSON path or preset name")
    val.add_argument("--grid-nz", type=int, default=None)

    orc = subs.add_parser("oracle", help="print derived analytics, no simulation")
    orc.add_argument("scenario", help="scenario JSON path or preset name")
    orc.add_argument("--out", help="also write oracle.json + manifest here")

    single = subs.add_parser("run", help="one seeded realization")
    _add_common(single)
    single.add_argument("--snapshots", type=int, default=0,
                        help="inversion snapshot stride in steps (0 = off)")

    ens = subs.add_parser("ensemble", help="seeded ensemble with statistics")
    _add_common(ens)

    sweep = subs.add_parser("sweep", help="2D/1D parameter sweeps")
    _add_common(sweep)
    sweep.add_argument("--kind", choices=["Ln", "rNp", "L", "Tp"])
    sweep.add_argument("--l-grid", type=_float_list, help="L values (mm)")
    sweep.add_argument("--n-grid", type=_float_list, help="n values (1/mm^3)")
    sweep.add_argument("--r-grid", type=_float_list, help="r values (um)")
    sweep.add_argument("--np-grid", type=_float_list, help="n_p values")
    sweep.add_argument("--tp-grid", type=_float_list, help="tau_p values (fs)")
    sweep.add_argument("--q-grid", type=_float_list, help="pump amplitude Q values")
    sweep.add_argument("--fixed-alpha", type=float, default=None,
                       help="hold alpha constant across the L sweep")

    fitp = subs.add_parser("fit", help="fit a model family to CSV data")
    fitp.add_argument("--family", required=True)
    fitp.add_argument("--data", required=True, help="CSV file")
    fitp.add_argument("--x-col", default=FIT_X_COL)
    fitp.add_argument("--y-col", default=FIT_Y_COL)
    fitp.add_argument("--out", required=True)
    fitp.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_validate(args) -> int:
    scen_dict = _scenario_dict(args.scenario)
    scen = scenario_from_dict(scen_dict)
    grid = make_grid(scen, nz=args.grid_nz)
    print(f"scenario OK: alpha = {scen.derived.alpha:g}, "
          f"eta = {scen.derived.eta:g} THz/mm, "
          f"phi = {scen.derived.phi * 1e6:.4g} urad")
    print(f"grid: nz = {grid.nz}, dt = {grid.dt:.4g} ps, "
          f"t_end = {grid.t_end:.4g} ps ({grid.nsteps} steps)")
    for warning in validation_warnings(scen):
        print(f"warning: {warning}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    scen_dict = _scenario_dict(args.scenario)
    report = oracle_report(scenario_from_dict(scen_dict))
    print(json.dumps(report, indent=2))
    if args.out:
        run_plan(ExperimentPlan(kind="oracle", scenario=scen_dict,
                                out_dir=args.out))
    return EXIT_OK


def _plan_from_args(args, kind: str, **fields) -> ExperimentPlan:
    if args.from_manifest:
        plan = ExperimentPlan.from_dict(load_manifest_plan(args.from_manifest))
        accepted = MANIFEST_KINDS[args.command]
        if plan.kind not in accepted:
            raise ParameterError(
                f"{args.from_manifest}: plan kind {plan.kind!r} cannot run under "
                f"'sfase {args.command}' (it takes {' or '.join(accepted)})")
        if args.workers is not None:
            plan = dataclasses.replace(plan, workers=args.workers)
        return plan
    if not args.scenario or not args.out:
        raise ParameterError("--scenario and --out are required "
                             "(or use --from-manifest)")
    return ExperimentPlan(
        kind=kind, scenario=_scenario_dict(args.scenario), out_dir=args.out,
        master_seed=args.seed,
        workers=1 if args.workers is None else args.workers,
        n_realizations=_parse_ne(args.ne), grid_nz=args.grid_nz,
        t_end_ps=args.t_end, **fields)


def _cmd_sweep(args) -> int:
    if args.from_manifest:
        plan = _plan_from_args(args, "sweep")
    elif not args.kind:
        raise ParameterError("--kind is required (or use --from-manifest)")
    elif args.kind == "Tp":
        plan = _plan_from_args(args, "sweep_Tp", tp_grid_fs=args.tp_grid,
                               q_grid=args.q_grid)
    else:
        axes = {}
        for name, option, unit in SWEEP_AXES[args.kind]:
            grid = getattr(args, option)
            if grid is None:
                raise ParameterError(f"--kind {args.kind} needs "
                                     f"--{option.replace('_', '-')}")
            axes[name] = [v * unit for v in grid]
        plan = _plan_from_args(args, "sweep", axes=axes,
                               fixed_alpha=args.fixed_alpha)
    out = run_plan(plan)
    print(f"sweep artifacts in {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "run":
            out = run_plan(_plan_from_args(args, "single",
                                           snapshot_stride=args.snapshots))
            print(f"run artifacts in {out}")
            return EXIT_OK
        if args.command == "ensemble":
            out = run_plan(_plan_from_args(args, "ensemble"))
            print(f"ensemble artifacts in {out}")
            return EXIT_OK
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "fit":
            plan = ExperimentPlan(kind="fit", scenario={}, out_dir=args.out,
                                  master_seed=args.seed,
                                  fit_family=args.family, fit_data=args.data,
                                  fit_x_col=args.x_col, fit_y_col=args.y_col)
            out = run_plan(plan)
            print(f"fit artifacts in {out}")
            return EXIT_OK
        raise ParameterError(f"unknown command {args.command!r}")
    except (ParameterError, GridError, FitError, FileNotFoundError,
            json.JSONDecodeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, OSError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
