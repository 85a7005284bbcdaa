"""sfase benchmark: three workloads run in-process through sfase.cli.main.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run repeats whole rounds of one workload until the rounds have taken
S seconds, checks every round's artifacts (bench/verify.py), and prints one
JSON line last: correct, attempted, failed and the metrics.  With --trace 0
the metrics are the end-to-end ones (setup_s, run_s, items_per_s,
peak_rss_mb); with --trace 1 untraced and traced rounds alternate and the
per-layer metrics come from the traced rounds (bench/spans.py).  The
program is imported from src/ next to this directory; without it the run
exits 2 before printing a result.
"""
from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, before any other import

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PRESETS = SRC / "sfase" / "presets"


def load_preset(name: str) -> dict:
    return json.loads((PRESETS / f"{name}.json").read_text())


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


class Round(NamedTuple):
    """Outcome of one round's checks."""

    attempted: int
    failed: int
    items: int
    problems: list[str]


class Workload:
    """Set-up (presets, grids) happens in __init__ and is timed as setup_s;
    prepare() computes untimed references.  `ops` is the number of
    operations a round attempts; `expected` holds the per-round counts a
    traced round must reproduce.  finish() checks what the run's rounds
    show together."""

    ops: int
    expected: dict

    def prepare(self, verify) -> None:
        pass

    def finish(self, verify) -> list[str]:
        return []


class Fig5Ensemble(Workload):
    """The paper's long swept-gain medium: one serial fig5 ensemble."""

    NE = 2
    ops = NE

    def __init__(self, params, solver):
        self.raw = load_preset("fig5")
        grid = solver.make_grid(params.scenario_from_dict(self.raw))
        self.expected = {"solver.run.calls": self.ops,
                         "solver.step.calls": self.ops * grid.nsteps,
                         "oracle.quad.calls": 0}
        self.above = {"forward": 0, "backward": 0}
        self.peak_sum = {"forward": 0.0, "backward": 0.0}
        self.realizations = 0

    def run(self, main, out: Path, seed: int, traced: bool) -> list[int]:
        return [main(["ensemble", "--scenario", "fig5", "--workers", "1",
                      "--seed", str(seed), "--ne", str(self.NE),
                      "--out", str(out)])]

    def check(self, verify, out: Path, codes: list[int]) -> Round:
        if codes != [0]:
            return Round(self.ops, self.ops, 0, [f"sfase ensemble exited {codes[0]}"])
        problems, summary = verify.check_ensemble_dir(out, self.raw)
        n = summary["n_realizations"]
        for key in self.above:
            self.above[key] += summary["above"][key]
            self.peak_sum[key] += n * summary[key]["peak_intensity_mean"]
        self.realizations += n
        n_failed = summary["n_failed"]
        return Round(self.ops, n_failed, self.ops - n_failed, problems)

    def finish(self, verify) -> list[str]:
        """Swept-gain asymmetry over all the run's realizations:
        P_fwd >= 0.9, P_bwd <= 0.1, forward mean peak > 10^3 x backward."""
        n = self.realizations
        if not n:
            return ["no realization completed"]
        return (verify.check_probability_at_least(
                    self.above["forward"], n, 0.9, "forward threshold")
                + verify.check_probability_at_most(
                    self.above["backward"], n, 0.1, "backward threshold")
                + verify.check_peak_asymmetry(self.peak_sum["forward"] / n,
                                              self.peak_sum["backward"] / n))


class ShortMediaSweep(Workload):
    """Length-induced backward transition: short media at fixed alpha."""

    NE = 4
    L_GRID = (0.025, 0.05, 0.1)
    ALPHA = 1500.0
    ops = NE * len(L_GRID)

    def __init__(self, params, solver):
        self.raw = load_preset("fig5")
        base = params.scenario_from_dict(self.raw)
        steps = 0
        for length in self.L_GRID:
            scen = base.replace(L=length, n=self.ALPHA / (base.transition.sigma_r * length))
            steps += solver.make_grid(scen).nsteps
        self.expected = {"solver.run.calls": self.ops,
                         "solver.step.calls": self.NE * steps,
                         "oracle.quad.calls": 0}
        self.fwd_above = [0] * len(self.L_GRID)
        self.bwd_peak_sum = [0.0] * len(self.L_GRID)
        self.realizations = [0] * len(self.L_GRID)

    def run(self, main, out: Path, seed: int, traced: bool) -> list[int]:
        # spans made in pool workers are lost, so traced rounds stay serial
        workers = 1 if traced else worker_count()
        return [main(["sweep", "--kind", "L", "--scenario", "fig5",
                      "--l-grid", ",".join(f"{v:g}" for v in self.L_GRID),
                      "--fixed-alpha", f"{self.ALPHA:g}",
                      "--workers", str(workers), "--seed", str(seed),
                      "--ne", str(self.NE), "--out", str(out)])]

    def check(self, verify, out: Path, codes: list[int]) -> Round:
        attempted = self.ops
        # exit 3 means some point failed; its row carries an error marker
        if codes[0] not in (0, 3):
            return Round(attempted, attempted, 0, [f"sfase sweep exited {codes[0]}"])
        rows = verify.read_columns(out / "map.csv")
        problems, failed = [], 0
        for i, err in enumerate(rows["error"]):
            if err:
                failed += self.NE
                continue
            point_problems, summary = verify.check_ensemble_dir(
                out / f"point_{i:03d}", self.raw)
            problems += point_problems
            failed += summary["n_failed"]
            n = summary["n_realizations"]
            self.fwd_above[i] += summary["above"]["forward"]
            self.bwd_peak_sum[i] += n * summary["backward"]["peak_intensity_mean"]
            self.realizations[i] += n
        if (codes[0] == 3) != any(rows["error"]):
            problems.append(f"sweep exit code {codes[0]} disagrees with map.csv")
        return Round(attempted, failed, attempted - failed, problems)

    def finish(self, verify) -> list[str]:
        """Over all the run's realizations: the backward mean peak falls
        with L, and P_fwd >= 0.9 at every length."""
        if not all(self.realizations):
            return [f"realizations completed per length: {self.realizations}"]
        problems = verify.check_length_transition(
            [s / n for s, n in zip(self.bwd_peak_sum, self.realizations)])
        for i, length in enumerate(self.L_GRID):
            problems += verify.check_probability_at_least(
                self.fwd_above[i], self.realizations[i], 0.9,
                f"L = {length:g} mm forward threshold")
        return problems


class PumpStudy(Workload):
    """Analytic pump-duration study at z=0 and its exponential fits."""

    TP_GRID = tuple(float(v) for v in range(15, 91, 5))
    Q_GRID = (1.0, 2.0, 16.0, 256.0)
    ops = len(TP_GRID) * len(Q_GRID)

    def __init__(self, params, solver):
        self.raw = load_preset("fig4")
        base = params.scenario_from_dict(self.raw)
        for q in self.Q_GRID:
            for tp in self.TP_GRID:
                base.replace(tau_p=tp * 1.0e-3, n_p=q * tp * 1.0e12)
        self.reference = None

    def prepare(self, verify) -> None:
        """Reference values; deterministic, so computed once, untimed."""
        self.reference = verify.pump_reference(self.raw, self.TP_GRID, self.Q_GRID)
        self.expected = {"solver.run.calls": 0, "solver.step.calls": 0,
                         "oracle.quad.calls": verify.window_times_after_zero(
                             self.raw, self.TP_GRID, self.Q_GRID)}

    def run(self, main, out: Path, seed: int, traced: bool) -> list[int]:
        codes = [main(["sweep", "--kind", "Tp", "--scenario", "fig4",
                       "--tp-grid", ",".join(f"{v:g}" for v in self.TP_GRID),
                       "--q-grid", ",".join(f"{v:g}" for v in self.Q_GRID),
                       "--out", str(out)])]
        for q in self.Q_GRID:
            codes.append(main(["fit", "--family", "pump_decay",
                               "--data", str(out / "pump_study.csv"),
                               "--x-col", "tau_p_fs",
                               "--y-col", f"max_inversion_q{q:g}",
                               "--out", str(out / f"fit_q{q:g}"),
                               "--seed", str(seed)]))
        return codes

    def check(self, verify, out: Path, codes: list[int]) -> Round:
        import numpy as np

        attempted = self.ops
        if any(codes):
            return Round(attempted, attempted, 0, [f"sfase exited {codes}"])
        cols = verify.read_columns(out / "pump_study.csv")
        tp = np.array([float(v) for v in cols["tau_p_fs"]])
        problems, failed = [], 0
        if list(tp) != list(self.TP_GRID):
            problems.append(f"pump_study.csv T_p column {list(tp)}")
        for q in self.Q_GRID:
            values = np.array([float(v) for v in cols[f"max_inversion_q{q:g}"]])
            problems += verify.check_pump_column(values)
            problems += verify.check_fit(out / f"fit_q{q:g}" / "fit.json", tp, values)
            failed += verify.pump_failures(values, self.reference[q])
        return Round(attempted, failed, attempted, problems)


WORKLOADS = {"fig5_ensemble": Fig5Ensemble,
             "short_media_sweep": ShortMediaSweep,
             "pump_study": PumpStudy}


def per_layer(tracer, n_traced: int, pool_starts: float,
              untraced: list[float], traced: list[float]) -> dict:
    st = tracer.stats

    def total_us(*names):
        return sum(st[n].total_ns for n in names) / 1.0e3

    def per_call(us, calls, scale=1.0):
        return us / calls / scale if calls else 0.0

    def per_round(value):
        return value / n_traced

    step, run = st["solver.step"], st["solver.run"]
    checks = ("solver.check_finite", "solver.trace_error",
              "solver.physicality_violation")
    reduce_us = total_us("ensemble._reduce_one") - total_us("solver.run")
    n_reduce = st["ensemble._reduce_one"].calls
    io_s = sum(s.outer_ns for n, s in st.items() if n.startswith("io.")) / 1.0e9
    m = {
        "params.scenario_from_dict.us_per_call": (per_call(
            total_us("params.scenario_from_dict"),
            st["params.scenario_from_dict"].calls), "us"),
        "solver.run.calls": (per_round(run.calls), "count"),
        "solver.step.calls": (per_round(step.calls), "count"),
        "solver.step.us_per_call": (per_call(step.total_ns / 1.0e3, step.calls), "us"),
        "solver.step.node_steps_per_s": (
            tracer.counts.get("solver.step.node_steps", 0) / (step.total_ns / 1.0e9)
            if step.calls else 0.0, "1/s"),
        "solver.step.self_us_per_call": (per_call(step.self_ns / 1.0e3, step.calls), "us"),
        "solver.noise_normals.us_per_call": (per_call(
            total_us("solver.noise_normals"), st["solver.noise_normals"].calls), "us"),
        "solver.noise_normals.share_of_step": (per_call(
            100.0 * st["solver.noise_normals"].total_ns, step.total_ns), "%"),
        "solver.pump_boundary.us_per_call": (per_call(
            total_us("solver.pump_boundary"), st["solver.pump_boundary"].calls), "us"),
        "solver.checks.us_per_call": (per_call(
            total_us(*checks), sum(st[n].calls for n in checks)), "us"),
        "solver.run.self_us_per_step": (per_call(run.self_ns / 1.0e3, step.calls), "us"),
        "ensemble.reduce.ms_per_realization": (per_call(reduce_us, n_reduce, 1.0e3), "ms"),
        "ensemble.spectrum.calls": (per_round(st["ensemble.spectrum"].calls), "count"),
        "ensemble.aggregate_s": (per_round(
            (st["ensemble.run_ensemble"].total_ns
             - st["ensemble._reduce_one"].total_ns) / 1.0e9), "s"),
        "ensemble.pool_starts": (pool_starts, "count"),
        "plans.run_plan.s": (per_round(st["plans.run_plan"].total_ns / 1.0e9), "s"),
        "plans.sweep_points": (per_round(tracer.counts.get("plans.sweep_points", 0)), "count"),
        "plans.max_inversion.ms_per_call": (per_call(
            total_us("plans.max_inversion"), st["plans.max_inversion"].calls, 1.0e3), "ms"),
        "oracle.quad.calls": (per_round(st["oracle.quad"].calls), "count"),
        "oracle.quad.us_per_call": (per_call(
            total_us("oracle.quad"), st["oracle.quad"].calls), "us"),
        "fitting.fit.calls": (per_round(st["fitting.fit"].calls), "count"),
        "fitting.fit.ms_per_call": (per_call(
            total_us("fitting.fit"), st["fitting.fit"].calls, 1.0e3), "ms"),
        "fitting.fit.iterations": (per_round(tracer.counts.get("fitting.fit.iterations", 0)), "count"),
        "io.write_s": (per_round(io_s), "s"),
        "io.files_written": (per_round(tracer.counts.get("io.files_written", 0)), "count"),
        "io.bytes_written": (per_round(tracer.counts.get("io.bytes_written", 0)), "bytes"),
        "cli.main.self_s": (per_round((st["cli.main"].total_ns
                                       - st["plans.run_plan"].total_ns) / 1.0e9), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def trace_problems(tracer, expected: dict, n_traced: int) -> list[str]:
    """Counts the traced rounds must reproduce, computed from the inputs."""
    problems = []
    for key, want in expected.items():
        got = tracer.stats[key.rsplit(".", 1)[0]].calls / n_traced
        if got != want:
            problems.append(f"traced {key} per round = {got}, expected {want}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sfase" / "cli.py").is_file():
        print(f"error: no sfase sources under {SRC}", file=sys.stderr)
        return 2

    # --- set-up: imports, preset loading and validation, grids
    sys.path.insert(0, str(SRC))
    import sfase.cli
    from sfase import params, solver
    if Path(sfase.cli.__file__).resolve().parents[1] != SRC:
        print(f"error: sfase imported from {sfase.cli.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](params, solver)
    setup_s = time.perf_counter() - START

    import verify
    import spans

    workload.prepare(verify)
    tracer = spans.Tracer() if args.trace else None
    pool = spans.PoolCounter() if args.trace else None
    if pool:
        pool.install()
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    times = {False: [], True: []}
    pool_starts = []
    attempted = failed = items = 0
    problems: list[str] = []
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        out = run_dir / f"round_{k:03d}"
        starts = pool.starts if pool else 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = workload.run(sfase.cli.main, out, args.seed * 1000 + k, traced)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        else:
            pool_starts.append((pool.starts if pool else 0) - starts)
        times[traced].append(elapsed)
        print(f"round {k}: {'traced' if traced else 'untraced'} {elapsed:.3f} s",
              file=sys.stderr)
        try:
            result = workload.check(verify, out, codes)
        except (OSError, KeyError, ValueError, IndexError) as err:
            ops = workload.ops
            result = Round(ops, ops, 0, [f"unreadable artifacts: {err!r}"])
        shutil.rmtree(out, ignore_errors=True)
        attempted += result.attempted
        failed += result.failed
        items += result.items
        problems += [f"round {k}: {p}" for p in result.problems]
        k += 1
        if (sum(times[False]) + sum(times[True]) >= args.seconds
                and (not args.trace or k >= 2)):
            break
    problems += workload.finish(verify)
    peak_rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        n_traced = len(times[True])
        problems += trace_problems(tracer, workload.expected, n_traced)
        metrics = per_layer(tracer, n_traced, statistics.mean(pool_starts),
                            times[False], times[True])
        tracer.write(OUT / f"spans-{args.workload}.csv")
    else:
        run_s = statistics.median(times[False])
        n_rounds = len(times[False])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "items_per_s": {"value": items / n_rounds / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
        }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
