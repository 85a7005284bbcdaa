"""In-memory span recorder that wraps sfase's functions from outside.

Each wrapped call records a span (name, start, end, parent) and adds its
duration to per-name totals; self time is the duration minus the time its
wrapped children took.  Wrappers replace every reference to a function
across the loaded sfase modules, so names bound by ``from .x import f``
are traced too.  Nothing inside sfase changes, and uninstall() puts every
original back.  Spans made in worker processes are lost, so traced runs
use one worker.
"""
from __future__ import annotations

import os
import sys
import time
from array import array
from pathlib import Path

# (module, attribute) pairs to wrap; FieldState methods are patched on the class
TRACED = [
    ("sfase.params", "scenario_from_dict"),
    ("sfase.solver", "run"),
    ("sfase.solver", "step"),
    ("sfase.solver", "noise_normals"),
    ("sfase.solver", "pump_boundary"),
    ("sfase.solver", "FieldState.check_finite"),
    ("sfase.solver", "FieldState.trace_error"),
    ("sfase.solver", "FieldState.physicality_violation"),
    ("sfase.ensemble", "run_ensemble"),
    ("sfase.ensemble", "_reduce_one"),
    ("sfase.ensemble", "spectrum"),
    ("sfase.ensemble", "pulse_area"),
    ("sfase.ensemble", "delay_time"),
    ("sfase.oracle", "quad"),
    ("sfase.oracle", "inversion_quadrature"),
    ("sfase.oracle", "photons_from_envelope"),
    ("sfase.fitting", "fit"),
    ("sfase.plans", "run_plan"),
    ("sfase.plans", "_run_sweep"),
    ("sfase.plans", "max_inversion"),
    ("sfase.io", "write_csv"),
    ("sfase.io", "write_json"),
    ("sfase.io", "write_realizations"),
    ("sfase.io", "write_ensemble_outputs"),
    ("sfase.io", "write_manifest"),
    ("sfase.cli", "main"),
]
# io writers that each write exactly one file: position of the path argument
IO_LEAVES = {"io.write_csv": 0, "io.write_json": 0, "io.write_realizations": 1}


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr.split('.')[-1]}"


class Stats:
    __slots__ = ("calls", "total_ns", "self_ns", "outer_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.outer_ns = 0   # time not nested in a span of the same module


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, Stats] = {}
        self.counts: dict[str, int] = {}
        self.spans = array("q")      # name id, start ns, end ns, parent index
        self._stack: list[int] = []       # open span indices
        self._stack_module: list[str] = []
        self._child_ns: list[int] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn, on_return=None):
        name_id = len(self.names)
        self.names.append(name)
        self.stats[name] = Stats()
        module = name.split(".")[0]
        stack, stack_module, child_ns = (self._stack, self._stack_module,
                                         self._child_ns)
        spans, clock = self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = not stack_module or stack_module[-1] != module
            stack.append(len(spans) // 4)
            stack_module.append(module)
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack_module.pop()
                inner = child_ns.pop()
                dur = t1 - t0
                if child_ns:
                    child_ns[-1] += dur
                st = self.stats[name]
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - inner
                if outer:
                    st.outer_ns += dur
                spans.extend((name_id, t0, t1, parent))
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _build(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sfase" or n.startswith("sfase.")]
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._wrappers.append(
                    (cls, meth, self._wrap(name, cls.__dict__[meth])))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, ON_RETURN.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._wrappers.append((mod, key, wrapper))

    def install(self) -> None:
        """Wrap every TRACED function in all loaded sfase modules."""
        if not self._wrappers:
            self._build()
        for owner, key, wrapper in self._wrappers:
            self._originals.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._originals):
            setattr(owner, key, orig)
        self._originals.clear()

    def write(self, path: str | Path) -> None:
        """Spans as CSV: name, start_ns, end_ns, parent span index (-1: root)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            s = self.spans
            for i in range(0, len(s), 4):
                fh.write(f"{self.names[s[i]]},{s[i + 1]},{s[i + 2]},{s[i + 3]}\n")


def _count_nodes(tracer, args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    tracer.count("solver.step.node_steps", grid.n_nodes)


def _count_fit(tracer, args, kwargs, result):
    tracer.count("fitting.fit.iterations", result.n_iterations)


def _count_sweep(tracer, args, kwargs, result):
    points = args[2] if len(args) > 2 else kwargs["points"]
    tracer.count("plans.sweep_points", len(points))


def _count_point(tracer, args, kwargs, result):
    tracer.count("plans.sweep_points")


def _file_counter(position: int):
    def count(tracer, args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        tracer.count("io.files_written")
        tracer.count("io.bytes_written", os.path.getsize(path))
    return count


ON_RETURN = {
    "solver.step": _count_nodes,
    "fitting.fit": _count_fit,
    "plans._run_sweep": _count_sweep,
    "plans.max_inversion": _count_point,
    **{name: _file_counter(pos) for name, pos in IO_LEAVES.items()},
}


class PoolCounter:
    """Counts ProcessPoolExecutor constructions as sfase.ensemble names it."""

    def __init__(self):
        self.starts = 0
        self._orig = None

    def install(self) -> None:
        import sfase.ensemble as ens

        self._orig = base = ens.ProcessPoolExecutor
        counter = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counter.starts += 1
                super().__init__(*args, **kwargs)

        ens.ProcessPoolExecutor = CountingPool
