"""Single-realization integrator for the stochastic Maxwell-Bloch system.

The three-level medium is discretized on nodes z_k = k*dz, k = 0..nz, and
advanced with the unit-CFL time step dt = dz/c so that the counter-propagating
envelopes and the pump flux are transported exactly one node per step (no
numerical dispersion).  Per step:

  1. pump flux advected forward with trapezoidal Beer-Lambert attenuation;
  2. ground-state depletion integrated exactly (the pump rate sigma*J_p can
     exceed 1/dt by orders of magnitude, so an explicit update would blow up);
     the pumped population enters |2> through a Simpson-weighted decay kernel,
     the already-decayed remainder enters |1>, keeping the trace exact.
     Once the incident flux has underflowed to 0 and J_p is 0 on every node
     (the pump has left the medium), 1-2 are skipped: they would leave
     J_p = 0 and rho00 unchanged and move no population;
  3. field envelopes advected with the i*eta*rho21 source applied along the
     characteristic by a trapezoidal predictor-corrector;
  4. remaining Bloch terms (decay, coherent coupling) advanced per node with
     one Heun step using the local fields at t and t+dt;
  5. spontaneous-emission noise added to rho21 as an independent complex
     Gaussian increment per (node, step, direction), Euler-Maruyama style,
     with variance K*dt/2 per real and imaginary part, where the noise
     power is K = phi*rho22*Gamma^2*omega^2/(24 n pi^2 c^3)
     (`Scenario.derived.noise_prefactor` times max(rho22, 0), in 1/ps).

Stages 1-5 are one call of a compiled C function (`step_kernel.c`, built
and cached by `sfase.kernel` on the first step of a process); `step`
computes the incident pump flux (`pump_boundary`) in Python and passes it
in with stage 5's noise coordinates.  The C code keeps the operation order
of the numpy formulation kept in the tests as its reference, so the two
differ only where libm's exp rounds differently from numpy's vectorised
exp: by 1 ulp on a few percent of its arguments.  Stage 5's normals are
drawn inside the kernel, bitwise equal to `noise_normals`, which defines
the v1 stream in numpy and is the tests' reference for the kernel's draw.

`run` checks the state every CHECK_STRIDE steps and raises `SolverError`
naming the array, cell and step of the first non-finite value; it does
not know which realization it runs.  The ensemble charges the failure to
its realization (`ensemble._reduce_one`).
"""
from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernel
from .params import C_MM_PER_PS, Scenario, MediumParams, PumpParams

log = logging.getLogger(__name__)

PUMP_RESOLUTION = 20    # dt <= tau_p / 20
DECAY_RESOLUTION = 50   # dt <= tau2 / 50
# run checks finiteness, trace and physicality every CHECK_STRIDE steps
# and after the last one
CHECK_STRIDE = 10


class SolverError(RuntimeError):
    """A realization produced a non-finite value or an invalid state."""


class GridError(ValueError):
    """Grid resolution incompatible with the scenario time scales."""


@dataclass(frozen=True)
class GridSpec:
    nz: int          # number of spatial cells; nz+1 nodes
    dz: float        # cell size L/nz (mm)
    dt: float        # time step dz/c (ps)
    t_end: float     # simulation horizon (ps)

    @property
    def n_nodes(self) -> int:
        return self.nz + 1

    @property
    def nsteps(self) -> int:
        return int(math.ceil(self.t_end / self.dt - 1.0e-9))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.nsteps + 1) * self.dt


def default_t_end(scen: Scenario) -> float:
    """tau_i + L/c + 6*tau2: pump transit plus the delayed burst window."""
    return (scen.pump.tau_i + scen.medium.L / C_MM_PER_PS
            + 6.0 * scen.transition.tau2)


def make_grid(scen: Scenario, nz: int | None = None,
              t_end: float | None = None) -> GridSpec:
    """Build and validate a grid for a scenario.

    With nz=None the coarsest grid resolving both the pump envelope
    (dt <= tau_p/20) and the decay (dt <= tau2/50) is chosen.
    """
    dt_max = min(scen.pump.tau_p / PUMP_RESOLUTION,
                 scen.transition.tau2 / DECAY_RESOLUTION)
    if nz is None:
        nz = max(1, int(math.ceil(scen.medium.L / (C_MM_PER_PS * dt_max)
                                  - 1.0e-9)))
    if not 1 <= nz <= sys.float_info.max:
        raise GridError(f"nz must be an integer from 1 to "
                        f"{sys.float_info.max:.4g}, got {nz}")
    dz = scen.medium.L / nz
    dt = dz / C_MM_PER_PS
    if dt > dt_max * (1.0 + 1.0e-12):
        raise GridError(
            f"nz={nz} gives dt={dt:.4g} ps, above the resolution limit "
            f"{dt_max:.4g} ps (tau_p/{PUMP_RESOLUTION}, tau2/{DECAY_RESOLUTION})"
        )
    if t_end is None:
        t_end = default_t_end(scen)
    if t_end <= 0:
        raise GridError("t_end must be strictly positive")
    return GridSpec(nz=nz, dz=dz, dt=dt, t_end=t_end)


# version of the seeded noise draw recorded in manifests; a change that
# alters the numbers noise_normals, or the kernel's draw, returns for given
# coordinates bumps it
NOISE_STREAM = "v1"


@dataclass(frozen=True)
class NoiseSpec:
    master_seed: int
    realization_index: int = 0


def noise_normals(noise: NoiseSpec, istep: int, n_nodes: int) -> np.ndarray:
    """Standard-normal block for one step, shape (4, n_nodes): the numpy
    definition of the v1 noise stream.

    `step` does not call it: the step kernel draws the same numbers bit for
    bit in C.  It is the reference the kernel's draw is tested against.
    Rows are (Re+, Im+, Re-, Im-).  The draw is a pure function of
    (master_seed, realization_index, istep): the Philox counter encodes the
    realization and step, so identical coordinates give identical samples
    across processes and restarts, independent of scheduling.
    """
    bits = np.random.Philox(key=noise.master_seed,
                            counter=[0, 0, noise.realization_index, istep])
    return np.random.Generator(bits).standard_normal((4, n_nodes))


def pump_boundary(t, pump: PumpParams, medium: MediumParams):
    """Incident pump photon flux at z=0, photons/(ps mm^2)."""
    peak = pump.n_p / (math.pi**1.5 * medium.r**2 * pump.tau_p)
    return peak * np.exp(-(((np.asarray(t) - pump.tau_i) / pump.tau_p) ** 2))


@dataclass
class FieldState:
    """Atomic density-matrix elements and field envelopes on the z nodes.

    The component axis comes first and the nodes last; rows of ``coh`` and
    ``omega`` are the forward (+) and backward (-) directions.
    """

    pop: np.ndarray     # float (3, n_nodes): rho00, rho11, rho22
    coh: np.ndarray     # complex (2, n_nodes): rho21 +, -
    omega: np.ndarray   # complex (2, n_nodes): Rabi envelopes +, - (rad/ps)
    jp: np.ndarray      # float (n_nodes,): pump photon flux (photons/(ps mm^2))
    t: float = 0.0
    istep: int = 0

    def trace_error(self) -> float:
        return float(np.max(np.abs(self.pop.sum(axis=0) - 1.0)))

    def inversion(self) -> np.ndarray:
        return self.pop[2] - self.pop[1]

    def physicality_violation(self) -> float:
        """Max of |rho21|^2 - rho22*rho11 over nodes and directions (monitored)."""
        return float(np.max(np.abs(self.coh) ** 2 - self.pop[2] * self.pop[1]))

    def check_finite(self) -> None:
        """Raise SolverError naming the array, row and cell of the first
        non-finite value, and the step."""
        for name, arr in vars(self).items():
            if not isinstance(arr, np.ndarray):
                continue
            bad = ~np.isfinite(arr)
            if bad.any():
                at = ", ".join(map(str, np.unravel_index(np.argmax(bad),
                                                         arr.shape)))
                raise SolverError(
                    f"non-finite value in {name}[{at}] at "
                    f"step {self.istep} (t = {self.t:.6g} ps)")


def initialize(scen: Scenario, grid: GridSpec) -> FieldState:
    """The physical state at t=0: all population in |0>, no coherence,
    field or pump in the medium."""
    nn = grid.n_nodes
    state = FieldState(pop=np.zeros((3, nn)),
                       coh=np.zeros((2, nn), dtype=complex),
                       omega=np.zeros((2, nn), dtype=complex), jp=np.zeros(nn))
    state.pop[0] = 1.0
    return state


def step(state: FieldState, scen: Scenario, grid: GridSpec,
         noise: NoiseSpec | None = None) -> FieldState:
    """Advance one realization by dt, returning the new state; the input
    state is not written into.  Stages (1)-(5) run in one call of the
    compiled kernel (`sfase.kernel`), built on the first call."""
    lib, ffi = kernel.load()
    nn = grid.n_nodes
    t_new = state.t + grid.dt
    # the input arrays must be C-contiguous float64 (3, nn), complex
    # (2, nn) and float64 (nn,): from_buffer rejects a non-contiguous
    # array and one shorter than its fixed-length type
    pop_t, pair_t, node_t = _buffer_types(ffi, nn)
    jp_in = pump_boundary(t_new, scen.pump, scen.medium)
    # (5)'s v1 normals are drawn in the kernel from their coordinates: the
    # Philox key (the seed's low and high 64 bits), realization and step
    seed, index = ((0, 0) if noise is None
                   else (noise.master_seed, noise.realization_index))
    new = FieldState(pop=np.empty((3, nn)), coh=np.empty((2, nn), dtype=complex),
                     omega=np.empty((2, nn), dtype=complex), jp=np.empty(nn),
                     t=t_new, istep=state.istep + 1)
    buf = ffi.from_buffer
    if lib.sfase_step(
            nn, grid.dt, grid.dz, scen.transition.gamma, scen.derived.eta,
            scen.medium.n, scen.medium.sigma, scen.derived.noise_prefactor,
            jp_in, buf(pop_t, state.pop), buf(pair_t, state.coh),
            buf(pair_t, state.omega), buf(node_t, state.jp),
            noise is not None, seed % 2**64, seed >> 64, index, state.istep,
            buf(pop_t, new.pop, True), buf(pair_t, new.coh, True),
            buf(pair_t, new.omega, True), buf(node_t, new.jp, True)):
        raise MemoryError(f"step {state.istep}: cannot allocate the noise "
                          f"normals of {nn} nodes")
    return new


@functools.lru_cache(maxsize=64)
def _buffer_types(ffi, n_nodes: int) -> tuple:
    """Fixed-length double array types of (3, n), (4, n) and (n,) doubles:
    a pop, a coh/omega and a jp buffer."""
    return tuple(ffi.typeof(f"double[{k * n_nodes}]") for k in (3, 4, 1))


@dataclass
class RunRecord:
    """Boundary time series of one realization."""

    t: np.ndarray                    # shared time axis (ps)
    # complex (2, nsteps+1), rad/ps: rows Omega+(t, L) and Omega-(t, 0), in
    # the row order of FieldState.omega
    omega_out: np.ndarray
    jp_out: np.ndarray               # J_p(t, L) (photons/(ps mm^2))
    max_trace_error: float = 0.0
    max_physicality_violation: float = 0.0
    snapshot_times: np.ndarray | None = None     # I(t, z) snapshots
    snapshot_inversion: np.ndarray | None = None


def run(scen: Scenario, grid: GridSpec, noise: NoiseSpec | None = None, *,
        initial: FieldState | None = None,
        snapshot_stride: int = 0) -> RunRecord:
    """Integrate one realization from t=0 to t_end, recording boundary series.

    The integration starts from ``initial``, a state at t=0 that is left
    unmodified, or by default from the ground state.  With snapshot_stride
    > 0 the inversion on every node is recorded after every
    snapshot_stride-th step.
    """
    state = initialize(scen, grid) if initial is None else initial
    nsteps, times = grid.nsteps, grid.times
    omega_out = np.zeros((2, nsteps + 1), dtype=complex)
    jp_out = np.zeros(nsteps + 1)
    snap_t, snaps = [], []

    max_trace = state.trace_error()
    max_phys = 0.0

    for i in range(nsteps):
        state = step(state, scen, grid, noise)
        if (i + 1) % CHECK_STRIDE == 0 or i == nsteps - 1:
            state.check_finite()
            max_trace = max(max_trace, state.trace_error())
            max_phys = max(max_phys, state.physicality_violation())
        omega_out[0, i + 1] = state.omega[0, -1]
        omega_out[1, i + 1] = state.omega[1, 0]
        jp_out[i + 1] = state.jp[-1]
        if snapshot_stride and (i + 1) % snapshot_stride == 0:
            snap_t.append(times[i + 1])
            snaps.append(state.inversion().copy())

    if max_phys > 1.0e-3:
        log.warning("physicality |rho21|^2 <= rho22*rho11 violated by %.3g "
                    "(stochastic coherence injection)", max_phys)
    return RunRecord(
        t=times,
        omega_out=omega_out, jp_out=jp_out,
        max_trace_error=max_trace,
        max_physicality_violation=max_phys,
        snapshot_times=np.array(snap_t) if snap_t else None,
        snapshot_inversion=np.array(snaps) if snaps else None,
    )
