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
     (the pump has left the medium, or it is disabled), 1-2 are skipped:
     they would leave J_p = 0 and rho00 unchanged and move no population;
  3. field envelopes advected with the i*eta*rho21 source applied along the
     characteristic by a trapezoidal predictor-corrector;
  4. remaining Bloch terms (decay, coherent coupling) advanced per node with
     one Heun step using the local fields at t and t+dt;
  5. spontaneous-emission noise added to rho21 as an independent complex
     Gaussian increment per (node, step, direction), Euler-Maruyama style.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .params import Scenario, MediumParams, PumpParams, ParameterError

log = logging.getLogger(__name__)

PUMP_RESOLUTION = 20    # dt <= tau_p / 20
DECAY_RESOLUTION = 50   # dt <= tau2 / 50


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
    return (scen.pump.tau_i + scen.medium.L / scen.constants.c
            + 6.0 * scen.transition.tau2)


def make_grid(scen: Scenario, nz: int | None = None,
              t_end: float | None = None) -> GridSpec:
    """Build and validate a grid for a scenario.

    With nz=None the coarsest grid resolving both the pump envelope
    (dt <= tau_p/20) and the decay (dt <= tau2/50) is chosen.
    """
    c = scen.constants.c
    dt_max = min(scen.pump.tau_p / PUMP_RESOLUTION,
                 scen.transition.tau2 / DECAY_RESOLUTION)
    if nz is None:
        nz = max(1, int(math.ceil(scen.medium.L / (c * dt_max) - 1.0e-9)))
    dz = scen.medium.L / nz
    dt = dz / c
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
# alters the numbers noise_normals returns for given coordinates bumps it
NOISE_STREAM = "v1"


@dataclass(frozen=True)
class NoiseSpec:
    master_seed: int
    realization_index: int = 0
    enabled: bool = True


def noise_normals(noise: NoiseSpec, istep: int, n_nodes: int) -> np.ndarray:
    """Standard-normal block for one step, shape (4, n_nodes).

    Rows are (Re+, Im+, Re-, Im-).  The draw is a pure function of
    (master_seed, realization_index, istep): the Philox counter encodes the
    realization and step, so identical coordinates give identical samples
    across processes and restarts, independent of scheduling.  The last
    seed's generator is kept and its whole state reset on each call, which
    draws the same samples as a freshly built one at a fraction of the cost.
    """
    global _philox
    seed, gen, state = _philox
    if seed != noise.master_seed:
        gen = np.random.Generator(np.random.Philox(key=noise.master_seed))
        state = gen.bit_generator.state
        _philox = (noise.master_seed, gen, state)
    state["state"]["counter"] = np.array(
        [0, 0, noise.realization_index, istep], dtype=np.uint64)
    state["buffer_pos"] = 4      # empty output buffer, as after construction
    state["has_uint32"] = state["uinteger"] = 0
    gen.bit_generator.state = state
    return gen.standard_normal((4, n_nodes))


# (master seed, generator, state template) reused by noise_normals
_philox: tuple = (None, None, None)


def noise_variance(rho22: np.ndarray | float, scen: Scenario) -> np.ndarray | float:
    """Noise power K = phi*rho22*Gamma^2*omega^2/(24 n pi^2 c^3), in 1/ps.

    <|dW|^2> over one step is K*dt; real and imaginary parts are independent
    with variance K*dt/2 each.
    """
    return scen.derived.noise_prefactor * np.maximum(rho22, 0.0)


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


# initial-condition mode -> the population row that starts at 1
INIT_ROWS = {"ground": 0, "absorbing": 1, "inverted": 2}


def initialize(scen: Scenario, grid: GridSpec, mode: str = "ground",
               rho21_seed: complex = 0.0) -> FieldState:
    """Fresh state at t=0.

    mode 'ground' is the physical initial condition (all population in |0>);
    'inverted' (rho22=1) and 'absorbing' (rho11=1) are test modes for
    convergence and reabsorption checks.
    """
    if mode not in INIT_ROWS:
        raise ParameterError(f"unknown init mode {mode!r}")
    nn = grid.n_nodes
    state = FieldState(pop=np.zeros((3, nn)),
                       coh=np.full((2, nn), rho21_seed, dtype=complex),
                       omega=np.zeros((2, nn), dtype=complex), jp=np.zeros(nn))
    state.pop[INIT_ROWS[mode]] = 1.0
    return state


def _bloch_rhs(r11, r22, coh, omega, gamma):
    """Decay + coherent-coupling part of Eqs. for (rho11, rho22, rho21+-).

    The pump term is handled exactly outside; rho00 does not appear here.
    Returns (d11, dcoh); d22 = -d11 exactly (the trace is conserved).
    """
    d11 = gamma * r22 + (omega * coh.conj()).imag.sum(axis=0)
    dcoh = -0.5 * gamma * coh - 0.5j * (r22 - r11) * omega
    return d11, dcoh


def step(state: FieldState, scen: Scenario, grid: GridSpec,
         noise: NoiseSpec | None = None, *, pump_enabled: bool = True,
         omega_plus_boundary: Optional[Callable[[float], complex]] = None,
         ) -> FieldState:
    """Advance one realization by dt, returning the new state."""
    dt, dz = grid.dt, grid.dz
    gamma = scen.transition.gamma
    eta = scen.derived.eta
    n_at = scen.medium.n
    sigma = scen.medium.sigma
    t_new = state.t + dt

    r00, r11, r22 = state.pop
    coh, omega, jp = state.coh, state.omega, state.jp
    pop_new = np.empty_like(state.pop)

    jp_in = pump_boundary(t_new, scen.pump, scen.medium) if pump_enabled else 0.0
    if jp_in == 0.0 and not jp.any():
        # the pump has left the medium (or is off): stages (1)-(2) reduce
        # exactly to J_p = 0, rho00 unchanged and no influx.  jp is shared
        # with the input state, which step never writes into.
        jp_new = jp
        pop_new[0] = r00
        influx11 = influx22 = 0.0
    else:
        # (1) pump advection with trapezoidal attenuation along the
        # characteristic
        jp_new = np.empty_like(jp)
        np.multiply(jp[:-1],
                    np.exp(-n_at * sigma * dz * 0.5 * (r00[:-1] + r00[1:])),
                    out=jp_new[1:])
        jp_new[0] = jp_in

        # (2) exact ground-state depletion; rates r = sigma*J_p at t,
        # t+dt/2, t+dt
        rate0 = sigma * jp
        rate1 = sigma * jp_new
        rate_m = 0.5 * (rate0 + rate1)
        r00_half = r00 * np.exp(-0.25 * dt * (rate0 + rate_m))
        r00_new = np.multiply(r00_half, np.exp(-0.25 * dt * (rate_m + rate1)),
                              out=pop_new[0])
        delta = r00 - r00_new
        # influx into |2> weighted by the decay kernel over the step (Simpson)
        s0 = rate0 * r00
        s_mid = rate_m * r00_half
        s1 = rate1 * r00_new
        influx22 = (dt / 6.0) * (s0 * math.exp(-gamma * dt)
                                 + 4.0 * s_mid * math.exp(-0.5 * gamma * dt)
                                 + s1)
        np.minimum(influx22, delta, out=influx22)
        influx11 = delta - influx22

    # (3) field advection; trapezoidal source needs predicted rho21 at t+dt,
    # which is also the Heun predictor of step (4).  The + envelope moves
    # toward z = L and the - envelope toward z = 0.
    d11, dcoh = _bloch_rhs(r11, r22, coh, omega, gamma)
    coh_pred = coh + dt * dcoh
    omega_new = np.empty_like(omega)
    half_src = 0.5j * eta * dz
    np.add(omega[0, :-1], half_src * (coh[0, :-1] + coh_pred[0, 1:]),
           out=omega_new[0, 1:])
    omega_new[0, 0] = omega_plus_boundary(t_new) if omega_plus_boundary else 0.0
    np.add(omega[1, 1:], half_src * (coh[1, 1:] + coh_pred[1, :-1]),
           out=omega_new[1, :-1])
    omega_new[1, -1] = 0.0

    # (4) Heun for decay + coupling, local fields at t and t+dt; |1> gains
    # exactly what |2> loses
    shift = dt * d11
    d11_2, dcoh_2 = _bloch_rhs(r11 + shift, r22 - shift, coh_pred, omega_new,
                               gamma)
    shift = 0.5 * dt * (d11 + d11_2)
    np.add(r11 + shift, influx11, out=pop_new[1])
    np.add(r22 - shift, influx22, out=pop_new[2])
    coh_new = coh + 0.5 * dt * (dcoh + dcoh_2)

    # (5) spontaneous-emission noise on the coherences; normal rows are
    # (Re+, Im+, Re-, Im-)
    if noise is not None and noise.enabled:
        z = noise_normals(noise, state.istep, grid.n_nodes)
        z *= np.sqrt(0.5 * dt * noise_variance(pop_new[2], scen))
        coh_new.real += z[0::2]
        coh_new.imag += z[1::2]

    return FieldState(pop=pop_new, coh=coh_new, omega=omega_new, jp=jp_new,
                      t=t_new, istep=state.istep + 1)


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
    inversion_out: np.ndarray | None = None      # I(t, z_probe) if requested
    snapshot_times: np.ndarray | None = None     # I(t, z) snapshots
    snapshot_inversion: np.ndarray | None = None


def run(scen: Scenario, grid: GridSpec, noise: NoiseSpec | None = None, *,
        pump_enabled: bool = True, init_mode: str = "ground",
        rho21_seed: complex = 0.0,
        omega_plus_boundary: Optional[Callable[[float], complex]] = None,
        snapshot_stride: int = 0, inversion_node: int | None = None,
        check_stride: int = 10) -> RunRecord:
    """Integrate one realization from t=0 to t_end, recording boundary series."""
    state = initialize(scen, grid, mode=init_mode, rho21_seed=rho21_seed)
    nsteps = grid.nsteps
    omega_out = np.zeros((2, nsteps + 1), dtype=complex)
    jp_out = np.zeros(nsteps + 1)
    inv_out = np.zeros(nsteps + 1) if inversion_node is not None else None
    snap_t, snaps = [], []

    if inv_out is not None:
        inv_out[0] = state.pop[2, inversion_node] - state.pop[1, inversion_node]
    max_trace = state.trace_error()
    max_phys = 0.0

    for i in range(nsteps):
        try:
            state = step(state, scen, grid, noise, pump_enabled=pump_enabled,
                         omega_plus_boundary=omega_plus_boundary)
            if (i + 1) % check_stride == 0 or i == nsteps - 1:
                state.check_finite()
                max_trace = max(max_trace, state.trace_error())
                max_phys = max(max_phys, state.physicality_violation())
        except SolverError as err:
            idx = noise.realization_index if noise is not None else None
            raise SolverError(f"realization {idx}: {err}") from err
        omega_out[0, i + 1] = state.omega[0, -1]
        omega_out[1, i + 1] = state.omega[1, 0]
        jp_out[i + 1] = state.jp[-1]
        if inv_out is not None:
            inv_out[i + 1] = (state.pop[2, inversion_node]
                              - state.pop[1, inversion_node])
        if snapshot_stride and (i + 1) % snapshot_stride == 0:
            snap_t.append(state.t)
            snaps.append(state.inversion().copy())

    if max_phys > 1.0e-3:
        log.warning("physicality |rho21|^2 <= rho22*rho11 violated by %.3g "
                    "(stochastic coherence injection)", max_phys)
    return RunRecord(
        t=grid.times,
        omega_out=omega_out, jp_out=jp_out,
        max_trace_error=max_trace,
        max_physicality_violation=max_phys,
        inversion_out=inv_out,
        snapshot_times=np.array(snap_t) if snap_t else None,
        snapshot_inversion=np.array(snaps) if snaps else None,
    )
