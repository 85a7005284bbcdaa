"""Single-realization integrator for the stochastic Maxwell-Bloch system.

The three-level medium is discretized on nodes z_k = k*dz, k = 0..nz, and
advanced with the unit-CFL time step dt = dz/c so that the counter-propagating
envelopes and the pump flux are transported exactly one node per step (no
numerical dispersion).  Per step:

  1. pump flux advected forward with trapezoidal Beer-Lambert attenuation;
  2. ground-state depletion integrated exactly (the pump rate sigma*J_p can
     exceed 1/dt by orders of magnitude, so an explicit update would blow up);
     the pumped population enters |2> through a Simpson-weighted decay kernel,
     the already-decayed remainder enters |1>, keeping the trace exact;
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
    """Atomic density-matrix elements and field envelopes on the z nodes."""

    rho00: np.ndarray        # float, population of |0>
    rho11: np.ndarray        # float, population of |1>
    rho22: np.ndarray        # float, population of |2>
    rho21_plus: np.ndarray   # complex, forward coherence
    rho21_minus: np.ndarray  # complex, backward coherence
    omega_plus: np.ndarray   # complex, forward Rabi envelope (rad/ps)
    omega_minus: np.ndarray  # complex, backward Rabi envelope (rad/ps)
    jp: np.ndarray           # float, pump photon flux (photons/(ps mm^2))
    t: float = 0.0
    istep: int = 0

    def trace_error(self) -> float:
        return float(np.max(np.abs(self.rho00 + self.rho11 + self.rho22 - 1.0)))

    def inversion(self) -> np.ndarray:
        return self.rho22 - self.rho11

    def physicality_violation(self) -> float:
        """Max of |rho21|^2 - rho22*rho11 over nodes and directions (monitored)."""
        bound = self.rho22 * self.rho11
        return float(max(np.max(np.abs(self.rho21_plus) ** 2 - bound),
                         np.max(np.abs(self.rho21_minus) ** 2 - bound)))

    def check_finite(self) -> None:
        for name in ("rho00", "rho11", "rho22", "rho21_plus", "rho21_minus",
                     "omega_plus", "omega_minus", "jp"):
            arr = getattr(self, name)
            bad = ~np.isfinite(arr)
            if bad.any():
                cell = int(np.argmax(bad))
                raise SolverError(
                    f"non-finite value in {name} at cell {cell}, "
                    f"step {self.istep} (t = {self.t:.6g} ps)")


def initialize(scen: Scenario, grid: GridSpec, mode: str = "ground",
               rho21_seed: complex = 0.0) -> FieldState:
    """Fresh state at t=0.

    mode 'ground' is the physical initial condition (all population in |0>);
    'inverted' (rho22=1) and 'absorbing' (rho11=1) are test modes for
    convergence and reabsorption checks.
    """
    nn = grid.n_nodes
    zeros = lambda: np.zeros(nn)
    czeros = lambda: np.zeros(nn, dtype=complex)
    state = FieldState(rho00=zeros(), rho11=zeros(), rho22=zeros(),
                       rho21_plus=czeros(), rho21_minus=czeros(),
                       omega_plus=czeros(), omega_minus=czeros(), jp=zeros())
    if mode == "ground":
        state.rho00[:] = 1.0
    elif mode == "inverted":
        state.rho22[:] = 1.0
    elif mode == "absorbing":
        state.rho11[:] = 1.0
    else:
        raise ParameterError(f"unknown init mode {mode!r}")
    if rho21_seed != 0.0:
        state.rho21_plus[:] = rho21_seed
        state.rho21_minus[:] = rho21_seed
    return state


def _bloch_rhs(r11, r22, rp, rm, op, om, gamma):
    """Decay + coherent-coupling part of Eqs. for (rho11, rho22, rho21+-).

    The pump term is handled exactly outside; rho00 does not appear here.
    Returns (d11, drp, drm); d22 = -d11 exactly (the trace is conserved).
    """
    cpl = (op * rp.conj()).imag + (om * rm.conj()).imag
    d11 = gamma * r22 + cpl
    half_inv = 0.5j * (r22 - r11)
    drp = -0.5 * gamma * rp - half_inv * op
    drm = -0.5 * gamma * rm - half_inv * om
    return d11, drp, drm


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

    r00, r11, r22 = state.rho00, state.rho11, state.rho22
    rp, rm = state.rho21_plus, state.rho21_minus
    op, om = state.omega_plus, state.omega_minus
    jp = state.jp

    # (1) pump advection with trapezoidal attenuation along the characteristic
    jp_new = np.empty_like(jp)
    np.multiply(jp[:-1],
                np.exp(-n_at * sigma * dz * 0.5 * (r00[:-1] + r00[1:])),
                out=jp_new[1:])
    jp_new[0] = pump_boundary(t_new, scen.pump, scen.medium) if pump_enabled else 0.0

    # (2) exact ground-state depletion; rates r = sigma*J_p at t, t+dt/2, t+dt
    rate0 = sigma * jp
    rate1 = sigma * jp_new
    rate_m = 0.5 * (rate0 + rate1)
    r00_half = r00 * np.exp(-0.25 * dt * (rate0 + rate_m))
    r00_new = r00_half * np.exp(-0.25 * dt * (rate_m + rate1))
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
    # which is also the Heun predictor of step (4)
    d11, drp, drm = _bloch_rhs(r11, r22, rp, rm, op, om, gamma)
    rp_pred = rp + dt * drp
    rm_pred = rm + dt * drm
    op_new = np.empty_like(op)
    om_new = np.empty_like(om)
    half_src = 0.5j * eta * dz
    np.add(op[:-1], half_src * (rp[:-1] + rp_pred[1:]), out=op_new[1:])
    op_new[0] = omega_plus_boundary(t_new) if omega_plus_boundary else 0.0
    np.add(om[1:], half_src * (rm[1:] + rm_pred[:-1]), out=om_new[:-1])
    om_new[-1] = 0.0

    # (4) Heun for decay + coupling, local fields at t and t+dt; |1> gains
    # exactly what |2> loses
    shift = dt * d11
    d11_2, drp_2, drm_2 = _bloch_rhs(r11 + shift, r22 - shift,
                                     rp_pred, rm_pred, op_new, om_new, gamma)
    shift = 0.5 * dt * (d11 + d11_2)
    r11_new = r11 + shift + influx11
    r22_new = r22 - shift + influx22
    rp_new = rp + 0.5 * dt * (drp + drp_2)
    rm_new = rm + 0.5 * dt * (drm + drm_2)

    # (5) spontaneous-emission noise on the coherences
    if noise is not None and noise.enabled:
        z = noise_normals(noise, state.istep, grid.n_nodes)
        z *= np.sqrt(0.5 * dt * noise_variance(r22_new, scen))
        rp_new.real += z[0]
        rp_new.imag += z[1]
        rm_new.real += z[2]
        rm_new.imag += z[3]

    new = FieldState(rho00=r00_new, rho11=r11_new, rho22=r22_new,
                     rho21_plus=rp_new, rho21_minus=rm_new,
                     omega_plus=op_new, omega_minus=om_new, jp=jp_new,
                     t=t_new, istep=state.istep + 1)
    return new


@dataclass
class RunRecord:
    """Boundary time series of one realization plus seed metadata."""

    t: np.ndarray                    # shared time axis (ps)
    omega_plus_out: np.ndarray       # Omega+(t, L), complex (rad/ps)
    omega_minus_out: np.ndarray      # Omega-(t, 0), complex (rad/ps)
    jp_out: np.ndarray               # J_p(t, L) (photons/(ps mm^2))
    master_seed: int | None
    realization_index: int | None
    noise_enabled: bool
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
    op_out = np.zeros(nsteps + 1, dtype=complex)
    om_out = np.zeros(nsteps + 1, dtype=complex)
    jp_out = np.zeros(nsteps + 1)
    inv_out = np.zeros(nsteps + 1) if inversion_node is not None else None
    snap_t, snaps = [], []

    if inv_out is not None:
        inv_out[0] = state.rho22[inversion_node] - state.rho11[inversion_node]
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
        op_out[i + 1] = state.omega_plus[-1]
        om_out[i + 1] = state.omega_minus[0]
        jp_out[i + 1] = state.jp[-1]
        if inv_out is not None:
            inv_out[i + 1] = (state.rho22[inversion_node]
                              - state.rho11[inversion_node])
        if snapshot_stride and (i + 1) % snapshot_stride == 0:
            snap_t.append(state.t)
            snaps.append(state.inversion().copy())

    if max_phys > 1.0e-3:
        log.warning("physicality |rho21|^2 <= rho22*rho11 violated by %.3g "
                    "(stochastic coherence injection)", max_phys)
    return RunRecord(
        t=grid.times,
        omega_plus_out=op_out, omega_minus_out=om_out, jp_out=jp_out,
        master_seed=noise.master_seed if noise is not None else None,
        realization_index=noise.realization_index if noise is not None else None,
        noise_enabled=bool(noise is not None and noise.enabled),
        max_trace_error=max_trace,
        max_physicality_violation=max_phys,
        inversion_out=inv_out,
        snapshot_times=np.array(snap_t) if snap_t else None,
        snapshot_inversion=np.array(snaps) if snaps else None,
    )
