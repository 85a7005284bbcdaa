"""The numpy formulation of `solver.step`, kept as the reference that the
compiled kernel is tested against.

It is the integrator as it was written in numpy, stage for stage; the
kernel (`sfase/step_kernel.c`) keeps the operation order of every
expression here, so the two differ only where libm's exp and numpy's
vectorised exp round differently (1 ulp on a few percent of arguments).
"""
import math

import numpy as np

from sfase.params import Scenario
from sfase.solver import (FieldState, GridSpec, NoiseSpec, noise_normals,
                          pump_boundary)


def noise_variance(rho22: np.ndarray | float, scen: Scenario) -> np.ndarray | float:
    """Noise power K = phi*rho22*Gamma^2*omega^2/(24 n pi^2 c^3), in 1/ps.

    <|dW|^2> over one step is K*dt; real and imaginary parts are independent
    with variance K*dt/2 each.
    """
    return scen.derived.noise_prefactor * np.maximum(rho22, 0.0)


def _bloch_rhs(r11, r22, coh, omega, gamma):
    """Decay + coherent-coupling part of Eqs. for (rho11, rho22, rho21+-).

    The pump term is handled exactly outside; rho00 does not appear here.
    Returns (d11, dcoh); d22 = -d11 exactly (the trace is conserved).
    """
    d11 = gamma * r22 + (omega * coh.conj()).imag.sum(axis=0)
    dcoh = -0.5 * gamma * coh - 0.5j * (r22 - r11) * omega
    return d11, dcoh


def reference_step(state: FieldState, scen: Scenario, grid: GridSpec,
         noise: NoiseSpec | None = None) -> FieldState:
    """Advance one realization by dt, returning the new state; the input
    state is not written into."""
    dt, dz = grid.dt, grid.dz
    gamma = scen.transition.gamma
    eta = scen.derived.eta
    n_at = scen.medium.n
    sigma = scen.medium.sigma
    t_new = state.t + dt

    r00, r11, r22 = state.pop
    coh, omega, jp = state.coh, state.omega, state.jp
    pop_new = np.empty_like(state.pop)

    jp_in = pump_boundary(t_new, scen.pump, scen.medium)
    if jp_in == 0.0 and not jp.any():
        # the pump has left the medium: stages (1)-(2) reduce
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
    omega_new[0, 0] = 0.0
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
    if noise is not None:
        z = noise_normals(noise, state.istep, grid.n_nodes)
        z *= np.sqrt(0.5 * dt * noise_variance(pop_new[2], scen))
        coh_new.real += z[0::2]
        coh_new.imag += z[1::2]

    return FieldState(pop=pop_new, coh=coh_new, omega=omega_new, jp=jp_new,
                      t=t_new, istep=state.istep + 1)

