"""Scenario parameters and derived quantities.

Internal unit system: lengths in mm, times in ps, rates in THz (= 1/ps),
photon fluxes in photons/(ps mm^2).  SI values (cross sections in m^2,
wavelengths in nm, spot radii in um) are converted once, at the config
boundary, and never used internally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as replace_fields

# fixed constants, internal units
C_MM_PER_PS = 0.299792458        # speed of light (mm/ps)
EPS0_SI = 8.8541878128e-12       # vacuum permittivity (F/m)
HBAR_SI = 1.054571817e-34        # reduced Planck constant (J s)

M2_TO_MM2 = 1.0e6
NM_TO_MM = 1.0e-6
UM_TO_MM = 1.0e-3
FS_TO_PS = 1.0e-3


class ParameterError(ValueError):
    """A scenario field is missing, inconsistent, or unphysical."""


@dataclass(frozen=True)
class TransitionParams:
    """The lasing transition |1> -> |2>: frequency, dipole, decay."""

    omega: float     # angular frequency (rad/ps)
    lam: float       # wavelength (mm)
    d: float         # transition dipole moment (C m)
    gamma: float     # decay rate of |2> (1/ps)
    sigma_r: float   # resonant cross section (mm^2)

    def __post_init__(self):
        for name in ("omega", "lam", "d", "gamma", "sigma_r"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"transition.{name} must be strictly positive")
        # omega * lam / (2 pi) must reproduce c to 0.1%
        c_implied = self.omega * self.lam / (2.0 * math.pi)
        if abs(c_implied - C_MM_PER_PS) / C_MM_PER_PS > 1.0e-3:
            raise ParameterError(
                f"transition.omega and transition.lam are inconsistent: "
                f"omega*lam/(2 pi) = {c_implied:.6g} mm/ps, expected c = {C_MM_PER_PS:.6g}"
            )

    @property
    def tau2(self) -> float:
        """Lifetime of |2> (ps); gamma * tau2 == 1 by construction."""
        return 1.0 / self.gamma


@dataclass(frozen=True)
class MediumParams:
    n: float        # particle number density (1/mm^3)
    L: float        # medium length (mm)
    sigma: float    # pump absorption cross section |0> -> |2> (mm^2)
    r: float        # pump spot radius (mm)

    def __post_init__(self):
        for name in ("n", "L", "sigma", "r"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"medium.{name} must be strictly positive")


@dataclass(frozen=True)
class PumpParams:
    n_p: float      # photons per pump pulse
    tau_p: float    # pump duration (ps)
    tau_i: float    # pump peak arrival time at z=0 (ps)

    def __post_init__(self):
        if not self.n_p > 0:
            raise ParameterError("pump.n_p must be strictly positive")
        if not self.tau_p > 0:
            raise ParameterError("pump.tau_p must be strictly positive")
        # keep the incident Gaussian effectively untruncated at t=0; the
        # relative tolerance lets tau_i = 3*tau_p pass despite rounding
        # (3 * 0.1 > 0.3)
        if self.tau_i < 3.0 * self.tau_p * (1.0 - 1.0e-12):
            raise ParameterError(
                f"pump.tau_i = {self.tau_i:g} ps must be >= 3*tau_p = {3*self.tau_p:g} ps"
            )


@dataclass(frozen=True)
class DerivedParams:
    alpha: float             # optical depth n sigma_r L
    eta: float               # coupling Gamma alpha / (2 L)  (1/(ps mm))
    phi: float               # collection solid angle (rad), complete form
    l_g: float               # transient gain length c tau_p / 2 (mm)
    l_g_coherence: float     # c tau2 / 2 (mm); relevant scale for backward emission
    fresnel: float           # pi r^2 / (L lam)
    noise_prefactor: float   # K0 = phi Gamma^2 omega^2 / (24 n pi^2 c^3)  (1/ps)


def solid_angle(r: float, L: float) -> float:
    """Complete collection solid angle 2 pi (1 - 1/sqrt(1 + r^2/L^2))."""
    x = (r / L) ** 2
    # expm1-style guard: 1 - 1/sqrt(1+x) loses precision for tiny x
    return 2.0 * math.pi * x / (math.sqrt(1.0 + x) * (1.0 + math.sqrt(1.0 + x)))


def derive(transition: TransitionParams, medium: MediumParams,
           pump: PumpParams) -> DerivedParams:
    """Compute every derived quantity of a scenario."""
    alpha = medium.n * transition.sigma_r * medium.L
    eta = transition.gamma * alpha / (2.0 * medium.L)
    phi = solid_angle(medium.r, medium.L)
    k0 = (phi * transition.gamma**2 * transition.omega**2
          / (24.0 * medium.n * math.pi**2 * C_MM_PER_PS**3))
    return DerivedParams(
        alpha=alpha,
        eta=eta,
        phi=phi,
        l_g=gain_length(pump.tau_p),
        l_g_coherence=gain_length(transition.tau2),
        fresnel=math.pi * medium.r**2 / (medium.L * transition.lam),
        noise_prefactor=k0,
    )


def gamma_from_dipole(d: float, omega: float) -> float:
    """Spontaneous decay rate d^2 w^3 / (3 pi eps0 hbar c^3), returned in 1/ps.

    d in C m, omega in rad/ps.
    """
    if d < 0 or omega < 0:
        raise ParameterError("d and omega must be non-negative")
    omega_si = omega * 1.0e12
    c_si = C_MM_PER_PS * 1.0e9   # mm/ps -> m/s
    gamma_si = d**2 * omega_si**3 / (3.0 * math.pi * EPS0_SI * HBAR_SI
                                     * c_si**3)
    return gamma_si * 1.0e-12


def gain_length(tau_ref: float) -> float:
    """Transient gain length c*tau_ref/2.

    tau_ref is deliberately explicit: the pump duration gives the length of
    the inverted slice trailing the pump front, while the coherence time
    gives the scale that controls backward-emission experiments.
    """
    if not tau_ref > 0:
        raise ParameterError("tau_ref must be strictly positive")
    return C_MM_PER_PS * tau_ref / 2.0


@dataclass(frozen=True)
class Scenario:
    """One full simulation scenario: inputs plus derived quantities."""

    transition: TransitionParams
    medium: MediumParams
    pump: PumpParams
    derived: DerivedParams = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "derived",
                           derive(self.transition, self.medium, self.pump))

    def replace(self, **kwargs) -> "Scenario":
        """New scenario with selected medium/pump/transition fields changed.

        Keys are the REPLACEABLE field names, in internal units
        (e.g. n, L, r, n_p, tau_p, tau_i, gamma).
        """
        for key in kwargs:
            if key not in REPLACEABLE:
                raise ParameterError(f"unknown scenario field {key!r}")
        return Scenario(*(
            replace_fields(part, **{k: v for k, v in kwargs.items()
                                    if k in part.__dataclass_fields__})
            for part in (self.transition, self.medium, self.pump)))


def depletion_scale(scen: Scenario) -> float:
    """q = n_p sigma / (2 pi r^2): half the asymptotic depletion exponent."""
    return scen.pump.n_p * scen.medium.sigma / (2.0 * math.pi * scen.medium.r**2)


# the flat field names Scenario.replace accepts
REPLACEABLE = tuple(name for cls in (TransitionParams, MediumParams, PumpParams)
                    for name in cls.__dataclass_fields__)


# ---------------------------------------------------------------------------
# scenario files: flat JSON, one key per symbol, units in the key names
# ---------------------------------------------------------------------------

SCENARIO_KEYS = {
    "tau2_ps": "lifetime of |2> (ps); exclusive with gamma_thz",
    "gamma_thz": "decay rate of |2> (THz); exclusive with tau2_ps",
    "omega_rad_thz": "angular frequency of the lasing transition (rad THz)",
    "lambda_nm": "wavelength of the lasing transition (nm)",
    "d_coulomb_m": "transition dipole moment (C m)",
    "sigma_r_m2": "resonant cross section (m^2)",
    "n_per_mm3": "particle number density (1/mm^3)",
    "L_mm": "medium length (mm)",
    "sigma_m2": "pump absorption cross section (m^2)",
    "r_um": "pump spot radius (um)",
    "n_p": "photons per pump pulse",
    "tau_p_fs": "pump pulse duration (fs)",
    "tau_i_ps": "pump peak arrival time at z=0 (ps)",
}


def scenario_from_dict(raw: dict) -> Scenario:
    unknown = sorted(set(raw) - set(SCENARIO_KEYS))
    if unknown:
        raise ParameterError(f"unknown scenario keys: {', '.join(unknown)}")

    def number(key):
        try:
            value = float(raw[key])
        except OverflowError:   # an integer too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ParameterError(f"scenario key {key!r} must be finite as a "
                                 f"float, got {raw[key]!r}")
        return value

    def need(key):
        if key not in raw:
            raise ParameterError(f"missing scenario key {key!r}")
        return number(key)

    if "gamma_thz" in raw:
        gamma = number("gamma_thz")
        if gamma <= 0:
            raise ParameterError("gamma_thz must be strictly positive")
        if "tau2_ps" in raw and abs(gamma * number("tau2_ps") - 1.0) > 1.0e-9:
            raise ParameterError("gamma_thz and tau2_ps disagree: gamma*tau2 must be 1")
    else:
        tau2 = need("tau2_ps")
        if tau2 <= 0:
            raise ParameterError("tau2_ps must be strictly positive")
        gamma = 1.0 / tau2

    transition = TransitionParams(
        omega=need("omega_rad_thz"),
        lam=need("lambda_nm") * NM_TO_MM,
        d=need("d_coulomb_m"),
        gamma=gamma,
        sigma_r=need("sigma_r_m2") * M2_TO_MM2,
    )
    medium = MediumParams(
        n=need("n_per_mm3"),
        L=need("L_mm"),
        sigma=need("sigma_m2") * M2_TO_MM2,
        r=need("r_um") * UM_TO_MM,
    )
    pump = PumpParams(
        n_p=need("n_p"),
        tau_p=need("tau_p_fs") * FS_TO_PS,
        tau_i=need("tau_i_ps"),
    )
    return Scenario(transition, medium, pump)


# largest ground-state share the pump may excite before the t = 0 start
PRE_PUMP_SHARE_MAX = 1.0e-3


def validation_warnings(scen: Scenario) -> list[str]:
    """Non-fatal model-validity warnings for a scenario."""
    warns = []
    fres = scen.derived.fresnel
    if fres > 3.0 or fres < 1.0 / 3.0:
        warns.append(
            f"Fresnel number {fres:.3g} is far from 1; the 1D (diffraction-free) "
            f"model may not be valid for this geometry"
        )
    sr_formula = 3.0 * scen.transition.lam**2 / (2.0 * math.pi)
    if abs(scen.transition.sigma_r - sr_formula) / sr_formula > 0.05:
        warns.append(
            f"sigma_r = {scen.transition.sigma_r:.4g} mm^2 differs from "
            f"3*lambda^2/(2 pi) = {sr_formula:.4g} mm^2"
        )
    nsl = scen.medium.n * scen.medium.sigma * scen.medium.L
    if nsl > 0.05:
        warns.append(
            f"pump depletion n*sigma*L = {nsl:.3g} exceeds 0.05; closed-form "
            f"pump-propagation results are outside their validity regime"
        )
    # the solver starts the pump at t = 0 with rho00 = 1, so the share of
    # the ground state the Gaussian pumps before t = 0 is dropped
    early = -math.expm1(-depletion_scale(scen)
                        * math.erfc(scen.pump.tau_i / scen.pump.tau_p))
    if early > PRE_PUMP_SHARE_MAX:
        warns.append(
            f"the pump excites {early:.3g} of the ground state before "
            f"t = 0, where the simulation starts; a later tau_i (now "
            f"{scen.pump.tau_i:g} ps) keeps the pump untruncated"
        )
    return warns
