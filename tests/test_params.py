"""Unit and property tests for scenario parameters and derived quantities."""
import math

import numpy as np
import pytest

from sfase.params import (
    C_MM_PER_PS,
    MediumParams,
    ParameterError,
    PumpParams,
    Scenario,
    TransitionParams,
    gain_length,
    gamma_from_dipole,
    scenario_from_dict,
    solid_angle,
    validation_warnings,
)

from conftest import load_preset


# ---------------------------------------------------------------------------
# solid angle
# ---------------------------------------------------------------------------

def test_solid_angle_reference_value():
    # r = 2 um, L = 1 mm -> 12.566 urad (pi r^2 / L^2 to leading order)
    phi = solid_angle(0.002, 1.0)
    assert phi * 1.0e6 == pytest.approx(12.566, abs=0.01)


def test_solid_angle_small_angle_limit():
    r, L = 1.0e-5, 1.0
    assert solid_angle(r, L) == pytest.approx(math.pi * r**2 / L**2, rel=1.0e-6)


def test_solid_angle_matches_naive_form_at_moderate_aspect():
    r, L = 0.3, 1.0
    naive = 2.0 * math.pi * (1.0 - 1.0 / math.sqrt(1.0 + (r / L) ** 2))
    assert solid_angle(r, L) == pytest.approx(naive, rel=1.0e-12)


def test_solid_angle_monotone_in_r_and_decreasing_in_L():
    rs = np.linspace(0.001, 0.5, 40)
    vals = [solid_angle(r, 1.0) for r in rs]
    assert np.all(np.diff(vals) > 0)
    Ls = np.linspace(0.1, 5.0, 40)
    vals = [solid_angle(0.002, L) for L in Ls]
    assert np.all(np.diff(vals) < 0)


def test_solid_angle_zero_radius():
    assert solid_angle(0.0, 1.0) == 0.0


def test_solid_angle_no_cancellation_for_tiny_aspect():
    # naive 1 - 1/sqrt(1+x) underflows to 0 here; the stable form must not
    phi = solid_angle(1.0e-9, 1.0)
    assert phi == pytest.approx(math.pi * 1.0e-18, rel=1.0e-6)
    assert phi > 0.0


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def test_alpha_eta_reference(fig3a):
    assert fig3a.derived.alpha == pytest.approx(192.0, rel=1.0e-12)
    assert fig3a.derived.eta == pytest.approx(96.0, rel=1.0e-12)


def test_alpha_linear_in_n_and_L(fig3a):
    doubled_n = fig3a.replace(n=2.0 * fig3a.medium.n)
    assert doubled_n.derived.alpha == pytest.approx(2.0 * fig3a.derived.alpha)
    doubled_L = fig3a.replace(L=2.0 * fig3a.medium.L)
    assert doubled_L.derived.alpha == pytest.approx(2.0 * fig3a.derived.alpha)
    # eta = Gamma alpha / (2 L) is independent of L at fixed n
    assert doubled_L.derived.eta == pytest.approx(fig3a.derived.eta)


def test_gamma_from_dipole_reference():
    gamma = gamma_from_dipole(3.33e-31, 1.29e6)
    assert gamma == pytest.approx(1.0, rel=0.02)


def test_gamma_from_dipole_homogeneity():
    g = gamma_from_dipole(3.33e-31, 1.29e6)
    assert gamma_from_dipole(2 * 3.33e-31, 1.29e6) == pytest.approx(4 * g, rel=1e-12)
    assert gamma_from_dipole(3.33e-31, 2 * 1.29e6) == pytest.approx(8 * g, rel=1e-12)


def test_gain_length_is_half_light_path():
    assert gain_length(1.0) == pytest.approx(C_MM_PER_PS / 2.0)
    with pytest.raises(ParameterError):
        gain_length(0.0)


def test_noise_prefactor_inverse_in_density(fig5):
    denser = fig5.replace(n=10.0 * fig5.medium.n)
    assert denser.derived.noise_prefactor == pytest.approx(
        fig5.derived.noise_prefactor / 10.0, rel=1.0e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_transition_frequency_wavelength_consistency():
    with pytest.raises(ParameterError):
        TransitionParams(omega=1.29e6, lam=2.6e-6, d=3.33e-31, gamma=1.0,
                         sigma_r=6.4e-12)


def test_tau2_property(fig3a):
    assert fig3a.transition.tau2 == pytest.approx(1.0)


def test_tau_i_must_cover_pump_rise():
    with pytest.raises(ParameterError):
        PumpParams(n_p=1e12, tau_p=0.1, tau_i=0.2)


def test_tau_i_bound_tolerates_rounding(fig4):
    # fig4 has tau_i = 0.3 ps, and 3 * 0.1 rounds to 0.30000000000000004
    assert fig4.replace(tau_p=0.1, n_p=1.0e14).pump.tau_p == 0.1
    with pytest.raises(ParameterError):
        fig4.replace(tau_p=0.1001, n_p=1.0e14)


def test_negative_density_rejected():
    with pytest.raises(ParameterError):
        MediumParams(n=-1.0, L=1.0, sigma=1e-17, r=0.002)


def test_unknown_scenario_key_rejected(toy_dict):
    toy_dict["bogus_key"] = 1.0
    with pytest.raises(ParameterError, match="bogus_key"):
        scenario_from_dict(toy_dict)


def test_missing_scenario_key_rejected(toy_dict):
    del toy_dict["L_mm"]
    with pytest.raises(ParameterError, match="L_mm"):
        scenario_from_dict(toy_dict)


def test_gamma_tau2_disagreement_rejected(toy_dict):
    toy_dict["gamma_thz"] = 3.0  # tau2_ps = 0.5 would require gamma = 2
    with pytest.raises(ParameterError, match="disagree"):
        scenario_from_dict(toy_dict)


def test_gamma_key_alone_accepted(toy_dict):
    del toy_dict["tau2_ps"]
    toy_dict["gamma_thz"] = 2.0
    scen = scenario_from_dict(toy_dict)
    assert scen.transition.tau2 == pytest.approx(0.5)


def test_replace_rejects_unknown_field(toy):
    with pytest.raises(ParameterError, match="unknown scenario field"):
        toy.replace(voltage=3.0)


def test_validation_warnings_flag_pump_depletion(fig5):
    thick = fig5.replace(n=1.0e17)
    assert any("depletion" in w or "sigma" in w.lower()
               for w in validation_warnings(thick))


def test_validation_warnings_flag_sigma_r_mismatch(fig5):
    # the tabulated cross section is an effective value, not 3 lambda^2/(2 pi),
    # and the long thin geometry has a Fresnel number far above 1: both are
    # flagged as advisories, not errors
    warns = validation_warnings(fig5)
    assert any("sigma_r" in w for w in warns)
    assert any("Fresnel" in w for w in warns)
    matched = fig5.replace(sigma_r=3.0 * fig5.transition.lam**2 / (2.0 * math.pi),
                           r=0.001, L=2.15)
    assert validation_warnings(matched) == []


@pytest.mark.parametrize("tp_fs, warns", [(75.0, False), (80.0, True),
                                           (90.0, True)])
def test_validation_warnings_flag_pump_before_start(fig4, tp_fs, warns):
    # fig4 at Q = 256: the ground-state share pumped before t = 0 is
    # 3.9e-4 at 75 fs, 3.1e-3 at 80 fs and 7.2e-2 at 90 fs
    scen = fig4.replace(tau_p=tp_fs * 1.0e-3, n_p=256.0 * tp_fs * 1.0e12)
    assert any("before t = 0" in w for w in validation_warnings(scen)) == warns


def test_fresnel_number_reference(fig5):
    # pi r^2 / (L lambda) with r = 2 um, L = 0.5 mm, lambda = 1.46 nm
    expected = math.pi * 0.002**2 / (0.5 * 1.46e-6)
    assert fig5.derived.fresnel == pytest.approx(expected, rel=1e-12)


def test_scenario_is_immutable(fig5):
    with pytest.raises(Exception):
        fig5.medium.n = 1.0


def test_all_presets_load():
    for name in ("fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7", "fig10"):
        scen = scenario_from_dict(load_preset(name))
        assert isinstance(scen, Scenario)
        assert scen.derived.alpha > 0
        assert not any("before t = 0" in w for w in validation_warnings(scen))
