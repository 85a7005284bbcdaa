"""Shared fixtures: preset scenarios and a small fast scenario for solver tests."""
import json
from importlib import resources

import pytest

from sfase.params import Scenario, scenario_from_dict
from sfase.solver import FieldState, GridSpec, initialize


def load_preset(name: str) -> dict:
    text = (resources.files("sfase") / "presets" / f"{name}.json").read_text()
    return json.loads(text)


def level_state(scen: Scenario, grid: GridSpec, level: int,
                rho21: complex = 0.0) -> FieldState:
    """Initial state with all population in one level (1: absorbing,
    2: inverted) and the coherence rho21 on every node and direction."""
    state = initialize(scen, grid)
    state.pop[0] = 0.0
    state.pop[level] = 1.0
    state.coh[:] = rho21
    return state


# small medium, long pump: a coarse grid (~500 steps x 12 nodes) that still
# produces a strong seeded burst (alpha = 480)
TOY = {
    "omega_rad_thz": 1.29e6,
    "lambda_nm": 1.46,
    "d_coulomb_m": 3.33e-31,
    "sigma_r_m2": 6.4e-18,
    "sigma_m2": 3.336e-23,
    "r_um": 2.0,
    "tau2_ps": 0.5,
    "n_per_mm3": 2.5e15,
    "L_mm": 0.03,
    "n_p": 30.0e12,
    "tau_p_fs": 500.0,
    "tau_i_ps": 1.5,
}


@pytest.fixture(scope="session")
def fig3a() -> Scenario:
    return scenario_from_dict(load_preset("fig3a"))


@pytest.fixture(scope="session")
def fig3b() -> Scenario:
    return scenario_from_dict(load_preset("fig3b"))


@pytest.fixture(scope="session")
def fig4() -> Scenario:
    return scenario_from_dict(load_preset("fig4"))


@pytest.fixture(scope="session")
def fig5() -> Scenario:
    return scenario_from_dict(load_preset("fig5"))


@pytest.fixture(scope="session")
def fig6() -> Scenario:
    return scenario_from_dict(load_preset("fig6"))


@pytest.fixture(scope="session")
def toy() -> Scenario:
    return scenario_from_dict(dict(TOY))


@pytest.fixture()
def toy_dict() -> dict:
    return dict(TOY)
