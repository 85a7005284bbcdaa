"""Fast tests of the benchmark's own checks: each must pass on real sfase
artifacts and reject a deliberately corrupted copy.

    python3 -m pytest bench/test_verify.py -q
"""
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import verify  # noqa: E402
from sfase import cli, oracle  # noqa: E402
from sfase.params import scenario_from_dict  # noqa: E402

# a coarse medium (about 500 steps x 12 nodes) that still emits a strong burst
TOY = {
    "omega_rad_thz": 1.29e6, "lambda_nm": 1.46, "d_coulomb_m": 3.33e-31,
    "sigma_r_m2": 6.4e-18, "sigma_m2": 3.336e-23, "r_um": 2.0,
    "tau2_ps": 0.5, "n_per_mm3": 2.5e15, "L_mm": 0.03, "n_p": 30.0e12,
    "tau_p_fs": 500.0, "tau_i_ps": 1.5,
}


def _rewrite_column(path: Path, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    for i, row in enumerate(rows[1:]):
        row[j] = repr(change(i, float(row[j])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def ensemble_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("ens")
    scen = base / "toy.json"
    scen.write_text(json.dumps(TOY))
    out = base / "out"
    assert cli.main(["ensemble", "--scenario", str(scen), "--ne", "3",
                     "--seed", "5", "--out", str(out)]) == 0
    return out


def test_ensemble_checks_pass_on_program_output(ensemble_dir):
    problems, summary = verify.check_ensemble_dir(ensemble_dir, TOY)
    assert problems == []
    assert summary["n_realizations"] == 3


def test_scaled_spectrum_is_rejected(ensemble_dir, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(ensemble_dir, bad)
    _rewrite_column(bad / "avg_spectrum.csv", "avg_spectrum_bwd",
                    lambda i, v: v * (1.0 + 1.0e-6))
    problems, _ = verify.check_ensemble_dir(bad, TOY)
    assert len(problems) == 1 and "Parseval bwd" in problems[0]


def test_perturbed_photon_count_is_rejected(ensemble_dir, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(ensemble_dir, bad)
    _rewrite_column(bad / "realizations.csv", "photons_fwd",
                    lambda i, v: v * (1.0 + 1.0e-6) if i == 0 else v)
    problems, _ = verify.check_ensemble_dir(bad, TOY)
    assert len(problems) == 1 and "photons_fwd" in problems[0]


def test_trace_error_above_bound_is_rejected(ensemble_dir, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(ensemble_dir, bad)
    summary = json.loads((bad / "summary.json").read_text())
    summary["max_trace_error"] = 2.0e-6
    (bad / "summary.json").write_text(json.dumps(summary))
    problems, _ = verify.check_ensemble_dir(bad, TOY)
    assert len(problems) == 1 and "max_trace_error" in problems[0]


def test_threshold_probability_must_match_pulse_areas(ensemble_dir, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(ensemble_dir, bad)
    _rewrite_column(bad / "realizations.csv", "area_fwd",
                    lambda i, v: 0.0 if i == 0 else 2.0)
    problems, summary = verify.check_ensemble_dir(bad, TOY)
    assert summary["above"]["forward"] == 2
    assert any("forward threshold probability" in p for p in problems)


def test_threshold_probability_bounds():
    # 3 of 4 above threshold is still consistent with P >= 0.9 ...
    assert verify.check_probability_at_least(3, 4, 0.9, "fwd") == []
    assert verify.check_probability_at_least(22, 24, 0.9, "fwd") == []
    # ... 14 of 24 is not
    assert verify.check_probability_at_least(14, 24, 0.9, "fwd")
    assert verify.check_probability_at_most(0, 24, 0.1, "bwd") == []
    assert verify.check_probability_at_most(10, 24, 0.1, "bwd")


def test_peak_asymmetry_check():
    assert verify.check_peak_asymmetry(2.0e7, 1.0) == []
    assert verify.check_peak_asymmetry(999.0, 1.0)


def test_length_transition_check():
    assert verify.check_length_transition([3.0e3, 9.0e2, 30.0]) == []
    assert verify.check_length_transition([3.0e3, 3.0e3, 30.0])


def test_non_monotone_pump_column_is_rejected():
    tp = np.arange(15.0, 91.0, 5.0)
    values = 0.9 * np.exp(-0.1 * tp)
    assert verify.check_pump_column(values) == []
    values[7] = values[6]
    assert verify.check_pump_column(values)


def test_shifted_fit_coefficient_is_rejected(tmp_path):
    tp = np.arange(15.0, 91.0, 5.0)
    values = 1.01 * np.exp(-0.083 * tp) + 1.0e-3 * np.sin(tp)
    data = tmp_path / "col.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows([["tau_p_fs", "y"]]
                                 + [[repr(float(a)), repr(float(b))]
                                    for a, b in zip(tp, values)])
    out = tmp_path / "fit"
    assert cli.main(["fit", "--family", "pump_decay", "--data", str(data),
                     "--x-col", "tau_p_fs", "--y-col", "y", "--out", str(out)]) == 0
    assert verify.check_fit(out / "fit.json", tp, values) == []
    fit_json = json.loads((out / "fit.json").read_text())
    fit_json["coefficients"][1] *= 1.0 + 1.0e-5
    (out / "fit.json").write_text(json.dumps(fit_json))
    problems = verify.check_fit(out / "fit.json", tp, values)
    assert len(problems) == 1 and "delta" in problems[0]


def _fig4():
    return json.loads((ROOT / "src" / "sfase" / "presets" / "fig4.json").read_text())


@pytest.mark.parametrize("q", [1.0, 256.0])
def test_rate_equations_match_oracle_for_short_pump(q):
    # tau_i / tau_p = 15: the pump before t = 0 is negligible, so the
    # oracle's quadrature from s = 0 is exact here
    raw = _fig4()
    pt = verify.pump_point(raw, 20.0, q)
    ts = verify.inversion_window(pt["tau_i"], pt["tau_p"], raw["tau2_ps"])
    scen = scenario_from_dict(raw).replace(tau_p=pt["tau_p"], n_p=pt["n_p"])
    want = oracle.inversion_quadrature(ts, scen)
    got = verify.rate_equation_inversion(ts, **pt)
    assert np.max(np.abs(got - want)) <= 1.0e-8


def test_long_pump_point_counts_as_failed():
    # tau_i / tau_p = 3.3: about 9% of |0> is pumped before t = 0, which the
    # oracle's rho22 quadrature drops
    raw = _fig4()
    ref = verify.pump_reference(raw, [90.0], [256.0])[256.0]
    assert ref[0] == pytest.approx(-0.0095, abs=5.0e-5)
    scen = scenario_from_dict(raw).replace(tau_p=0.09, n_p=256 * 90.0e12)
    ts = verify.inversion_window(0.3, 0.09, raw["tau2_ps"])
    program = np.array([float(np.max(oracle.inversion_quadrature(ts, scen)))])
    assert verify.pump_failures(program, ref) == 1
