"""The benchmark's independent checker must reject broken runs.

Run with: python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import reference  # noqa: E402
from regulate.cli import main  # noqa: E402

CONFIG = {
    "model": "bilinear_scalar", "theta_true": [0.8, 0.3], "x0": [1.0],
    "algorithm": "inexact", "beta": 0.5, "mu0": 1.0, "kappa0": 1.0, "eps_fin": 1e-3, "seed": 0,
}


def _case(config):
    name = config["model"]
    n_max, rho_max = reference.DEFAULT_BOUNDS[name]
    eps = config.get("eps_fin", config.get("tol_exact", 1e-10))
    return reference.Case(
        name, np.array(config["theta_true"]), np.array(config["x0"]),
        np.array(reference.DEFAULT_EXCITATION[name], dtype=float),
        config.get("algorithm", "exact"), eps, n_max, rho_max,
    )


@pytest.fixture(params=["inexact", "exact"])
def logged_run(tmp_path, request):
    config = dict(CONFIG, algorithm=request.param)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    case = _case(config)
    return case, out


def test_intact_run_passes(logged_run):
    case, out = logged_run
    reference.check_run(case, reference.read_cli_log(case, out))


def test_corrupted_trajectory_is_rejected(logged_run):
    case, out = logged_run
    log = reference.read_cli_log(case, out)
    log.states[1, 0] += 1e-9
    with pytest.raises(reference.CheckFailed, match="replaying"):
        reference.check_run(case, log)


def test_out_of_bound_input_is_rejected(logged_run):
    case, out = logged_run
    log = reference.read_cli_log(case, out)
    case.rho_max = 0.5 * float(np.max(np.abs(log.inputs[len(case.excitation):])))
    with pytest.raises(reference.CheckFailed, match="rho_max"):
        reference.check_run(case, log)


def test_estimate_off_the_data_is_rejected(logged_run):
    case, out = logged_run
    log = reference.read_cli_log(case, out)
    log.blocks[0].theta = log.blocks[0].theta + np.array([0.05, 0.0])
    with pytest.raises(reference.CheckFailed, match="residual|least squares"):
        reference.check_run(case, log)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_summary_is_rejected(logged_run, constant):
    case, out = logged_run
    summary = out / "summary.jsonl"
    text = summary.read_text(encoding="utf-8")
    record = json.loads(text)
    summary.write_text(text.replace(json.dumps(record["final_error"]), constant), encoding="utf-8")
    with pytest.raises(reference.CheckFailed, match="strict JSON"):
        reference.read_cli_log(case, out)


def test_reference_transition_matches_closed_form():
    states = reference.replay("affine_2d", [1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], [0.5, 0.25])
    assert states.tolist() == [[1.0, 0.0], [1.0, 0.5], [0.5, 0.625]]
    fit = reference.least_squares_theta("affine_2d", states, np.array([[1.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(fit, [0.5, 0.25])
