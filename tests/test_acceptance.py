"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import json
import time

import numpy as np
import pytest

from regulate import (
    UNIDENTIFIABLE,
    ObservationHistory,
    RegulatorSchedule,
    excitation_rank_check,
    get_model,
    identifiability_margin,
    jacobian_input,
    jacobian_theta,
    run_exact,
    run_inexact,
    stacked_map,
)
from regulate.benchmarks import MODEL_NAMES
from regulate.cli import load_config, main, replay_verify, run_experiment
from regulate.plant import StateSequence, as_inputs


def verdict(number, description, ok):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def history_of(outcome):
    return ObservationHistory(outcome.inputs, outcome.trajectory)


def first_segment_residual(model, outcome, theta, n_exc):
    hist = history_of(outcome)
    head = as_inputs(hist.applied_inputs.inputs[:n_exc], model.input_dim)
    predicted = stacked_map(model, hist.x0, head, theta)
    observed = hist.trajectory.states[1 : n_exc + 1].ravel()
    return float(np.linalg.norm(predicted - observed))


@pytest.fixture(scope="module")
def exact_scalar():
    spec = get_model("scalar_linear")
    return timed(
        lambda: run_exact(
            spec.model, [0.8], [1.0], [[0.5]], bounds_fn=lambda x: spec.bounds
        )
    )


@pytest.fixture(scope="module")
def exact_affine():
    spec = get_model("affine_2d")
    return timed(
        lambda: run_exact(
            spec.model, [0.5, 0.25], [1.0, 0.0], spec.excitation, bounds_fn=lambda x: spec.bounds
        )
    )


@pytest.fixture(scope="module")
def inexact_bilinear():
    spec = get_model("bilinear_scalar")
    return timed(
        lambda: run_inexact(
            spec.model, [0.8, 0.3], [1.0], spec.excitation,
            RegulatorSchedule(0.5, 1.0, 1.0, 1e-3), bounds_fn=lambda x: spec.bounds,
        )
    )


@pytest.fixture(scope="module")
def logged_inexact_runs(inexact_bilinear):
    """Every inexact run the suite produces, with its generating data."""
    runs = [("bilinear_scalar", [0.8, 0.3], [1.0], 0.5, 1.0, 1.0, inexact_bilinear[0])]
    spec = get_model("bilinear_scalar")
    multi = run_inexact(
        spec.model, [0.8, 0.3], [1.0], spec.excitation,
        RegulatorSchedule(0.5, 1.0, 1e-6, 1e-3), bounds_fn=lambda x: spec.bounds,
    )
    runs.append(("bilinear_scalar", [0.8, 0.3], [1.0], 0.5, 1.0, 1e-6, multi))
    spec = get_model("scalar_linear")
    scalar = run_inexact(
        spec.model, [0.8], [1.0], spec.excitation,
        RegulatorSchedule(0.5, 1.0, 1.0, 1e-3), bounds_fn=lambda x: spec.bounds,
    )
    runs.append(("scalar_linear", [0.8], [1.0], 0.5, 1.0, 1.0, scalar))
    return runs


CLI_CONFIGS = {
    "criterion1_exact_scalar": {
        "model": "scalar_linear", "theta_true": [0.8], "x0": [1.0],
        "algorithm": "exact", "excitation": [[0.5]], "seed": 0,
    },
    "criterion2_exact_affine": {
        "model": "affine_2d", "theta_true": [0.5, 0.25], "x0": [1.0, 0.0],
        "algorithm": "exact", "seed": 0,
    },
    "criterion3_inexact_bilinear": {
        "model": "bilinear_scalar", "theta_true": [0.8, 0.3], "x0": [1.0],
        "algorithm": "inexact", "beta": 0.5, "mu0": 1.0, "kappa0": 1.0,
        "eps_fin": 1e-3, "seed": 0,
    },
}


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_runs")
    produced = {}
    for name, payload in CLI_CONFIGS.items():
        config_path = root / f"{name}.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        out_dir = root / name
        config = load_config(config_path)
        config.out_dir = str(out_dir)
        code = run_experiment(config)
        produced[name] = (config_path, out_dir, code)
    return produced


def test_criterion_1_exact_scalar_end_to_end(exact_scalar):
    outcome, seconds = exact_scalar
    checks = [
        outcome.terminated,
        len(outcome.blocks) == 1,
        abs(outcome.blocks[0].theta[0] - 0.8) <= 1e-9,
        abs(outcome.trajectory.states[2, 0]) <= 1e-9,
        abs(outcome.trajectory.states[1, 0] - 1.3) <= 1e-12,
        abs(outcome.blocks[0].block.inputs[0, 0] + 1.04) <= 1e-8,
        seconds < 0.1,
    ]
    verdict(
        1,
        f"exact scalar run: 1 block, theta and final state on target ({seconds * 1e3:.1f} ms)",
        all(checks),
    )


def test_criterion_2_exact_affine_multi_parameter(exact_affine):
    outcome, seconds = exact_affine
    spec = get_model("affine_2d")
    recovered = spec.oracle.parameter_from_history(history_of(outcome))
    checks = [
        outcome.terminated,
        len(outcome.blocks) <= 2,
        outcome.final_error <= 1e-8,
        recovered is not UNIDENTIFIABLE
        and np.linalg.norm(outcome.blocks[-1].theta - recovered) <= 1e-8,
        seconds < 1.0,
    ]
    verdict(
        2,
        f"exact affine run: {len(outcome.blocks)} block(s), final error {outcome.final_error:.2e} "
        f"({seconds * 1e3:.1f} ms)",
        all(checks),
    )


def test_criterion_3_inexact_bilinear_end_to_end(inexact_bilinear):
    outcome, seconds = inexact_bilinear
    bounds = get_model("bilinear_scalar").bounds
    per_block = all(
        rec.estimate_residual < rec.mu
        and rec.horizon <= bounds.max_horizon
        and np.all(np.abs(rec.block.inputs) <= bounds.max_amplitude)
        for rec in outcome.blocks
    )
    checks = [
        outcome.terminated,
        len(outcome.blocks) <= 25,
        outcome.final_error < 1e-3,
        per_block,
        seconds < 10.0,
    ]
    verdict(
        3,
        f"inexact bilinear run: {len(outcome.blocks)} block(s), final error {outcome.final_error:.2e} "
        f"({seconds:.2f} s)",
        all(checks),
    )


def test_criterion_4_schedule_invariants(logged_inexact_runs):
    ok = True
    blocks_seen = 0
    for _, _, _, beta, mu0, kappa0, outcome in logged_inexact_runs:
        kappa = kappa0
        mu_prev = mu0
        for rec in outcome.blocks:
            blocks_seen += 1
            kappa = kappa / beta  # same repeated-division path as the run: 0 ulp
            if rec.kappa != kappa:
                ok = False
            if not rec.mu <= beta * mu_prev * (1 + 1e-15):
                ok = False
            mu_prev = rec.mu
    verdict(4, f"schedule laws hold on {blocks_seen} logged blocks across all inexact runs", ok)


def test_criterion_5_identifiability_margin(logged_inexact_runs):
    spec = get_model("scalar_linear")
    report = identifiability_margin(spec.model, [1.0], spec.excitation, grid=5)
    ok = abs(report.margin - 1.0) <= 1e-8
    gated_blocks = 0
    for name, theta_true, x0, _, _, _, outcome in logged_inexact_runs:
        bench = get_model(name)
        margin = identifiability_margin(bench.model, x0, bench.excitation, grid=5)
        if margin.margin <= 0:
            ok = False
            continue
        n_exc = outcome.blocks[0].start_time if outcome.blocks else len(outcome.inputs)
        for rec in outcome.blocks:
            err = float(np.linalg.norm(rec.theta - np.asarray(theta_true)))
            if err > margin.radius:
                continue
            gated_blocks += 1
            segment = first_segment_residual(bench.model, outcome, rec.theta, n_exc)
            if not err <= 1.05 * segment / margin.margin:
                ok = False
    verdict(
        5,
        f"margin 1.0 on the scalar benchmark; injectivity bound holds on {gated_blocks} gated block(s)",
        ok,
    )


def test_criterion_6_jacobian_cross_check():
    rng = np.random.default_rng(101)
    ok = True
    for name in MODEL_NAMES:
        spec = get_model(name)
        model = spec.model
        for _ in range(100):
            x0 = rng.uniform(-1.5, 1.5, model.state_dim)
            theta = rng.uniform(model.param_lower, model.param_upper)
            horizon = int(rng.integers(1, 4))
            u = as_inputs(rng.uniform(-1, 1, (horizon, model.input_dim)), model.input_dim)
            fd_theta = jacobian_theta(model, x0, u, theta)
            exact_theta = spec.oracle.stacked_jacobian(x0, u, theta)
            if np.linalg.norm(fd_theta - exact_theta) > 1e-6 * max(1.0, np.linalg.norm(exact_theta)):
                ok = False
            fd_u = jacobian_input(model, x0, u, theta)
            exact_u = spec.oracle.input_jacobian(x0, u, theta)
            if np.linalg.norm(fd_u - exact_u) > 1e-6 * max(1.0, np.linalg.norm(exact_u)):
                ok = False
    verdict(6, "finite differences match analytic sensitivities at 100 points per model", ok)


def test_criterion_7_prefix_property():
    rng = np.random.default_rng(202)
    ok = True
    for name in MODEL_NAMES:
        spec = get_model(name)
        model = spec.model
        for _ in range(50):
            x0 = rng.uniform(-1.5, 1.5, model.state_dim)
            theta = rng.uniform(model.param_lower, model.param_upper)
            k = int(rng.integers(1, 5))
            inputs = rng.uniform(-1, 1, (k + 5, model.input_dim))
            short = stacked_map(model, x0, as_inputs(inputs[:k], model.input_dim), theta)
            for j in (1, 2, 5):
                long = stacked_map(model, x0, as_inputs(inputs[: k + j], model.input_dim), theta)
                head = long[: short.size]
                if not np.all(np.abs(head - short) <= 1e-12 * np.maximum(1.0, np.abs(short))):
                    ok = False
    verdict(7, "stacked maps agree on shared prefixes for 50 draws per model", ok)


def test_criterion_8_degenerate_excitation(tmp_path):
    spec = get_model("scalar_linear")
    report = excitation_rank_check(spec.model, as_inputs([0.0], 1), [([0.0], [1.0])])
    hist = ObservationHistory(as_inputs([0.0], 1), StateSequence(0, np.array([[0.0], [0.0]])))
    recovered = spec.oracle.parameter_from_history(hist)
    config_path = tmp_path / "degenerate.json"
    config_path.write_text(
        json.dumps(
            {
                "model": "scalar_linear", "theta_true": [1.0], "x0": [0.0],
                "algorithm": "exact", "excitation": [[0.0]],
            }
        ),
        encoding="utf-8",
    )
    exit_code = main(["check-excitation", "--config", str(config_path)])
    checks = [not report.passed, recovered is UNIDENTIFIABLE, exit_code == 3]
    verdict(8, "degenerate excitation: rank check fails, oracle unidentifiable, CLI exits 3", all(checks))


def test_criterion_9_replay_audit(cli_runs, tmp_path):
    ok = True
    for name, (config_path, out_dir, code) in cli_runs.items():
        if code != 0:
            ok = False
            continue
        config = load_config(config_path)
        if not replay_verify(out_dir / "trajectory.csv", config):
            ok = False
        # byte-identical rerun with the same seed
        rerun_config = load_config(config_path)
        rerun_dir = tmp_path / f"rerun_{name}"
        rerun_config.out_dir = str(rerun_dir)
        if run_experiment(rerun_config) != code:
            ok = False
        for file_name in ("trajectory.csv", "blocks.csv"):
            if (out_dir / file_name).read_bytes() != (rerun_dir / file_name).read_bytes():
                ok = False
    verdict(9, "replay audit and byte-identical reruns for the three benchmark configs", ok)
