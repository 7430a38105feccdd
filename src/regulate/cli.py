"""Batch experiment front end.

Reads a JSON config, runs one regulation experiment on a benchmark plant, and
writes machine-readable logs: trajectory.csv, blocks.csv, summary.jsonl.
Exit codes: 0 run terminated, 2 a safety cap was hit, 3 config or solver
infeasibility. ``verify`` replays the logged inputs against the true plant
(exit 0 on a match, 1 on a mismatch, 3 when the log is missing, is not a
table of numbers or does not fit the config) and ``check-excitation`` reports
the identifiability diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .benchmarks import BenchmarkSpec, UnknownModel, get_model
from .estimator import NotConverged, identifiability_margin
from .plant import InputSequence, as_inputs, excitation_rank_check, param_grid, simulate
from .regulator import (
    RegulatorError,
    RegulatorSchedule,
    RunOutcome,
    SolverOptions,
    run_exact,
    run_inexact,
)
from .synthesis import Infeasible, SynthesisBounds


class ParseError(ValueError):
    """A config file is not a JSON object, or a logged trajectory is not a
    table of numbers."""


class ValidationError(ValueError):
    """One or more config fields are invalid; ``problems`` lists all of them."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass
class ExperimentConfig:
    model: str
    theta_true: np.ndarray
    x0: np.ndarray
    algorithm: str = "exact"
    tol_exact: float = 1e-10
    beta: float = 0.5
    mu0: float = 1.0
    kappa0: float = 1.0
    eps_fin: float = 1e-3
    n_max: Optional[int] = None
    rho_max: Optional[float] = None
    excitation: Optional[np.ndarray] = None
    seed: int = 0
    max_blocks: int = 50
    max_inner_retries: int = 60
    out_dir: Optional[str] = None


_KNOWN_FIELDS = {
    "model", "theta_true", "x0", "algorithm", "tol_exact", "beta", "mu0",
    "kappa0", "eps_fin", "n_max", "rho_max", "excitation", "seed",
    "max_blocks", "max_inner_retries", "out_dir",
}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; all validation failures are reported together."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")

    problems = []
    for key in sorted(set(raw) - _KNOWN_FIELDS):
        problems.append(f"{key}: unknown field")

    def take(name, default=None):
        return raw.get(name, default)

    name = take("model")
    if not isinstance(name, str):
        problems.append("model: required, must be a benchmark name string")
        spec = None
    else:
        try:
            spec = get_model(name)
        except UnknownModel as err:
            problems.append(f"model: {err}")
            spec = None

    def number(field_name, default, positive=False, integer=False, minimum=None):
        value = take(field_name, default)
        if value is None and default is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{field_name}: must be a number (got {value!r})")
            return default
        if integer and int(value) != value:
            problems.append(f"{field_name}: must be an integer (got {value!r})")
            return default
        if positive and not value > 0:
            problems.append(f"{field_name}: must be positive (got {value!r})")
            return default
        if minimum is not None and value < minimum:
            problems.append(f"{field_name}: must be >= {minimum} (got {value!r})")
            return default
        return int(value) if integer else float(value)

    def vector(field_name, dim, required=True):
        value = take(field_name)
        if value is None:
            if required:
                problems.append(f"{field_name}: required")
            return None
        try:
            arr = np.asarray(value, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            problems.append(f"{field_name}: must be a numeric vector")
            return None
        if dim is not None and arr.shape != (dim,):
            problems.append(f"{field_name}: expected {dim} coordinates, got {arr.size}")
            return None
        return arr

    algorithm = take("algorithm", "exact")
    if algorithm not in ("exact", "inexact"):
        problems.append(f"algorithm: must be 'exact' or 'inexact' (got {algorithm!r})")

    theta_true = vector("theta_true", spec.model.param_dim if spec else None)
    x0 = vector("x0", spec.model.state_dim if spec else None)
    if spec is not None and theta_true is not None and not spec.model.contains_params(theta_true):
        box = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in spec.model.param_box)
        problems.append(f"theta_true: outside the admissible box {box}")

    tol_exact = number("tol_exact", 1e-10, positive=True)
    beta = take("beta", 0.5)
    if isinstance(beta, bool) or not isinstance(beta, (int, float)):
        problems.append(f"beta: must be a number (got {beta!r})")
        beta = 0.5
    elif algorithm == "inexact" and not 0.0 < beta < 1.0:
        problems.append(f"beta: must satisfy 0<beta<1 (got {beta!r})")
    mu0 = number("mu0", 1.0, positive=True)
    kappa0 = number("kappa0", 1.0, positive=True)
    eps_fin = number("eps_fin", 1e-3, positive=True)
    n_max = number("n_max", None, integer=True, minimum=1)
    rho_max = number("rho_max", None, positive=True)
    seed = number("seed", 0, integer=True, minimum=0)
    max_blocks = number("max_blocks", 50, integer=True, minimum=0)
    max_inner_retries = number("max_inner_retries", 60, integer=True, minimum=0)

    excitation = None
    if take("excitation") is not None and spec is not None:
        try:
            excitation = as_inputs(take("excitation"), spec.model.input_dim, start_time=0)
        except (ValueError, TypeError) as err:
            problems.append(f"excitation: {err}")

    out_dir = take("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append(f"out_dir: must be a string (got {out_dir!r})")
        out_dir = None

    if problems:
        raise ValidationError(problems)
    return ExperimentConfig(
        model=name,
        theta_true=theta_true,
        x0=x0,
        algorithm=algorithm,
        tol_exact=tol_exact,
        beta=float(beta),
        mu0=mu0,
        kappa0=kappa0,
        eps_fin=eps_fin,
        n_max=n_max,
        rho_max=rho_max,
        excitation=excitation,
        seed=seed,
        max_blocks=max_blocks,
        max_inner_retries=max_inner_retries,
        out_dir=out_dir,
    )


def _materialize(config: ExperimentConfig):
    spec = get_model(config.model)
    excitation = config.excitation if config.excitation is not None else spec.excitation
    bounds = SynthesisBounds(
        config.n_max if config.n_max is not None else spec.bounds.max_horizon,
        config.rho_max if config.rho_max is not None else spec.bounds.max_amplitude,
    )
    return spec, excitation, bounds


def _fmt(value: float) -> str:
    # 17 significant digits round-trip any double exactly.
    return format(float(value), ".16e")


def _write_trajectory(path: Path, spec: BenchmarkSpec, outcome: RunOutcome) -> None:
    model = spec.model
    states = outcome.trajectory.states
    inputs = outcome.inputs.inputs
    n_exc = outcome.blocks[0].start_time if outcome.blocks else len(inputs)
    labels = [0] * n_exc
    for rec in outcome.blocks:
        labels.extend([rec.index] * rec.horizon)
    header = (
        ["t"]
        + [f"x_{i + 1}" for i in range(model.state_dim)]
        + [f"u_{i + 1}" for i in range(model.input_dim)]
        + ["block_index"]
    )
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for t in range(len(states)):
            row = [str(t)] + [_fmt(v) for v in states[t]]
            if t < len(inputs):
                row += [_fmt(v) for v in inputs[t]] + [str(labels[t])]
            else:
                row += [""] * model.input_dim + [""]
            writer.writerow(row)


def _write_blocks(path: Path, spec: BenchmarkSpec, outcome: RunOutcome) -> None:
    model = spec.model
    header = (
        ["k", "T_k"]
        + [f"theta_{i + 1}" for i in range(model.param_dim)]
        + ["mu_k", "kappa_k", "N_k", "estimate_residual", "inclusion_retries"]
    )
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for rec in outcome.blocks:
            writer.writerow(
                [str(rec.index), str(rec.start_time)]
                + [_fmt(v) for v in rec.theta]
                + [
                    _fmt(rec.mu) if rec.mu is not None else "",
                    _fmt(rec.kappa) if rec.kappa is not None else "",
                    str(rec.horizon),
                    _fmt(rec.estimate_residual),
                    str(rec.inclusion_retries),
                ]
            )


def _write_summary(path: Path, outcome: Optional[RunOutcome], wall_time: float) -> None:
    record = {
        "terminated": bool(outcome.terminated) if outcome else False,
        "blocks": len(outcome.blocks) if outcome else 0,
        "final_error": None,
        "wall_time": wall_time,
    }
    # JSON has no infinity or NaN: a diverged run's error is written as null.
    if outcome and np.isfinite(outcome.final_error):
        record["final_error"] = float(outcome.final_error)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(json.dumps(record, allow_nan=False) + "\n")


def run_experiment(config: ExperimentConfig) -> int:
    """Run one experiment and write its logs; returns the process exit code."""
    if not config.out_dir:
        raise ValidationError(["out_dir: required (set in the config or pass --out)"])
    if config.seed < 0:
        raise ValidationError([f"seed: must be >= 0 (got {config.seed})"])
    spec, excitation, bounds = _materialize(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solver = SolverOptions(seed=config.seed)

    start = time.perf_counter()
    outcome = None
    code = 0
    try:
        if config.algorithm == "exact":
            outcome = run_exact(
                spec.model, config.theta_true, config.x0, excitation,
                bounds_fn=lambda _x: bounds,
                tol_exact=config.tol_exact,
                solver=solver,
                max_blocks=config.max_blocks,
            )
        else:
            outcome = run_inexact(
                spec.model, config.theta_true, config.x0, excitation,
                RegulatorSchedule(config.beta, config.mu0, config.kappa0, config.eps_fin),
                bounds_fn=lambda _x: bounds,
                solver=solver,
                max_blocks=config.max_blocks,
                max_inner_retries=config.max_inner_retries,
            )
    except RegulatorError as err:
        print(f"run stopped: {err}", file=sys.stderr)
        outcome = err.partial_outcome
        code = 2
    except (NotConverged, Infeasible) as err:
        print(f"solver failed: {err}", file=sys.stderr)
        outcome = getattr(err, "partial_outcome", None)
        code = 3
    wall_time = time.perf_counter() - start

    if outcome is not None:
        _write_trajectory(out / "trajectory.csv", spec, outcome)
        _write_blocks(out / "blocks.csv", spec, outcome)
    _write_summary(out / "summary.jsonl", outcome, wall_time)
    return code


def replay_verify(trajectory_path, config: ExperimentConfig, tol: float = 1e-12) -> bool:
    """Re-simulate the logged inputs under theta_true and compare against the log."""
    spec, _, _ = _materialize(config)
    model = spec.model
    path = Path(trajectory_path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    width = 1 + model.state_dim + model.input_dim + 1
    if not rows or len(rows[0]) != width:
        raise ParseError(f"{path}: unexpected column count")
    states = []
    inputs = []
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise ParseError(f"{path}: row {number} has {len(row)} cells, expected {width}")
        input_cells = row[1 + model.state_dim : 1 + model.state_dim + model.input_dim]
        try:
            states.append([float(v) for v in row[1 : 1 + model.state_dim]])
            if all(cell != "" for cell in input_cells):
                inputs.append([float(v) for v in input_cells])
        except ValueError as err:
            raise ParseError(f"{path}: row {number}: {err}") from None
    logged = np.asarray(states, dtype=float)
    replayed = simulate(
        model, config.x0, InputSequence(0, np.asarray(inputs, dtype=float).reshape(len(inputs), model.input_dim)),
        config.theta_true,
    ).states
    if replayed.shape != logged.shape:
        return False
    return bool(np.max(np.abs(replayed - logged), initial=0.0) <= tol)


def check_excitation(config: ExperimentConfig) -> int:
    """Run the identifiability diagnostics for the configured excitation; exit 3 on failure."""
    spec, excitation, _ = _materialize(config)
    model = spec.model
    samples = [(config.x0, theta) for theta in param_grid(model, 3)]
    samples.append((config.x0, config.theta_true))
    report = excitation_rank_check(model, excitation, samples)
    margin = identifiability_margin(model, config.x0, excitation, grid=5)
    print(f"model: {config.model}")
    print(f"excitation length: {len(excitation)}")
    print(f"rank check: {'pass' if report.passed else 'FAIL'}")
    print(f"min singular value over samples: {_fmt(report.min_singular_value)}")
    print(f"identifiability margin: {_fmt(margin.margin)}")
    print(f"validated radius: {_fmt(margin.radius)}")
    print(f"margin samples: {margin.samples_used}")
    return 0 if report.passed else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regulate",
        description="Adaptive set-point regulation experiments on benchmark plants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write CSV/JSONL logs")
    run_p.add_argument("--config", required=True, help="path to a JSON experiment config")
    run_p.add_argument("--out", help="output directory (overrides the config's out_dir)")
    run_p.add_argument("--seed", type=int, help="seed override")

    verify_p = sub.add_parser("verify", help="replay logged inputs and audit the trajectory")
    verify_p.add_argument("--config", required=True)
    verify_p.add_argument("--out", help="directory holding trajectory.csv")

    check_p = sub.add_parser("check-excitation", help="identifiability diagnostics for the excitation")
    check_p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except FileNotFoundError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3

    if args.command == "run":
        if args.out:
            config.out_dir = args.out
        if args.seed is not None:
            config.seed = args.seed
        try:
            return run_experiment(config)
        except ValidationError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 3
    if args.command == "verify":
        out_dir = args.out or config.out_dir
        if not out_dir:
            print("config error: no output directory given", file=sys.stderr)
            return 3
        try:
            ok = replay_verify(Path(out_dir) / "trajectory.csv", config)
        except (FileNotFoundError, ParseError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return 3
        print("replay ok" if ok else "replay mismatch")
        return 0 if ok else 1
    return check_excitation(config)


if __name__ == "__main__":
    raise SystemExit(main())
