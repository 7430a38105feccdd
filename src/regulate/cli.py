"""Batch experiment front end.

Reads a JSON config, runs one regulation experiment on a benchmark plant, and
writes machine-readable logs: trajectory.csv, blocks.csv, summary.jsonl. Each
config default is stated in ``ExperimentConfig``, each numeric rule in
``_NUMBERS``, and the ``--seed`` and ``--out`` overrides meet the same rules.
Exit codes: 0 run terminated, 2 a safety cap was hit, 3 a usage error, an
unreadable or invalid config or log (a string, a boolean, a non-finite number
or an integer too large for a double where a number belongs included), an
output directory that cannot be made, or solver infeasibility. ``verify``
replays the logged inputs (exit 0 on a match, 1 on a mismatch, 3 when the log
is missing or does not fit) and ``check-excitation`` reports identifiability.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .benchmarks import BenchmarkSpec, UnknownModel, get_model
from .estimator import identifiability_margin
from .plant import InputSequence, RunFailure, as_inputs, excitation_rank_check, param_grid, simulate
from .regulator import (
    RegulatorError,
    RegulatorSchedule,
    RunOutcome,
    SolverOptions,
    run_exact,
    run_inexact,
)
from .synthesis import SynthesisBounds


class ParseError(ValueError):
    """The command line is malformed, or a file is not UTF-8 text, a config
    file not a JSON object or a logged trajectory not a table of numbers."""


class ValidationError(ValueError):
    """One or more config fields are invalid; ``problems`` lists all of them."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass
class ExperimentConfig:
    """One experiment; a field that the config leaves out takes its default here."""

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
    excitation: Optional[InputSequence] = None
    seed: int = 0
    max_blocks: int = 50
    max_inner_retries: int = 60
    out_dir: Optional[str] = None


# Each numeric field's rule: its type, its lower limit (a real must exceed it,
# an integer reach it), and any further (test of the value and the algorithm,
# message). A null is accepted only where the default is None, and means that
# default.
_NUMBERS = {
    "tol_exact": (float, 0, None),
    "beta": (float, None, (lambda beta, algorithm: algorithm != "inexact" or 0.0 < beta < 1.0,
                           "must satisfy 0<beta<1")),
    "mu0": (float, 0, None),
    "kappa0": (float, 0, None),
    "eps_fin": (float, 0, (lambda eps_fin, algorithm: algorithm != "inexact" or 0.5 * eps_fin > 0,
                           "must be large enough that its half is positive")),
    "n_max": (int, 1, None),
    # The synthesis draws its starts from [-rho_max, rho_max].
    "rho_max": (float, 0, (lambda rho_max, _: math.isfinite(2.0 * rho_max),
                           "the amplitude box must have a finite width")),
    "seed": (int, 0, None),
    "max_blocks": (int, 0, None),
    "max_inner_retries": (int, 0, None),
}


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a boolean or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, kind, low, further, algorithm):
    """A numeric field's value as ``kind``, checked by its rule; ValueError names
    the problem, and OverflowError an integer too large for a double."""
    if not _is_number(value):
        raise ValueError(f"must be a number (got {value!r})")
    if not math.isfinite(value):
        raise ValueError(f"must be finite (got {value!r})")
    if kind is int and int(value) != value:
        raise ValueError(f"must be an integer (got {value!r})")
    if low is not None and kind is float and not value > low:
        raise ValueError(f"must be positive (got {value!r})")
    if low is not None and kind is int and value < low:
        raise ValueError(f"must be >= {low} (got {value!r})")
    value = kind(value)
    if further is not None and not further[0](value, algorithm):
        raise ValueError(f"{further[1]} (got {value!r})")
    return value


def _array(value, read, *args):
    """``read(value, *args)`` once every leaf of the array ``value`` is known to be
    a JSON number that is finite as a double; ValueError names the problem, and
    OverflowError an integer too large for a double."""
    result = read(value, *args)
    if not np.all(np.isfinite(np.asarray(value, dtype=float))):
        raise ValueError("must be finite")
    odd = [leaf for leaf in np.asarray(value, dtype=object).flat if not _is_number(leaf)]
    if odd:
        raise ValueError(f"must hold only numbers (got {odd[0]!r})")
    return result


def _vector(value, dim):
    """A vector of ``dim`` coordinates, of any length when ``dim`` is None."""
    if value is None:
        raise ValueError("required")
    try:
        arr = np.asarray(value, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise ValueError("must be a numeric vector") from None
    if dim is not None and arr.shape != (dim,):
        raise ValueError(f"expected {dim} coordinates, got {arr.size}")
    return arr


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse and validate a config file; all validation failures are reported together.
    ``overrides`` that are not None (the command line's ``seed`` and ``out_dir``)
    replace the file's fields and meet the same rules."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err})") from None
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as err:
        # Besides malformed JSON: an integer of more digits than Python reads, or deep nesting.
        raise ParseError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    raw.update((key, value) for key, value in overrides.items() if value is not None)

    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    problems = [f"{key}: unknown field" for key in sorted(raw.keys() - defaults.keys())]
    values = {key: raw.get(key, defaults[key]) for key in ("model", "algorithm", "out_dir")}

    def check(name, read, *args):
        try:
            values[name] = read(raw.get(name), *args)
        except OverflowError:
            problems.append(f"{name}: must be finite (got an integer too large for a double)")
        except (TypeError, ValueError) as err:
            problems.append(f"{name}: {err}")

    spec = None
    if not isinstance(values["model"], str):
        problems.append("model: required, must be a benchmark name string")
    else:
        try:
            spec = get_model(values["model"])
        except UnknownModel as err:
            problems.append(f"model: {err}")
    algorithm = values["algorithm"]
    if algorithm not in ("exact", "inexact"):
        problems.append(f"algorithm: must be 'exact' or 'inexact' (got {algorithm!r})")

    model = spec.model if spec else None
    for name, dim in (("theta_true", model and model.param_dim), ("x0", model and model.state_dim)):
        check(name, _array, _vector, dim)
    if model is not None and "theta_true" in values and not model.contains_params(values["theta_true"]):
        box = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in model.param_box)
        problems.append(f"theta_true: outside the admissible box {box}")

    for name, (kind, low, further) in _NUMBERS.items():
        if name in raw and (raw[name] is not None or defaults[name] is not None):
            check(name, _number, kind, low, further, algorithm)

    if raw.get("excitation") is not None and model is not None:
        check("excitation", _array, as_inputs, model.input_dim)

    if values["out_dir"] is not None and not isinstance(values["out_dir"], str):
        problems.append(f"out_dir: must be a string (got {values['out_dir']!r})")

    if problems:
        raise ValidationError(problems)
    return ExperimentConfig(**values)


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


def _out_dir(config: ExperimentConfig) -> Path:
    """The output directory, which ``run`` and ``verify`` require."""
    if not config.out_dir:
        raise ValidationError(["out_dir: required (set in the config or pass --out)"])
    return Path(config.out_dir)


def run_experiment(config: ExperimentConfig) -> int:
    """Run one experiment and write its logs; returns the process exit code."""
    out = _out_dir(config)
    spec, excitation, bounds = _materialize(config)
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
    except RunFailure as err:
        capped = isinstance(err, RegulatorError)
        print(f"{'run stopped' if capped else 'solver failed'}: {err}", file=sys.stderr)
        outcome = err.partial_outcome
        code = 2 if capped else 3
    wall_time = time.perf_counter() - start

    if outcome is not None:
        _write_trajectory(out / "trajectory.csv", spec, outcome)
        _write_blocks(out / "blocks.csv", spec, outcome)
    _write_summary(out / "summary.jsonl", outcome, wall_time)
    return code


def replay_verify(trajectory_path, config: ExperimentConfig) -> bool:
    """Re-simulate the logged inputs under theta_true and compare against the log to 1e-12."""
    spec, _, _ = _materialize(config)
    model = spec.model
    path = Path(trajectory_path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        try:
            rows = list(csv.reader(handle))
        except UnicodeDecodeError as err:
            raise ParseError(f"{path}: not UTF-8 text ({err})") from None
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
            # Only the final time has no input, so only the last row may leave
            # its input cells blank, and then all of them.
            if number < len(rows) - 1 or any(cell != "" for cell in input_cells):
                inputs.append([float(v) for v in input_cells])
        except ValueError as err:
            raise ParseError(f"{path}: row {number}: {err}") from None
    logged = np.asarray(states, dtype=float)
    # A run that overflowed logs inf and nan; its replay overflows the same way.
    with np.errstate(over="ignore", invalid="ignore"):
        replayed = simulate(
            model, config.x0, InputSequence(0, np.asarray(inputs, dtype=float).reshape(len(inputs), model.input_dim)),
            config.theta_true,
        ).states
    if replayed.shape != logged.shape:
        return False
    return bool(np.isclose(replayed, logged, rtol=0.0, atol=1e-12, equal_nan=True).all())


def check_excitation(config: ExperimentConfig) -> int:
    """Run the identifiability diagnostics for the configured excitation; exit 3 on failure."""
    spec, excitation, _ = _materialize(config)
    model = spec.model
    samples = [(config.x0, theta) for theta in param_grid(model, 3)]
    samples.append((config.x0, config.theta_true))
    with np.errstate(over="ignore", invalid="ignore"):
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


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ParseError, so that it exits 3 like any other
    config error; the subcommand parsers inherit this class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="regulate",
        description="Adaptive set-point regulation experiments on benchmark plants",
    )
    parser.set_defaults(seed=None, out=None)
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
    try:
        args = _build_parser().parse_args(argv)
        # An empty --out leaves the config's out_dir in place.
        config = load_config(args.config, seed=args.seed, out_dir=args.out or None)
        if args.command == "run":
            return run_experiment(config)
        if args.command == "verify":
            ok = replay_verify(_out_dir(config) / "trajectory.csv", config)
            print("replay ok" if ok else "replay mismatch")
            return 0 if ok else 1
        return check_excitation(config)
    except (OSError, ParseError, ValidationError) as err:
        # A file that cannot be read or written is a config error too.
        print(f"config error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
