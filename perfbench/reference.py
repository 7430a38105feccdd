"""Independent checks of regulation runs.

The three benchmark plants are written out again here, apart from
``regulate.plant``, so that a fault in the library's simulation cannot also
hide in its own check. All three plants are linear in the parameter,
``x(t+1) = a(x, u) + B(x, u) @ theta``, which gives an ordinary least-squares
reference for the exact-mode estimates.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _scalar_linear(x, u):
    return np.array([u[0]]), np.array([[x[0]]])


def _affine_2d(x, u):
    return np.array([x[1] + u[0], u[1]]), np.array([[0.0, 0.0], [x[0], x[1]]])


def _bilinear_scalar(x, u):
    return np.array([u[0]]), np.array([[x[0], x[0] * u[0]]])


# name -> (state_dim, input_dim, param box, target, affine-in-theta split)
PLANTS = {
    "scalar_linear": (1, 1, np.array([[0.5, 2.0]]), np.zeros(1), _scalar_linear),
    "affine_2d": (2, 2, np.array([[0.25, 1.0], [0.25, 1.0]]), np.zeros(2), _affine_2d),
    "bilinear_scalar": (1, 1, np.array([[0.5, 1.0], [0.0, 0.4]]), np.zeros(1), _bilinear_scalar),
}

# Default synthesis bounds (n_max, rho_max) and default excitations of the plants.
DEFAULT_BOUNDS = {"scalar_linear": (2, 4.0), "affine_2d": (3, 0.75), "bilinear_scalar": (2, 2.0)}
DEFAULT_EXCITATION = {
    "scalar_linear": [[0.5]],
    "affine_2d": [[1.0, 0.0], [0.0, 0.0]],
    "bilinear_scalar": [[0.0], [0.5]],
}


def transition(name, x, u, theta):
    """Reference x(t+1) for one plant, written the way the plant's formula reads."""
    x, u, th = (np.asarray(v, dtype=float) for v in (x, u, theta))
    if name == "scalar_linear":
        return np.array([th[0] * x[0] + u[0]])
    if name == "affine_2d":
        return np.array([x[1] + u[0], th[0] * x[0] + th[1] * x[1] + u[1]])
    if name == "bilinear_scalar":
        return np.array([th[0] * x[0] + (1.0 + th[1] * x[0]) * u[0]])
    raise KeyError(name)


def replay(name, x0, inputs, theta) -> np.ndarray:
    """States x(0), ..., x(T) under the inputs, from the reference transition."""
    x = np.asarray(x0, dtype=float)
    out = [x]
    for u in np.asarray(inputs, dtype=float):
        x = transition(name, x, u, theta)
        out.append(x)
    return np.vstack(out)


def least_squares_theta(name, states, inputs) -> np.ndarray:
    """Ordinary least-squares fit of theta to the recorded transitions."""
    split = PLANTS[name][4]
    rows, rhs = [], []
    for t in range(len(inputs)):
        a, b = split(states[t], inputs[t])
        rows.append(b)
        rhs.append(states[t + 1] - a)
    theta, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    return theta


def deadbeat(name, x, theta):
    """Closed-form block that lands exactly on the target under theta, or None
    where the input gain vanishes."""
    x, th = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
    if name == "scalar_linear":
        return np.array([[-th[0] * x[0]]])
    if name == "affine_2d":
        drift = np.array([x[1], th[0] * x[0] + th[1] * x[1]])
        return np.vstack([np.zeros(2), [-drift[1], -th[0] * drift[0] - th[1] * drift[1]]])
    if name == "bilinear_scalar":
        gain = 1.0 + th[1] * x[0]
        return None if abs(gain) < 1e-12 else np.array([[-th[0] * x[0] / gain]])
    raise KeyError(name)


def one_step(name, x, theta):
    """The single input that lands exactly on the target from x under theta
    (bilinear_scalar: None where the input gain vanishes)."""
    x, th = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
    if name == "scalar_linear":
        return np.array([-th[0] * x[0]])
    if name == "affine_2d":
        return np.array([-x[1], -th[0] * x[0] - th[1] * x[1]])
    if name == "bilinear_scalar":
        return deadbeat(name, x, theta)
    raise KeyError(name)


@dataclass
class Case:
    """What a run was asked to do, known to the benchmark before the run."""

    model: str
    theta_true: np.ndarray
    x0: np.ndarray
    excitation: np.ndarray
    algorithm: str
    eps: float  # eps_fin (inexact, strict) or tol_exact (exact, inclusive)
    n_max: int
    rho_max: float


@dataclass
class Block:
    start_time: int
    theta: np.ndarray
    mu: float | None
    horizon: int


@dataclass
class Logged:
    """What a run reports: the trajectory, the applied inputs and the blocks."""

    states: np.ndarray
    inputs: np.ndarray
    blocks: list = field(default_factory=list)
    terminated: bool = True


class CheckFailed(AssertionError):
    """A regulation run broke one of the independent checks."""


def steps_to_target(case: Case, states: np.ndarray) -> int:
    """Closed-loop steps after the excitation until the state enters the termination ball."""
    start = len(case.excitation)
    for t in range(start, len(states)):
        if _inside(case, states[t]):
            return t - start
    raise CheckFailed("the state never enters the termination ball")


def _inside(case: Case, x) -> bool:
    err = float(np.linalg.norm(np.asarray(x) - PLANTS[case.model][3]))
    return err < case.eps if case.algorithm == "inexact" else err <= case.eps


def check_run(case: Case, log: Logged) -> None:
    """Raise CheckFailed unless the logged run meets every independent check."""
    state_dim, input_dim, box, _, _ = PLANTS[case.model]
    states = np.asarray(log.states, dtype=float).reshape(-1, state_dim)
    inputs = np.asarray(log.inputs, dtype=float).reshape(-1, input_dim)
    if not log.terminated:
        raise CheckFailed("the run did not terminate")
    if len(states) != len(inputs) + 1:
        raise CheckFailed(f"{len(states)} states for {len(inputs)} inputs")
    n_exc = len(case.excitation)
    if not np.array_equal(inputs[:n_exc], case.excitation):
        raise CheckFailed("the logged excitation differs from the one supplied")
    expected = replay(case.model, case.x0, inputs, case.theta_true)
    if not np.allclose(states, expected, rtol=1e-12, atol=1e-12):
        worst = float(np.max(np.abs(states - expected)))
        raise CheckFailed(f"replaying the logged inputs misses the trajectory by {worst:.3e}")
    if not _inside(case, states[-1]):
        raise CheckFailed("the final state lies outside the termination ball")
    closed_loop = inputs[n_exc:]
    if closed_loop.size and float(np.max(np.abs(closed_loop))) > case.rho_max:
        raise CheckFailed(f"an input exceeds rho_max = {case.rho_max}")
    if not log.blocks:
        raise CheckFailed("no control block was logged")
    t = n_exc
    for k, blk in enumerate(log.blocks, start=1):
        if blk.start_time != t:
            raise CheckFailed(f"block {k} starts at {blk.start_time}, expected {t}")
        if not 1 <= blk.horizon <= case.n_max:
            raise CheckFailed(f"block {k} horizon {blk.horizon} outside [1, {case.n_max}]")
        theta = np.asarray(blk.theta, dtype=float)
        if np.any(theta < box[:, 0]) or np.any(theta > box[:, 1]):
            raise CheckFailed(f"block {k} estimate {theta} leaves the parameter box")
        past_states, past_inputs = states[: t + 1], inputs[:t]
        if case.algorithm == "inexact":
            predicted = replay(case.model, case.x0, past_inputs, theta)
            residual = float(np.linalg.norm(predicted[1:] - past_states[1:]))
            if blk.mu is None or not residual <= blk.mu * (1.0 + 1e-9):
                raise CheckFailed(f"block {k} residual {residual:.3e} above mu {blk.mu}")
        else:
            fit = least_squares_theta(case.model, past_states, past_inputs)
            if not np.allclose(theta, fit, rtol=1e-6, atol=1e-6):
                raise CheckFailed(f"block {k} estimate {theta} differs from least squares {fit}")
        t += blk.horizon
    if t != len(inputs):
        raise CheckFailed(f"blocks cover {t} steps, the log holds {len(inputs)}")


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def read_summary(path) -> dict:
    """Parse summary.jsonl strictly: NaN and Infinity are rejected."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) != 1:
        raise CheckFailed(f"{path}: expected one line, got {len(lines)}")
    try:
        record = json.loads(lines[0], parse_constant=_reject_constant)
    except ValueError as err:
        raise CheckFailed(f"{path}: not strict JSON ({err})") from None
    if not isinstance(record, dict):
        raise CheckFailed(f"{path}: not a JSON object")
    for key, value in record.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise CheckFailed(f"{path}: {key} is not finite")
    return record


def read_cli_log(case: Case, out_dir) -> Logged:
    """Load the CLI's trajectory.csv, blocks.csv and summary.jsonl for checking."""
    out = Path(out_dir)
    state_dim, input_dim, _, _, _ = PLANTS[case.model]
    param_dim = len(PLANTS[case.model][2])
    with (out / "trajectory.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    states = np.array([[float(v) for v in r[1 : 1 + state_dim]] for r in rows])
    cells = [r[1 + state_dim : 1 + state_dim + input_dim] for r in rows]
    inputs = np.array([[float(v) for v in c] for c in cells if all(c)]).reshape(-1, input_dim)
    blocks = []
    with (out / "blocks.csv").open(encoding="utf-8", newline="") as handle:
        for r in csv.DictReader(handle):
            blocks.append(
                Block(
                    int(r["T_k"]),
                    np.array([float(r[f"theta_{i + 1}"]) for i in range(param_dim)]),
                    float(r["mu_k"]) if r["mu_k"] else None,
                    int(r["N_k"]),
                )
            )
    summary = read_summary(out / "summary.jsonl")
    if summary.get("blocks") != len(blocks):
        raise CheckFailed("summary.jsonl and blocks.csv disagree on the block count")
    return Logged(states, inputs, blocks, bool(summary.get("terminated")))


def logged_from_outcome(outcome) -> Logged:
    """The library's RunOutcome in the checker's terms."""
    blocks = [Block(r.start_time, r.theta, r.mu, r.horizon) for r in outcome.blocks]
    return Logged(outcome.trajectory.states, outcome.inputs.inputs, blocks, outcome.terminated)
