"""Benchmark plants with closed-form oracles.

Registry:
  scalar_linear    f = th*x + u                      box [0.5, 2],          target 0
  affine_2d        f = (x2 + u1, th1*x1 + th2*x2 + u2)  box [0.25, 1]^2,    target (0, 0)
  bilinear_scalar  f = th1*x + (1 + th2*x)*u         box [0.5,1] x [0,0.4], target 0

Each entry ships a default excitation that passes the identifiability rank
check from the default initial state, default synthesis bounds, and analytic
oracles (deadbeat input formulas, parameter recovery from recorded
transitions, exact chain-rule sensitivities) that tests hold against the
finite-difference pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimator import ObservationHistory
from .plant import InputSequence, PlantModel, step
from .synthesis import SynthesisBounds


class UnknownModel(LookupError):
    """Requested benchmark name is not in the registry."""


class SingularInput(ValueError):
    """The deadbeat formula's denominator vanishes at this state."""


class _Unidentifiable:
    """Sentinel: the defining system for parameter recovery is singular."""

    __slots__ = ()

    def __repr__(self):
        return "UNIDENTIFIABLE"


UNIDENTIFIABLE = _Unidentifiable()


@dataclass(frozen=True)
class StepDerivatives:
    """Exact one-step partial derivatives of the transition map."""

    wrt_state: Callable
    wrt_input: Callable
    wrt_param: Callable


@dataclass(frozen=True)
class BenchmarkOracle:
    """Closed-form companions to the numeric pipeline."""

    deadbeat_horizon: int
    deadbeat: Callable
    parameter_from_history: Callable
    stacked_jacobian: Callable
    input_jacobian: Callable


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    model: PlantModel
    excitation: InputSequence
    bounds: SynthesisBounds
    oracle: BenchmarkOracle


def _forward_sensitivities(model: PlantModel, deriv: StepDerivatives, x, u_seq: InputSequence, theta):
    """Exact chain-rule sensitivities along u_seq from x: the stacked states' by
    theta, and the terminal state's by the flattened inputs."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    sens = np.zeros((model.state_dim, model.param_dim))
    rows, pieces = [], []
    for u in u_seq.inputs:
        a = deriv.wrt_state(x, u, theta)
        sens = a @ sens + deriv.wrt_param(x, u, theta)
        rows.append(sens)
        pieces = [a @ piece for piece in pieces] + [deriv.wrt_input(x, u, theta)]
        x = step(model, x, u, theta)
    stacked = np.vstack(rows) if rows else np.zeros((0, model.param_dim))
    return stacked, np.hstack(pieces) if pieces else np.zeros((model.state_dim, 0))


def _spec(*, name, model, deriv, deadbeat, parameter, excitation, bounds, deadbeat_horizon, min_history):
    """One plant's facts wired into a BenchmarkSpec: ``deadbeat(x, th)`` gets
    float arrays and returns the block, and ``parameter(states, inputs)`` gets
    x(0), ..., x(T) and the inputs of a history at least ``min_history`` long."""

    def deadbeat_block(x, th):
        return deadbeat_horizon, deadbeat(np.atleast_1d(np.asarray(x, float)), np.atleast_1d(np.asarray(th, float)))

    def parameter_from_history(history):
        if history.horizon < min_history:
            return UNIDENTIFIABLE
        states = np.vstack([history.x0.reshape(1, -1), history.observed_states.states])
        return parameter(states, history.applied_inputs.inputs)

    oracle = BenchmarkOracle(
        deadbeat_horizon,
        deadbeat_block,
        parameter_from_history,
        lambda x0, u_seq, th: _forward_sensitivities(model, deriv, x0, u_seq, th)[0],
        lambda x, block, th: _forward_sensitivities(model, deriv, x, block, th)[1],
    )
    return BenchmarkSpec(name, model, excitation, bounds, oracle)


def _scalar_linear() -> BenchmarkSpec:
    def f(x, u, th):
        return np.array([th[0] * x[0] + u[0]])

    model = PlantModel(1, 1, 1, f, [[0.5, 2.0]], [0.0])

    def parameter(states, inputs):
        if states[0, 0] == 0.0:
            return UNIDENTIFIABLE
        return np.array([(states[1, 0] - inputs[0, 0]) / states[0, 0]])

    return _spec(
        name="scalar_linear", model=model,
        deriv=StepDerivatives(
            wrt_state=lambda x, u, th: np.array([[th[0]]]),
            wrt_input=lambda x, u, th: np.array([[1.0]]),
            wrt_param=lambda x, u, th: np.array([[x[0]]]),
        ),
        deadbeat=lambda x, th: np.array([[model.target[0] - th[0] * x[0]]]),
        parameter=parameter,
        excitation=InputSequence(0, [[0.5]]), bounds=SynthesisBounds(2, 4.0),
        deadbeat_horizon=1, min_history=1,
    )


def _affine_2d() -> BenchmarkSpec:
    def f(x, u, th):
        return np.array([x[1] + u[0], th[0] * x[0] + th[1] * x[1] + u[1]])

    model = PlantModel(2, 2, 2, f, [[0.25, 1.0], [0.25, 1.0]], [0.0, 0.0])

    def deadbeat(x, th):
        # Drift one step under zero input, then cancel both coordinates.
        drift = np.array([x[1], th[0] * x[0] + th[1] * x[1]])
        u1 = np.array([model.target[0] - drift[1], model.target[1] - th[0] * drift[0] - th[1] * drift[1]])
        return np.vstack([np.zeros(2), u1])

    def parameter(states, inputs):
        # Each transition constrains theta through its second coordinate:
        # x2(t+1) - u2(t) = th1*x1(t) + th2*x2(t).
        lhs = states[0:2, :]
        rhs = states[1:3, 1] - inputs[0:2, 1]
        det = lhs[0, 0] * lhs[1, 1] - lhs[0, 1] * lhs[1, 0]
        scale = np.linalg.norm(lhs[0]) * np.linalg.norm(lhs[1])
        if abs(det) <= 1e-12 * max(scale, 1.0):
            return UNIDENTIFIABLE
        return np.linalg.solve(lhs, rhs)

    return _spec(
        name="affine_2d", model=model,
        deriv=StepDerivatives(
            wrt_state=lambda x, u, th: np.array([[0.0, 1.0], [th[0], th[1]]]),
            wrt_input=lambda x, u, th: np.eye(2),
            wrt_param=lambda x, u, th: np.array([[0.0, 0.0], [x[0], x[1]]]),
        ),
        deadbeat=deadbeat,
        parameter=parameter,
        excitation=InputSequence(0, [[1.0, 0.0], [0.0, 0.0]]), bounds=SynthesisBounds(3, 0.75),
        deadbeat_horizon=2, min_history=2,
    )


def _bilinear_scalar() -> BenchmarkSpec:
    def f(x, u, th):
        return np.array([th[0] * x[0] + (1.0 + th[1] * x[0]) * u[0]])

    model = PlantModel(1, 1, 2, f, [[0.5, 1.0], [0.0, 0.4]], [0.0])

    def deadbeat(x, th):
        denom = 1.0 + th[1] * x[0]
        if abs(denom) < 1e-12:
            raise SingularInput(f"input gain vanishes at state {x[0]}")
        return np.array([[(model.target[0] - th[0] * x[0]) / denom]])

    def parameter(states, inputs):
        # Transition t constrains theta via x(t+1) - u(t) = th1*x(t) + th2*x(t)*u(t);
        # pick the best-conditioned pair of transitions.
        rows = np.column_stack([states[:-1, 0], states[:-1, 0] * inputs[:, 0]])
        rhs_all = states[1:, 0] - inputs[:, 0]
        best = None
        best_quality = 0.0
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                det = rows[i, 0] * rows[j, 1] - rows[i, 1] * rows[j, 0]
                scale = np.linalg.norm(rows[i]) * np.linalg.norm(rows[j])
                quality = abs(det) / max(scale, 1e-300)
                if quality > best_quality:
                    best_quality = quality
                    best = (i, j)
        if best is None or best_quality <= 1e-10:
            return UNIDENTIFIABLE
        i, j = best
        return np.linalg.solve(rows[[i, j]], rhs_all[[i, j]])

    return _spec(
        name="bilinear_scalar", model=model,
        deriv=StepDerivatives(
            wrt_state=lambda x, u, th: np.array([[th[0] + th[1] * u[0]]]),
            wrt_input=lambda x, u, th: np.array([[1.0 + th[1] * x[0]]]),
            wrt_param=lambda x, u, th: np.array([[x[0], x[0] * u[0]]]),
        ),
        deadbeat=deadbeat,
        parameter=parameter,
        excitation=InputSequence(0, [[0.0], [0.5]]), bounds=SynthesisBounds(2, 2.0),
        deadbeat_horizon=1, min_history=2,
    )


_BUILDERS = {
    "scalar_linear": _scalar_linear,
    "affine_2d": _affine_2d,
    "bilinear_scalar": _bilinear_scalar,
}

MODEL_NAMES = tuple(sorted(_BUILDERS))


def get_model(name: str) -> BenchmarkSpec:
    """Look up a benchmark by name; raises UnknownModel for anything else."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownModel(f"unknown benchmark {name!r}; available: {', '.join(MODEL_NAMES)}") from None
    return builder()


def oracle_deadbeat(spec: BenchmarkSpec, x, theta):
    """Closed-form minimal-horizon block reaching the target exactly.

    Returns (horizon, inputs) with one input row per step.
    """
    return spec.oracle.deadbeat(x, theta)


def oracle_parameter(spec: BenchmarkSpec, history: ObservationHistory):
    """Closed-form parameter recovery from recorded transitions; returns
    UNIDENTIFIABLE when the defining system is singular."""
    return spec.oracle.parameter_from_history(history)
