"""Finite-horizon control-block synthesis.

Searches for the shortest input block within the configured horizon and
amplitude bounds that drives the predicted terminal state onto the target,
running Gauss-Newton from ``MULTISTART_COUNT`` starts at each horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .estimator import ObservationHistory
from .gauss_newton import box_gauss_newton
from .plant import InputSequence, PlantModel, RunFailure, block_end_map, jacobian_input, replay
# Not called here; kept importable under this module's name, where the
# benchmark's span tracer looks them up.
from .plant import simulate, terminal_map  # noqa: F401

# Gauss-Newton starts per horizon: the zero block and seeded random blocks.
MULTISTART_COUNT = 5


class Infeasible(RunFailure):
    """No admissible block reaches the target; bad bounds or a bad parameter estimate."""


@dataclass(frozen=True)
class SynthesisBounds:
    """A-priori caps on block length and per-coordinate input amplitude."""

    max_horizon: int
    max_amplitude: float

    def __post_init__(self):
        if isinstance(self.max_horizon, bool) or not isinstance(self.max_horizon, (int, np.integer)):
            raise ValueError(f"max_horizon must be an integer (got {self.max_horizon!r})")
        if self.max_horizon < 1:
            raise ValueError("max_horizon must be at least 1")
        if not self.max_amplitude > 0:
            raise ValueError("max_amplitude must be positive")


@dataclass(frozen=True)
class ControlPlan:
    horizon: int
    block: InputSequence
    predicted_terminal_error: float


def synthesize(
    model: PlantModel,
    history: ObservationHistory,
    theta,
    bounds: SynthesisBounds,
    tol: float,
    seed: int = 0,
) -> ControlPlan:
    """Find the shortest admissible block whose predicted terminal error is below tol.

    Horizons are tried in ascending order. At each horizon, box-constrained
    damped Gauss-Newton runs from the zero block and from seeded uniform random
    blocks inside the amplitude box; among successful starts the plan with the
    smallest input 2-norm wins. Deterministic for a fixed seed. Raises
    Infeasible when no horizon up to the cap succeeds.

    Every candidate block runs through the plant's ``block_end_map``, which
    checks x and theta once per horizon, without a ``simulate`` call of its own.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    start_time = history.horizon
    # Predicted state at the block start under theta: the history's replay from
    # x(0), which the estimate just computed at this theta and left in the memo.
    x_here = replay(model, history.x0, history.applied_inputs, theta)[-1]
    rng = np.random.default_rng(seed)
    rho = bounds.max_amplitude

    for horizon in range(1, bounds.max_horizon + 1):
        dim = model.input_dim * horizon
        lower = np.full(dim, -rho)
        upper = np.full(dim, rho)
        shape = (horizon, model.input_dim)
        # x_here is the history's replay, so this is terminal_map's block part.
        block_end = block_end_map(model, x_here, theta, horizon)

        def block_of(u_flat):
            return InputSequence(start_time, u_flat.reshape(shape))

        def res(u_flat):
            return block_end(u_flat) - model.target

        def jac(u_flat):
            return jacobian_input(model, x_here, block_of(u_flat), theta)

        starts = [np.zeros(dim)]
        for _ in range(MULTISTART_COUNT - 1):
            starts.append(rng.uniform(-rho, rho, size=dim))
        winners = []
        for s in starts:
            run = box_gauss_newton(res, jac, s, lower, upper, tol)
            if run.residual_norm < tol:
                winners.append(run)
        if winners:
            # A run's residual_norm is ||res(run.x)||: the plan's predicted error.
            best = min(winners, key=lambda run: float(np.linalg.norm(run.x)))
            return ControlPlan(horizon, block_of(best.x), best.residual_norm)
    raise Infeasible(
        f"no block of horizon <= {bounds.max_horizon} with amplitude <= {rho} "
        f"reaches the target within {tol}"
    )

