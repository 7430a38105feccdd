"""Parameter identification from recorded closed-loop data.

The estimator looks for a parameter vector inside the admissible box whose
predicted trajectory matches the observed one to a requested tolerance, and
the identifiability margin quantifies how strongly the first data segment
separates nearby parameter hypotheses. A start that stalls is followed by
restarts from a grid of ``MULTISTART_GRID`` points per parameter axis; the
grid start that equals the first start (the box midpoint, when the estimate
starts there) reuses the first run's result, so no start is solved twice.
A history records its inputs (``InputSequence.recorded``), so an estimate
and the synthesis and inclusion check after it replay the history once per
recently used parameter vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gauss_newton import box_gauss_newton
from .plant import (
    InputSequence,
    PlantModel,
    RunFailure,
    StateSequence,
    _vector,
    excitation_rank_check,
    jacobian_theta,
    param_grid,
    stacked_map,
)

# Restart grid points per parameter axis after the first start stalls.
MULTISTART_GRID = 3


@dataclass(frozen=True)
class ObservationHistory:
    """Known initial state, the inputs applied from t=0, and the states observed
    at t=1, ..., T in response. A run builds one per control block from its whole
    trajectory, and grows none in place. ``applied_inputs`` is kept recorded: a
    read-only copy with a replay memo."""

    x0: np.ndarray
    applied_inputs: InputSequence
    observed_states: StateSequence

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        object.__setattr__(self, "applied_inputs", self.applied_inputs.recorded())
        if len(self.applied_inputs) and self.applied_inputs.start_time != 0:
            raise ValueError("applied inputs must start at time 0")
        if len(self.observed_states) and self.observed_states.start_time != 1:
            raise ValueError("observed states must start at time 1")
        if len(self.applied_inputs) != len(self.observed_states):
            raise ValueError(
                f"history needs one observed state per applied input, got "
                f"{len(self.applied_inputs)} inputs and {len(self.observed_states)} states"
            )

    @property
    def horizon(self) -> int:
        return len(self.applied_inputs)

    @property
    def observed_flat(self) -> np.ndarray:
        return self.observed_states.flat


@dataclass(frozen=True)
class EstimateResult:
    theta: np.ndarray
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Sampled injectivity margin of the first data segment.

    ``margin`` is the smallest singular value of the segment's parameter
    Jacobian over a grid on the parameter box; ``radius`` is the locality
    radius on which the margin was validated (half the smallest grid spacing,
    a heuristic)."""

    margin: float
    radius: float
    samples_used: int


class NotConverged(RunFailure):
    """No start reached the requested residual tolerance; carries the best attempt."""

    def __init__(self, message: str, best: EstimateResult):
        super().__init__(message)
        self.best = best


def residual_vector(model: PlantModel, history: ObservationHistory, theta) -> np.ndarray:
    """Predicted-minus-observed stacked states under theta."""
    return stacked_map(model, history.x0, history.applied_inputs, theta) - history.observed_flat


def _lex_key(x: np.ndarray) -> tuple:
    return tuple(float(v) for v in x)


def estimate(model: PlantModel, history: ObservationHistory, theta_init, tol: float) -> EstimateResult:
    """Fit a parameter vector in the box to the observed trajectory.

    Runs projected damped Gauss-Newton from theta_init; if that run stalls
    above tol, restarts from a uniform grid over the box (MULTISTART_GRID
    points per axis) and keeps the best residual, breaking ties toward the
    lexicographically smallest parameter vector. A grid start that equals
    theta_init after clipping, byte for byte, reuses the first run instead of
    repeating it; its iterations still count toward ``iterations``. Raises
    NotConverged when no start reaches tol; the returned parameters always lie
    inside the box.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    theta_init = _vector(theta_init, model.param_dim, "theta_init")
    if not model.contains_params(theta_init, atol=1e-12):
        raise ValueError("theta_init must lie inside the parameter box")

    def res(th):
        return residual_vector(model, history, th)

    def jac(th):
        return jacobian_theta(model, history.x0, history.applied_inputs, th)

    lower, upper = model.param_lower, model.param_upper
    best = box_gauss_newton(res, jac, theta_init, lower, upper, tol)
    total_iters = best.iterations
    if best.residual_norm > tol:
        first, first_start = best, np.clip(theta_init, lower, upper).tobytes()
        for start in param_grid(model, MULTISTART_GRID):
            # Gauss-Newton is deterministic: a start equal to the first one
            # would repeat its run step for step.
            if np.clip(start, lower, upper).tobytes() == first_start:
                run = first
            else:
                run = box_gauss_newton(res, jac, start, lower, upper, tol)
            total_iters += run.iterations
            if run.residual_norm < best.residual_norm or (
                run.residual_norm == best.residual_norm and _lex_key(run.x) < _lex_key(best.x)
            ):
                best = run
    if best.residual_norm <= tol:
        return EstimateResult(best.x, best.residual_norm, total_iters, True)
    raise NotConverged(
        f"best residual {best.residual_norm:.3e} above tolerance {tol:.3e} "
        f"after {total_iters} iterations over all starts",
        EstimateResult(best.x, best.residual_norm, total_iters, False),
    )


def identifiability_margin(model: PlantModel, x0, u_exc: InputSequence, grid: int = 5) -> IdentifiabilityReport:
    """Smallest singular value of the first-segment parameter Jacobian over a
    grid on the parameter box. Positive iff every sampled Jacobian has full
    column rank."""
    if grid < 2:
        raise ValueError("grid must be at least 2 points per axis")
    samples = [(x0, theta) for theta in param_grid(model, grid)]
    margin = excitation_rank_check(model, u_exc, samples).min_singular_value
    spacings = (model.param_upper - model.param_lower) / (grid - 1)
    return IdentifiabilityReport(margin, float(0.5 * np.min(spacings)), len(samples))
