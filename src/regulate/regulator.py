"""Closed-loop block regulation.

Both run modes are thin wrappers around one block loop: apply an excitation
signal, then loop over control blocks, re-estimating the parameter from the
whole past trajectory and synthesizing a block that drives the prediction to
the target. The modes hand the loop only what differs between them. The exact
mode solves both subproblems to a fixed tight tolerance and applies every
block. The inexact mode runs the shrinking-tolerance schedule: per block the
estimation tolerance is contracted and the sensitivity multiplier expanded by
the same factor, and the block is only applied once a conservative
sensitivity-ball check confirms that every parameter hypothesis near the
estimate predicts a terminal state inside half the termination ball.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .estimator import NotConverged, ObservationHistory, estimate
from .plant import (
    InputSequence,
    PlantModel,
    StateSequence,
    as_inputs,
    excitation_rank_check,
    fd_jacobian,
    simulate,
    terminal_map,
)
from .synthesis import ControlPlan, Infeasible, SynthesisBounds, synthesize

BoundsFn = Callable[[np.ndarray], SynthesisBounds]


@dataclass(frozen=True)
class RegulatorSchedule:
    """Contraction factor, estimation tolerance, sensitivity multiplier, and
    the radius of the termination ball around the target."""

    beta: float
    mu: float
    kappa: float
    eps_fin: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must satisfy 0 < beta < 1")
        for name in ("mu", "kappa", "eps_fin"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SolverOptions:
    """Seed of the per-block synthesis multistarts and inclusion-check probes."""

    seed: int = 0


@dataclass(frozen=True)
class BlockRecord:
    """One control block: estimate, tolerances in force, plan, and the measured landing state."""

    index: int
    start_time: int
    theta: np.ndarray
    mu: Optional[float]
    kappa: Optional[float]
    horizon: int
    block: InputSequence
    x_end: np.ndarray
    estimate_residual: float
    inclusion_retries: int


@dataclass(frozen=True)
class RunOutcome:
    terminated: bool
    blocks: tuple
    trajectory: StateSequence
    inputs: InputSequence
    final_error: float


class RegulatorError(RuntimeError):
    """Run aborted by a safety cap; ``partial_outcome`` holds the log so far."""

    def __init__(self, message: str, partial_outcome: RunOutcome):
        super().__init__(message)
        self.partial_outcome = partial_outcome


class MaxBlocksExceeded(RegulatorError):
    pass


class MaxInnerRetriesExceeded(RegulatorError):
    pass


def schedule_step(mu_prev: float, kappa_prev: float, beta: float) -> tuple:
    """Contract the estimation tolerance and expand the sensitivity multiplier."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must satisfy 0 < beta < 1")
    if not (mu_prev > 0 and kappa_prev > 0):
        raise ValueError("mu_prev and kappa_prev must be positive")
    return beta * mu_prev, kappa_prev / beta


def inclusion_check(
    model: PlantModel,
    history: ObservationHistory,
    theta,
    plan: ControlPlan,
    radius: float,
    bound: float,
    probe_count: int = 8,
    seed: int = 0,
    safety: float = 1.5,
    fd_step: float = 1e-6,
) -> bool:
    """Conservative test that the whole parameter ball maps inside the target ball.

    Estimates a Lipschitz constant of the terminal map from its parameter
    Jacobian (spectral norm) at the estimate and at seeded samples of the
    radius ball intersected with the parameter box, and additionally verifies
    that each sampled hypothesis lands within ``bound`` of the nominal
    prediction. True iff L * radius * safety <= bound and all samples pass.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if not bound > 0:
        raise ValueError("bound must be positive")
    if radius == 0.0:
        return True
    theta = np.asarray(theta, dtype=float)

    def terminal(th):
        return terminal_map(model, history.x0, history.applied_inputs, plan.block, th)

    def spectral(th):
        jac = fd_jacobian(terminal, th, fd_step, model.param_lower, model.param_upper)
        sv = np.linalg.svd(jac, compute_uv=False)
        return float(sv[0]) if sv.size else 0.0

    nominal = terminal(theta)
    lipschitz = spectral(theta)
    rng = np.random.default_rng(seed)
    n = model.param_dim
    for _ in range(probe_count):
        direction = rng.standard_normal(n)
        length = float(np.linalg.norm(direction))
        if length == 0.0:
            continue
        point = theta + direction / length * (radius * rng.uniform() ** (1.0 / n))
        # Clipping to the box cannot leave the ball: the box contains theta.
        point = model.clip_params(point)
        lipschitz = max(lipschitz, spectral(point))
        if float(np.linalg.norm(terminal(point) - nominal)) >= bound:
            return False
    return lipschitz * radius * safety <= bound


class _RunLog:
    """The true-plant trajectory, kept as the history the estimator reads, and
    the block records."""

    def __init__(self, model: PlantModel, theta_true, x0, excitation: InputSequence):
        self.model = model
        self.theta_true = np.asarray(theta_true, dtype=float)
        states = simulate(model, x0, excitation, theta_true).states
        # The copy keeps the outcome from sharing the caller's excitation array.
        self.history = ObservationHistory(
            states[0], InputSequence(0, excitation.inputs.copy()), StateSequence(1, states[1:])
        )
        self.x = states[-1]
        self.blocks = []

    @property
    def error(self) -> float:
        return float(np.linalg.norm(self.x - self.model.target))

    def apply(self, block: InputSequence) -> np.ndarray:
        states = simulate(self.model, self.x, block, self.theta_true).states
        self.history = self.history.extended(block, StateSequence(block.start_time + 1, states[1:]))
        self.x = states[-1]
        return self.x

    def outcome(self, terminated: bool) -> RunOutcome:
        history = self.history
        return RunOutcome(
            terminated,
            tuple(self.blocks),
            StateSequence(0, np.vstack([history.x0, history.observed_states.states])),
            history.applied_inputs,
            self.error,
        )


def _prepare(model, theta_true, x0, u_exc):
    excitation = as_inputs(u_exc, model.input_dim, start_time=0)
    report = excitation_rank_check(model, excitation, [(np.asarray(x0, float), np.asarray(theta_true, float))])
    if not report.passed:
        warnings.warn(
            "excitation fails the identifiability rank check at the initial state; "
            "parameter estimates may be ambiguous",
            stacklevel=4,
        )
    return _RunLog(model, theta_true, x0, excitation)


def _run_blocks(model, theta_true, x0, u_exc, bounds_fn, solver, max_blocks, *, done, synth_tol,
                attempts, accept) -> RunOutcome:
    """The block loop of both modes, which pass what differs between them.

    ``done(error)`` tests for termination and ``synth_tol`` is the synthesis
    tolerance. ``attempts(last)`` yields (estimation tolerance, mu, kappa) for
    each attempt at the next block, given the last applied block's record (None
    before the first); mu and kappa are logged. ``accept(history, theta, plan,
    mu, kappa, seed_rng)`` decides whether an attempt's plan is applied. A block
    whose attempts run out raises MaxInnerRetriesExceeded.
    """
    log = _prepare(model, theta_true, x0, u_exc)
    seed_rng = np.random.default_rng(solver.seed)
    theta_guess = 0.5 * (model.param_lower + model.param_upper)
    while not done(log.error):
        k = len(log.blocks) + 1
        if k > max_blocks:
            raise MaxBlocksExceeded(f"{max_blocks} blocks without termination", log.outcome(False))
        history = log.history
        bounds_k = bounds_fn(log.x)
        for retries, (tol, mu, kappa) in enumerate(attempts(log.blocks[-1] if log.blocks else None)):
            try:
                est = estimate(model, history, theta_guess, tol)
                plan = synthesize(
                    model, history, est.theta, bounds_k, synth_tol, seed=int(seed_rng.integers(2**63))
                )
            except (NotConverged, Infeasible) as err:
                err.block_index = k
                err.partial_outcome = log.outcome(False)
                raise
            theta_guess = est.theta
            if accept(history, est.theta, plan, mu, kappa, seed_rng):
                break
        else:
            raise MaxInnerRetriesExceeded(
                f"inclusion check failed {retries + 1} times in block {k}", log.outcome(False)
            )
        x_end = log.apply(plan.block)
        log.blocks.append(
            BlockRecord(
                k, history.horizon, est.theta, mu, kappa, plan.horizon, plan.block,
                x_end, est.residual, retries,
            )
        )
    return log.outcome(True)


def run_exact(
    model: PlantModel,
    theta_true,
    x0,
    u_exc,
    *,
    bounds_fn: BoundsFn,
    tol_exact: float = 1e-10,
    solver: SolverOptions = SolverOptions(),
    max_blocks: int = 50,
) -> RunOutcome:
    """Run the idealized loop, with exact equation solving replaced by the
    tight tolerance ``tol_exact`` on both subproblems.

    Terminates once the measured state is within tol_exact of the target.
    Raises MaxBlocksExceeded past the block cap; estimation or synthesis
    failures propagate with ``block_index`` and ``partial_outcome`` attached.
    """
    if tol_exact <= 0:
        raise ValueError("tol_exact must be positive")
    return _run_blocks(
        model, theta_true, x0, u_exc, bounds_fn, solver, max_blocks,
        done=lambda error: error <= tol_exact,
        synth_tol=tol_exact,
        attempts=lambda _last: [(tol_exact, None, None)],
        accept=lambda *_: True,
    )


def run_inexact(
    model: PlantModel,
    theta_true,
    x0,
    u_exc,
    schedule0: RegulatorSchedule,
    *,
    bounds_fn: BoundsFn,
    solver: SolverOptions = SolverOptions(),
    max_blocks: int = 50,
    max_inner_retries: int = 60,
) -> RunOutcome:
    """Run the shrinking-tolerance loop.

    Per block: contract the estimation tolerance and expand the sensitivity
    multiplier, then inside the inner loop estimate the parameter to the
    current tolerance, synthesize a block whose predicted terminal error is
    below half the termination radius, and accept the block only when the
    sensitivity-ball inclusion check passes; on failure the tolerance is
    contracted again (up to ``max_inner_retries``). Terminates once the
    measured state enters the ``eps_fin`` ball around the target.
    """
    beta, eps_fin = schedule0.beta, schedule0.eps_fin

    def attempts(last):
        # Step on from the last applied block's mu and kappa (the schedule's
        # before the first): kappa advances by one division per block so logged
        # values replay bit-for-bit, and mu contracts again after every failed check.
        prev = last or schedule0
        mu, kappa = schedule_step(prev.mu, prev.kappa, beta)
        yield mu, mu, kappa
        for _ in range(max_inner_retries):
            mu = beta * mu
            yield mu, mu, kappa

    def accept(history, theta, plan, mu, kappa, seed_rng):
        return inclusion_check(
            model, history, theta, plan, kappa * mu, 0.5 * eps_fin, seed=int(seed_rng.integers(2**63))
        )

    return _run_blocks(
        model, theta_true, x0, u_exc, bounds_fn, solver, max_blocks,
        done=lambda error: error < eps_fin,
        synth_tol=0.5 * eps_fin,
        attempts=attempts,
        accept=accept,
    )
