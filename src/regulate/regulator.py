"""Closed-loop block regulation.

Both run modes are thin wrappers around one block loop: apply an excitation
signal, then loop over control blocks, re-estimating the parameter from the
whole past trajectory and synthesizing a block that drives the prediction to
the target. The loop keeps one observation history, which holds that
trajectory and the inputs that drove it, and builds it anew after each
applied block. The modes hand the loop only what differs between them. The
exact mode solves both subproblems to a fixed tight tolerance and applies
every block. The inexact mode runs the shrinking-tolerance schedule: per
block the estimation tolerance is contracted and the sensitivity multiplier
expanded by the same factor, and the loop applies the block only once a
conservative sensitivity-ball check confirms that every parameter hypothesis
near the estimate predicts a terminal state inside half the termination
ball. That check samples ``PROBE_COUNT`` hypotheses and demands a margin of
``SAFETY`` on its Lipschitz bound; it fails at once, before any probe, when
the estimate's own Jacobian already breaks that bound, as most failing
checks do.

Every way a run can stop short is a ``RunFailure``: a safety cap raises a
``RegulatorError``, a subsolver a ``NotConverged`` or an ``Infeasible``. Each
leaves the loop at one site, which gives it the log up to there and, unless
it is a cap, the block it stopped in.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .estimator import ObservationHistory, estimate
from .plant import (
    InputSequence,
    PlantModel,
    RunFailure,
    StateSequence,
    as_inputs,
    excitation_rank_check,
    fd_jacobian,
    simulate,
    terminal_map,
)
from .synthesis import ControlPlan, SynthesisBounds, synthesize

BoundsFn = Callable[[np.ndarray], SynthesisBounds]

# Hypotheses the inclusion check samples from the parameter ball, and the
# margin it demands on the Lipschitz bound.
PROBE_COUNT = 8
SAFETY = 1.5


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
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.5 * self.eps_fin > 0:
            raise ValueError("eps_fin must be large enough that its half is positive")


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


class RegulatorError(RunFailure):
    """Run aborted by a safety cap; ``partial_outcome`` holds the log so far."""


class MaxBlocksExceeded(RegulatorError):
    pass


class MaxInnerRetriesExceeded(RegulatorError):
    pass


def inclusion_check(
    model: PlantModel,
    history: ObservationHistory,
    theta,
    plan: ControlPlan,
    radius: float,
    bound: float,
    seed: int = 0,
) -> bool:
    """Conservative test that the whole parameter ball maps inside the target ball.

    Estimates a Lipschitz constant of the terminal map from its parameter
    Jacobian (spectral norm) at the estimate and at seeded samples of the
    radius ball intersected with the parameter box (``PROBE_COUNT`` samples),
    and additionally verifies that each sampled hypothesis lands within
    ``bound`` of the nominal prediction. True iff L * radius * SAFETY <= bound
    and all samples pass. When the Jacobian at the estimate alone already
    fails that test, returns False before any nominal or probe evaluation;
    the probes' RNG is local to the call, so skipping them moves no stream.
    """
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    if not bound > 0:
        raise ValueError("bound must be positive")
    if radius == 0.0:
        return True
    theta = np.asarray(theta, dtype=float)

    def terminal(th):
        return terminal_map(model, history.x0, history.applied_inputs, plan.block, th)

    def spectral(th):
        jac = fd_jacobian(terminal, th, lower=model.param_lower, upper=model.param_upper)
        sv = np.linalg.svd(jac, compute_uv=False)
        return float(sv[0]) if sv.size else 0.0

    lipschitz = spectral(theta)
    # The probes can only raise the Lipschitz estimate, so this already decides.
    if lipschitz * radius * SAFETY > bound:
        return False
    nominal = terminal(theta)
    rng = np.random.default_rng(seed)
    n = model.param_dim
    for _ in range(PROBE_COUNT):
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
    return lipschitz * radius * SAFETY <= bound


def _run_blocks(model, theta_true, x0, u_exc, bounds_fn, solver, max_blocks, *, done, synth_tol,
                attempts) -> RunOutcome:
    """The block loop of both modes, which pass what differs between them.

    ``done(error)`` tests for termination and ``synth_tol`` is the synthesis
    tolerance and the inclusion check's bound. ``attempts(last)`` yields
    (estimation tolerance, mu, kappa) for each attempt at the next block, given
    the last applied block's record (None before the first), and raises
    MaxInnerRetriesExceeded once they run out; mu and kappa are logged. An
    attempt with mu None is applied at once, any other once the inclusion check
    passes on the ball of radius kappa * mu. Every RunFailure leaves at one
    site, which adds the log so far and, unless a cap raised it, the block.
    """
    # A state or a hypothesis that diverges overflows to inf or nan, which the
    # run's error and the estimator's residuals carry on purpose (an infinite
    # residual loses every comparison); numpy is told so once per run.
    with np.errstate(over="ignore", invalid="ignore"):
        excitation = as_inputs(u_exc, model.input_dim, start_time=0)
        truth = [(np.asarray(x0, float), np.asarray(theta_true, float))]
        if not excitation_rank_check(model, excitation, truth).passed:
            warnings.warn(
                "excitation fails the identifiability rank check at the initial state; "
                "parameter estimates may be ambiguous",
                stacklevel=3,
            )
        # The true plant's trajectory; the history records its own copy of the
        # caller's excitation array.
        history = ObservationHistory(excitation, simulate(model, x0, excitation, theta_true))
        blocks = []

        def error():
            return float(np.linalg.norm(history.trajectory.states[-1] - model.target))

        def outcome(terminated):
            # The read-only inputs without the history's replay memo, which a
            # failure's partial outcome would otherwise keep alive.
            inputs = InputSequence(0, history.applied_inputs.inputs)
            return RunOutcome(terminated, tuple(blocks), history.trajectory, inputs, error())

        seed_rng = np.random.default_rng(solver.seed)
        theta_guess = 0.5 * (model.param_lower + model.param_upper)
        try:
            while not done(error()):
                k = len(blocks) + 1
                if k > max_blocks:
                    raise MaxBlocksExceeded(f"{max_blocks} blocks without termination")
                x_start = history.trajectory.states[-1]
                bounds_k = bounds_fn(x_start)
                for retries, (tol, mu, kappa) in enumerate(attempts(blocks[-1] if blocks else None)):
                    est = estimate(model, history, theta_guess, tol)
                    plan = synthesize(
                        model, history, est.theta, bounds_k, synth_tol, seed=int(seed_rng.integers(2**63))
                    )
                    theta_guess = est.theta
                    if mu is None or inclusion_check(
                        model, history, est.theta, plan, kappa * mu, synth_tol, seed=int(seed_rng.integers(2**63))
                    ):
                        break
                landed = simulate(model, x_start, plan.block, theta_true).states
                blocks.append(
                    BlockRecord(
                        k, history.horizon, est.theta, mu, kappa, plan.horizon, plan.block,
                        landed[-1], est.residual, retries,
                    )
                )
                inputs = np.vstack([history.applied_inputs.inputs, plan.block.inputs])
                states = np.vstack([history.trajectory.states, landed[1:]])
                history = ObservationHistory(InputSequence(0, inputs), StateSequence(0, states))
        except RunFailure as err:
            if not isinstance(err, RegulatorError):
                err.block_index = len(blocks) + 1
            err.partial_outcome = outcome(False)
            raise
        return outcome(True)


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
    failures propagate as the subsolver's RunFailure with ``block_index`` and
    ``partial_outcome`` filled in.
    """
    if not 0 < tol_exact < np.inf:
        raise ValueError("tol_exact must be positive and finite")
    return _run_blocks(
        model, theta_true, x0, u_exc, bounds_fn, solver, max_blocks,
        done=lambda error: error <= tol_exact,
        synth_tol=tol_exact,
        attempts=lambda _last: [(tol_exact, None, None)],
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
    contracted again (up to ``max_inner_retries`` times, and never to 0).
    Terminates once the measured state enters the ``eps_fin`` ball around the
    target.
    """
    beta, eps_fin = schedule0.beta, schedule0.eps_fin

    def attempts(last):
        # Step on from the last applied block's mu and kappa (the schedule's
        # before the first): kappa advances by one division per block so logged
        # values replay bit-for-bit, and mu contracts again after every failed check.
        prev, k = (last, last.index + 1) if last else (schedule0, 1)
        mu, kappa = beta * prev.mu, prev.kappa / beta
        for failed in itertools.count():
            if mu == 0.0:  # the contraction underflowed: no tolerance is left
                raise MaxInnerRetriesExceeded(
                    f"the estimation tolerance underflowed to 0 after {failed} failed inclusion checks in block {k}"
                )
            yield mu, mu, kappa
            if failed >= max_inner_retries:
                raise MaxInnerRetriesExceeded(f"inclusion check failed {failed + 1} times in block {k}")
            mu = beta * mu

    return _run_blocks(
        model, theta_true, x0, u_exc, bounds_fn, solver, max_blocks,
        done=lambda error: error < eps_fin,
        synth_tol=0.5 * eps_fin,
        attempts=attempts,
    )
