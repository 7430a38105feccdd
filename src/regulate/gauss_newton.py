"""Damped Gauss-Newton for small box-constrained nonlinear least-squares problems.

Every run takes at most ``MAX_ITERS`` iterations; the estimator and the
synthesis both use this one cap. The residual handle must be pure: a line
search evaluates it once per distinct point, skipping a candidate equal to
the current point or to the candidate just rejected, whose outcome is already
known. Residual norms that overflow to inf are rejected without a
``RuntimeWarning``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Iteration cap of a run, extra steps taken after reaching tol, and the
# shortest step fraction tried.
MAX_ITERS = 60
POLISH_ITERS = 1
MIN_STEP = 1e-12


def _norm(r: np.ndarray) -> float:
    """Euclidean norm; one that overflows is inf, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(r))


@dataclass(frozen=True)
class GaussNewtonResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def box_gauss_newton(residual, jacobian, x0, lower, upper, tol):
    """Minimize ||residual(x)|| over the box [lower, upper].

    residual: handle returning the residual vector at x
    jacobian: handle returning its Jacobian at x
    x0: starting point (projected onto the box first)
    tol: stop once the residual norm is at or below this value

    Runs at most ``MAX_ITERS`` iterations. Each iteration solves the Gauss-Newton least-squares step, then halves the
    step length until the projected candidate decreases the residual norm.
    A candidate equal to x, or to the last candidate evaluated, is rejected
    without calling ``residual`` again, so ``residual`` must be pure.
    After reaching tol, up to ``POLISH_ITERS`` extra steps are taken so the
    returned point is not left sitting right at the tolerance ceiling. Stalling
    (no decreasing step) ends the search; ``converged`` reports whether the
    final residual norm is <= tol.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = np.asarray(residual(x), dtype=float)
    cost = _norm(r)
    iters = 0
    if cost <= tol:
        return GaussNewtonResult(x, cost, iters, True)
    polish = POLISH_ITERS
    while iters < MAX_ITERS:
        jac = np.asarray(jacobian(x), dtype=float)
        if not np.isfinite(jac).all():
            break
        try:
            direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(direction).all() or not direction.any():
            break
        alpha = 1.0
        moved = False
        rejected = None
        while alpha >= MIN_STEP:
            cand = np.clip(x + alpha * direction, lower, upper)
            key = cand.tobytes()
            if (cand != x).any() and key != rejected:
                rc = np.asarray(residual(cand), dtype=float)
                cc = _norm(rc)
                if cc < cost:
                    x, r, cost = cand, rc, cc
                    moved = True
                    break
                rejected = key
            alpha *= 0.5
        iters += 1
        if not moved:
            break
        if cost <= tol:
            if polish <= 0:
                break
            polish -= 1
    return GaussNewtonResult(x, cost, iters, cost <= tol)
