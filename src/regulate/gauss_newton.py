"""Damped Gauss-Newton for small box-constrained nonlinear least-squares problems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Extra steps taken after reaching tol, and the shortest step fraction tried.
POLISH_ITERS = 1
MIN_STEP = 1e-12


@dataclass(frozen=True)
class GaussNewtonResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def box_gauss_newton(
    residual,
    jacobian,
    x0,
    lower,
    upper,
    tol,
    max_iters: int = 60,
):
    """Minimize ||residual(x)|| over the box [lower, upper].

    residual: handle returning the residual vector at x
    jacobian: handle returning its Jacobian at x
    x0: starting point (projected onto the box first)
    tol: stop once the residual norm is at or below this value

    Each iteration solves the Gauss-Newton least-squares step, then halves the
    step length until the projected candidate decreases the residual norm.
    After reaching tol, up to ``POLISH_ITERS`` extra steps are taken so the
    returned point is not left sitting right at the tolerance ceiling. Stalling
    (no decreasing step) ends the search; ``converged`` reports whether the
    final residual norm is <= tol.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = np.asarray(residual(x), dtype=float)
    cost = float(np.linalg.norm(r))
    iters = 0
    if cost <= tol:
        return GaussNewtonResult(x, cost, iters, True)
    polish = POLISH_ITERS
    while iters < max_iters:
        jac = np.asarray(jacobian(x), dtype=float)
        if not np.all(np.isfinite(jac)):
            break
        try:
            direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(direction)) or not np.any(direction):
            break
        alpha = 1.0
        moved = False
        while alpha >= MIN_STEP:
            cand = np.clip(x + alpha * direction, lower, upper)
            rc = np.asarray(residual(cand), dtype=float)
            cc = float(np.linalg.norm(rc))
            if cc < cost and np.any(cand != x):
                x, r, cost = cand, rc, cc
                moved = True
                break
            alpha *= 0.5
        iters += 1
        if not moved:
            break
        if cost <= tol:
            if polish <= 0:
                break
            polish -= 1
    return GaussNewtonResult(x, cost, iters, cost <= tol)
