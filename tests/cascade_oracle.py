"""Two stages with a budget each: the oracle of ``flexlogit.estimation._ascend``.

This is the ascent as it was before BFGS and its Newton finish shared one
``max_iter`` budget, before a line search took the gradient from the pass
that evaluates its first trial, and before a cold BFGS phase counted a step
that shrinks |g|_inf as progress. BFGS runs until it converges, stalls (two
accepted steps in a row gain less than ``tol_ll`` relative), fails its line
search or makes ``max_iter`` iterations; unless it converged, a Newton stage
then starts from its point with a fresh budget and a reset stall count.
Every accepted point costs f and then g. ``staged()`` swaps it in for the
package's loop. A warm-started fit, or one whose cold BFGS phase never
reached a stall, that ends within ``max_iter`` accepted steps must get this
oracle's bits from the package; any other cold fit its optimum.
"""

from contextlib import contextmanager

import numpy as np

from flexlogit import estimation


def backtrack(f, x, fx, gx, d):
    """Armijo backtracking; returns (x_new, f_new) or None."""
    slope = float(gx @ d)
    if slope >= 0:
        return None
    alpha = 1.0
    for _ in range(estimation.MAX_HALVINGS + 1):
        x_new = x + alpha * d
        f_new = f(x_new)
        if np.isfinite(f_new) and f_new <= fx + estimation.ARMIJO_C1 * alpha * slope:
            return x_new, f_new
        alpha *= estimation.BACKTRACK_SHRINK
    return None


def stage_loop(direction, update, f, g, x, fx, gx, opts):
    """One stage; returns (x, fx, gx, iters, status, path)."""
    path = []
    stalls = 0
    for it in range(opts.max_iter):
        if np.max(np.abs(gx)) < opts.tol_grad:
            return x, fx, gx, it, "converged", path
        step = backtrack(f, x, fx, gx, direction(x, gx))
        if step is None:
            return x, fx, gx, it, "line_search_failed", path
        x_new, f_new = step
        g_new = g(x_new)
        if update is not None:
            update(x_new - x, g_new - gx)
        rel = abs(f_new - fx) / max(1.0, abs(f_new))
        x, fx, gx = x_new, f_new, g_new
        path.append(-fx)
        if np.max(np.abs(gx)) < opts.tol_grad:
            return x, fx, gx, it + 1, "converged", path
        stalls = stalls + 1 if rel < opts.tol_ll else 0
        if stalls >= 2:
            return x, fx, gx, it + 1, "stalled", path
    return x, fx, gx, opts.max_iter, "max_iters", path


def run_cascade(f, g, x0, opts, h0=None):
    fx = f(x0)
    if not np.isfinite(fx):
        raise estimation.NonFiniteObjectiveAtInit(
            "log-likelihood is not finite at the starting point"
        )
    gx = g(x0)
    path = [-fx]
    x = x0.copy()
    total_iters = 0
    stages_used = []
    stages = (
        ("bfgs", *estimation._make_bfgs(h0)),
        ("newton", estimation._make_newton_direction(g), None),
    )
    for name, direction, update in stages:
        x, fx, gx, iters, status, seg = stage_loop(
            direction, update, f, g, x, fx, gx, opts
        )
        total_iters += iters
        path += seg
        stages_used.append(name)
        if status == "converged":
            break
    return x, fx, gx, total_iters, status, "+".join(stages_used), path


@contextmanager
def staged():
    """Run every fit in the block through the two budgeted stages."""
    one_loop = estimation._ascend
    estimation._ascend = run_cascade
    try:
        yield
    finally:
        estimation._ascend = one_loop
