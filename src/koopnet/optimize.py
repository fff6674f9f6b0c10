"""Unconstrained minimization: DFP quasi-Newton with a strong-Wolfe line search.

The inverse Hessian approximation starts at the identity, is rescaled to the
observed curvature after the first accepted step, and is updated with the
Davidon-Fletcher-Powell rank-two formula; updates are skipped whenever the
curvature condition s'y > 0 fails, which keeps the approximation positive
definite.  Step lengths satisfy both Wolfe conditions, so the
objective decreases strictly on every accepted iteration.  A failed line
search triggers a steepest-descent restart (identity inverse Hessian); after
a bounded number of restarts the best iterate found is returned with
``converged=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ALPHA_MAX = 1e3
_SEARCH_ITERS = 30
_ZOOM_ITERS = 40
_MAX_RESETS = 3        # steepest-descent restarts before giving up


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    gradient_norm: float
    iterations: int
    converged: bool
    objective_trace: list[float] = field(default_factory=list)
    curvature_skips: int = 0
    max_asymmetry: float = 0.0
    resets: int = 0


def dfp_update(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """One DFP inverse-Hessian update.

    Returns the (possibly unchanged) matrix and whether the update was
    applied.  The update is skipped when the curvature condition s'y > 0
    fails or when y'Hy is not positive.
    """
    sy = float(s @ y)
    if sy <= 0.0:
        return h, False
    hy = h @ y
    yhy = float(y @ hy)
    if yhy <= 0.0:
        return h, False
    return h + np.outer(s, s) / sy - np.outer(hy, hy) / yhy, True


def _zoom(fun, grad, x, p, f0, slope0, c1, c2, a_lo, f_lo, a_hi, f_hi):
    """Bisection zoom on a bracketing interval (Armijo holds at ``a_lo``)."""
    for _ in range(_ZOOM_ITERS):
        a = 0.5 * (a_lo + a_hi)
        x_a = x + a * p
        fa = float(fun(x_a))
        if not np.isfinite(fa) or fa > f0 + c1 * a * slope0 or fa >= f_lo:
            a_hi, f_hi = a, fa
        else:
            ga = np.asarray(grad(x_a), dtype=float)
            slope_a = float(ga @ p)
            if abs(slope_a) <= -c2 * slope0:
                return a, fa, ga
            if slope_a * (a_hi - a_lo) >= 0.0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo = a, fa
        if abs(a_hi - a_lo) <= 1e-14 * max(1.0, abs(a_lo)):
            break
    return None


def wolfe_line_search(fun, grad, x, p, f0, g0, c1=1e-4, c2=0.9,
                      alpha_init=1.0):
    """Find a step along ``p`` meeting the strong Wolfe conditions.

    Returns ``(alpha, f_new, g_new)`` or ``None`` when no acceptable step was
    found.  ``p`` must be a descent direction at ``x``.  ``alpha_init`` sets
    the first trial step; the search may expand well past it before giving
    up, so a poorly scaled direction only costs extra bracketing work.
    """
    slope0 = float(np.asarray(g0) @ p)
    if slope0 >= 0.0:
        raise ValueError("line search needs a descent direction")
    if not (np.isfinite(alpha_init) and alpha_init > 0.0):
        raise ValueError("alpha_init must be positive and finite")
    alpha_max = _ALPHA_MAX * max(1.0, alpha_init)
    a_prev, f_prev = 0.0, f0
    a = alpha_init
    for i in range(_SEARCH_ITERS):
        x_a = x + a * p
        fa = float(fun(x_a))
        if not np.isfinite(fa) or fa > f0 + c1 * a * slope0 or (i > 0 and fa >= f_prev):
            return _zoom(fun, grad, x, p, f0, slope0, c1, c2,
                         a_prev, f_prev, a, fa)
        ga = np.asarray(grad(x_a), dtype=float)
        slope_a = float(ga @ p)
        if abs(slope_a) <= -c2 * slope0:
            return a, fa, ga
        if slope_a >= 0.0:
            return _zoom(fun, grad, x, p, f0, slope0, c1, c2,
                         a, fa, a_prev, f_prev)
        if a >= alpha_max:
            return None
        a_prev, f_prev = a, fa
        a = min(2.0 * a, alpha_max)
    return None


def minimize_dfp(fun, grad, x0, gradient_tol: float = 1e-8,
                 max_iterations: int = 500, c1: float = 1e-4,
                 c2: float = 0.9) -> MinimizeResult:
    """Minimize ``fun`` from ``x0`` using DFP updates and Wolfe steps."""
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError("need 0 < c1 < c2 < 1")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if gradient_tol <= 0.0:
        raise ValueError("gradient_tol must be positive")

    x = np.asarray(x0, dtype=float).copy()
    f = float(fun(x))
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    g = np.asarray(grad(x), dtype=float)

    dim = x.size
    h = np.eye(dim)
    fresh = True  # h carries no curvature information yet
    trace = [f]
    skips = 0
    max_asym = 0.0
    resets = 0
    just_reset = False
    converged = False
    iterations = 0

    while iterations < max_iterations:
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gradient_tol:
            converged = True
            break
        p = -(h @ g)
        if float(g @ p) >= 0.0:
            # Lost positive definiteness numerically; fall back to the gradient.
            h = np.eye(dim)
            fresh = True
            p = -g
        # With an uninformed h the direction is the raw gradient, whose
        # magnitude says nothing about distance to the minimizer; aim the
        # first trial at a unit-length move instead of a unit multiplier.
        alpha_init = 1.0 if not fresh else 1.0 / max(gnorm, 1e-12)
        step = wolfe_line_search(fun, grad, x, p, f, g, c1, c2, alpha_init)
        if step is None:
            if just_reset or resets >= _MAX_RESETS:
                break
            h = np.eye(dim)
            fresh = True
            resets += 1
            just_reset = True
            continue
        alpha, f_new, g_new = step
        s = alpha * p
        y = g_new - g
        x = x + s
        sy = float(s @ y)
        if fresh and sy > 0.0:
            # Size the inverse Hessian to the observed curvature before the
            # first rank-two update so later unit steps are well scaled.
            yy = float(y @ y)
            if yy > 0.0:
                h = (sy / yy) * np.eye(dim)
        h, applied = dfp_update(h, s, y)
        if applied:
            # exactly symmetric: each outer product is of a vector with itself
            max_asym = max(max_asym, float(np.abs(h - h.T).max()))
            fresh = False
        else:
            skips += 1
        f, g = f_new, g_new
        trace.append(f)
        iterations += 1
        just_reset = False

    return MinimizeResult(x=x, fun=f, gradient_norm=float(np.linalg.norm(g)),
                          iterations=iterations, converged=converged,
                          objective_trace=trace, curvature_skips=skips,
                          max_asymmetry=max_asym, resets=resets)
