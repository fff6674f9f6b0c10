"""Quasi-Newton machinery: the rank-two update, the line search, the loop.

Quadratics give exact expectations; the pathological cases (non-descent
directions, unbounded objectives, curvature failures) pin the guard rails.
"""

import numpy as np
import pytest

from koopnet import minimize_dfp
from koopnet.optimize import dfp_update, wolfe_line_search


# =========================================================================
# dfp_update
# =========================================================================

def test_update_satisfies_the_secant_equation():
    rng = np.random.default_rng(0)
    h = np.eye(4)
    s = rng.normal(size=4)
    y = s + 0.1 * rng.normal(size=4)
    if float(s @ y) <= 0:
        y = s
    h2, applied = dfp_update(h, s, y)
    assert applied
    assert np.allclose(h2 @ y, s, atol=1e-12)   # H' y = s
    assert np.allclose(h2, h2.T, atol=1e-12)


def test_update_skips_nonpositive_curvature():
    h = np.eye(3)
    s = np.array([1.0, 0.0, 0.0])
    h2, applied = dfp_update(h, s, -s)          # s'y < 0
    assert not applied
    assert h2 is h


def test_update_skips_indefinite_h_directions():
    h = np.diag([1.0, -1.0])                    # deliberately not PD
    s = np.array([1.0, 1.0])
    y = np.array([0.5, 1.0])                    # s'y > 0 but y'Hy < 0
    assert float(s @ y) > 0 > float(y @ (h @ y))
    h2, applied = dfp_update(h, s, y)
    assert not applied


def test_update_preserves_positive_definiteness():
    rng = np.random.default_rng(1)
    h = np.eye(5)
    for _ in range(20):
        s = rng.normal(size=5)
        y = s + 0.3 * rng.normal(size=5)
        h2, applied = dfp_update(h, s, y)
        if applied:
            h = 0.5 * (h2 + h2.T)
            assert np.linalg.eigvalsh(h).min() > 0.0


# =========================================================================
# Line search
# =========================================================================

def _quadratic(q, b):
    fun = lambda x: 0.5 * float(x @ (q @ x)) - float(b @ x)
    grad = lambda x: q @ x - b
    return fun, grad


def test_line_search_returns_a_strong_wolfe_step():
    q = np.diag([1.0, 30.0])
    b = np.array([1.0, 1.0])
    fun, grad = _quadratic(q, b)
    x = np.array([4.0, -2.0])
    g = grad(x)
    p = -g
    out = wolfe_line_search(fun, grad, x, p, fun(x), g, c1=1e-4, c2=0.9)
    assert out is not None
    alpha, f_new, g_new = out
    slope0 = float(g @ p)
    assert f_new <= fun(x) + 1e-4 * alpha * slope0          # Armijo
    assert abs(float(g_new @ p)) <= 0.9 * abs(slope0)       # curvature
    assert np.allclose(g_new, grad(x + alpha * p))


def test_line_search_rejects_ascent_directions():
    fun, grad = _quadratic(np.eye(2), np.zeros(2))
    x = np.ones(2)
    with pytest.raises(ValueError):
        wolfe_line_search(fun, grad, x, +grad(x), fun(x), grad(x))
    with pytest.raises(ValueError):
        wolfe_line_search(fun, grad, x, -grad(x), fun(x), grad(x),
                          alpha_init=0.0)


def test_line_search_gives_up_on_unbounded_descent():
    fun = lambda x: -float(x @ x)
    grad = lambda x: -2.0 * x
    x = np.array([1.0, 0.0])
    out = wolfe_line_search(fun, grad, x, -grad(x), fun(x), grad(x))
    assert out is None          # no finite step satisfies the curvature test


def test_line_search_scales_with_alpha_init():
    # a shallow quadratic: the minimizer sits 1e6 gradient-lengths away,
    # far past the default expansion range but reachable once alpha_init
    # reflects the gradient scale
    c = 1e-6
    fun = lambda x: c * float(x @ x)
    grad = lambda x: 2.0 * c * x
    x = np.array([1.0])
    g = grad(x)
    assert wolfe_line_search(fun, grad, x, -g, fun(x), g) is None
    out = wolfe_line_search(fun, grad, x, -g, fun(x), g,
                            alpha_init=1.0 / float(np.linalg.norm(g)))
    assert out is not None


# =========================================================================
# The full minimizer
# =========================================================================

def test_quadratic_minimum_is_found_exactly():
    q = np.array([[3.0, 0.5, 0.0],
                  [0.5, 2.0, 0.3],
                  [0.0, 0.3, 1.0]])
    b = np.array([1.0, -2.0, 0.5])
    fun, grad = _quadratic(q, b)
    res = minimize_dfp(fun, grad, np.zeros(3), gradient_tol=1e-8)
    assert res.converged
    assert np.allclose(res.x, np.linalg.solve(q, b), atol=1e-6)
    assert res.gradient_norm <= 1e-8
    assert res.curvature_skips == 0             # convex: curvature never fails


def test_rosenbrock_valley():
    # DFP famously needs an accurate line search on hard valleys, hence the
    # tight curvature constant here; the default c2 targets the recovery
    # objective, whose basin is nearly quadratic
    fun = lambda x: (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    grad = lambda x: np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2)])
    res = minimize_dfp(fun, grad, np.array([-1.2, 1.0]), gradient_tol=1e-8,
                       max_iterations=500, c2=0.1)
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_accepted_steps_never_raise_the_objective():
    fun = lambda x: (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    grad = lambda x: np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2)])
    res = minimize_dfp(fun, grad, np.array([-1.2, 1.0]))
    trace = np.asarray(res.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    # H stays symmetric: each DFP update adds outer products of a vector
    # with itself
    assert res.max_asymmetry < 1e-8


def test_inverse_hessian_stays_exactly_symmetric():
    # every update adds outer products of a vector with itself, so h is
    # symmetric bit for bit without any symmetrization
    fun = lambda x: (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    grad = lambda x: np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2)])
    for c2 in (0.9, 0.1):
        res = minimize_dfp(fun, grad, np.array([-1.2, 1.0]), c2=c2)
        assert res.iterations > 0 and res.max_asymmetry == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = rng.normal(size=(40, 40))
        q = f @ f.T + np.eye(40)
        b = rng.normal(size=40)
        res = minimize_dfp(lambda x: 0.5 * x @ q @ x - b @ x,
                           lambda x: q @ x - b, np.zeros(40))
        assert res.iterations > 0 and res.max_asymmetry == 0.0


def test_tiny_gradient_scales_are_handled():
    # the classic failure mode: |grad| ~ 1e-8 at distance 1 from the
    # optimum, so unit steps go nowhere and naive expansion caps out
    c = 1e-8
    target = np.array([3.0, -1.0])
    fun = lambda x: c * float((x - target) @ (x - target))
    grad = lambda x: 2.0 * c * (x - target)
    res = minimize_dfp(fun, grad, np.zeros(2), gradient_tol=1e-12,
                       max_iterations=100)
    assert res.converged
    assert np.allclose(res.x, target, atol=1e-3)
    assert res.iterations <= 50


def test_unbounded_objective_reports_failure():
    fun = lambda x: -float(x @ x)
    grad = lambda x: -2.0 * x
    res = minimize_dfp(fun, grad, np.array([1.0, 1.0]), max_iterations=50)
    assert not res.converged
    assert res.resets <= 3


def test_already_converged_start():
    fun, grad = _quadratic(np.eye(2), np.zeros(2))
    res = minimize_dfp(fun, grad, np.zeros(2))
    assert res.converged
    assert res.iterations == 0
    assert res.objective_trace == [0.0]


def test_minimize_validates_inputs():
    fun, grad = _quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        minimize_dfp(fun, grad, np.ones(2), c1=0.5, c2=0.1)
    with pytest.raises(ValueError):
        minimize_dfp(fun, grad, np.ones(2), max_iterations=0)
    with pytest.raises(ValueError):
        minimize_dfp(fun, grad, np.ones(2), gradient_tol=0.0)
    with pytest.raises(ValueError):
        minimize_dfp(lambda x: np.nan, grad, np.ones(2))


def test_iteration_budget_is_respected():
    fun = lambda x: (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    grad = lambda x: np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2)])
    res = minimize_dfp(fun, grad, np.array([-1.2, 1.0]), max_iterations=3)
    assert res.iterations <= 3
    assert not res.converged
