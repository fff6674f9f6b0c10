"""Initial-state recovery from sampled observables, plus the error metrics.

Exact linear systems give recoveries that must succeed to near machine
precision; the nonlinear smoke test runs the full pipeline on a small
consumption network.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from koopnet import (
    DynamicsParams,
    KoopmanModel,
    OptimizerConfig,
    SelectionConfig,
    assemble_training,
    fit,
    gamma_map,
    generate_er_graph,
    greedy_select,
    identity_spec,
    lift_jacobian,
    lift_trajectory,
    linear_observable_recover,
    log_spec,
    nrmse,
    per_tick_nrmse,
    poly_spec,
    random_initial_states,
    recover_initial_state,
    result_to_dict,
    rollout,
    save_result,
    simulate_ensemble,
    take_samples,
    unlift_trajectory,
)
from koopnet import recovery
from koopnet.recovery import (SampleMatrix, _linear_warm_start, _objective_pair,
                              initial_guess)
from koopnet.koopman import fold
from koopnet.sampling import _rows, operator_rows


# =========================================================================
# Metrics
# =========================================================================

def test_nrmse_hand_value():
    x = np.eye(2)
    assert nrmse(x + 0.1, x) == pytest.approx(math.sqrt(0.04 / 2.0))
    assert nrmse(x, x) == 0.0
    assert nrmse(np.zeros_like(x), x) == pytest.approx(1.0)


def test_nrmse_rejects_degenerate_input():
    with pytest.raises(ValueError):
        nrmse(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        nrmse(np.zeros((2, 3)), np.zeros((2, 2)))


def test_nrmse_is_permutation_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 6)) + 5.0
    xhat = x + rng.normal(scale=0.1, size=x.shape)
    base = nrmse(xhat, x)
    perm_t = rng.permutation(6)
    perm_n = rng.permutation(4)
    assert nrmse(xhat[:, perm_t], x[:, perm_t]) == pytest.approx(base)
    assert nrmse(xhat[perm_n], x[perm_n]) == pytest.approx(base)


def test_per_tick_nrmse():
    x = np.array([[1.0, 2.0], [0.0, 0.0]])
    xhat = np.array([[1.0, 2.0], [1.0, 0.0]])
    out = per_tick_nrmse(xhat, x)
    assert out == pytest.approx([1.0, 0.0])
    with pytest.raises(ValueError):
        per_tick_nrmse(np.ones((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]))


# =========================================================================
# Sampling a trajectory
# =========================================================================

def test_full_sampling_reads_the_entire_lift():
    spec = log_spec(3)
    plan = gamma_map([0, 1, 2], spec, tau=1)
    x1 = np.array([10.0, 20.0, 30.0])
    samples = take_samples(x1[:, None], plan)
    assert np.allclose(samples.values, lift_trajectory(spec, x1))


def test_empty_plan_samples_only_constants():
    spec = log_spec(3)
    plan = gamma_map([], spec, tau=4)
    samples = take_samples(np.ones((3, 4)), plan)
    assert np.array_equal(samples.values, np.ones(4))  # one constant per tick


def test_samples_match_the_stacked_system_rows():
    # on a trajectory generated by the model itself, the samples equal
    # A(S) z1 by construction
    rng = np.random.default_rng(1)
    n, tau = 4, 5
    spec = identity_spec(n)
    op = rng.normal(size=(n, n)) * 0.5
    model = KoopmanModel(operator=op, spec=spec, residual=0.0)
    theta = rollout(model, np.eye(n), tau)
    x1 = rng.uniform(1.0, 2.0, n)
    states = np.column_stack([np.linalg.matrix_power(op, t) @ x1
                              for t in range(tau)])
    plan = gamma_map([0, 2], spec, tau)
    samples = take_samples(states, plan)
    stacked = _rows(theta, plan.observable_indices) @ x1
    assert np.allclose(samples.values, stacked, atol=1e-10)


def test_take_samples_validation():
    spec = log_spec(3)
    plan = gamma_map([0], spec, tau=4)
    with pytest.raises(ValueError):
        take_samples(np.ones((2, 4)), plan)   # node count mismatch
    with pytest.raises(ValueError):
        take_samples(np.ones((3, 5)), plan)   # tick count mismatch
    with pytest.raises(ValueError):
        SampleMatrix(values=np.ones(3), plan=plan)  # wrong sample length


def test_a_plan_of_another_dictionary_of_its_size_is_rejected():
    # a log plan at n = 4 (M = 13) beside the identity dictionary of the same
    # size, whose rows the sizes alone would let it read in the wrong places
    log_plan = gamma_map([0, 2], log_spec(4), tau=3)
    ident = identity_spec(13)
    assert log_plan.spec.size == ident.size == 13
    message = ("plan was selected on the log dictionary of size 13 and is "
               "read with another, the identity dictionary of size 13")
    # the samples as the log plan reads them, handed to identity solvers
    samples = take_samples(np.ones((4, 3)), log_plan)
    model = KoopmanModel(operator=np.eye(13) * 0.5, spec=ident, residual=0.0)
    with pytest.raises(ValueError, match=message):
        linear_observable_recover(samples, model)
    with pytest.raises(ValueError, match=message):
        recover_initial_state(samples, model)


# =========================================================================
# Initial guesses
# =========================================================================

def test_initial_guess_reads_sampled_nodes_and_fills_the_rest():
    spec = log_spec(4, scale=500.0)
    plan = gamma_map([1, 3], spec, tau=2)
    states = np.array([[5.0, 6.0],
                       [10.0, 11.0],
                       [15.0, 16.0],
                       [20.0, 21.0]])
    samples = take_samples(states, plan)
    x0 = initial_guess(samples, fill_value=0.5)
    assert x0[1] == pytest.approx(10.0)
    assert x0[3] == pytest.approx(20.0)
    assert x0[0] == x0[2] == 0.5


# =========================================================================
# Objective and gradient
# =========================================================================

def _exact_linear_setup(n=4, tau=6, seed=2, nodes=(0, 1)):
    rng = np.random.default_rng(seed)
    spec = identity_spec(n)
    op = rng.normal(size=(n, n))
    op *= 0.8 / max(np.abs(np.linalg.eigvals(op)))
    model = KoopmanModel(operator=op, spec=spec, residual=0.0)
    theta = rollout(model, np.eye(n), tau)
    x1 = rng.uniform(0.5, 2.0, n)
    states = np.column_stack([np.linalg.matrix_power(op, t) @ x1
                              for t in range(tau)])
    plan = gamma_map(list(nodes), spec, tau)
    samples = take_samples(states, plan)
    return spec, model, theta, x1, states, plan, samples


def test_objective_vanishes_at_the_truth():
    spec, model, theta, x1, states, plan, samples = _exact_linear_setup()
    a = _rows(theta, plan.observable_indices)
    objective, gradient = _objective_pair(a, samples.values, spec)
    assert objective(x1) < 1e-20
    assert np.linalg.norm(gradient(x1)) < 1e-10


def test_objective_is_infinite_outside_the_lift_domain():
    spec = log_spec(2, scale=1.0)
    a = np.ones((3, spec.size))
    objective, _ = _objective_pair(a, np.ones(3), spec)
    assert objective(np.array([-5.0, 0.0])) == math.inf


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    spec = log_spec(5)
    a = rng.normal(size=(12, spec.size))
    y = rng.normal(size=12)
    objective, gradient = _objective_pair(a, y, spec)
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(0.5, 90.0, 5)
        g = gradient(x)
        fd = np.empty_like(g)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (objective(x + e) - objective(x - e)) / (2.0 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(g - fd) / denom < 1e-5


def test_gradient_reuses_the_objectives_residual_bit_for_bit():
    # the gradient reuses the residual of the point the objective has just
    # evaluated and recomputes it anywhere else; either way it must equal a
    # fresh pair's gradient exactly
    rng = np.random.default_rng(9)
    spec = log_spec(5)
    a = rng.normal(size=(12, spec.size))
    y = rng.normal(size=12)
    objective, gradient = _objective_pair(a, y, spec)
    for _ in range(5):
        x = rng.uniform(0.5, 90.0, 5)
        other = rng.uniform(0.5, 90.0, 5)
        objective(x)
        for point in (x, other, x):
            _, fresh_gradient = _objective_pair(a, y, spec)
            assert np.array_equal(gradient(point), fresh_gradient(point))


# =========================================================================
# Recovery on exact linear systems
# =========================================================================

def test_full_sampling_recovers_the_initial_state():
    spec, model, theta, x1, states, plan, samples = _exact_linear_setup(
        nodes=(0, 1, 2, 3))
    result = recover_initial_state(samples, model,
                                   OptimizerConfig(fill_value=1.0))
    assert np.abs(result.x1 - x1).max() < 1e-6
    assert result.objective < 1e-12
    assert np.allclose(result.trajectory, states, atol=1e-5)


def test_partial_sampling_recovers_when_rank_allows():
    spec, model, theta, x1, states, plan, samples = _exact_linear_setup(nodes=(0, 1))
    score_rows = _rows(theta, plan.observable_indices)
    assert np.linalg.matrix_rank(score_rows, tol=1e-10) == 4  # identifiable
    result = recover_initial_state(samples, model,
                                   OptimizerConfig(fill_value=1.0))
    assert result.objective < 1e-10
    assert np.abs(result.x1 - x1).max() < 1e-4


def test_recovery_starts_at_truth_when_every_node_is_sampled():
    # the base start reads the sampled first tick, which IS the initial
    # state; with an exact model the optimizer has nothing to do
    spec, model, theta, x1, states, plan, samples = _exact_linear_setup(
        nodes=(0, 1, 2, 3))
    result = recover_initial_state(
        samples, model,
        OptimizerConfig(fill_value=1.0))
    assert result.iterations == 0
    assert result.converged
    assert result.objective < 1e-18


def test_warm_start_lands_on_the_truth_for_exact_data():
    spec, model, theta, x1, states, plan, samples = _exact_linear_setup(nodes=(0, 1))
    a = _rows(theta, plan.observable_indices)
    warm = _linear_warm_start(a, samples.values, spec)
    assert warm is not None
    assert np.abs(warm - x1).max() < 1e-8


def test_negative_sample_readings_are_rescued_by_the_warm_start():
    # first-tick readings below the log domain poison the read-off start,
    # but the clipped least-squares start keeps the recovery alive
    spec = log_spec(2, scale=1.0)
    plan = gamma_map([0, 1], spec, tau=1)
    model = KoopmanModel(operator=np.eye(spec.size), spec=spec, residual=0.0)
    values = np.zeros(spec.size)
    values[0] = 1.0
    values[spec.linear_indices] = [-50.0, -50.0]   # far outside the domain
    samples = SampleMatrix(values=values, plan=plan)
    result = recover_initial_state(samples, model,
                                   OptimizerConfig(fill_value=-50.0))
    assert np.isfinite(result.objective)
    assert result.x1.min() > -spec.scale      # stayed inside the lift domain


def test_recovery_raises_when_every_start_is_infeasible():
    # a corrupted operator makes the objective non-finite everywhere past
    # the first tick and breaks the least-squares start as well
    spec = log_spec(2, scale=1.0)
    plan = gamma_map([0, 1], spec, tau=2)
    model = KoopmanModel(operator=np.full((spec.size, spec.size), np.nan),
                         spec=spec, residual=0.0)
    samples = SampleMatrix(values=np.ones(plan.sample_count), plan=plan)
    with pytest.raises(RuntimeError, match="every recovery start failed"):
        recover_initial_state(samples, model)


def test_recovery_keeps_the_winning_runs_diagnostics(monkeypatch):
    runs = []
    real = recovery.minimize_dfp

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(recovery, "minimize_dfp", recording)
    spec, model, theta, x1, states, plan, samples = _exact_linear_setup(nodes=(0, 1))
    result = recover_initial_state(
        samples, model,
        OptimizerConfig(fill_value=1.0))
    best = min(runs, key=lambda run: run.fun)   # the first of equals wins
    assert len(runs) == 2
    assert result.gradient_norm == best.gradient_norm
    assert result.resets == best.resets
    assert result.iterations == best.iterations


def test_recovery_runs_base_then_warm(monkeypatch):
    starts = []
    real = recovery.minimize_dfp

    def recording(fun, grad, x0, **kwargs):
        starts.append(np.array(x0))
        return real(fun, grad, x0, **kwargs)

    monkeypatch.setattr(recovery, "minimize_dfp", recording)
    spec, model, theta, x1, states, plan, samples = _exact_linear_setup(nodes=(0, 1))
    recover_initial_state(samples, model,
                          OptimizerConfig(fill_value=1.0))
    rows = np.vstack(list(operator_rows(plan, model)))
    r_a, r_y = fold([(rows, samples.values)])
    assert len(starts) == 2
    assert np.array_equal(starts[0], initial_guess(samples, 1.0))
    assert np.array_equal(starts[1], _linear_warm_start(r_a, r_y, spec))


def test_recovery_folds_one_tick_of_rows_at_a_time(monkeypatch):
    # rows reach the fold one tick (|obs| rows) at a time, and neither the
    # tau x M x M stack of powers nor all tau*|obs| rows are ever held
    spec = poly_spec(8, max_power=2)
    rng = np.random.default_rng(7)
    op = rng.normal(size=(spec.size, spec.size))
    op *= 0.9 / max(np.abs(np.linalg.eigvals(op)))
    model = KoopmanModel(operator=op, spec=spec, residual=0.0)
    plan = gamma_map(range(8), spec, 20)
    samples = take_samples(rng.uniform(1.0, 2.0, (spec.n, plan.tau)), plan)
    shapes = []
    real = recovery.fold

    def recording(pairs):
        def seen():
            for rows, values in pairs:
                shapes.append(rows.shape)
                yield rows, values
        return real(seen())

    monkeypatch.setattr(recovery, "fold", recording)
    stack_bytes = plan.tau * spec.size * spec.size * 8
    assert plan.sample_count * spec.size * 8 == stack_bytes   # every row read
    tracemalloc.start()
    try:
        recover_initial_state(samples, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shapes == [(plan.observable_indices.size, spec.size)] * plan.tau
    assert peak < stack_bytes


def test_optimizer_config_has_no_extra_starts():
    # the benchmark's tracer counts 1 + multistarts runs per recovery
    assert OptimizerConfig().multistarts == 0
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == \
        ["fill_value"]
    with pytest.raises(TypeError):
        OptimizerConfig(multistarts=1)


def test_nrmse_does_not_depend_on_memory_layout():
    # a trajectory read from CSV is Fortran-ordered, a simulated one is not
    rng = np.random.default_rng(8)
    estimate, truth = rng.uniform(0.0, 100.0, size=(2, 20, 20))
    f_estimate, f_truth = np.asfortranarray(estimate), np.asfortranarray(truth)
    assert nrmse(f_estimate, f_truth) == nrmse(estimate, truth)
    assert np.array_equal(per_tick_nrmse(f_estimate, f_truth),
                          per_tick_nrmse(estimate, truth))


@pytest.mark.parametrize("rows", [40, 8])   # M = 13: tall, and short of M
def test_compressed_system_keeps_objective_gradient_and_warm_start(rows):
    rng = np.random.default_rng(rows)
    spec = log_spec(4)
    a = rng.normal(size=(rows, spec.size))
    y = rng.normal(size=rows)
    # the system recover_initial_state minimizes: the R factor of [A | y]
    r_a, r_y = fold([(a, y)])
    assert r_a.shape == (min(rows, spec.size + 1), spec.size)
    objective, gradient = _objective_pair(a, y, spec)
    small_objective, small_gradient = _objective_pair(r_a, r_y, spec)
    for _ in range(20):
        x = rng.uniform(0.5, 90.0, spec.n)
        residual = a @ lift_trajectory(spec, x) - y
        f = float(residual @ residual)
        assert abs(small_objective(x) - f) <= 1e-12 * f
        g = gradient(x)
        assert (np.linalg.norm(small_gradient(x) - g)
                <= 1e-10 * np.linalg.norm(g))
    warm = _linear_warm_start(a, y, spec)
    small_warm = _linear_warm_start(r_a, r_y, spec)
    assert np.abs(warm).max() > 0.0
    assert np.abs(small_warm - warm).max() <= 1e-10 * np.abs(warm).max()


def test_recovery_raises_on_a_non_finite_sample():
    # QR passes the NaN through to R without raising; the objective is then
    # NaN at every start and the least-squares start is skipped
    spec = log_spec(2, scale=1.0)
    plan = gamma_map([0], spec, tau=3)
    model = KoopmanModel(operator=0.9 * np.eye(spec.size), spec=spec,
                         residual=0.0)
    values = np.full(plan.sample_count, 0.5)
    values[-1] = np.nan
    samples = SampleMatrix(values=values, plan=plan)
    with pytest.raises(RuntimeError, match="every recovery start failed"):
        recover_initial_state(samples, model)


# =========================================================================
# Trajectory reconstruction
# =========================================================================

def _reconstruct(x1, model, tau):
    """The path recovery reports: lift, roll forward through K, unlift."""
    z1 = lift_trajectory(model.spec, x1)
    return unlift_trajectory(model.spec, rollout(model, z1, tau).T)


def test_reconstruct_static_model_repeats_the_state():
    spec = identity_spec(3)
    model = KoopmanModel(operator=np.eye(3), spec=spec, residual=0.0)
    x1 = np.array([1.0, 2.0, 3.0])
    out = _reconstruct(x1, model, 4)
    assert out.shape == (3, 4)
    for t in range(4):
        assert np.array_equal(out[:, t], x1)


def test_reconstruct_single_tick_and_validation():
    spec = identity_spec(2)
    model = KoopmanModel(operator=0.5 * np.eye(2), spec=spec, residual=0.0)
    out = _reconstruct(np.array([4.0, 8.0]), model, 1)
    assert np.array_equal(out, [[4.0], [8.0]])
    with pytest.raises(ValueError):
        _reconstruct(np.array([1.0, 1.0]), model, 0)


def test_reconstruct_matches_exact_linear_truth():
    rng = np.random.default_rng(7)
    op = rng.normal(size=(3, 3)) * 0.6
    spec = identity_spec(3)
    model = KoopmanModel(operator=op, spec=spec, residual=0.0)
    x1 = rng.uniform(0.5, 1.5, 3)
    truth = np.column_stack([np.linalg.matrix_power(op, t) @ x1
                             for t in range(6)])
    out = _reconstruct(x1, model, 6)
    assert np.allclose(out, truth, atol=1e-8)
    assert np.array_equal(out[:, 0], x1)     # the K**0 = I block is exact


# =========================================================================
# End-to-end on a small nonlinear network
# =========================================================================

@pytest.fixture(scope="module")
def small_pipeline():
    graph = generate_er_graph(6, 0.5, seed=20)
    params = DynamicsParams(kind="biochemical", flow_in=10.0)
    spec = log_spec(6)
    x1s = random_initial_states(6, 40, 0.0, 1.0, seed=21)
    model = fit(assemble_training(
        simulate_ensemble(graph, params, x1s, 25), spec))
    (truth,) = simulate_ensemble(
        graph, params, random_initial_states(6, 1, 0.0, 1.0, seed=22), 15)
    return spec, model, truth


def test_nonlinear_recovery_smoke(small_pipeline):
    spec, model, truth = small_pipeline
    jac = lift_jacobian(spec, np.full(6, 0.5))
    plan = greedy_select(rollout(model, jac, 15), spec,
                         SelectionConfig(gamma=None, max_nodes=3))
    samples = take_samples(truth, plan)
    result = recover_initial_state(
        samples, model, OptimizerConfig(fill_value=0.5))
    err = nrmse(result.trajectory, truth.states)
    print(f"\n  6-node pipeline: |S|={len(plan.nodes)} "
          f"objective={result.objective:.3e} nrmse={err:.4f}")
    assert err < 0.2
    assert result.objective < 1e-4


def test_recovery_objective_is_the_full_sample_mismatch(small_pipeline):
    # the search runs on the R factor of [A | y], whose last row keeps the
    # residual no state removes, so the objective is still ||A psi - y||^2
    spec, model, truth = small_pipeline
    plan = gamma_map([0, 2, 4], spec, 15)
    samples = take_samples(truth, plan)
    result = recover_initial_state(samples, model,
                                   OptimizerConfig(fill_value=0.5))
    rows = np.vstack(list(operator_rows(plan, model)))
    residual = rows @ lift_trajectory(spec, result.x1) - samples.values
    assert result.objective > 0.0
    assert result.objective == pytest.approx(float(residual @ residual),
                                              rel=1e-9)


def test_result_serialization(tmp_path, small_pipeline):
    spec, model, truth = small_pipeline
    plan = gamma_map(list(range(6)), spec, 15)
    samples = take_samples(truth, plan)
    result = recover_initial_state(samples, model,
                                   OptimizerConfig(fill_value=0.5))
    d = result_to_dict(result, truth=truth)
    assert set(d) >= {"x1", "trajectory", "objective", "iterations",
                      "converged", "gradient_norm", "resets", "nrmse",
                      "per_tick_nrmse"}
    assert d["gradient_norm"] == result.gradient_norm >= 0.0
    assert d["resets"] == result.resets >= 0
    path = save_result(result, tmp_path / "result.json", truth=truth.states)
    loaded = json.loads(path.read_text())
    assert loaded["nrmse"] == pytest.approx(d["nrmse"])
    bare = result_to_dict(result)
    assert "nrmse" not in bare
