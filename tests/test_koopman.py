"""Operator fitting, rollouts, the stacked evolution matrix, refinement.

The least-squares fit has clean closed-form behaviour on linear systems, so
most oracles here are either hand-computed (scalars, permutations) or checked
against an independently constructed ground-truth operator.
"""

import numpy as np
import pytest

from koopnet import (
    DynamicsParams,
    KoopmanModel,
    TrainingSet,
    Trajectory,
    assemble_training,
    build_theta,
    fit,
    generate_er_graph,
    identity_spec,
    lift,
    lift_trajectory,
    linearization_nrmse,
    load_model,
    log_spec,
    nrmse,
    poly_spec,
    random_initial_state,
    random_initial_states,
    refine_with_samples,
    rollout,
    save_model,
    simulate,
    simulate_ensemble,
    unlift_trajectory,
)
from koopnet.koopman import SV_CUTOFF


def _linear_trajectories(a, x1s, tau):
    """Exact discrete-time linear rollouts x_{t+1} = A x_t, one per column."""
    trajs = []
    for k in range(x1s.shape[1]):
        states = np.empty((a.shape[0], tau))
        states[:, 0] = x1s[:, k]
        for t in range(1, tau):
            states[:, t] = a @ states[:, t - 1]
        trajs.append(Trajectory(states=states))
    return trajs


def _identity_training(a, n, d, tau, seed):
    rng = np.random.default_rng(seed)
    x1s = rng.uniform(-1.0, 1.0, (n, d))
    return assemble_training(_linear_trajectories(a, x1s, tau),
                             identity_spec(n))


# =========================================================================
# Snapshot assembly
# =========================================================================

def test_snapshot_pair_counts():
    spec = identity_spec(2)
    one = assemble_training(_linear_trajectories(0.5 * np.eye(2),
                                                 np.ones((2, 1)), 2), spec)
    assert one.x.shape == (2, 1)         # D=1, tau=2 -> a single pair
    many = assemble_training(_linear_trajectories(0.5 * np.eye(2),
                                                  np.ones((2, 3)), 11), spec)
    assert many.x.shape == (2, 30)       # D * (tau - 1)
    assert many.d == 3


def test_snapshot_columns_are_shifted_by_one_tick():
    spec = identity_spec(3)
    rng = np.random.default_rng(1)
    states = rng.normal(size=(3, 5))
    training = assemble_training([Trajectory(states=states)], spec)
    assert np.array_equal(training.x, states[:, :-1])
    assert np.array_equal(training.y, states[:, 1:])


def test_training_set_validation():
    spec = identity_spec(2)
    with pytest.raises(ValueError):
        TrainingSet(x=np.ones((2, 3)), y=np.ones((2, 2)), d=1, spec=spec)
    with pytest.raises(ValueError):
        TrainingSet(x=np.ones((3, 2)), y=np.ones((3, 2)), d=1, spec=spec)
    with pytest.raises(ValueError):
        assemble_training([], spec)


# =========================================================================
# Fitting
# =========================================================================

def test_fit_scalar_contraction_exactly():
    a = np.array([[0.5]])
    training = _identity_training(a, 1, 1, 6, seed=2)
    model = fit(training)
    assert abs(model.operator[0, 0] - 0.5) < 1e-12
    assert model.residual < 1e-12


def test_fit_identity_when_targets_equal_sources():
    # Y = X makes K the orthogonal projector onto the column space; on the
    # data itself it acts as the identity
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 10))
    spec = identity_spec(4)
    model = fit(TrainingSet(x=x, y=x.copy(), d=1, spec=spec))
    assert np.allclose(model.operator @ x, x, atol=1e-10)


def test_fit_recovers_a_random_linear_map():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4))
    a *= 0.9 / max(np.abs(np.linalg.eigvals(a)))
    training = _identity_training(a, 4, 3, 6, seed=5)
    model = fit(training)
    assert np.abs(model.operator - a).max() < 1e-8


def test_fit_rejects_all_zero_snapshots():
    spec = identity_spec(3)
    training = TrainingSet(x=np.zeros((3, 4)), y=np.zeros((3, 4)), d=1,
                           spec=spec)
    with pytest.raises(RuntimeError, match="degenerate training data"):
        fit(training)


def test_fit_rejects_negative_ridge():
    training = _identity_training(np.eye(2), 2, 1, 3, seed=0)
    with pytest.raises(ValueError):
        fit(training, ridge=-1.0)


def test_fit_is_a_least_squares_minimum():
    # any perturbation of the operator must not lower the residual
    rng = np.random.default_rng(6)
    spec = identity_spec(3)
    x = rng.normal(size=(3, 12))
    y = rng.normal(size=(3, 12))        # inconsistent data: nonzero residual
    model = fit(TrainingSet(x=x, y=y, d=1, spec=spec))
    base = np.linalg.norm(y - model.operator @ x)
    for _ in range(10):
        delta = rng.normal(size=(3, 3))
        delta *= 1e-3 / np.linalg.norm(delta)
        assert np.linalg.norm(y - (model.operator + delta) @ x) >= base - 1e-12


def _direct_residual(model, training):
    return (np.linalg.norm(training.y - model.operator @ training.x)
            / np.linalg.norm(training.y))


def _random_training(m, p, seed, repeat_row=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, p))
    if repeat_row:
        x[-1] = x[0]      # a repeated dictionary row: X loses one rank
    y = rng.normal(size=(m, p))          # inconsistent data: residual ~ 1
    return TrainingSet(x=x, y=y, d=1, spec=identity_spec(m))


@pytest.mark.parametrize("repeat_row", [False, True],
                         ids=["full-rank", "rank-deficient"])
def test_fit_matches_the_pseudo_inverse(repeat_row):
    training = _random_training(6, 40, seed=40, repeat_row=repeat_row)
    assert np.linalg.matrix_rank(training.x) == (5 if repeat_row else 6)
    model = fit(training)
    reference = training.y @ np.linalg.pinv(training.x, rcond=SV_CUTOFF)
    np.testing.assert_allclose(model.operator, reference, rtol=1e-10,
                               atol=1e-10 * np.abs(reference).max())
    assert model.residual == pytest.approx(_direct_residual(model, training),
                                           rel=1e-8)


@pytest.mark.parametrize("ridge", [0.5, 20.0])
def test_fit_matches_the_ridge_closed_form(ridge):
    training = _random_training(5, 30, seed=41)
    x, y = training.x, training.y
    assert np.linalg.cond(x) < 10.0
    model = fit(training, ridge=ridge)
    # K = Y X^T (X X^T + ridge I)^-1, the Gram matrix being symmetric
    reference = np.linalg.solve(x @ x.T + ridge * np.eye(5), x @ y.T).T
    np.testing.assert_allclose(model.operator, reference, rtol=1e-10,
                               atol=1e-10 * np.abs(reference).max())
    assert model.residual == pytest.approx(_direct_residual(model, training),
                                           rel=1e-8)


def test_ridge_shrinks_the_operator():
    training = _identity_training(0.9 * np.eye(2), 2, 2, 8, seed=7)
    plain = fit(training)
    damped = fit(training, ridge=10.0)
    assert np.linalg.norm(damped.operator) < np.linalg.norm(plain.operator)


# =========================================================================
# Prediction and the evolution stack
# =========================================================================

def _scalar_model(k):
    return KoopmanModel(operator=np.array([[float(k)]]),
                        spec=identity_spec(1), residual=0.0)


def test_predict_first_tick_is_the_input():
    model = _scalar_model(0.5)
    z = np.array([3.0])
    assert rollout(model, z, 1)[:, 0] == pytest.approx([3.0])
    assert rollout(model, z, 4)[:, 3] == pytest.approx([3.0 * 0.125])
    with pytest.raises(ValueError):
        rollout(model, z, 0)


def test_predict_semigroup_property():
    rng = np.random.default_rng(8)
    op = rng.normal(size=(5, 5)) * 0.4
    model = KoopmanModel(operator=op, spec=identity_spec(5), residual=0.0)
    z = rng.normal(size=5)
    via_six = rollout(model, z, 6)[:, 5]
    # (4-1) + (3-1) ticks
    stacked = rollout(model, rollout(model, z, 4)[:, 3], 3)[:, 2]
    assert np.allclose(via_six, stacked, atol=1e-12)


def test_rollout_columns_are_operator_powers():
    model = _scalar_model(2.0)
    out = rollout(model, np.array([1.0]), 4)
    assert np.allclose(out, [[1.0, 2.0, 4.0, 8.0]])
    with pytest.raises(ValueError):
        rollout(model, np.array([1.0]), 0)


def test_vector_rollout_is_the_explicit_operator_loop():
    rng = np.random.default_rng(42)
    op = rng.normal(size=(7, 7)) * 0.4
    model = KoopmanModel(operator=op, spec=identity_spec(7), residual=0.0)
    z = rng.normal(size=7)
    expected = np.empty((7, 9))
    expected[:, 0] = z
    for t in range(1, 9):
        expected[:, t] = op @ expected[:, t - 1]
    assert np.array_equal(rollout(model, z, 9), expected)


# At the default scale of 500 the log entries of states in [0, 1] are nearly
# collinear with the states, K's norm reaches 5e4, and the block and vector
# products already differ by 1e-10; scale 1 keeps K's norm near 6.
_ROLLOUT_SPECS = [(log_spec(8, scale=1.0), 8), (poly_spec(6), 6)]


def _fitted(spec, n, seed):
    graph = generate_er_graph(n, 0.5, seed=seed)
    params = DynamicsParams.biochemical()
    x1s = random_initial_states(n, 60, 0.0, 1.0, seed=seed + 1)
    model = fit(assemble_training(simulate_ensemble(graph, params, x1s, 15),
                                  spec))
    # held-out trajectories of two lengths
    held_out = [traj for ticks in (9, 15)
                for traj in simulate_ensemble(
                    graph, params,
                    random_initial_states(n, 3, 0.0, 1.0, seed=seed + ticks),
                    ticks)]
    return model, held_out


@pytest.mark.parametrize("spec, n", _ROLLOUT_SPECS, ids=["log", "poly"])
def test_block_rollout_matches_the_per_vector_rollouts(spec, n):
    model, held_out = _fitted(spec, n, seed=43)
    z = lift_trajectory(spec,
                        np.column_stack([t.states[:, 0] for t in held_out]))
    block = rollout(model, z, 15)
    assert block.shape == (spec.size, len(held_out), 15)
    for j in range(len(held_out)):
        single = rollout(model, z[:, j], 15)
        np.testing.assert_allclose(block[:, j], single, rtol=1e-12,
                                   atol=1e-12 * np.abs(single).max())


@pytest.mark.parametrize("spec, n", _ROLLOUT_SPECS, ids=["log", "poly"])
def test_batched_linearization_error_matches_the_per_trajectory_loop(spec, n):
    model, held_out = _fitted(spec, n, seed=44)
    assert {t.tau for t in held_out} == {9, 15}
    errors = []
    for traj in held_out:
        z1 = lift_trajectory(model.spec, traj.states[:, :1])[:, 0]
        z_hat = rollout(model, z1, traj.tau)
        errors.append(nrmse(unlift_trajectory(model.spec, z_hat),
                            traj.states))
    assert linearization_nrmse(model, held_out) == pytest.approx(
        float(np.mean(errors)), rel=1e-12)


def test_build_theta_identity_and_powers():
    model = KoopmanModel(operator=np.eye(3), spec=identity_spec(3),
                         residual=0.0)
    stack = build_theta(model, 3)
    assert stack.powers.shape == (3, 3, 3)
    assert (stack.tau, stack.m) == (3, 3)
    for t in range(3):
        assert np.array_equal(stack.powers[t], np.eye(3))

    single = build_theta(model, 1)
    assert np.array_equal(single.powers, np.eye(3)[None])

    doubling = build_theta(_scalar_model(2.0), 4)
    assert np.allclose(doubling.powers, [[[1.0]], [[2.0]], [[4.0]], [[8.0]]])
    # the power at index 0 is exactly the identity, no rounding
    assert np.array_equal(doubling.powers[0], np.eye(1))
    with pytest.raises(IndexError):
        doubling.powers[4]


@pytest.mark.parametrize("spec", [log_spec(6), poly_spec(6)],
                         ids=["log", "poly"])
def test_evolve_is_blockwise_bit_for_bit(spec):
    """Column t is ``powers[t] @ z1``, bit for bit."""
    graph = generate_er_graph(6, 0.5, seed=31)
    x1s = random_initial_states(6, 40, 0.0, 1.0, seed=32)
    model = fit(assemble_training(
        simulate_ensemble(graph, DynamicsParams.biochemical(), x1s, 12), spec))
    theta = build_theta(model, 12)
    rng = np.random.default_rng(33)
    for _ in range(5):
        z1 = lift(spec, rng.uniform(0.0, 1.0, 6))
        path = theta.evolve(z1)
        assert path.shape == (spec.size, 12)
        assert np.array_equal(path[:, 0], z1)
        for t in range(12):
            assert np.array_equal(path[:, t], theta.powers[t] @ z1)


# =========================================================================
# Linearization error
# =========================================================================

def test_linearization_error_vanishes_on_linear_dynamics():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    a *= 0.8 / max(np.abs(np.linalg.eigvals(a)))
    model = fit(_identity_training(a, 4, 3, 8, seed=10))
    test = _linear_trajectories(a, rng.uniform(-1, 1, (4, 5)), 8)
    assert linearization_nrmse(model, test) < 1e-10


def test_linearization_error_is_an_nrmse():
    # a model that collapses everything onto zero after the first tick
    model = KoopmanModel(operator=np.zeros((2, 2)), spec=identity_spec(2),
                         residual=1.0)
    states = np.ones((2, 4))
    err = linearization_nrmse(model, [Trajectory(states=states)])
    # predictions: tick 1 exact (it is the initial condition), the rest zero
    assert err == pytest.approx(np.sqrt(3.0 / 4.0))


def test_log_dictionary_linearizes_the_consumption_network():
    graph = generate_er_graph(8, 0.5, seed=11)
    params = DynamicsParams.biochemical()
    x1s = random_initial_states(8, 40, 0.0, 1.0, seed=12)
    spec = log_spec(8)
    model = fit(assemble_training(simulate_ensemble(graph, params, x1s, 30),
                                  spec))
    test = simulate_ensemble(graph, params,
                             random_initial_states(8, 5, 0.0, 1.0, seed=13),
                             30)
    err = linearization_nrmse(model, test)
    assert err < 5e-3    # held-out rollouts track the nonlinear flow


# =========================================================================
# Refinement
# =========================================================================

def _refine_setup(seed=14):
    graph = generate_er_graph(6, 0.5, seed=seed)
    params = DynamicsParams.biochemical()
    spec = log_spec(6)
    x1s = random_initial_states(6, 20, 0.0, 1.0, seed=seed + 1)
    training = assemble_training(simulate_ensemble(graph, params, x1s, 15),
                                 spec)
    model = fit(training)
    truth = simulate(graph, params,
                     random_initial_state(6, 0.0, 1.0, seed=seed + 2), 15)
    return graph, params, spec, training, model, truth


def test_refine_zero_extra_is_a_noop():
    graph, params, spec, training, model, truth = _refine_setup()
    refined, kept = refine_with_samples(model, training, [0, 1],
                                        truth.states[[0, 1], 0], graph,
                                        params, 15, 0.0, 1.0, d_extra=0)
    assert refined is model
    assert kept is training


def test_refine_pins_sampled_entries_of_new_trajectories():
    graph, params, spec, training, model, truth = _refine_setup()
    nodes = list(range(6))   # sampling every node pins the entire x1
    refined, combined = refine_with_samples(
        model, training, nodes, truth.states[:, 0], graph, params, 15,
        0.0, 1.0, d_extra=4, seed=99)
    assert combined.d == training.d + 4
    # every extra trajectory starts from the same fully pinned state, so all
    # the new snapshot columns repeat the first extra trajectory's
    extra_x = combined.x[:, training.x.shape[1]:]
    per_traj = np.split(extra_x, 4, axis=1)
    for block in per_traj[1:]:
        assert np.allclose(block, per_traj[0], atol=1e-12)
    assert np.allclose(per_traj[0][:, 0], lift(spec, truth.states[:, 0]),
                       atol=1e-12)


def test_refine_equals_a_fresh_fit_on_the_union():
    graph, params, spec, training, model, truth = _refine_setup()
    refined, combined = refine_with_samples(
        model, training, [0, 2], truth.states[[0, 2], 0], graph, params, 15,
        0.0, 1.0, d_extra=5, seed=41)
    again = fit(combined)
    assert np.allclose(refined.operator, again.operator, atol=1e-12)
    assert refined.residual == pytest.approx(again.residual)


def test_refine_validates_inputs():
    graph, params, spec, training, model, truth = _refine_setup()
    with pytest.raises(ValueError):
        refine_with_samples(model, training, [0], np.zeros(2), graph, params,
                            15, 0.0, 1.0, d_extra=3)
    with pytest.raises(ValueError):
        refine_with_samples(model, training, [0], np.zeros(1), graph, params,
                            15, 0.0, 1.0, d_extra=-1)


# =========================================================================
# Serialization
# =========================================================================

def test_model_json_round_trip(tmp_path):
    model = fit(_identity_training(0.7 * np.eye(3), 3, 2, 6, seed=15))
    path = save_model(model, tmp_path / "model.json")
    back = load_model(path)
    assert np.array_equal(back.operator, model.operator)
    assert back.spec == model.spec
    assert back.residual == model.residual
