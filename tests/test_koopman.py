"""Operator fitting, rollouts, the stacked evolution matrix, refinement.

The least-squares fit has clean closed-form behaviour on linear systems, so
most oracles here are either hand-computed (scalars, permutations) or checked
against an independently constructed ground-truth operator.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from koopnet import (
    DynamicsParams,
    KoopmanModel,
    TrainingSet,
    Trajectory,
    assemble_training,
    default_initial_range,
    fit,
    generate_er_graph,
    identity_spec,
    lift_jacobian,
    lift_trajectory,
    linearization_nrmse,
    load_model,
    log_spec,
    nrmse,
    poly_spec,
    random_initial_states,
    refine_with_samples,
    rollout,
    save_model,
    simulate_ensemble,
    unlift_trajectory,
)
from koopnet.koopman import (FACTOR_PAIRS, SV_CUTOFF, build_theta,
                             model_from_dict, model_to_dict)
from koopnet.observables import spec_to_dict

BIOCHEMICAL = DynamicsParams(kind="biochemical", flow_in=10.0)

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


def _pairs_training(x, y):
    """One 2-tick trajectory per snapshot pair, so the set's ``x`` is ``x``
    and its ``y`` is ``y``."""
    trajs = [Trajectory(states=np.column_stack([x[:, j], y[:, j]]))
             for j in range(x.shape[1])]
    return TrainingSet(trajectories=trajs, spec=identity_spec(x.shape[0]))


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
    with pytest.raises(ValueError, match="at least one trajectory"):
        TrainingSet(trajectories=(), spec=spec)
    with pytest.raises(ValueError, match="at least one trajectory"):
        assemble_training([], spec)
    with pytest.raises(ValueError, match="3 nodes"):
        assemble_training([Trajectory(states=np.ones((2, 4))),
                           Trajectory(states=np.ones((3, 4)))], spec)
    # Trajectory itself refuses one tick; anything else with ``n``, ``tau``
    # and ``states`` meets the set's own check
    one_tick = SimpleNamespace(n=2, tau=1, states=np.ones((2, 1)))
    with pytest.raises(ValueError, match="two ticks"):
        TrainingSet(trajectories=(one_tick,), spec=spec)


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
    model = fit(_pairs_training(x, x))
    assert np.allclose(model.operator @ x, x, atol=1e-10)


def test_fit_recovers_a_random_linear_map():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4))
    a *= 0.9 / max(np.abs(np.linalg.eigvals(a)))
    training = _identity_training(a, 4, 3, 6, seed=5)
    model = fit(training)
    assert np.abs(model.operator - a).max() < 1e-8


def test_fit_rejects_all_zero_snapshots():
    training = _pairs_training(np.zeros((3, 4)), np.zeros((3, 4)))
    with pytest.raises(RuntimeError, match="degenerate training data"):
        fit(training)


def test_fit_is_a_least_squares_minimum():
    # any perturbation of the operator must not lower the residual
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 12))
    y = rng.normal(size=(3, 12))        # inconsistent data: nonzero residual
    model = fit(_pairs_training(x, y))
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
    return _pairs_training(x, y)


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


def _stacked_fit(trajectories, spec):
    """The fit on per-trajectory lifts hstacked into X and Y, both held at
    once: the formula ``fit`` computes, written out."""
    lifted = [lift_trajectory(spec, traj.states) for traj in trajectories]
    x = np.hstack([z[:, :-1] for z in lifted])
    y = np.hstack([z[:, 1:] for z in lifted])
    v, s, ut = np.linalg.svd(x.T, full_matrices=False)
    r = np.count_nonzero(s > SV_CUTOFF * s[0])
    v, s, ut = v[:, :r], s[:r], ut[:r]
    gain = 1.0 / s
    yv = y @ v
    yv *= gain
    k = yv @ ut
    yv *= s
    fitted = yv @ v.T
    fitted -= y
    return x, y, k, float(np.linalg.norm(fitted) / np.linalg.norm(y))


def _assert_fit_matches(model, reference, exact):
    """``model`` against ``_stacked_fit``'s ``(x, y, k, residual)``: bit for
    bit when it was solved from the snapshot SVD (``exact``).  Solved from
    R, entries of K in the directions near the singular-value cutoff may
    differ, its fitted values may not."""
    x, y, k, residual = reference
    if exact:
        assert np.array_equal(model.operator, k)
        assert model.residual == residual
    else:
        gap = (model.operator - k) @ x
        assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(y)
        assert model.residual == pytest.approx(residual, rel=1e-8)


# 170 snapshot pairs: log (19 observables) and poly (28) fit them by the
# snapshot SVD, identity (6) from the kept R factor
@pytest.mark.parametrize("spec, exact", [(log_spec(6, scale=1.0), True),
                                         (poly_spec(6), True),
                                         (identity_spec(6), False)],
                         ids=["log", "poly", "identity"])
def test_fit_is_bit_identical_to_the_stacked_reference(spec, exact):
    graph = generate_er_graph(6, 0.5, seed=45)
    # trajectories of two lengths, so the columns of one are not a block
    # of fixed width
    trajs = [traj for ticks, seed in ((12, 46), (7, 47))
             for traj in simulate_ensemble(
                 graph, BIOCHEMICAL,
                 random_initial_states(6, 10, 0.0, 1.0, seed=seed), ticks)]
    training = assemble_training(trajs, spec)
    reference = _stacked_fit(trajs, spec)
    assert np.array_equal(training.x, reference[0])
    assert np.array_equal(training.y, reference[1])
    assert (training.pairs < FACTOR_PAIRS * spec.size) == exact
    _assert_fit_matches(fit(training), reference, exact)


@pytest.mark.parametrize("last_ticks, from_factor", [(15, True), (14, False)],
                         ids=["20M-pairs", "one-pair-fewer"])
def test_the_route_turns_at_factor_pairs_per_observable(last_ticks,
                                                        from_factor):
    # log n = 2: 7 observables, so 10 trajectories of 15 ticks give exactly
    # 20 * 7 = 140 pairs; a last trajectory one tick shorter gives 139
    spec = log_spec(2)
    trajs = simulate_ensemble(generate_er_graph(2, 0.5, seed=48), BIOCHEMICAL,
                              random_initial_states(2, 10, 0.0, 1.0, seed=49),
                              15)
    trajs[-1] = Trajectory(states=trajs[-1].states[:, :last_ticks])
    training = assemble_training(trajs, spec)
    assert training.pairs == FACTOR_PAIRS * spec.size - (not from_factor)
    model = fit(training)
    # the factor is folded on first read and kept: fit read it or it did not
    assert ("factor" in vars(training)) == from_factor
    _assert_fit_matches(model, _stacked_fit(trajs, spec), not from_factor)


# =========================================================================
# Prediction and the evolution stack
# =========================================================================

def _scalar_model(k):
    return KoopmanModel(operator=np.array([[float(k)]]),
                        spec=identity_spec(1), residual=0.0)


def test_predict_first_tick_is_the_input():
    model = _scalar_model(0.5)
    z = np.array([3.0])
    assert rollout(model, z, 1)[0] == pytest.approx([3.0])
    assert rollout(model, z, 4)[3] == pytest.approx([3.0 * 0.125])
    with pytest.raises(ValueError):
        rollout(model, z, 0)


def test_predict_semigroup_property():
    rng = np.random.default_rng(8)
    op = rng.normal(size=(5, 5)) * 0.4
    model = KoopmanModel(operator=op, spec=identity_spec(5), residual=0.0)
    z = rng.normal(size=5)
    via_six = rollout(model, z, 6)[5]
    # (4-1) + (3-1) ticks
    stacked = rollout(model, rollout(model, z, 4)[3], 3)[2]
    assert np.allclose(via_six, stacked, atol=1e-12)


def test_rollout_rows_are_operator_powers():
    model = _scalar_model(2.0)
    out = rollout(model, np.array([1.0]), 4)
    assert np.allclose(out, [[1.0], [2.0], [4.0], [8.0]])
    with pytest.raises(ValueError):
        rollout(model, np.array([1.0]), 0)


def test_vector_rollout_is_the_explicit_operator_loop():
    rng = np.random.default_rng(42)
    op = rng.normal(size=(7, 7)) * 0.4
    model = KoopmanModel(operator=op, spec=identity_spec(7), residual=0.0)
    z = rng.normal(size=7)
    expected = np.empty((9, 7))
    expected[0] = z
    for t in range(1, 9):
        expected[t] = op @ expected[t - 1]
    assert np.array_equal(rollout(model, z, 9), expected)


# At the default scale of 500 the log entries of states in [0, 1] are nearly
# collinear with the states, K's norm reaches 5e4, and the block and vector
# products already differ by 1e-10; scale 1 keeps K's norm near 6.
_ROLLOUT_SPECS = [(log_spec(8, scale=1.0), 8), (poly_spec(6), 6)]


def _fitted(spec, n, seed):
    graph = generate_er_graph(n, 0.5, seed=seed)
    params = BIOCHEMICAL
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
    assert block.shape == (15, spec.size, len(held_out))
    for j in range(len(held_out)):
        single = rollout(model, z[:, j], 15)
        np.testing.assert_allclose(block[:, :, j], single, rtol=1e-12,
                                   atol=1e-12 * np.abs(single).max())


@pytest.mark.parametrize("spec, n", _ROLLOUT_SPECS, ids=["log", "poly"])
def test_batched_linearization_error_matches_the_per_trajectory_loop(spec, n):
    model, held_out = _fitted(spec, n, seed=44)
    assert {t.tau for t in held_out} == {9, 15}
    errors = []
    for traj in held_out:
        z1 = lift_trajectory(model.spec, traj.states[:, :1])[:, 0]
        z_hat = rollout(model, z1, traj.tau)
        errors.append(nrmse(unlift_trajectory(model.spec, z_hat.T),
                            traj.states))
    assert linearization_nrmse(model, held_out) == pytest.approx(
        float(np.mean(errors)), rel=1e-12)


def _rollout_time_last(model, z1, tau):
    """Reference: the same recurrence with tick t along the last axis."""
    z = np.asarray(z1, dtype=float)
    out = np.empty(z.shape + (tau,))
    out[..., 0] = z
    for t in range(1, tau):
        out[..., t] = model.operator @ out[..., t - 1]
    return out


def _powers_loop(model, tau):
    """Reference: ``powers[t] = K @ powers[t - 1]`` from the identity."""
    m = model.size
    powers = np.empty((tau, m, m))
    powers[0] = np.eye(m)
    for t in range(1, tau):
        powers[t] = model.operator @ powers[t - 1]
    return powers


@pytest.mark.parametrize("spec, n", _ROLLOUT_SPECS, ids=["log", "poly"])
def test_time_first_rollout_is_the_time_last_loop(spec, n):
    """Index t of the time-first path is tick t of the time-last loop, bit
    for bit, for one lifted vector and for an M x d block of them."""
    model, held_out = _fitted(spec, n, seed=45)
    z = lift_trajectory(spec,
                        np.column_stack([t.states[:, 0] for t in held_out]))
    for z1 in (z[:, 0], z):
        path = rollout(model, z1, 15)
        assert path.shape == (15,) + z1.shape
        assert np.array_equal(path,
                              np.moveaxis(_rollout_time_last(model, z1, 15),
                                          -1, 0))


@pytest.mark.parametrize("spec, n", _ROLLOUT_SPECS, ids=["log", "poly"])
def test_build_theta_is_the_explicit_power_loop(spec, n):
    model, _ = _fitted(spec, n, seed=46)
    for tau in (1, 2, 12):
        assert np.array_equal(build_theta(model, tau, np.eye(model.size)),
                              _powers_loop(model, tau))


@pytest.mark.parametrize("spec, n", _ROLLOUT_SPECS, ids=["log", "poly"])
def test_build_theta_rolls_out_a_basis(spec, n):
    # K**t J for the lift's Jacobian J: the rollout of J itself, bit for
    # bit, tau x M x n with J exactly at index 0
    model, _ = _fitted(spec, n, seed=46)
    jac = lift_jacobian(spec, np.full(n, 0.5))
    theta_j = build_theta(model, 12, jac)
    assert theta_j.shape == (12, spec.size, n)
    assert np.array_equal(theta_j, rollout(model, jac, 12))
    assert np.array_equal(theta_j[0], jac)


def test_build_theta_identity_and_powers():
    model = KoopmanModel(operator=np.eye(3), spec=identity_spec(3),
                         residual=0.0)
    stack = build_theta(model, 3, np.eye(3))
    assert stack.shape == (3, 3, 3)
    assert stack.shape[:2] == (3, 3)
    for t in range(3):
        assert np.array_equal(stack[t], np.eye(3))

    single = build_theta(model, 1, np.eye(3))
    assert np.array_equal(single, np.eye(3)[None])

    doubling = build_theta(_scalar_model(2.0), 4, np.eye(1))
    assert np.allclose(doubling, [[[1.0]], [[2.0]], [[4.0]], [[8.0]]])
    # the power at index 0 is exactly the identity, no rounding
    assert np.array_equal(doubling[0], np.eye(1))
    with pytest.raises(IndexError):
        doubling[4]
    with pytest.raises(ValueError):
        build_theta(model, 0, np.eye(3))
    # no default basis: the stack of powers is never built implicitly
    with pytest.raises(TypeError):
        build_theta(model, 3)


@pytest.mark.parametrize("spec", [log_spec(6), poly_spec(6)],
                         ids=["log", "poly"])
def test_stack_path_is_blockwise_bit_for_bit(spec):
    """Index t of the path ``theta @ z1`` that recovery reconstructs from is
    ``theta[t] @ z1``, bit for bit."""
    graph = generate_er_graph(6, 0.5, seed=31)
    x1s = random_initial_states(6, 40, 0.0, 1.0, seed=32)
    model = fit(assemble_training(
        simulate_ensemble(graph, BIOCHEMICAL, x1s, 12), spec))
    theta = rollout(model, np.eye(spec.size), 12)
    rng = np.random.default_rng(33)
    for _ in range(5):
        z1 = lift_trajectory(spec, rng.uniform(0.0, 1.0, 6))
        path = (theta @ z1).T
        assert path.shape == (spec.size, 12)
        assert np.array_equal(path[:, 0], z1)
        for t in range(12):
            assert np.array_equal(path[:, t], theta[t] @ z1)


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
    params = BIOCHEMICAL
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

def _refine_setup(seed=14, params=BIOCHEMICAL, d=20):
    graph = generate_er_graph(6, 0.5, seed=seed)
    low, high = default_initial_range(params.kind)
    spec = log_spec(6)
    x1s = random_initial_states(6, d, low, high, seed=seed + 1)
    training = assemble_training(simulate_ensemble(graph, params, x1s, 15),
                                 spec)
    model = fit(training)
    truth_x1 = random_initial_states(6, 1, low, high, seed=seed + 2)
    (truth,) = simulate_ensemble(graph, params, truth_x1, 15)
    return graph, params, spec, training, model, truth


def test_refine_pins_sampled_entries_of_new_trajectories():
    graph, params, spec, training, model, truth = _refine_setup()
    nodes = list(range(6))   # sampling every node pins the entire x1
    refined, combined = refine_with_samples(
        training, nodes, truth.states[:, 0], graph, params, 15,
        d_extra=4, seed=99)
    assert combined.d == training.d + 4
    # every extra trajectory starts from the same fully pinned state, so all
    # the new snapshot columns repeat the first extra trajectory's
    extra_x = combined.x[:, training.x.shape[1]:]
    per_traj = np.split(extra_x, 4, axis=1)
    for block in per_traj[1:]:
        assert np.allclose(block, per_traj[0], atol=1e-12)
    assert np.allclose(per_traj[0][:, 0],
                       lift_trajectory(spec, truth.states[:, 0]), atol=1e-12)


def test_refine_combined_set_is_the_stacked_union():
    # the extra draws come from each dynamics' initial range
    for kind_params, high in ((BIOCHEMICAL, 1.0),
                              (DynamicsParams(kind="regulatory"), 100.0)):
        graph, params, spec, training, model, truth = _refine_setup(
            params=kind_params)
        nodes = [0, 2]
        refined, combined = refine_with_samples(
            training, nodes, truth.states[nodes, 0], graph, params, 15,
            d_extra=5, seed=41)
        # the extra trajectories, drawn as refine_with_samples draws them
        x1s = np.random.default_rng(41).uniform(0.0, high, (6, 5))
        x1s[nodes, :] = truth.states[nodes, 0][:, None]
        extra = assemble_training(simulate_ensemble(graph, params, x1s, 15),
                                  spec)
        assert combined.d == training.d + 5
        assert np.array_equal(combined.x, np.hstack([training.x, extra.x]))
        assert np.array_equal(combined.y, np.hstack([training.y, extra.y]))


def test_refine_equals_a_fresh_fit_on_the_union():
    graph, params, spec, training, model, truth = _refine_setup()
    refined, combined = refine_with_samples(
        training, [0, 2], truth.states[[0, 2], 0], graph, params, 15,
        d_extra=5, seed=41)
    again = fit(combined)
    # the refit solves from R, not from the snapshots: entries of K in the
    # directions near the singular-value cutoff may differ, its fitted
    # values on the union may not
    x, y = combined.x, combined.y
    gap = (refined.operator - again.operator) @ x
    assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(y)
    assert refined.residual == pytest.approx(again.residual, rel=1e-8)


def test_refine_validates_inputs():
    graph, params, spec, training, model, truth = _refine_setup()
    with pytest.raises(ValueError):
        refine_with_samples(training, [0], np.zeros(2), graph, params,
                            15, d_extra=3)
    with pytest.raises(ValueError, match="d_extra must be at least 1"):
        refine_with_samples(training, [0], np.zeros(1), graph, params,
                            15, d_extra=-1)


def test_refine_rejects_zero_extra_trajectories():
    # with no extra trajectory there is nothing to refit on
    graph, params, spec, training, model, truth = _refine_setup()
    with pytest.raises(ValueError, match="d_extra must be at least 1"):
        refine_with_samples(training, [0, 1], truth.states[[0, 1], 0],
                            graph, params, 15, d_extra=0)


@pytest.mark.parametrize("nodes, message", [
    ([-1], "sampled_nodes: node -1 outside 0..5"),
    ([6], "sampled_nodes: node 6 outside 0..5"),
    ([0, 0], "sampled_nodes: duplicate nodes in [0, 0]"),
    ([1.0], "sampled_nodes: 1.0 is not an integer"),
    ([True], "sampled_nodes: True is not an integer"),
])
def test_refine_rejects_bad_sampled_nodes(nodes, message):
    # -1 once pinned node 5, [0, 0] let the last value win, and a float or
    # out-of-range node raised numpy's bare IndexError
    graph, params, spec, training, model, truth = _refine_setup()
    with pytest.raises(ValueError) as info:
        refine_with_samples(training, nodes, np.zeros(len(nodes)),
                            graph, params, 15, d_extra=3, seed=1)
    assert str(info.value) == message


class _CountedLifts:
    """Stands in for ``koopnet.koopman.lift_trajectory``; keeps each
    lifted state array."""

    def __init__(self):
        self.states = []

    def __call__(self, spec, states):
        self.states.append(states)
        return lift_trajectory(spec, states)


def test_a_refit_lifts_only_the_new_trajectories(monkeypatch):
    graph, params, spec, training, model, truth = _refine_setup()
    training.factor   # built before the count starts
    lifts = _CountedLifts()
    monkeypatch.setattr("koopnet.koopman.lift_trajectory", lifts)
    _, combined = refine_with_samples(
        training, [0, 2], truth.states[[0, 2], 0], graph, params, 15,
        d_extra=5, seed=41)
    new = combined.trajectories[training.d:]
    assert len(lifts.states) == 5
    assert all(got is traj.states for got, traj in zip(lifts.states, new))


def test_the_factor_is_folded_once_across_three_refits(monkeypatch):
    # a sweep refits once per sampling rate on the same training set
    graph, params, spec, training, model, truth = _refine_setup()
    lifts = _CountedLifts()
    monkeypatch.setattr("koopnet.koopman.lift_trajectory", lifts)
    factors = []
    for nodes in ([0], [0, 2], [0, 2, 4]):
        refine_with_samples(training, nodes, truth.states[nodes, 0],
                            graph, params, 15, d_extra=4, seed=len(nodes))
        factors.append(training.factor)
    assert len(lifts.states) == training.d + 3 * 4
    assert factors[0] is factors[1] is factors[2]
    # the kept factor is an R of [X.T | Y.T]: triangular, same Gram
    xy = np.hstack([training.x.T, training.y.T])
    r = np.hstack(training.factor)
    assert r.shape == (2 * spec.size, 2 * spec.size)
    assert np.array_equal(r, np.triu(r))
    gram = xy.T @ xy
    assert np.allclose(r.T @ r, gram, rtol=0, atol=1e-12 * abs(gram).max())


def _unread(name):
    def fail(self):
        raise AssertionError(f"TrainingSet.{name} was read")
    return property(fail)


def test_a_log_fit_on_many_pairs_matches_the_snapshot_svd():
    # 30 trajectories of 15 ticks, 420 pairs for 19 observables
    graph, params, spec, training, model, truth = _refine_setup(d=30)
    assert training.pairs >= FACTOR_PAIRS * spec.size
    assert "factor" in vars(training)
    _assert_fit_matches(model, _stacked_fit(training.trajectories, spec),
                        exact=False)


def test_a_fit_on_many_pairs_and_its_refits_lift_each_trajectory_once(
        monkeypatch):
    # 30 trajectories of 15 ticks, 420 pairs for 19 observables: fit folds
    # the factor, and the three refits of a sweep's rates start from it
    lifts = _CountedLifts()
    monkeypatch.setattr("koopnet.koopman.lift_trajectory", lifts)
    monkeypatch.setattr(TrainingSet, "x", _unread("x"))
    monkeypatch.setattr(TrainingSet, "y", _unread("y"))
    graph, params, spec, training, model, truth = _refine_setup(d=30)
    assert training.pairs >= FACTOR_PAIRS * spec.size
    assert len(lifts.states) == training.d
    assert all(got is traj.states
               for got, traj in zip(lifts.states, training.trajectories))
    folded = vars(training)["factor"]
    for nodes in ([0], [0, 2], [0, 2, 4]):
        refine_with_samples(training, nodes, truth.states[nodes, 0],
                            graph, params, 15, d_extra=4, seed=len(nodes))
        assert training.factor is folded
    assert len(lifts.states) == training.d + 3 * 4


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


@pytest.mark.parametrize("payload, message", [
    ({}, "missing model keys: ['operator', 'spec', 'residual']"),
    ([1, 2], "a model must be a JSON object, got list"),
    ("model", "a model must be a JSON object, got str"),
])
def test_model_file_that_is_not_a_model_is_rejected(payload, message):
    with pytest.raises(ValueError) as info:
        model_from_dict(payload)
    assert str(info.value) == message


# Each field of a model file replaced by each kind it must not hold: the
# operator is a list of rows of finite numbers, the residual a finite number.
MODEL_WRONG_KINDS = (
    [("operator", v) for v in (5, "eye", True, None, [1.0] * 4, [None] * 4,
                               [[None] * 4] * 4, [["1"] * 4] * 4,
                               [[True] * 4] * 4, [[math.nan] * 4] * 4,
                               [[0.0] * 3 + [math.inf]] * 4)]
    + [("residual", v) for v in ([0.0], "0", True, None, math.nan,
                                 -math.inf)]
    + [("operator", [[0.0] * 4] * 3 + [[0.0] * 3])])      # ragged rows


@pytest.mark.parametrize("field, value", MODEL_WRONG_KINDS)
def test_model_file_names_the_field_of_each_wrong_kind(field, value):
    # an operator of nulls and a NaN residual once loaded as NaNs
    d = {"operator": np.eye(4).tolist(), "spec": spec_to_dict(log_spec(1)),
         "residual": 0.0}
    assert model_from_dict(d).size == 4
    d[field] = value
    with pytest.raises(ValueError, match=f"^{field}: "):
        model_from_dict(d)


def test_model_file_with_a_field_its_dictionary_does_not_hold_is_rejected(
        tmp_path):
    # a log dictionary with poly_max_power 3 once loaded with 0
    d = {"operator": np.eye(4).tolist(),
         "spec": {**spec_to_dict(log_spec(1)), "poly_max_power": 3},
         "residual": 0.0}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="^poly_max_power: 3 is not the log "):
        load_model(path)


def test_model_operator_must_match_its_dictionary():
    # a 3 x 3 operator on the 13-entry log dictionary at n = 4 was once
    # accepted and failed only in selection
    message = ("operator has shape (3, 3), the log dictionary of size 13 "
               "needs (13, 13)")
    with pytest.raises(ValueError) as info:
        KoopmanModel(operator=np.eye(3), spec=log_spec(4), residual=0.0)
    assert str(info.value) == message
    d = {"operator": np.eye(3).tolist(), "spec": spec_to_dict(log_spec(4)),
         "residual": 0.0}
    with pytest.raises(ValueError) as info:
        model_from_dict(d)
    assert str(info.value) == message
    with pytest.raises(ValueError, match=r"shape \(13,\), the log"):
        KoopmanModel(operator=np.ones(13), spec=log_spec(4), residual=0.0)
    model = model_from_dict({**d, "operator": np.eye(13).tolist()})
    assert model.size == model.spec.size == 13


def test_model_file_without_its_residual_is_rejected():
    d = model_to_dict(fit(_identity_training(0.7 * np.eye(3), 3, 2, 6, seed=15)))
    del d["residual"]
    with pytest.raises(ValueError, match=r"missing model keys: \['residual'\]"):
        model_from_dict(d)
