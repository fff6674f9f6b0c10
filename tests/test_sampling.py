"""Sensor-node selection from the sampled rows of K's rollouts.

Small hand-checkable operators (diagonal, cyclic shift, identity) pin the
bookkeeping; stochastic cases check the greedy loop's invariants against
brute-force rank computations.
"""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from koopnet import (
    ExperimentConfig,
    KoopmanModel,
    SamplingPlan,
    SelectionConfig,
    gamma_map,
    greedy_select,
    identity_spec,
    lift_jacobian,
    lift_trajectory,
    load_plan,
    log_spec,
    poly_spec,
    rollout,
    save_plan,
    sigma_quotient,
    take_samples,
    verify_rank,
)
from koopnet import sampling
from koopnet.koopman import fold
from koopnet.sampling import (_rows, operator_rows, pick_key,
                              plan_from_dict, plan_to_dict)


def _model(op, spec=None):
    op = np.asarray(op, dtype=float)
    return KoopmanModel(operator=op, spec=spec or identity_spec(op.shape[0]),
                        residual=0.0)


def _stack(op, tau):
    """The stack of powers of ``op``: the rollout of the identity."""
    model = _model(op)
    return rollout(model, np.eye(model.size), tau)


def _theta_j(model, tau, fill_value=0.5):
    """K**t J rolled out of the lift's Jacobian at ``fill_value`` on every
    node: the tau x M x n stack greedy selection scores."""
    spec = model.spec
    return rollout(model, lift_jacobian(spec, np.full(spec.n, fill_value)),
                   tau)


def selection_score(nodes, theta, spec):
    """Conditioning score of a node set: sigma_1/sigma_N of its sampled rows."""
    plan = gamma_map(nodes, spec, theta.shape[0])
    return sigma_quotient(_rows(theta, plan.observable_indices), spec.n)[0]


# =========================================================================
# gamma_map bookkeeping
# =========================================================================

def test_observable_set_collects_owned_entries():
    spec = log_spec(3, powers=(1, 2))           # M = 1 + 3*3 = 10
    plan = gamma_map([2], spec, tau=1)
    # the shared constant plus the three entries owned by node 2
    assert plan.observable_indices.size == 4
    assert 0 in plan.observable_indices         # constant belongs to any set
    for m in plan.observable_indices[1:]:
        assert spec.owners[int(m)] == (2,)


def test_full_node_set_reads_the_whole_dictionary():
    spec = log_spec(3, powers=(1, 2))
    plan = gamma_map([0, 1, 2], spec, tau=1)
    assert np.array_equal(plan.observable_indices, np.arange(spec.size))


def test_row_indices_are_time_major():
    # samples and stacked rows share one time-major order: with the lifted
    # state of tick t as column 0 of power t, the rows' first column reads
    # back exactly the samples, tick by tick
    spec = log_spec(3, powers=(1, 2))
    m = spec.size
    plan = gamma_map([2], spec, tau=2)
    assert plan.sample_count == 8                # two ticks of four entries
    obs = plan.observable_indices
    states = np.random.default_rng(0).uniform(1.0, 50.0, (3, 2))
    z = lift_trajectory(spec, states)
    powers = np.random.default_rng(1).normal(size=(2, m, m))
    powers[:, :, 0] = z.T
    rows = _rows(powers, obs)
    values = take_samples(states, plan).values
    assert np.array_equal(rows[:, 0], values)
    for t in range(2):
        assert np.array_equal(rows[4 * t:4 * (t + 1)], powers[t][obs])
        assert np.array_equal(values[4 * t:4 * (t + 1)], z[obs, t])


def test_gamma_map_validation():
    spec = log_spec(3)
    with pytest.raises(ValueError):
        gamma_map([0, 0], spec, tau=2)
    with pytest.raises(ValueError):
        gamma_map([3], spec, tau=2)
    with pytest.raises(ValueError):
        gamma_map([0], spec, tau=0)


def test_empty_node_set_keeps_only_the_constant():
    spec = log_spec(3)
    plan = gamma_map([], spec, tau=2)
    assert tuple(plan.observable_indices) == (0,)
    bare = gamma_map([], identity_spec(3), tau=2)
    assert bare.sample_count == 0                # no constant to fall back on


# =========================================================================
# Scores
# =========================================================================

def test_score_is_infinite_for_a_repeated_direction():
    # K = diag(1, 2): sampling node 0 sees rows e1, e1 -> sigma_2 = 0
    theta = _stack(np.diag([1.0, 2.0]), tau=2)
    spec = identity_spec(2)
    assert selection_score([0], theta, spec) == math.inf
    assert selection_score([0, 1], theta, spec) < math.inf


def test_cyclic_shift_gives_a_perfect_single_node_score():
    # one sensor on a 3-cycle reads e1, then e3, then e2: orthonormal rows
    shift = np.array([[0.0, 0.0, 1.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])
    theta = _stack(shift, tau=3)
    spec = identity_spec(3)
    assert selection_score([0], theta, spec) == pytest.approx(1.0)
    rows = _rows(theta, gamma_map([0], spec, 3).observable_indices)
    assert np.array_equal(rows, np.array([[1, 0, 0],
                                          [0, 0, 1],
                                          [0, 1, 0]], dtype=float))


def test_sigma_quotient_edges():
    quot, sk, rank, log_volume = sigma_quotient(np.array([[3.0, 0.0],
                                                          [0.0, 1.0]]), 2)
    assert quot == pytest.approx(3.0)
    assert sk == pytest.approx(1.0)
    assert rank == 2 and log_volume == pytest.approx(math.log(3.0))
    # too few rows: rank 1, the one singular value's log
    assert sigma_quotient(np.ones((1, 2)), 2) == \
        (math.inf, 0.0, 1, pytest.approx(math.log(math.sqrt(2.0))))
    assert sigma_quotient(np.zeros((3, 2)), 2) == (math.inf, 0.0, 0, 0.0)
    assert sigma_quotient(np.empty((0, 2)), 2) == (math.inf, 0.0, 0, 0.0)
    # rank-deficient square matrix
    assert sigma_quotient(np.ones((2, 2)), 2)[:3] == (math.inf, 0.0, 1)
    # a NaN entry makes the SVD raise
    with pytest.raises(np.linalg.LinAlgError):
        sigma_quotient(np.array([[1.0, np.nan], [0.0, 1.0]]), 2)


def test_score_is_at_least_one_when_finite():
    rng = np.random.default_rng(0)
    spec = identity_spec(4)
    for _ in range(10):
        theta = _stack(rng.normal(size=(4, 4)), tau=3)
        score = selection_score([0, 1, 2, 3], theta, spec)
        if math.isfinite(score):
            assert score >= 1.0


# =========================================================================
# Greedy selection
# =========================================================================

def test_greedy_stops_at_one_node_on_the_cycle():
    shift = np.array([[0.0, 0.0, 1.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])
    theta = _stack(shift, tau=3)
    spec = identity_spec(3)
    plan = greedy_select(theta, spec, SelectionConfig(gamma=1.01))
    assert plan.nodes == (0,)
    assert plan.score == pytest.approx(1.0)
    assert not plan.rank_deficient
    assert verify_rank(plan, _model(shift), 0.5)


def test_greedy_needs_every_node_when_dynamics_are_static():
    # K = I repeats each node's row at every tick; nothing is inferable
    # about unsampled nodes, so the budget must reach N
    theta = _stack(np.eye(4), tau=2)
    spec = identity_spec(4)
    plan = greedy_select(theta, spec, SelectionConfig(gamma=1e6))
    assert len(plan.nodes) == 4
    assert plan.score == pytest.approx(1.0)
    assert plan.score_trace[:3] == (math.inf, math.inf, math.inf)


def test_greedy_respects_the_node_budget():
    theta = _stack(np.eye(4), tau=2)
    spec = identity_spec(4)
    plan = greedy_select(theta, spec, SelectionConfig(gamma=1e6, max_nodes=1))
    assert len(plan.nodes) == 1
    assert plan.rank_deficient
    assert not verify_rank(plan, _model(np.eye(4)), 0.5)


def test_greedy_is_deterministic():
    rng = np.random.default_rng(1)
    op = rng.normal(size=(6, 6)) * 0.5
    theta = _stack(op, tau=4)
    spec = identity_spec(6)
    a = greedy_select(theta, spec, SelectionConfig(gamma=None, max_nodes=3))
    b = greedy_select(theta, spec, SelectionConfig(gamma=None, max_nodes=3))
    assert a.nodes == b.nodes
    assert a.score == b.score
    assert a.score_trace == b.score_trace


def test_greedy_trace_tracks_the_running_score():
    rng = np.random.default_rng(2)
    op = rng.normal(size=(5, 5)) * 0.5
    theta = _stack(op, tau=3)
    spec = identity_spec(5)
    plan = greedy_select(theta, spec, SelectionConfig(gamma=None))
    assert len(plan.score_trace) == len(plan.nodes)
    # each prefix of the selection reproduces its trace entry
    for k in range(1, len(plan.nodes) + 1):
        prefix_score = selection_score(plan.nodes[:k], theta, spec)
        trace = plan.score_trace[k - 1]
        if math.isfinite(trace):
            assert prefix_score == pytest.approx(trace, rel=1e-9)
        else:
            assert prefix_score == math.inf


@pytest.mark.parametrize("gamma", [None, 5.0])
def test_smaller_budgets_select_prefixes_of_the_largest(gamma):
    # the budget (and gamma) only stop the loop, never change a pick, so the
    # sampling sweep runs one selection per trial and slices it per rate
    rng = np.random.default_rng(6)
    n = 6
    spec = identity_spec(n)
    stopped_early = False
    for _ in range(4):
        theta = _stack(rng.normal(size=(n, n)) * 0.6, tau=3)
        full = greedy_select(theta, spec,
                             SelectionConfig(gamma=gamma, max_nodes=n))
        stopped_early |= len(full.nodes) < n
        for b in range(1, n + 1):
            plan = greedy_select(theta, spec,
                                 SelectionConfig(gamma=gamma, max_nodes=b))
            assert plan.nodes == full.nodes[:b]
            assert plan.score_trace == full.score_trace[:b]
    # a finite gamma must cut some run short, or it tests nothing extra
    assert stopped_early == (gamma is not None)


def _full_stack_greedy(theta, spec, gamma, budget, fill_value):
    """Reference greedy: score every candidate on its whole sampled row
    stack times the lift's Jacobian at ``fill_value`` on every node."""
    jac = lift_jacobian(spec, np.full(spec.n, fill_value))
    selected, trace = [], []
    while len(selected) < budget:
        best = None
        for cand in range(spec.n):
            if cand in selected:
                continue
            obs = gamma_map(selected + [cand], spec,
                            theta.shape[0]).observable_indices
            rows = _rows(theta, obs) @ jac
            score = sigma_quotient(rows, spec.n)
            if best is None or pick_key(score, cand) < best[0]:
                best = pick_key(score, cand), score[0]
        selected.append(best[0][-1])
        trace.append(best[1])
        if gamma is not None and best[1] <= gamma:
            break
    return tuple(selected), trace


# (spec, tau): each is short enough that a single node's rows are too few,
# so every trace starts infinite; poly's pair monomials enter the stack only
# once both owners are selected
@pytest.mark.parametrize("spec, tau", [(identity_spec(6), 3),
                                       (log_spec(10, powers=(1, 2)), 2),
                                       (poly_spec(10, max_power=1), 2)],
                         ids=["identity", "log", "poly"])
@pytest.mark.parametrize("finite_gamma", [False, True])
def test_greedy_matches_the_full_stack_reference(spec, tau, finite_gamma):
    # at the default reference state and at another one
    rng = np.random.default_rng(12)
    for fill_value in (0.5, 0.5, 0.5, 40.0):
        op = rng.normal(size=(spec.size, spec.size))
        op *= 0.9 / max(np.abs(np.linalg.eigvals(op)))
        model = KoopmanModel(operator=op, spec=spec, residual=0.0)
        theta = rollout(model, np.eye(spec.size), tau)
        nodes, trace = _full_stack_greedy(theta, spec, None, spec.n,
                                          fill_value)
        gamma = None
        if finite_gamma:
            # stop halfway down the finite part of the full run's trace
            finite = [s for s in trace if math.isfinite(s)]
            gamma = finite[len(finite) // 2] * (1.0 + 1e-6)
            nodes, trace = _full_stack_greedy(theta, spec, gamma, spec.n,
                                              fill_value)
            assert len(nodes) < spec.n
        plan = greedy_select(_theta_j(model, tau, fill_value), spec,
                             SelectionConfig(gamma=gamma))
        assert plan.nodes == nodes
        assert [math.isfinite(s) for s in plan.score_trace] == \
            [math.isfinite(s) for s in trace]
        assert not math.isfinite(trace[0]) and math.isfinite(trace[-1])
        for got, want in zip(plan.score_trace, trace):
            if math.isfinite(want):
                assert got == pytest.approx(want, rel=1e-8)


def test_the_reference_state_is_the_fill_value():
    # on the log dictionary the Jacobian, and so the score, depends on the
    # reference state; the identity dictionary's J = I does not
    spec = log_spec(6)
    rng = np.random.default_rng(9)
    op = rng.normal(size=(spec.size, spec.size))
    op *= 0.9 / max(np.abs(np.linalg.eigvals(op)))
    model = KoopmanModel(operator=op, spec=spec, residual=0.0)
    config = SelectionConfig(gamma=None)
    at_default = greedy_select(_theta_j(model, 4), spec, config)
    assert at_default.score_trace != \
        greedy_select(_theta_j(model, 4, 300.0), spec, config).score_trace
    model = _model(rng.normal(size=(6, 6)))
    assert np.array_equal(_theta_j(model, 3, 300.0), _stack(model.operator, 3))
    assert greedy_select(_theta_j(model, 3), identity_spec(6), config) == \
        greedy_select(_theta_j(model, 3, 300.0), identity_spec(6), config)


def _first_pick(rows_per_node):
    """Greedy's first pick on the identity dictionary (J = I), node v
    reading the rows ``rows_per_node[v]``, one per tick; and its score."""
    theta = np.transpose(np.array(rows_per_node, dtype=float), (1, 0, 2))
    plan = greedy_select(theta, identity_spec(theta.shape[2]),
                         SelectionConfig(gamma=None, max_nodes=1))
    return plan.nodes[0], plan.score


def test_higher_numerical_rank_beats_a_larger_sigma_n():
    # node 0 reads rank 1 (its sigma_3 of 1e-12 is below the floor) and
    # node 1 rank 2 with sigma_3 = 0: the rank decides, not sigma_N
    pick, score = _first_pick([np.diag([10.0, 1e-12, 1e-12]),
                               np.diag([1.0, 1e-3, 0.0]),
                               np.zeros((3, 3))])
    assert (pick, score) == (1, math.inf)


def test_at_equal_rank_the_larger_log_volume_wins():
    # both rank 2; node 1's singular values 4 and 0.5 span a larger volume
    # (log 2 against 0) though node 0's are better conditioned
    pick, _ = _first_pick([np.diag([1.0, 1.0, 0.0]),
                           np.diag([4.0, 0.5, 0.0]),
                           np.zeros((3, 3))])
    assert pick == 1


def test_at_an_equal_quotient_the_larger_sigma_n_wins():
    # both full rank with sigma_1 / sigma_3 = 1 exactly; node 1's rows are
    # twice node 0's
    assert _first_pick([np.eye(3), 2.0 * np.eye(3), np.zeros((3, 3))]) == \
        (1, 1.0)


def test_a_singular_value_below_the_floor_does_not_count():
    # node 0's sigma_3 / sigma_1 = 5e-9 is under SCORE_TOL = 1e-8, so its
    # rows count as rank 2, not as a finite score of 2e8, and node 1's
    # larger volume at rank 2 wins; at 2e-8 the score is finite and wins
    assert sampling.SCORE_TOL == 1e-8
    pick, score = _first_pick([np.diag([1.0, 1.0, 5e-9]),
                               np.diag([2.0, 2.0, 0.0]), np.zeros((3, 3))])
    assert (pick, score) == (1, math.inf)
    pick, score = _first_pick([np.diag([1.0, 1.0, 2e-8]),
                               np.diag([2.0, 2.0, 0.0]), np.zeros((3, 3))])
    assert (pick, score) == (0, pytest.approx(5e7))


def test_an_exact_tie_goes_to_the_lower_node():
    # nodes 2 and 3 read bit-identical rows, so they score bit for bit the
    # same: orthonormal over the ticks (score 1, every other node is worse),
    # or one repeated direction (rank 1, the best volume at rank 1)
    n = 6
    rng = np.random.default_rng(8)
    theta = rng.normal(size=(n, n, n))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    theta[:, 2, :] = q
    theta[:, 3, :] = q
    plan = greedy_select(theta, identity_spec(n), SelectionConfig(gamma=None))
    assert plan.nodes[0] == 2 and plan.score_trace[0] == pytest.approx(1.0)
    assert _first_pick([np.full((3, 3), 1.0), np.full((3, 3), 2.0),
                        np.full((3, 3), 2.0)]) == (1, math.inf)


class _CountedScores:
    """Stands in for ``koopnet.sampling.sigma_quotient`` and counts calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, matrix, k):
        self.calls += 1
        return sigma_quotient(matrix, k)


def test_every_candidate_is_scored_once_per_pick(monkeypatch):
    # one module-global sigma_quotient call per candidate and pick, the
    # matrix first: perfbench's tracer counts the scored rows from it
    counted = _CountedScores()
    monkeypatch.setattr("koopnet.sampling.sigma_quotient", counted)
    theta = _stack(np.random.default_rng(4).normal(size=(7, 7)), tau=2)
    plan = greedy_select(theta, identity_spec(7), SelectionConfig(gamma=None))
    assert len(plan.nodes) == 7
    assert counted.calls == sum(range(1, 8))


def _every_candidate_greedy(theta_j, spec, gamma, budget,
                            reverse_order=False):
    """Reference greedy: every candidate scored by SVD on the carried QR
    factor of its chosen rows of ``theta_j`` (K**t J) plus the rows it adds,
    found afresh from ``gamma_map``, with greedy_select's key; candidates
    are visited in ascending node order, or descending with
    ``reverse_order``."""
    tau = theta_j.shape[0]
    selected, trace = [], []
    obs = gamma_map([], spec, tau).observable_indices
    r_s = np.linalg.qr(np.take(theta_j, obs, axis=1).reshape(-1, spec.n),
                       mode="r")
    order = range(spec.n - 1, -1, -1) if reverse_order else range(spec.n)
    while len(selected) < budget:
        best = None
        for cand in order:
            if cand in selected:
                continue
            new = np.setdiff1d(gamma_map(selected + [cand], spec, tau)
                               .observable_indices, obs)
            rows = np.take(theta_j, new, axis=1).reshape(-1, spec.n)
            score = sigma_quotient(np.vstack([r_s, rows]), spec.n)
            if best is None or pick_key(score, cand) < best[0]:
                best = pick_key(score, cand), score[0], rows
        key, score, rows = best
        r_s = np.linalg.qr(np.vstack([r_s, rows]), mode="r")
        selected.append(key[-1])
        obs = gamma_map(selected, spec, tau).observable_indices
        trace.append(score)
        if gamma is not None and score <= gamma:
            break
    return tuple(selected), tuple(trace)


@pytest.mark.parametrize("spec, tau", [(identity_spec(6), 3),
                                       (identity_spec(8), 8),
                                       (log_spec(10, powers=(1, 2)), 2),
                                       (log_spec(8), 6),
                                       (poly_spec(10, max_power=1), 2),
                                       (poly_spec(5, max_power=2), 4)],
                         ids=["identity", "identity-long", "log", "log-long",
                              "poly", "poly2"])
@pytest.mark.parametrize("finite_gamma", [False, True])
@pytest.mark.parametrize("reverse_order", [False, True])
def test_pruned_greedy_is_bit_identical_to_scoring_every_candidate(
        spec, tau, finite_gamma, reverse_order, monkeypatch):
    # greedy prunes no candidate: it scores each one once per pick, and its
    # picks and every trace entry equal a reference that finds each
    # candidate's new rows afresh, bit for bit, in either visiting order
    rng = np.random.default_rng(30)
    counted = _CountedScores()
    monkeypatch.setattr("koopnet.sampling.sigma_quotient", counted)
    exhaustive = 0
    for _ in range(3):
        op = rng.normal(size=(spec.size, spec.size))
        op *= 0.9 / max(np.abs(np.linalg.eigvals(op)))
        theta_j = _theta_j(KoopmanModel(operator=op, spec=spec, residual=0.0),
                           tau)
        gamma = None
        nodes, trace = _every_candidate_greedy(theta_j, spec, None, spec.n,
                                               reverse_order)
        if finite_gamma:
            finite = [s for s in trace if math.isfinite(s)]
            gamma = finite[len(finite) // 2] * (1.0 + 1e-6)
            nodes, trace = _every_candidate_greedy(theta_j, spec, gamma,
                                                   spec.n, reverse_order)
        counted.calls = 0
        plan = greedy_select(theta_j, spec, SelectionConfig(gamma=gamma))
        assert plan.nodes == nodes
        assert plan.score_trace == trace
        assert counted.calls == sum(spec.n - k for k in range(len(nodes)))


def _stack_of_condition(cond, rows, n, size, rng):
    """A rows x size stack whose first n singular values fall geometrically
    from 1 to 1 / cond (the last is 0 at cond = inf) and whose others lie
    below the n-th, at a random scale; and those n singular values."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, size)))
    v, _ = np.linalg.qr(rng.normal(size=(size, size)))
    svals = np.geomspace(1.0, 1.0 / cond, n) if math.isfinite(cond) \
        else np.r_[np.ones(n - 1), 0.0]
    full = np.r_[svals, svals[-1] * rng.uniform(0, 1, size - n)]
    return (u * full) @ v.T * 10.0 ** rng.uniform(-3, 3), svals


@pytest.mark.parametrize("cond", [1.0, 3.0, 1e3, 1e6, 1e9, 1e11, 1e12,
                                  3e12, 1e13, 1e16, math.inf])
@pytest.mark.parametrize("rows", [8, 30])
def test_score_floor_bounds_the_computed_score(cond, rows):
    # a stack with sigma_1 / sigma_N = cond: under the SCORE_TOL floor the
    # score is that quotient at full rank; past it the score is +inf and
    # the rank counts the singular values above the floor, whatever the
    # stack's scale
    n, size = 5, 7
    rng = np.random.default_rng(rows)
    floor = sampling.SCORE_TOL
    for _ in range(20):
        a, svals = _stack_of_condition(cond, rows, n, size, rng)
        score, sigma_n, rank, log_volume = sigma_quotient(a, n)
        if cond <= 1e6:
            assert rank == n and score == pytest.approx(cond, rel=1e-6)
            assert sigma_n > 0.0
        else:
            assert (score, sigma_n) == (math.inf, 0.0)
            # a designed value within a factor 2 of the floor may fall
            # either side of it after rounding
            assert (svals > 2.0 * floor).sum() <= rank < n
            assert rank <= (svals > 0.5 * floor).sum()
        assert math.isfinite(log_volume)


@pytest.mark.parametrize("rows", [8, 30])
def test_no_finite_floor_exceeds_the_ceiling(rows):
    # no finite score exceeds 1 / SCORE_TOL: a stack conditioned past it
    # counts as rank-deficient, and the largest finite score nears it
    n, size = 5, 7
    rng = np.random.default_rng(rows)
    ceiling = 1.0 / sampling.SCORE_TOL
    for cond in (1.0, 1e3, 1e6, 5e7, 9e7, 1.2e8, 1e9, 1e12, 1e16):
        a, _ = _stack_of_condition(cond, rows, n, size, rng)
        score = sigma_quotient(a, n)[0]
        assert math.isfinite(score) == (cond < ceiling)
        assert score <= ceiling or score == math.inf
    a, _ = _stack_of_condition(9e7, rows, n, size, rng)
    assert sigma_quotient(a, n)[0] > 0.5 * ceiling


def _bio_n40_instance():
    """The n = 40 biochemical instance of config seed 0, trial 0: its
    config, dictionary, fitted model and largest budget (75%: 30 nodes)."""
    from koopnet.experiments import (ExperimentConfig, _budget, _trial_data,
                                     _trial_seeds)
    from koopnet.koopman import assemble_training, fit

    config = ExperimentConfig(seed=0, trials=1, dynamics="biochemical",
                              n_values=(40,), sampling_ticks=20, baselines=())
    seeds = _trial_seeds(config, 40, 0)
    _, train, _ = _trial_data(config, 40, seeds, 1, config.sampling_ticks)
    spec = log_spec(40, scale=config.scale, powers=config.log_powers)
    model = fit(assemble_training(train, spec))
    budget = _budget(max(config.sampling_rates), 40)
    assert budget == 30
    return config, spec, model, budget


def test_pruning_on_the_bio_n40_instance(monkeypatch):
    # with no pruning, all 765 candidates of the 30 picks are scored, and
    # picks and trace equal the every-candidate reference bit for bit
    config, spec, model, budget = _bio_n40_instance()
    assert config.optimizer().fill_value == 0.5
    theta_j = _theta_j(model, config.sampling_ticks)
    nodes, trace = _every_candidate_greedy(theta_j, spec, config.gamma, budget)
    assert len(nodes) == budget
    counted = _CountedScores()
    monkeypatch.setattr("koopnet.sampling.sigma_quotient", counted)
    plan = greedy_select(theta_j, spec, SelectionConfig(gamma=config.gamma,
                                                        max_nodes=budget))
    assert plan.nodes == nodes
    assert plan.score_trace == trace
    assert counted.calls == sum(40 - k for k in range(budget)) == 765


def test_bio_n40_picks_survive_a_rounding_level_change_of_k():
    # the n = 40 biochemical instance of config seed 0, trial 0, at the
    # largest budget (75%: 30 nodes): K times 1 + 1e-10 N(0, 1) entrywise,
    # three seeded draws, must leave the greedy order as it is
    config, spec, model, budget = _bio_n40_instance()
    select = SelectionConfig(gamma=config.gamma, max_nodes=budget)
    fill = config.optimizer().fill_value

    def order(operator):
        perturbed = dataclasses.replace(model, operator=operator)
        theta_j = _theta_j(perturbed, config.sampling_ticks, fill)
        return greedy_select(theta_j, spec, select).nodes

    base = order(model.operator)
    assert len(base) == budget
    for draw in range(3):
        noise = np.random.default_rng(draw).normal(size=model.operator.shape)
        assert order(model.operator * (1.0 + 1e-10 * noise)) == base


def test_greedy_scores_agree_with_the_rows_read_off_k():
    # the default biochemical config at n = 10, config seed 0, trial 0,
    # where K**t grows to about 1e4 while K**t J stays small: the sweep's
    # selection must score each prefix as the rows operator_rows reads off
    # K, times J, score; the powers formed first and multiplied by J after
    # read 129,706.5 for node 1, whose quotient is 134,669, and picked it
    from koopnet.experiments import _select, _trial_data, _trial_seeds
    from koopnet.koopman import assemble_training, fit

    n = 10
    config = ExperimentConfig(seed=0, trials=1, n_values=(n,))
    seeds = _trial_seeds(config, n, 0)
    _, train, _ = _trial_data(config, n, seeds, 1, config.sampling_ticks)
    spec = log_spec(n, scale=config.scale, powers=config.log_powers)
    model = fit(assemble_training(train, spec))
    plan = _select(model, config, n)
    jac = lift_jacobian(spec, np.full(n, config.optimizer().fill_value))
    assert len(plan.score_trace) == n
    for k in range(1, n + 1):
        prefix = gamma_map(plan.nodes[:k], spec, plan.tau)
        rows = np.vstack([rows @ jac for rows in operator_rows(prefix, model)])
        want = sigma_quotient(rows, n)[0]
        got = plan.score_trace[k - 1]
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-5)
        else:
            assert got == math.inf


def test_bio_n40_verify_rank_agrees_with_the_rank_flag_at_every_budget():
    # the instance where verify_rank once passed the budget-2 and -3 plans
    # that greedy flags rank_deficient
    config, spec, model, budget = _bio_n40_instance()
    fill = config.optimizer().fill_value
    plan = greedy_select(_theta_j(model, config.sampling_ticks, fill), spec,
                         SelectionConfig(gamma=None, max_nodes=budget))
    flags = []
    for k in range(1, budget + 1):
        prefix = dataclasses.replace(gamma_map(plan.nodes[:k], spec, plan.tau),
                                     score_trace=plan.score_trace[:k])
        flags.append(prefix.rank_deficient)
        assert verify_rank(prefix, model, fill) == \
            (not prefix.rank_deficient)
    assert flags[1] and flags[2] and not flags[-1]


def test_poly_verify_rank_agrees_with_the_rank_flag_at_every_prefix():
    # a fitted poly model (n = 8, M = 45, biochemical, config seed 0, trial
    # 0), selected as koopnet select selects on it, through every node; at
    # two ticks one node reads 2 x 3 rows, short of rank 8, so the flag is
    # raised on the first prefix and cleared by the last
    from koopnet.experiments import _select, _trial_data, _trial_seeds
    from koopnet.koopman import assemble_training, fit

    n = 8
    config = ExperimentConfig(seed=0, trials=1, n_values=(n,), gamma=None,
                              sampling_ticks=2, dictionary="poly",
                              baselines=())
    seeds = _trial_seeds(config, n, 0)
    _, train, _ = _trial_data(config, n, seeds, 1, config.sampling_ticks)
    model = fit(assemble_training(train, poly_spec(n)))
    fill = config.optimizer().fill_value
    plan = _select(model, config, n)
    flags = []
    for k in range(1, n + 1):
        prefix = dataclasses.replace(gamma_map(plan.nodes[:k], model.spec,
                                               plan.tau),
                                     score_trace=plan.score_trace[:k])
        flags.append(prefix.rank_deficient)
        assert verify_rank(prefix, model, fill) == \
            (not prefix.rank_deficient)
    assert flags[0] and not flags[-1]


def test_regulatory_verify_rank_agrees_with_the_rank_flag_at_every_prefix():
    # a fitted log model (n = 12, regulatory, config seed 0, trial 0, 40
    # training trajectories), selected as koopnet select selects on it,
    # through every node; greedy scores J at the config's fill, 50.0, where
    # one node is already full rank, and J at the biochemical midpoint 0.5,
    # once verify_rank's default, reads that first pick rank-deficient
    from koopnet.experiments import _select, _trial_data, _trial_seeds
    from koopnet.koopman import assemble_training, fit

    n = 12
    config = ExperimentConfig(seed=0, trials=1, n_values=(n,),
                              dynamics="regulatory", training_trajectories=40,
                              gamma=None, baselines=())
    seeds = _trial_seeds(config, n, 0)
    _, train, _ = _trial_data(config, n, seeds, 1, config.sampling_ticks)
    spec = log_spec(n, scale=config.scale, powers=config.log_powers)
    model = fit(assemble_training(train, spec))
    fill = config.optimizer().fill_value
    assert fill == 50.0
    plan = _select(model, config, n)
    assert len(plan.nodes) == n
    for k in range(1, n + 1):
        prefix = dataclasses.replace(gamma_map(plan.nodes[:k], spec, plan.tau),
                                     score_trace=plan.score_trace[:k])
        assert verify_rank(prefix, model, fill) == \
            (not prefix.rank_deficient)
    first = gamma_map(plan.nodes[:1], spec, plan.tau)
    assert verify_rank(first, model, fill)
    assert not verify_rank(first, model, 0.5)
    with pytest.raises(TypeError):
        verify_rank(plan, model)


@pytest.mark.parametrize("budget", [3, 6, 8])
def test_verify_rank_never_holds_the_stack_of_powers(budget):
    # verify_rank rolls out the lift's Jacobian (tau x M x n), not the
    # identity: its traced peak stays below one tau x M x M stack of powers
    spec = poly_spec(8, max_power=2)
    rng = np.random.default_rng(7)
    op = rng.normal(size=(spec.size, spec.size))
    op *= 0.9 / max(np.abs(np.linalg.eigvals(op)))
    model = KoopmanModel(operator=op, spec=spec, residual=0.0)
    plan = gamma_map(range(budget), spec, 20)
    stack_bytes = plan.tau * spec.size * spec.size * 8
    tracemalloc.start()
    try:
        full = verify_rank(plan, model, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert full
    assert peak < stack_bytes


def test_a_nan_in_the_stack_fails_in_the_svd():
    # rejected at entry, before any eigensolve or SVD sees it
    theta = np.random.default_rng(0).normal(size=(6, 6, 6))
    theta[2, 3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        greedy_select(theta, identity_spec(6), SelectionConfig(gamma=None))


# NaN at [2, 3, 1] is the test above
@pytest.mark.parametrize("where,value", [
    pytest.param((5, 5, 5), np.inf, id="inf-at-5-5-5"),
    pytest.param((5, 5, 5), -np.inf, id="-inf-at-5-5-5"),
    pytest.param((5, 5, 5), np.nan, id="nan-at-5-5-5"),
    pytest.param((2, 3, 1), np.inf, id="inf-at-2-3-1"),
    pytest.param((2, 3, 1), -np.inf, id="-inf-at-2-3-1"),
])
def test_a_non_finite_stack_is_rejected(where, value):
    # the SVD of a stack holding inf returns NaN singular values without
    # raising, so such a stack would otherwise end score_trace in NaN
    theta = np.random.default_rng(0).normal(size=(6, 6, 6))
    theta[where] = value
    with pytest.raises(ValueError, match="non-finite"):
        greedy_select(theta, identity_spec(6), SelectionConfig(gamma=None))


@pytest.mark.parametrize("spec, shape", [
    pytest.param(log_spec(4), (3, 13, 13), id="log-stack-of-powers"),
    pytest.param(poly_spec(3, max_power=2), (3, 10, 10),
                 id="poly-stack-of-powers"),
    pytest.param(log_spec(4), (3, 4, 13), id="log-transposed"),
    pytest.param(identity_spec(4), (3, 4, 5), id="identity-wrong-n"),
    pytest.param(identity_spec(4), (12, 4), id="identity-flattened"),
])
def test_a_stack_of_another_shape_is_rejected(spec, shape):
    # greedy takes K**t J, tau x M x n; the stack of powers (tau x M x M) of
    # a log or poly model fails loudly instead of being scored as if it were
    # the product, and the message names both shapes
    theta = np.random.default_rng(0).normal(size=shape)
    need = (shape[0], spec.size, spec.n)
    with pytest.raises(ValueError) as info:
        greedy_select(theta, spec, SelectionConfig(gamma=None))
    assert f"shape {shape};" in str(info.value)
    assert str(info.value).endswith(f"needs {need}")


def test_sigma_n_never_drops_as_nodes_are_added():
    rng = np.random.default_rng(3)
    op = rng.normal(size=(5, 5)) * 0.6
    theta = _stack(op, tau=3)
    spec = identity_spec(5)
    plan = greedy_select(theta, spec, SelectionConfig(gamma=None))
    last = 0.0
    for k in range(1, len(plan.nodes) + 1):
        rows = _rows(theta, gamma_map(plan.nodes[:k], spec,
                                      3).observable_indices)
        svals = np.linalg.svd(rows, compute_uv=False)
        sigma_n = svals[spec.n - 1] if svals.size >= spec.n else 0.0
        assert sigma_n >= last - 1e-12   # adding rows cannot shrink sigma_N
        last = sigma_n


def test_greedy_sets_are_rank_feasible_small_n():
    # brute force at N <= 4: whenever the greedy set is flagged feasible,
    # an independent rank computation agrees; and if any set of the same
    # size is feasible, greedy's set is too
    rng = np.random.default_rng(4)
    for n, tau in ((3, 3), (4, 3), (4, 4)):
        spec = identity_spec(n)
        for _ in range(5):
            op = rng.normal(size=(n, n))
            theta = _stack(op, tau)
            plan = greedy_select(theta, spec, SelectionConfig(gamma=1e6))
            rows = _rows(theta, plan.observable_indices)
            feasible = np.linalg.matrix_rank(rows, tol=1e-10) == n
            assert verify_rank(plan, _model(op), 0.5) == feasible
            k = len(plan.nodes)
            any_feasible = any(
                np.linalg.matrix_rank(
                    _rows(theta, gamma_map(list(combo), spec,
                                           tau).observable_indices),
                    tol=1e-10) == n
                for combo in itertools.combinations(range(n), k))
            if any_feasible:
                assert feasible


def test_verify_rank_matches_score_finiteness():
    rng = np.random.default_rng(5)
    spec = identity_spec(4)
    for _ in range(10):
        model = _model(rng.normal(size=(4, 4)))
        theta = _stack(model.operator, 3)
        nodes = sorted(rng.choice(4, size=rng.integers(1, 5), replace=False))
        plan = gamma_map([int(v) for v in nodes], spec, 3)
        finite = math.isfinite(selection_score(plan.nodes, theta, spec))
        assert verify_rank(plan, model, 0.5) == finite


def test_verify_rank_rejects_an_empty_plan():
    plan = gamma_map([], identity_spec(3), 2)
    assert not verify_rank(plan, _model(np.eye(3)), 0.5)


def test_verify_rank_reads_the_jacobian_stack_not_the_lifted_rows():
    # with K = I, node 0's lifted rows (the constant and its own entries)
    # have rank 4 >= n = 2, but every one of them reads node 0 alone, so
    # Theta_S J has rank 1 and node 1's state is not determined
    spec = log_spec(2)
    model = _model(np.eye(spec.size), spec)
    theta = rollout(model, np.eye(spec.size), 3)
    plan = greedy_select(_theta_j(model, 3), spec,
                         SelectionConfig(gamma=None, max_nodes=1))
    assert plan.rank_deficient
    assert np.linalg.matrix_rank(_rows(theta, plan.observable_indices)) >= \
        spec.n
    assert not verify_rank(plan, model, 0.5)


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(gamma=0.5)
    with pytest.raises(ValueError):
        SelectionConfig(max_nodes=0)
    assert SelectionConfig(gamma=None).gamma is None


# =========================================================================
# Serialization
# =========================================================================

def test_plan_json_round_trip():
    spec = log_spec(4)
    plan = gamma_map([1, 3], spec, tau=5)
    d = plan_to_dict(plan)
    assert list(d) == ["nodes", "spec", "tau", "score_trace"]
    back = plan_from_dict(d)
    assert back == plan and back.spec == spec
    assert np.array_equal(back.observable_indices, plan.observable_indices)
    assert back.score == plan.score == math.inf   # no pick, no finite score


def test_plan_file_round_trip(tmp_path):
    theta = _stack(np.diag([0.9, 0.5, 0.3]), tau=3)
    spec = identity_spec(3)
    plan = greedy_select(theta, spec, SelectionConfig(gamma=None))
    path = save_plan(plan, tmp_path / "plan.json")
    back = load_plan(path)
    assert back.nodes == plan.nodes
    assert back.score == pytest.approx(plan.score)
    assert back.score_trace == pytest.approx(plan.score_trace)
    assert back.rank_deficient == plan.rank_deficient


def test_an_infinite_score_survives_the_file_as_null():
    theta = _stack(np.diag([1.0, 2.0]), tau=2)    # one node never suffices
    plan = greedy_select(theta, identity_spec(2),
                         SelectionConfig(gamma=None, max_nodes=1))
    assert plan.score_trace == (math.inf,) and plan.rank_deficient
    d = plan_to_dict(plan)
    assert d["score_trace"] == [None]
    assert plan_from_dict(d) == plan


def test_plan_file_without_dictionary_size_is_rejected():
    # a plan file written before plans knew their dictionary at all
    d = {"nodes": [1, 3], "observable_indices": [0, 4, 5, 6, 10, 11, 12],
         "tau": 4, "score": None, "rank_deficient": True, "score_trace": []}
    with pytest.raises(ValueError, match=r"\['spec'\]; re-run koopnet select"):
        plan_from_dict(d)


def test_plan_file_with_dictionary_size_but_no_spec_is_rejected():
    # the layout that stored the dictionary by its size alone
    d = json.loads(
        '{"nodes": [1, 3], "observable_indices": [0, 4, 5, 6, 10, 11, 12], '
        '"dictionary_size": 13, "tau": 4, "score": 2.5, '
        '"rank_deficient": false, "score_trace": [null, 2.5]}')
    with pytest.raises(ValueError) as info:
        plan_from_dict(d)
    assert str(info.value) == ("missing plan keys: ['spec']; "
                               "re-run koopnet select")


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "a plan must be a JSON object, got list; re-run koopnet select"),
    ({"nodes": [0], "tau": 2}, "missing plan keys: ['spec', 'score_trace']"),
])
def test_plan_file_that_is_not_a_plan_is_rejected(payload, message):
    with pytest.raises(ValueError) as info:
        plan_from_dict(payload)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("nodes, message", [
    ([0, 99, 99], "duplicate nodes"),
    ([0, 99], "node 99 outside 0..3"),
    ([-1], "node -1 outside 0..3"),
])
def test_plan_file_with_bad_nodes_fails_at_load(nodes, message):
    d = plan_to_dict(gamma_map([0, 1], log_spec(4), tau=4))
    d["nodes"] = nodes
    with pytest.raises(ValueError, match=message):
        plan_from_dict(d)


@pytest.mark.parametrize("field, value, message", [
    ("nodes", [1.7, 0.2], "nodes: 1.7 is not an integer"),
    ("nodes", [True], "nodes: True is not an integer"),
    ("tau", 2.9, "tau: 2.9 is not an integer"),
    ("score_trace", ["3.5"], "score_trace: '3.5' is not a real number"),
    # these two once raised a bare TypeError
    ("nodes", 2, "nodes: 2 is not a list"),
    ("score_trace", 5, "score_trace: 5 is not a list"),
])
def test_plan_file_with_non_integers_fails_at_load(field, value, message):
    # nodes [1.7, 0.2] once loaded as (1, 0) and tau 2.9 as 2
    d = plan_to_dict(gamma_map([0, 1], log_spec(4), tau=4))
    d[field] = value
    with pytest.raises(ValueError) as info:
        plan_from_dict(d)
    assert str(info.value) == message


@pytest.mark.parametrize("trace, message", [
    ([5.0, 3.0, 2.0, 1.0], "score_trace: 4 scores for 2 nodes"),
    ([None], "score_trace: 1 scores for 2 nodes"),
    ([None, 0.5], "score_trace: a score below 1"),
], ids=["longer-than-nodes", "shorter-than-nodes", "below-one"])
def test_plan_file_with_an_impossible_score_trace_fails_at_load(trace, message):
    # [5, 3, 2, 1] once loaded on two nodes, its score 1.0 from a pick that
    # never happened; no sigma_1/sigma_n quotient is below 1
    d = plan_to_dict(gamma_map([0, 1], log_spec(4), tau=4))
    d["score_trace"] = trace
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        plan_from_dict(d)
    d["score_trace"] = [None, 2.5]
    assert plan_from_dict(d).score_trace == (math.inf, 2.5)


# Each field of a plan file replaced by each kind it must not hold; a
# ``null`` score is an infinite one, so only a non-finite number is wrong.
PLAN_WRONG_KINDS = (
    [("nodes", v) for v in (2, "01", True, None, [1.5], [None], [[0]])]
    + [("tau", v) for v in ([4], "4", True, None, 4.5)]
    + [("score_trace", v) for v in (2.5, "2.5", True, None, ["2.5"], [True],
                                    [math.nan], [math.inf], [[2.5]])])


@pytest.mark.parametrize("field, value", PLAN_WRONG_KINDS)
def test_plan_file_names_the_field_of_each_wrong_kind(field, value):
    d = plan_to_dict(gamma_map([0, 1], log_spec(4), tau=4))
    d[field] = value
    with pytest.raises(ValueError, match=f"^{field}: "):
        plan_from_dict(d)


@pytest.mark.parametrize("value, type_name", [
    (5, "int"), ([1], "list"), ("log", "str"), (True, "bool"),
    (None, "NoneType")])
def test_plan_file_leaves_its_dictionary_to_the_dictionary_check(value,
                                                                 type_name):
    d = plan_to_dict(gamma_map([0, 1], log_spec(4), tau=4))
    d["spec"] = value
    with pytest.raises(ValueError) as info:
        plan_from_dict(d)
    assert str(info.value) == ("a dictionary must be a JSON object, "
                               f"got {type_name}")


def test_plan_file_takes_numpy_integers():
    plan = gamma_map([2, 0], log_spec(4), tau=4)
    d = {**plan_to_dict(plan), "nodes": [np.int64(2), np.int32(0)],
         "tau": np.int64(4)}
    back = plan_from_dict(d)
    assert back == plan
    assert all(type(v) is int for v in back.nodes) and type(back.tau) is int


def test_plan_file_with_a_bad_dictionary_fails_at_load():
    d = plan_to_dict(gamma_map([0, 1], log_spec(4), tau=4))
    del d["spec"]["scale"]
    with pytest.raises(ValueError, match=r"missing dictionary keys: \['scale'\]"):
        plan_from_dict(d)


def _reference_observable_indices(nodes, spec):
    """The dictionary rows a node set reads, as ``gamma_map`` computed and
    stored them before plans derived them."""
    node_set = set(int(v) for v in nodes)
    return np.array([m for m, owners in enumerate(spec.owners)
                     if set(owners) <= node_set], dtype=int)


@pytest.mark.parametrize("spec", [
    log_spec(1), log_spec(4, powers=(1, 2)), log_spec(7, powers=(1, 2, 3)),
    poly_spec(1, max_power=2), poly_spec(3, max_power=2),
    poly_spec(5, max_power=3), identity_spec(1), identity_spec(6)],
    ids=lambda s: f"{s.kind}-n{s.n}")
def test_derived_observable_indices_match_the_reference(spec):
    rng = np.random.default_rng(spec.size)
    node_sets = [[], list(range(spec.n)), list(range(spec.n))[::-1]]
    node_sets += [list(rng.permutation(spec.n)[:k]) for k in
                  range(1, spec.n + 1)]
    for nodes in node_sets:
        plan = gamma_map(nodes, spec, tau=3)
        expected = _reference_observable_indices(nodes, spec)
        assert plan.observable_indices.dtype == expected.dtype
        assert np.array_equal(plan.observable_indices, expected), nodes
        # and the same after the plan has been to a file and back
        back = plan_from_dict(plan_to_dict(plan))
        assert np.array_equal(back.observable_indices, expected), nodes


def test_a_plan_is_its_four_fields():
    assert [f.name for f in dataclasses.fields(SamplingPlan)] == [
        "nodes", "spec", "tau", "score_trace"]
    plan = gamma_map([2, 0], log_spec(3), tau=2)
    assert plan.score_trace == () and plan.score == math.inf
    assert plan.rank_deficient
    picked = dataclasses.replace(plan, score_trace=(math.inf, 7.5))
    assert picked.score == 7.5 and not picked.rank_deficient


def test_check_dictionary_compares_whole_specs():
    plan = gamma_map([0, 1], log_spec(4, scale=500.0), tau=2)
    plan.check_dictionary(log_spec(4, scale=500.0))   # an equal spec passes
    for other, named in [(log_spec(4, scale=400.0), "log dictionary of size 13"),
                         (identity_spec(13), "identity dictionary of size 13"),
                         (log_spec(5), "log dictionary of size 16")]:
        with pytest.raises(ValueError) as info:
            plan.check_dictionary(other)
        assert str(info.value) == ("plan was selected on the log dictionary of "
                                   "size 13 and is read with another, the "
                                   + named)


def test_verify_rank_rejects_a_plan_of_another_dictionary():
    # an identity plan of size 4 beside a log model of the same size, whose
    # stack of powers it would read in the wrong rows
    plan = gamma_map([0, 1, 2, 3], identity_spec(4), tau=2)
    assert verify_rank(plan, _model(np.eye(4)), 0.5)
    with pytest.raises(ValueError, match="log dictionary of size 4"):
        verify_rank(plan, _model(np.eye(4), log_spec(1)), 0.5)


def test_greedy_rejects_the_stack_of_another_dictionary():
    # the log spec (n = 6, M = 19) on a poly model's stack of powers
    # (n = 6, M = 85)
    pspec = poly_spec(6, max_power=2)
    rng = np.random.default_rng(3)
    model = KoopmanModel(operator=rng.normal(size=(pspec.size,) * 2) * 0.1,
                         spec=pspec, residual=0.0)
    theta = rollout(model, np.eye(pspec.size), 3)
    with pytest.raises(ValueError, match=r"\(3, 85, 85\).*\(3, 19, 6\)"):
        greedy_select(theta, log_spec(6), SelectionConfig(gamma=None,
                                                          max_nodes=3))


@pytest.mark.parametrize("spec", [identity_spec(5), log_spec(4, powers=(1, 2)),
                                  poly_spec(3, max_power=2)])
@pytest.mark.parametrize("nodes, tau", [([], 3), ([0], 1), ([0, 2], 6),
                                        ([2, 1, 0], 9)])
def test_operator_rows_match_the_stack_rows(spec, nodes, tau):
    rng = np.random.default_rng(len(nodes) + tau)
    op = rng.normal(size=(spec.size, spec.size))
    op *= 0.95 / max(np.abs(np.linalg.eigvals(op)))
    model = KoopmanModel(operator=op, spec=spec, residual=0.0)
    plan = gamma_map(nodes, spec, tau)
    ticks = list(operator_rows(plan, model))
    assert len(ticks) == tau
    assert all(block.shape == (plan.observable_indices.size, spec.size)
               for block in ticks)
    rows = np.vstack(ticks)
    reference = _rows(rollout(model, np.eye(spec.size), tau),
                      plan.observable_indices)
    assert rows.shape == reference.shape == (plan.sample_count, spec.size)
    # tick 0 reads the identity rows exactly
    assert np.array_equal(rows[:plan.observable_indices.size],
                          reference[:plan.observable_indices.size])
    # K K**(t-1) and K**(t-1) K round differently; entries far below the
    # largest are compared at the largest entry's scale
    np.testing.assert_allclose(rows, reference, rtol=1e-12,
                               atol=1e-12 * np.abs(reference).max(initial=0.0))


def test_operator_rows_reject_a_plan_of_another_dictionary():
    log_plan = gamma_map([0, 2, 4], log_spec(6), tau=3)
    pspec = poly_spec(6, max_power=2)
    model = KoopmanModel(operator=np.eye(pspec.size), spec=pspec, residual=0.0)
    with pytest.raises(ValueError, match="size 19.*85"):
        next(operator_rows(log_plan, model))


# =========================================================================
# The sampled least-squares factor
# =========================================================================

@pytest.mark.parametrize("rows", [60, 8])   # M = 13: past 3M + 1, short of M
def test_one_block_is_factored_as_it_stands(rows):
    # every row as one block, no fold
    rng = np.random.default_rng(rows)
    m = log_spec(4).size
    a = rng.normal(size=(rows, m))
    y = rng.normal(size=rows)
    r = np.linalg.qr(np.column_stack([a, y]), mode="r")
    r_a, r_y = fold([(a, y)])
    assert r_a.shape == (min(rows, m + 1), m)
    assert np.array_equal(r_a, r[:, :m]) and np.array_equal(r_y, r[:, m])


def test_a_block_passed_in_an_iterator_is_freed_before_the_final_qr():
    # a block's rows must not outlive their copy in the buffer:
    # freed, the peak is the buffer plus the final QR's copy of it; held,
    # the rows add a third array of that size
    rng = np.random.default_rng(0)
    rows, m = 4000, 60
    y = rng.normal(size=rows)
    tracemalloc.start()
    try:
        fold(iter([(rng.normal(size=(rows, m)), y)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rows * (m + 1) * 8


def _reference_fold(plan, model, values):
    """The baseline's fold loop as it ran before the shared ``fold``: 3M + 1
    buffer rows, folded whenever the next tick would not fit."""
    m, k = model.size, plan.observable_indices.size
    block = np.empty((m + 1 + 2 * m, m + 1))
    filled = 0
    for t, rows in enumerate(operator_rows(plan, model)):
        if filled + k > block.shape[0]:
            r = np.linalg.qr(block[:filled], mode="r")
            filled = r.shape[0]
            block[:filled] = r
        block[filled:filled + k, :m] = rows
        block[filled:filled + k, m] = values[t * k:(t + 1) * k]
        filled += k
    r = np.linalg.qr(block[:filled], mode="r")
    return r[:, :m], r[:, m]


# the plans of test_baselines' fold cases: wide and rank-deficient (no fold
# before the last), tall (folded several times), the identity dictionary
_FOLD_CASES = {
    "wide": (poly_spec(5, max_power=2), [1, 3], 3),
    "tall": (poly_spec(8, max_power=2), list(range(8)), 20),
    "identity": (identity_spec(6), [0, 2, 5], 9),
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
def test_tick_blocks_keep_the_reference_fold_bytes(case):
    spec, nodes, tau = _FOLD_CASES[case]
    rng = np.random.default_rng(7)
    op = rng.normal(size=(spec.size, spec.size))
    op *= 0.9 / max(np.abs(np.linalg.eigvals(op)))
    model = KoopmanModel(operator=op, spec=spec, residual=0.0)
    plan = gamma_map(nodes, spec, tau)
    values = rng.normal(size=plan.sample_count)
    if case == "tall":
        assert plan.sample_count > 3 * (3 * spec.size + 1)
    r_a, r_y = fold(zip(operator_rows(plan, model),
                        values.reshape(plan.tau, -1)))
    ref_a, ref_y = _reference_fold(plan, model, values)
    assert np.array_equal(r_a, ref_a) and np.array_equal(r_y, ref_y)


# block lengths: one block; many, folded; a later block longer than both
# the first and 2M, which the buffer must grow for
@pytest.mark.parametrize("lengths", [[40], [7] * 30, [3, 5, 50, 4]],
                         ids=["one", "folded", "longer-later"])
@pytest.mark.parametrize("columns", [1, 4])
def test_a_block_of_right_hand_columns_gives_the_stacked_r(lengths, columns):
    # the refit's use: A = X.T and the right-hand block Y.T, folded block by
    # block; R matches the QR of the stacked [A | B] up to the signs of rows
    rng = np.random.default_rng(sum(lengths) + columns)
    m = 6
    blocks = [rng.normal(size=(k, m)) for k in lengths]
    rhs = rng.normal(size=(sum(lengths), columns))
    r_a, r_b = fold(zip(blocks, np.split(rhs, np.cumsum(lengths)[:-1])))
    assert r_a.shape == r_b.shape[:1] + (m,) and r_b.shape[1] == columns
    ref = np.linalg.qr(np.hstack([np.vstack(blocks), rhs]), mode="r")
    got = np.hstack([r_a, r_b])
    assert got.shape == ref.shape
    signs = np.sign(np.diag(got)) * np.sign(np.diag(ref))
    np.testing.assert_allclose(got * signs[:, None], ref, rtol=0, atol=1e-12)
