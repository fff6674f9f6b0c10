"""Network topology and ODE integration.

Covers Erdos-Renyi graph generation, the two dynamics families (mass-action
consumption and saturating activation), RK4 integration accuracy, divergence
guards, and the CSV round trip.
"""

import math

import numpy as np
import pytest

from koopnet import (
    DynamicsParams,
    Graph,
    Trajectory,
    default_initial_range,
    generate_er_graph,
    random_initial_states,
    simulate_ensemble,
    trajectory_from_csv,
    trajectory_to_csv,
)
from koopnet import dynamics
from koopnet.dynamics import _rhs

BIOCHEMICAL = DynamicsParams(kind="biochemical", flow_in=10.0)


# =========================================================================
# Graph generation
# =========================================================================

def test_er_graph_p_zero_has_no_edges():
    g = generate_er_graph(8, 0.0, seed=1)
    assert g.edge_count == 0
    assert np.all(g.adjacency == 0)


def test_er_graph_p_one_is_complete():
    g = generate_er_graph(3, 1.0, seed=1)
    assert g.edge_count == 3  # C(3, 2)
    assert np.array_equal(g.adjacency, np.ones((3, 3)) - np.eye(3))


def test_er_graph_is_symmetric_without_self_loops():
    g = generate_er_graph(40, 0.3, seed=7)
    a = g.adjacency
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert set(np.unique(a)) <= {0.0, 1.0}


def test_er_graph_edge_count_statistics():
    # n=100, p=0.5: mean C(100,2)/2 = 2475, sd = sqrt(4950 * 0.25) ~ 35.2.
    # Every draw from a handful of fixed seeds should land within 4 sd.
    mean = 4950 * 0.5
    sd = math.sqrt(4950 * 0.25)
    counts = [generate_er_graph(100, 0.5, seed=s).edge_count
              for s in range(20)]
    for c in counts:
        assert abs(c - mean) < 4.0 * sd
    # and the seeds should not all agree (the sampler is actually random)
    assert len(set(counts)) > 1


def test_er_graph_seeded_determinism():
    a = generate_er_graph(25, 0.4, seed=11).adjacency
    b = generate_er_graph(25, 0.4, seed=11).adjacency
    c = generate_er_graph(25, 0.4, seed=12).adjacency
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_er_graph_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_er_graph(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        generate_er_graph(0, 0.5, seed=0)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, np.eye(3))        # self loops
    with pytest.raises(ValueError):
        Graph(3, np.triu(np.ones((3, 3)), 1))  # not symmetric
    bad = np.zeros((3, 3))
    bad[0, 1] = bad[1, 0] = 0.5
    with pytest.raises(ValueError):
        Graph(3, bad)              # weights are not allowed


# =========================================================================
# Vector fields
# =========================================================================

def _isolated(n):
    return Graph(n, np.zeros((n, n)))


def _complete(n):
    return Graph(n, np.ones((n, n)) - np.eye(n))


def test_consumption_rate_at_origin():
    # x = 0 kills both the decay and the pairwise term, leaving the inflow
    params = BIOCHEMICAL
    rate = _rhs(np.zeros(4), _complete(4), params)
    assert np.allclose(rate, 10.0)


def test_consumption_rate_two_connected_units():
    params = BIOCHEMICAL
    rate = _rhs(np.ones(2), _complete(2), params)
    # 10 - 1*1 - 1*1*(neighbor sum 1) = 8 for both nodes
    assert np.allclose(rate, 8.0)


def test_consumption_fixed_point_isolated_node():
    params = BIOCHEMICAL
    g = _isolated(1)
    assert _rhs(np.array([10.0]), g, params) == pytest.approx(0.0)
    (traj,) = simulate_ensemble(g, params, np.array([[10.0]]), 30)
    assert np.allclose(traj.states, 10.0, atol=1e-9)


def test_activation_rate_isolated_node():
    params = DynamicsParams(kind="regulatory")
    rate = _rhs(np.array([5.0]), _isolated(1), params)
    assert rate[0] == pytest.approx(-5.0)


def test_activation_isolated_node_matches_exponential_decay():
    params = DynamicsParams(kind="regulatory")
    c = 7.3
    (traj,) = simulate_ensemble(_isolated(1), params, np.array([[c]]), 40)
    t = 0.1 * np.arange(40)  # RK4_STEP * STEPS_PER_TICK per tick
    expected = c * np.exp(-t)
    assert np.allclose(traj.states[0], expected, rtol=1e-6)


# =========================================================================
# Integration accuracy
# =========================================================================

def _simulate_at_step(monkeypatch, graph, x1, num_steps, h, steps):
    """Simulate the biochemical dynamics at RK4 step ``h`` and ``steps``
    steps per tick."""
    monkeypatch.setattr(dynamics, "RK4_STEP", h)
    monkeypatch.setattr(dynamics, "STEPS_PER_TICK", steps)
    return simulate_ensemble(graph, BIOCHEMICAL, x1, num_steps)[0].states


def test_rk4_matches_fine_reference(monkeypatch):
    g = _complete(2)
    x1 = np.array([[0.3], [0.8]])
    a = simulate_ensemble(g, BIOCHEMICAL, x1, 11)[0].states      # step 0.01
    b = _simulate_at_step(monkeypatch, g, x1, 11, 0.001, 100)
    assert np.allclose(a, b, rtol=1e-5)


def test_rk4_fourth_order_error_decay(monkeypatch):
    # halving the step must shrink the endpoint error by at least 2^3 (it is
    # a fourth-order scheme, so ~16x is typical)
    g = _complete(3)
    x1 = np.array([[0.2], [0.5], [0.9]])
    ref = _simulate_at_step(monkeypatch, g, x1, 6, 0.0005, 200)
    err = {h: np.abs(_simulate_at_step(monkeypatch, g, x1, 6, h, steps)
                     - ref).max()
           for h, steps in ((0.02, 5), (0.01, 10))}
    assert err[0.02] / err[0.01] > 8.0


def test_consumption_states_stay_positive_and_bounded():
    g = generate_er_graph(10, 0.5, seed=3)
    params = BIOCHEMICAL
    x1 = random_initial_states(10, 1, 0.0, 1.0, seed=4)
    (traj,) = simulate_ensemble(g, params, x1, 50)
    assert traj.states.min() > 0.0
    assert traj.states.max() < 12.0   # inflow/decay balance caps growth near 10


def test_divergence_raises_and_names_the_tick():
    g = _complete(3)
    params = BIOCHEMICAL
    with pytest.raises(RuntimeError, match=r"diverged at tick \d+"):
        simulate_ensemble(g, params, np.full((3, 2), -1000.0), 20)


def test_simulate_rejects_bad_inputs():
    g = _complete(2)
    params = BIOCHEMICAL
    for bad in (np.zeros((3, 1)),               # wrong length
                np.zeros(2),                    # a vector, not a column
                np.array([[0.0], [np.nan]])):   # non-finite entry
        with pytest.raises(ValueError):
            simulate_ensemble(g, params, bad, 10)
    with pytest.raises(ValueError):
        simulate_ensemble(g, params, np.zeros((2, 1)), 1)  # < two ticks


def test_simulate_is_deterministic_and_keeps_the_initial_column():
    g = generate_er_graph(6, 0.5, seed=9)
    params = DynamicsParams(kind="regulatory")
    x1s = random_initial_states(6, 3, 0.0, 100.0, seed=10)
    a = simulate_ensemble(g, params, x1s, 15)
    b = simulate_ensemble(g, params, x1s, 15)
    for k in range(3):
        assert np.array_equal(a[k].states, b[k].states)
        assert np.array_equal(a[k].states[:, 0], x1s[:, k])
        assert a[k].states.shape == (6, 15)


def test_simulate_ensemble_matches_individual_runs():
    g = generate_er_graph(5, 0.6, seed=2)
    params = BIOCHEMICAL
    x1s = random_initial_states(5, 3, 0.0, 1.0, seed=5)
    trajs = simulate_ensemble(g, params, x1s, 12)
    assert len(trajs) == 3
    for k, traj in enumerate(trajs):
        (solo,) = simulate_ensemble(g, params, x1s[:, k:k + 1], 12)
        assert np.allclose(traj.states, solo.states, atol=1e-12)


# =========================================================================
# Initial states and parameter plumbing
# =========================================================================

def test_default_initial_ranges():
    assert default_initial_range("biochemical") == (0.0, 1.0)
    assert default_initial_range("regulatory") == (0.0, 100.0)
    with pytest.raises(ValueError):
        default_initial_range("shrug")


def test_random_initial_state_bounds_and_determinism():
    a = random_initial_states(50, 1, 0.0, 1.0, seed=6)
    b = random_initial_states(50, 1, 0.0, 1.0, seed=6)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    wide = random_initial_states(30, 8, 0.0, 100.0, seed=6)
    assert wide.shape == (30, 8)
    assert wide.min() >= 0.0 and wide.max() < 100.0


def test_params_validation():
    with pytest.raises(ValueError):
        DynamicsParams(kind="biochemical", flow_in=-1.0)
    with pytest.raises(ValueError):
        DynamicsParams(kind="hyperbolic")
    # the regulatory dynamics has no inflow term to carry a rate
    with pytest.raises(ValueError, match="flow_in must be 0"):
        DynamicsParams(kind="regulatory", flow_in=5.0)
    assert DynamicsParams(kind="regulatory", flow_in=0.0).flow_in == 0.0


# =========================================================================
# On-disk formats
# =========================================================================

def test_trajectory_csv_round_trip(tmp_path):
    g = generate_er_graph(4, 0.5, seed=1)
    params = BIOCHEMICAL
    x1 = random_initial_states(4, 1, 0.0, 1.0, seed=2)
    (traj,) = simulate_ensemble(g, params, x1, 9)
    path = trajectory_to_csv(traj, tmp_path / "traj.csv")
    back = trajectory_from_csv(path)
    assert np.array_equal(back.states, traj.states)  # repr() round trips floats
    header = path.read_text().splitlines()[0]
    assert header == "t,x_1,x_2,x_3,x_4"


@pytest.mark.parametrize("text,message", [
    ("a,b\n1,2\n", "header"),
    ("t,x_1,x_2,x_3\n1,0.5,0.5\n2,0.5,0.5\n", "line 2 has 3 fields"),
    ("t,x_1,x_2\n1,0.5,0.5\n2,0.5\n", "line 3 has 2 fields"),
    ("t,x_1,x_2\n1,0.5,0.5\n2,0.5,abc\n", "line 3: could not convert"),
    ("t,x_1,x_2\n7,0.5,0.5\n3,0.5,0.5\n", "line 2 has t = 7, expected 1"),
    # an empty file once raised a bare StopIteration, and a header of `t`
    # alone loaded a trajectory of no nodes
    ("", "header"),
    ("t\n1\n2\n", "header"),
    # once "trajectory contains non-finite entries", naming no file or line
    ("t,x_1,x_2\n1,0.5,0.5\n2,nan,0.5\n3,0.5,inf\n",
     "line 3 holds a non-finite value")],
    ids=["no-t-header", "rows-narrower-than-header", "ragged-rows",
         "non-numeric-field", "ticks-out-of-order", "empty-file",
         "no-node-columns", "non-finite-field"])
def test_trajectory_csv_rejects_garbage(tmp_path, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(ValueError, match=message) as excinfo:
        trajectory_from_csv(bad)
    assert str(bad) in str(excinfo.value)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros((3, 1)))  # a single tick is not a trajectory
    with pytest.raises(ValueError):
        Trajectory(states=np.array([[1.0, np.inf]]))
