"""Baseline selectors and recoveries: eigen-energy ranking and bandlimited GFT.

Diagonal operators make the eigensystem bookkeeping transparent; complete
graphs give closed-form Laplacian spectra.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from koopnet import (
    Graph,
    KoopmanModel,
    build_laplacian_basis,
    build_theta,
    gamma_map,
    generate_er_graph,
    gramian_nodes_for_budget,
    gramian_select,
    identity_spec,
    linear_gft_recover_trajectory,
    linear_gft_select,
    linear_observable_recover,
    log_spec,
    poly_spec,
    rollout,
    selected_rows,
    take_samples,
    unlift_trajectory,
)
from koopnet import baselines
from koopnet.recovery import SampleMatrix
from koopnet.sampling import RANK_TOL, operator_rows


def _model(op, spec=None):
    op = np.asarray(op, dtype=float)
    return KoopmanModel(operator=op,
                        spec=spec or identity_spec(op.shape[0]),
                        residual=0.0)


# =========================================================================
# Eigen-energy selection
# =========================================================================

def test_diagonal_operator_keeps_leading_eigenrows():
    model = _model(np.diag([3.0, 2.0, 1.0]))
    nodes, sel = gramian_select(model, k=2)
    assert sel.k == 2
    assert np.allclose(np.abs(sel.w_h), np.eye(3)[:2])   # rows e1, e2
    assert nodes == [0, 1]
    assert np.allclose(sel.eigenvalues, [3.0, 2.0, 1.0])


def test_full_k_reports_the_whole_inverse_eigenbasis():
    model = _model(np.diag([3.0, 2.0, 1.0]))
    nodes, sel = gramian_select(model, k=3)
    assert nodes == [0, 1, 2]
    assert sel.w_h.shape == (3, 3)
    assert np.allclose(np.abs(sel.w_h), np.eye(3))


def test_eigenvalues_are_sorted_by_modulus():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    lam = np.array([0.1, -0.9, 0.5, 0.3, -0.2])
    model = _model(q @ np.diag(lam) @ q.T)
    _, sel = gramian_select(model, k=5)
    mods = np.abs(sel.eigenvalues)
    assert np.all(np.diff(mods) <= 1e-12)
    assert mods[0] == pytest.approx(0.9)


def test_defective_operator_is_rejected():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(RuntimeError, match="defective spectrum"):
        gramian_select(_model(jordan), k=1)


def test_complex_pairs_are_never_split():
    # a scaled rotation has one conjugate pair; asking for one row must
    # extend to two, and the report matrix stays real
    rot = 0.9 * np.array([[np.cos(1.0), -np.sin(1.0)],
                          [np.sin(1.0), np.cos(1.0)]])
    model = _model(rot)
    nodes, sel = gramian_select(model, k=1)
    assert sel.k == 2
    assert np.isrealobj(sel.w_h)
    assert sel.w_h.shape == (2, 2)


def test_energy_ranking_beats_every_other_selection():
    # for z1 = V @ 1 all eigencoordinates have unit weight, so stacking
    # energy over t favors exactly the largest-|lambda| rows; enumerate all
    # selections at M = 4 to confirm the chosen one is maximal
    rng = np.random.default_rng(1)
    lam = np.array([0.95, 0.7, 0.4, 0.1])
    v = rng.normal(size=(4, 4)) + np.eye(4)
    op = v @ np.diag(lam) @ np.linalg.inv(v)
    model = _model(op)
    tau = 5
    z1 = v @ np.ones(4)
    z_tilde = np.linalg.solve(v, z1)         # all-ones eigenvector weights

    def energy(rows):
        # sum_t sum_{i in rows} |lam_i|^(2t) |z_i|^2
        return sum(abs(lam[i]) ** (2 * t) * abs(z_tilde[i]) ** 2
                   for t in range(tau) for i in rows)

    for k in (1, 2, 3):
        _, sel = gramian_select(model, k=k)
        # the selector's rows are the first k after modulus sorting
        chosen = energy(range(k))
        for combo in itertools.combinations(range(4), k):
            assert chosen >= energy(combo) - 1e-12


def test_energy_identity_in_eigencoordinates():
    # sum_t ||W_h K^t z||^2 equals the eigencoordinate form when the
    # spectrum is real: checked directly at M = 6
    rng = np.random.default_rng(2)
    lam = rng.uniform(-0.9, 0.9, 6)
    v = rng.normal(size=(6, 6)) + 2.0 * np.eye(6)
    op = v @ np.diag(lam) @ np.linalg.inv(v)
    model = _model(op)
    k, tau = 3, 7
    _, sel = gramian_select(model, k=k)
    z1 = rng.normal(size=6)
    z_tilde = sel.v_inv @ z1
    lhs = sum(float(np.linalg.norm(sel.w_h @
                                   np.linalg.matrix_power(op, t) @ z1) ** 2)
              for t in range(tau))
    rhs = sum(abs(sel.eigenvalues[i]) ** (2 * t) * abs(z_tilde[i]) ** 2
              for t in range(tau) for i in range(sel.k))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_budget_mapping_returns_exactly_budget_nodes():
    rng = np.random.default_rng(3)
    spec = log_spec(6)
    op = rng.normal(size=(spec.size, spec.size)) * 0.05 + np.eye(spec.size)
    model = _model(op, spec)
    for budget in (1, 3, 6):
        nodes = gramian_nodes_for_budget(model, budget)
        assert len(nodes) == budget
        assert len(set(nodes)) == budget
        again = gramian_nodes_for_budget(model, budget)
        assert nodes == again
    with pytest.raises(ValueError):
        gramian_nodes_for_budget(model, 0)
    with pytest.raises(ValueError):
        gramian_nodes_for_budget(model, 7)


def test_budget_mapping_smaller_budgets_are_prefixes():
    # the picking loop reads the budget only to stop, so one call at the
    # largest budget serves every smaller one
    rng = np.random.default_rng(7)
    spec = log_spec(6)
    models = [_model(rng.normal(size=(spec.size, spec.size)) * 0.05
                     + np.eye(spec.size), spec) for _ in range(3)]
    models.append(_model(np.diag([5.0, 0.5, 0.4])))    # one node per row
    for model in models:
        n = model.spec.n
        full = gramian_nodes_for_budget(model, n)
        for b in range(1, n + 1):
            assert gramian_nodes_for_budget(model, b) == full[:b]


def test_budget_mapping_pads_from_unreached_nodes():
    # an operator whose spectrum only ever touches node 0's observables:
    # identity rows for the rest means every eigenrow weight is equal, but
    # with a diagonal operator each eigenrow touches one observable
    model = _model(np.diag([5.0, 0.5, 0.4]))
    nodes = gramian_nodes_for_budget(model, 2)
    assert nodes[0] == 0            # leading eigenvalue owns node 0
    assert len(nodes) == 2


def _reference_nodes_for_budget(model, budget, weight_tol):
    """The eigen-row walk written out term by term.  Returns the node order
    and whether it had to pad."""
    lam, v = np.linalg.eig(model.operator)
    v_inv = np.linalg.inv(v)[np.argsort(-np.abs(lam), kind="stable")]
    picked, seen = [], set()
    for r in range(v_inv.shape[0]):
        if len(picked) >= budget:
            break
        w = np.abs(v_inv[r])
        node_weight = {}
        for m, owners in enumerate(model.spec.owners):
            if w[m] <= weight_tol:
                continue
            for node in owners:
                node_weight[node] = max(node_weight.get(node, 0.0), float(w[m]))
        for node in sorted(node_weight, key=lambda v: (-node_weight[v], v)):
            if node not in seen:
                seen.add(node)
                picked.append(node)
                if len(picked) >= budget:
                    break
    padded = len(picked) < budget
    for node in range(model.spec.n):
        if len(picked) >= budget:
            break
        if node not in seen:
            seen.add(node)
            picked.append(node)
    return picked, padded


def _reference_operators():
    rng = np.random.default_rng(14)
    for spec in (identity_spec(6), log_spec(4), poly_spec(3, max_power=2)):
        m = spec.size
        v = rng.normal(size=(m, m)) + 2.0 * np.eye(m)
        real = v @ np.diag(rng.uniform(-0.9, 0.9, m)) @ np.linalg.inv(v)
        general = rng.normal(size=(m, m)) * 0.3
        assert np.iscomplexobj(np.linalg.eigvals(general))   # conjugate pairs
        zero_cols = rng.normal(size=(m, m)) * 0.3
        zero_cols[:, [0, m - 1]] = 0.0   # their observables sit in the last rows
        for op in (real, general, zero_cols):
            yield _model(op, spec)


@pytest.mark.parametrize("weight_tol", [1e-8, 3.0])
def test_budget_mapping_matches_the_reference_loop(monkeypatch, weight_tol):
    # At the module's tolerance every node is reached before the rows run
    # out: each column of V^-1 has an entry of at least 1/M.  A raised
    # tolerance leaves nodes unreached, so the padding is checked too.
    monkeypatch.setattr(baselines, "_WEIGHT_TOL", weight_tol)
    padded_any = False
    for model in _reference_operators():
        for budget in range(1, model.spec.n + 1):
            expected, padded = _reference_nodes_for_budget(model, budget,
                                                           weight_tol)
            assert gramian_nodes_for_budget(model, budget) == expected
            padded_any |= padded
    assert padded_any == (weight_tol > 1e-8)


def test_budget_mapping_pads_in_node_order_past_the_reached_nodes(monkeypatch):
    # K = [[1, 10, 0], [0, 0.5, 0], [0, 0, 0.2]]: the two leading rows of
    # V^-1 weigh node 1 by about 20 and every other entry by at most 1, so
    # at tolerance 3 only node 1 is reached and nodes 0 and 2 are padded
    monkeypatch.setattr(baselines, "_WEIGHT_TOL", 3.0)
    model = _model([[1.0, 10.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.2]])
    expected, padded = _reference_nodes_for_budget(model, 3, weight_tol=3.0)
    assert padded
    assert expected == [1, 0, 2]
    assert gramian_nodes_for_budget(model, 3) == expected


def test_singular_eigenvectors_are_rejected(monkeypatch):
    monkeypatch.setattr(baselines.np.linalg, "eig",
                        lambda op: (np.array([1.0, 0.5]), np.ones((2, 2))))
    model = _model(np.diag([1.0, 0.5]))
    with pytest.raises(RuntimeError, match="defective spectrum"):
        gramian_nodes_for_budget(model, 1)
    with pytest.raises(RuntimeError, match="defective spectrum"):
        gramian_select(model, k=1)


# =========================================================================
# Min-norm lifted recovery
# =========================================================================

def _dense_rows(plan, model):
    """All tau*|obs| x M sampled rows at once, tick after tick."""
    return np.vstack(list(operator_rows(plan, model)))


def test_linear_observable_recovery_is_exact_on_linear_dynamics():
    rng = np.random.default_rng(4)
    n, tau = 4, 6
    spec = identity_spec(n)
    op = rng.normal(size=(n, n))
    op *= 0.8 / max(np.abs(np.linalg.eigvals(op)))
    model = _model(op)
    x1 = rng.uniform(0.5, 2.0, n)
    states = np.column_stack([np.linalg.matrix_power(op, t) @ x1
                              for t in range(tau)])
    plan = gamma_map([0, 1], spec, tau)
    samples = take_samples(states, plan)
    assert np.linalg.matrix_rank(_dense_rows(plan, model)) == n
    trajectory, objective = linear_observable_recover(samples, model)
    assert objective < 1e-18
    assert np.allclose(trajectory, states, atol=1e-8)
    assert np.allclose(trajectory[:, 0], x1, atol=1e-8)


def test_linear_observable_recovery_minimizes_the_residual():
    # inconsistent samples: the reported objective is the squared residual
    # of the least-squares solution, which no other z1 can undercut
    rng = np.random.default_rng(5)
    spec = identity_spec(3)
    model = _model(rng.normal(size=(3, 3)) * 0.5)
    plan = gamma_map([0, 1, 2], spec, 4)
    values = rng.normal(size=plan.sample_count)
    samples = SampleMatrix(values=values, plan=plan)
    _, objective = linear_observable_recover(samples, model)
    a = _dense_rows(plan, model)
    for _ in range(10):
        z = rng.normal(size=3)
        assert float(np.sum((a @ z - values) ** 2)) >= objective - 1e-12


def _stack_recover(samples, model, spec):
    """The recovery on the stack of operator powers: rows and path both
    read off ``build_theta``."""
    theta = build_theta(model, samples.plan.tau)
    a = selected_rows(samples.plan, theta)
    z1, *_ = np.linalg.lstsq(a, samples.values, rcond=RANK_TOL)
    residual = a @ z1 - samples.values
    return (unlift_trajectory(spec, (theta @ z1).T),
            float(residual @ residual))


@pytest.mark.parametrize("spec, nodes", [
    (identity_spec(5), [0, 3]),
    (log_spec(4, powers=(1, 2)), [1, 2]),
    (poly_spec(3, max_power=2), [0, 2]),
])
def test_linear_observable_recovery_matches_the_stack_reference(spec, nodes):
    rng = np.random.default_rng(6)
    op = rng.normal(size=(spec.size, spec.size))
    op *= 0.9 / max(np.abs(np.linalg.eigvals(op)))
    model = _model(op, spec)
    plan = gamma_map(nodes, spec, 7)
    states = rng.uniform(1.0, 2.0, (spec.n, 7))
    samples = take_samples(states, plan)
    recovered, recovered_objective = linear_observable_recover(samples, model)
    trajectory, objective = _stack_recover(samples, model, spec)
    np.testing.assert_allclose(recovered, trajectory, rtol=1e-9)
    assert recovered_objective == pytest.approx(objective, rel=1e-9, abs=1e-20)


def _dense_recover(samples, model, spec):
    """The recovery as one dense least-squares solve on every sampled row."""
    a = _dense_rows(samples.plan, model)
    z1, *_ = np.linalg.lstsq(a, samples.values, rcond=RANK_TOL)
    residual = a @ z1 - samples.values
    trajectory = unlift_trajectory(spec,
                                   rollout(model, z1, samples.plan.tau).T)
    return trajectory, float(residual @ residual)


def _fold_case(spec, nodes, tau, seed):
    rng = np.random.default_rng(seed)
    op = rng.normal(size=(spec.size, spec.size))
    op *= 0.9 / max(np.abs(np.linalg.eigvals(op)))
    model = _model(op, spec)
    plan = gamma_map(nodes, spec, tau)
    # states off the model's dynamics, so the samples leave a residual
    states = rng.uniform(1.0, 2.0, (spec.n, tau))
    return model, take_samples(states, plan)


# wide and rank-deficient (no fold before the last); tau*|obs| = 2,900 rows
# against M = 145, folded several times; the identity dictionary
_FOLD_CASES = {
    "wide": (poly_spec(5, max_power=2), [1, 3], 3),
    "tall": (poly_spec(8, max_power=2), list(range(8)), 20),
    "identity": (identity_spec(6), [0, 2, 5], 9),
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
def test_folded_recovery_matches_the_dense_solve(case):
    spec, nodes, tau = _FOLD_CASES[case]
    model, samples = _fold_case(spec, nodes, tau, seed=7)
    rows = samples.plan.sample_count
    if case == "wide":
        assert rows < spec.size
    if case == "tall":
        assert rows >= 10 * spec.size
    recovered, recovered_objective = linear_observable_recover(samples, model)
    trajectory, objective = _dense_recover(samples, model, spec)
    np.testing.assert_allclose(recovered, trajectory, rtol=1e-9)
    assert recovered_objective == pytest.approx(objective, rel=1e-9, abs=1e-20)
    if case != "wide":
        assert objective > 1e-6     # the samples are not consistent


def test_folded_recovery_never_holds_every_sampled_row():
    spec, nodes, tau = _FOLD_CASES["tall"]
    model, samples = _fold_case(spec, nodes, tau, seed=7)
    dense_bytes = samples.plan.sample_count * spec.size * 8
    tracemalloc.start()
    try:
        linear_observable_recover(samples, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


@pytest.mark.parametrize("plan_tau", [3, 6])
def test_linear_observable_recovery_rejects_another_tau(plan_tau):
    # the model carries no horizon, so the plan's tau sets both the sampled
    # rows and the rollout; samples read at tau 4 cannot reach the recovery
    # under a plan of another tau
    spec = identity_spec(3)
    model = _model(np.eye(3) * 0.5)
    states = np.ones((3, 4))
    samples = take_samples(states, gamma_map([0, 1], spec, 4))
    with pytest.raises(ValueError, match="does not match the plan"):
        linear_observable_recover(
            SampleMatrix(values=samples.values,
                         plan=gamma_map([0, 1], spec, plan_tau)),
            model)
    trajectory, _ = linear_observable_recover(samples, model)
    assert trajectory.shape == (3, 4)


def test_linear_observable_recovery_rejects_another_dictionary():
    # a plan mapped on a four-node dictionary, solved on a three-node model
    spec = identity_spec(3)
    plan = gamma_map([0, 1], identity_spec(4), 4)
    samples = SampleMatrix(values=np.ones(plan.sample_count), plan=plan)
    with pytest.raises(ValueError, match="size 4.*3"):
        linear_observable_recover(samples, _model(np.eye(3) * 0.5))


# =========================================================================
# Laplacian basis
# =========================================================================

def _complete_graph(n):
    return Graph(n, np.ones((n, n)) - np.eye(n))


def test_complete_graph_spectrum():
    graph = _complete_graph(3)
    basis = build_laplacian_basis(graph, r=3)
    assert basis.shape == (3, 3)
    lap = np.diag(graph.adjacency.sum(axis=1)) - graph.adjacency
    assert np.allclose(np.diag(basis.T @ lap @ basis), [0.0, 3.0, 3.0],
                       atol=1e-12)


def test_leading_vector_is_constant():
    basis = build_laplacian_basis(_complete_graph(5), r=1)
    vec = basis[:, 0]
    assert np.allclose(np.abs(vec), 1.0 / np.sqrt(5.0), atol=1e-12)


def test_basis_is_orthonormal():
    g = generate_er_graph(12, 0.4, seed=6)
    basis = build_laplacian_basis(g, r=7)
    assert np.allclose(basis.T @ basis, np.eye(7), atol=1e-10)
    with pytest.raises(ValueError):
        build_laplacian_basis(g, r=0)
    with pytest.raises(ValueError):
        build_laplacian_basis(g, r=13)


# =========================================================================
# Bandlimited selection and recovery
# =========================================================================

def test_bandlimited_signals_recover_exactly():
    g = generate_er_graph(10, 0.5, seed=7)
    basis = build_laplacian_basis(g, r=4)
    rng = np.random.default_rng(8)
    x = basis @ rng.normal(size=4)              # exactly bandlimited
    nodes, reached = linear_gft_select(basis, budget=4)
    assert reached
    assert len(nodes) == 4
    xhat = linear_gft_recover_trajectory(nodes, basis, x[list(nodes)][:, None])
    assert np.abs(xhat[:, 0] - x).max() < 1e-10


def test_out_of_band_energy_projects_away():
    # with every node sampled the recovery is the orthogonal projection
    # onto the basis: a vector orthogonal to it comes back as zero
    g = generate_er_graph(8, 0.6, seed=9)
    basis = build_laplacian_basis(g, r=3)
    rng = np.random.default_rng(10)
    raw = rng.normal(size=8)
    ortho = raw - basis @ (basis.T @ raw)
    nodes = tuple(range(8))
    xhat = linear_gft_recover_trajectory(nodes, basis, ortho[:, None])
    assert np.abs(xhat[:, 0]).max() < 1e-10
    # and a general signal returns exactly its projection
    xproj = basis @ (basis.T @ raw)
    assert np.allclose(linear_gft_recover_trajectory(nodes, basis,
                                                     raw[:, None])[:, 0],
                       xproj, atol=1e-10)


def test_full_rank_basis_recovers_everything():
    g = generate_er_graph(6, 0.5, seed=11)
    basis = build_laplacian_basis(g, r=6)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 5))
    nodes, reached = linear_gft_select(basis, budget=6)
    assert reached
    xhat = linear_gft_recover_trajectory(nodes, basis,
                                         x[list(nodes)])
    assert np.allclose(xhat, x, atol=1e-9)


def test_rank_deficient_sampling_is_rejected():
    g = _complete_graph(4)
    basis = build_laplacian_basis(g, r=3)
    # one node cannot support a rank-3 recovery
    with pytest.raises(RuntimeError, match="rank-deficient"):
        linear_gft_recover_trajectory((0,), basis, np.array([[1.0]]))
    with pytest.raises(ValueError):
        linear_gft_recover_trajectory((0, 1), basis, np.array([[1.0]]))
    with pytest.raises(ValueError):
        linear_gft_recover_trajectory((0, 1), basis, np.ones(3))


def test_gft_select_reports_an_unreachable_rank():
    # budget below r can never certify a rank-r recovery
    g = generate_er_graph(9, 0.5, seed=13)
    basis = build_laplacian_basis(g, r=5)
    nodes, reached = linear_gft_select(basis, budget=3)
    assert len(nodes) == 3
    assert not reached
    with pytest.raises(ValueError):
        linear_gft_select(basis, budget=0)
