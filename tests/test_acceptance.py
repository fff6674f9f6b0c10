"""End-to-end acceptance checks.

Each test covers one headline claim, asserts the stated bounds, and registers
a one-line verdict that the terminal summary prints as a block.  The two
20-trial sampling sweeps dominate the runtime of this module (a few minutes
total); everything else is seconds.
"""

import time

import numpy as np
import pytest

from koopnet import (
    ExperimentConfig,
    KoopmanModel,
    OptimizerConfig,
    SelectionConfig,
    Trajectory,
    assemble_training,
    default_initial_range,
    emit,
    fit,
    gamma_map,
    generate_er_graph,
    greedy_select,
    identity_spec,
    linearization_nrmse,
    log_spec,
    minimize_dfp,
    poly_spec,
    random_initial_states,
    recover_initial_state,
    rollout,
    run_linearization_sweep,
    run_sampling_sweep,
    simulate_ensemble,
    take_samples,
    unlift_trajectory,
    verify_rank,
)
from koopnet import baselines
from koopnet.experiments import LINEAR_GFT, POLY_GRAMIAN, PROPOSED, _child_seed
from koopnet.observables import lift_jacobian, lift_trajectory
from koopnet.recovery import _objective_pair


def _mean(report, method, rate):
    for row in report.aggregates:
        if row["method"] == method and row["rate"] == rate:
            return row["mean_nrmse"]
    raise KeyError(f"no aggregate row for {method} at rate {rate}")


def _stable_matrix(n, seed, radius=0.9):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a * (radius / max(abs(np.linalg.eigvals(a))))


def _linear_trajectories(a, x1s, tau):
    trajs = []
    for k in range(x1s.shape[1]):
        states = np.empty((a.shape[0], tau))
        states[:, 0] = x1s[:, k]
        for t in range(1, tau):
            states[:, t] = a @ states[:, t - 1]
        trajs.append(Trajectory(states=states))
    return trajs


# ---------------------------------------------------------------------------
# shared sweep runs


@pytest.fixture(scope="module")
def biochemical_sweep():
    config = ExperimentConfig(dynamics="biochemical", n_values=(20,), seed=0,
                              trials=20, sampling_ticks=20,
                              sampling_rates=(0.25, 0.5, 0.75))
    start = time.perf_counter()
    report = run_sampling_sweep(config)
    return config, report, time.perf_counter() - start


@pytest.fixture(scope="module")
def regulatory_sweep():
    config = ExperimentConfig(dynamics="regulatory", n_values=(20,), seed=0,
                              trials=20, sampling_ticks=20,
                              sampling_rates=(0.5,))
    return config, run_sampling_sweep(config)


# ---------------------------------------------------------------------------
# 1. linearization efficiency at N = 50


def test_criterion_1_linearization_efficiency(acceptance_log):
    config = ExperimentConfig(n_values=(50,), seed=0, include_dmd=False,
                              log_power_grid=((1, 2),), poly_power_grid=())
    start = time.perf_counter()
    report = run_linearization_sweep(config)
    elapsed = time.perf_counter() - start
    (rec,) = report.records
    assert rec.error is None
    assert rec.dictionary_size == 3 * 50 + 1
    ok = rec.nrmse <= 1e-2 and elapsed <= 120
    acceptance_log(f"criterion 1 {'PASS' if ok else 'FAIL'} — n=50 log "
                   f"dictionary (M=151): held-out N-RMSE {rec.nrmse:.3e} "
                   f"(limit 1e-2), runtime {elapsed:.1f}s (limit 120s)")
    assert rec.nrmse <= 1e-2
    assert elapsed <= 120


# ---------------------------------------------------------------------------
# 2. dictionary-size separation at N = 30


def test_criterion_2_dictionary_size_separation(acceptance_log):
    target = 3e-2
    config = ExperimentConfig(n_values=(30,), seed=0, include_dmd=True,
                              log_power_grid=((1,), (1, 2)),
                              poly_power_grid=(1, 2))
    report = run_linearization_sweep(config)
    assert all(r.error is None for r in report.records)
    log_sizes = sorted(r.dictionary_size for r in report.records
                       if r.method == "log" and r.nrmse <= target)
    poly_sizes = sorted(r.dictionary_size for r in report.records
                        if r.method == "poly" and r.nrmse <= target)
    assert log_sizes and poly_sizes, "both families must reach the target"
    ratio = poly_sizes[0] / log_sizes[0]

    # at M = N both families shed their nonlinear terms and are the raw-state
    # dictionary; two independent fits of it must land on the same error
    n = 30
    params = config.params()
    low, high = default_initial_range(params.kind)
    graph = generate_er_graph(n, config.er_probability, _child_seed(0, n, 1))
    train_x1 = random_initial_states(n, config.training_trajectories, low,
                                     high, _child_seed(0, n, 2))
    test_x1 = random_initial_states(n, config.test_trajectories, low, high,
                                    _child_seed(0, n, 3))
    train = simulate_ensemble(graph, params, train_x1, config.training_ticks)
    test = simulate_ensemble(graph, params, test_x1, config.training_ticks)
    errs = [linearization_nrmse(fit(assemble_training(train, identity_spec(n))),
                                test)
            for _ in range(2)]
    dmd_rec = next(r for r in report.records if r.method == "dmd")
    coincidence = abs(errs[0] - errs[1])

    ok = ratio >= 5 and coincidence < 1e-10
    acceptance_log(f"criterion 2 {'PASS' if ok else 'FAIL'} — n=30 minimum "
                   f"size reaching N-RMSE<=3e-2: log M={log_sizes[0]}, poly "
                   f"M={poly_sizes[0]} (ratio {ratio:.2f}, need >=5); M=N "
                   f"coincidence gap {coincidence:.1e}")
    assert ratio >= 5
    assert coincidence < 1e-10
    assert errs[0] == pytest.approx(dmd_rec.nrmse, abs=1e-10)


# ---------------------------------------------------------------------------
# 3. recovery error vs sampling rate


def test_criterion_3_recovery_vs_sampling_rate(biochemical_sweep,
                                               acceptance_log):
    _, report, elapsed = biochemical_sweep
    means = [_mean(report, PROPOSED, rate) for rate in (0.25, 0.5, 0.75)]
    assert all(m is not None for m in means)
    decreasing = means[0] > means[1] > means[2]
    ok = decreasing and means[1] <= 0.1 and means[2] <= 0.05 and elapsed <= 600
    acceptance_log(f"criterion 3 {'PASS' if ok else 'FAIL'} — n=20 mean "
                   f"N-RMSE at 25/50/75% sampling: {means[0]:.4f} > "
                   f"{means[1]:.4f} > {means[2]:.4f}; 50% limit 0.1, 75% "
                   f"limit 0.05; sweep runtime {elapsed:.0f}s (limit 600s)")
    assert decreasing
    assert means[1] <= 0.1
    assert means[2] <= 0.05
    assert elapsed <= 600


# ---------------------------------------------------------------------------
# 4. dominance over both baselines at 50% sampling


def test_criterion_4_baseline_dominance(biochemical_sweep, regulatory_sweep,
                                        acceptance_log):
    _, bio_report, _ = biochemical_sweep
    _, reg_report = regulatory_sweep
    verdicts = []
    lines = []
    for label, report in (("biochemical", bio_report),
                          ("regulatory", reg_report)):
        ours = _mean(report, PROPOSED, 0.5)
        gram = _mean(report, POLY_GRAMIAN, 0.5)
        gft = _mean(report, LINEAR_GFT, 0.5)
        assert None not in (ours, gram, gft)
        verdicts.append(ours < gram and ours < gft)
        lines.append(f"{label} {ours:.4f} vs gramian {gram:.4g} / "
                     f"gft {gft:.4f}")
    ok = all(verdicts)
    acceptance_log(f"criterion 4 {'PASS' if ok else 'FAIL'} — 50% sampling "
                   f"mean N-RMSE: " + "; ".join(lines))
    assert all(verdicts)


# ---------------------------------------------------------------------------
# 5. exact-model oracles


def test_criterion_5_exact_model_oracles(acceptance_log):
    # (a) EDMD with the raw-state dictionary recovers a known linear map
    rng = np.random.default_rng(0)
    a = _stable_matrix(4, seed=1)
    spec4 = identity_spec(4)
    trajs = _linear_trajectories(a, rng.uniform(-1, 1, size=(4, 30)), tau=8)
    model = fit(assemble_training(trajs, spec4))
    fit_err = float(np.max(np.abs(model.operator - a)))

    # (b) a cyclic-shift operator is observable from a single sensor
    shift = np.roll(np.eye(4), 1, axis=0)
    shift_model = KoopmanModel(operator=shift, spec=spec4, residual=0.0)
    theta = rollout(shift_model, np.eye(4), 4)
    plan = greedy_select(theta, spec4, SelectionConfig(gamma=1.01))
    # J = I on the identity dictionary, so any fill gives the same verdict
    single = len(plan.nodes) == 1 and verify_rank(plan, shift_model, 0.5)

    # (c) recovery of the initial state from two sensors, six ticks
    sys_model = KoopmanModel(operator=a, spec=spec4, residual=0.0)
    truth = _linear_trajectories(a, rng.uniform(0.2, 1.0, size=(4, 1)), 6)[0]
    rec_plan = gamma_map((0, 1), spec4, tau=6)
    samples = take_samples(truth, rec_plan)
    result = recover_initial_state(samples, sys_model, OptimizerConfig())
    rec_err = float(np.max(np.abs(result.x1 - truth.states[:, 0])))

    # (d) every plan the greedy returns as full-rank really is full-rank
    feasible_confirmed = True
    for seed in range(3):
        op = _stable_matrix(4, seed=10 + seed)
        op_model = KoopmanModel(operator=op, spec=spec4, residual=0.0)
        th = rollout(op_model, np.eye(4), 4)
        for budget in range(1, 5):
            p = greedy_select(th, spec4, SelectionConfig(max_nodes=budget))
            if verify_rank(p, op_model, 0.5):
                obs = p.observable_indices
                rank = np.linalg.matrix_rank(
                    np.take(th, obs, axis=1).reshape(-1, 4))
                feasible_confirmed &= rank == 4
        full = greedy_select(th, spec4, SelectionConfig(max_nodes=4))
        feasible_confirmed &= verify_rank(full, op_model, 0.5)

    ok = fit_err < 1e-8 and single and rec_err < 1e-6 and feasible_confirmed
    acceptance_log(f"criterion 5 {'PASS' if ok else 'FAIL'} — exact-model "
                   f"oracles: operator error {fit_err:.1e} (<1e-8), single-"
                   f"sensor cyclic certification {single}, recovery error "
                   f"{rec_err:.1e} (<1e-6), rank confirmations "
                   f"{feasible_confirmed}")
    assert fit_err < 1e-8
    assert single
    assert rec_err < 1e-6
    assert feasible_confirmed


# ---------------------------------------------------------------------------
# 6. numerical property battery


def test_criterion_6_property_battery(acceptance_log):
    checks = {}
    rng = np.random.default_rng(12)

    # lift/unlift round trip on both dictionaries, 100 random states each
    worst = 0.0
    for spec in (log_spec(8), poly_spec(8, max_power=2)):
        x = rng.uniform(0.05, 95.0, size=(8, 100))
        back = unlift_trajectory(spec, lift_trajectory(spec, x))
        worst = max(worst, float(np.max(np.abs(back - x))))
    checks["round-trip"] = worst < 1e-12

    # analytic gradient vs central differences, 100 points per dynamics range
    worst_rel = 0.0
    for kind in ("biochemical", "regulatory"):
        low, high = default_initial_range(kind)
        spec = log_spec(6)
        a = rng.normal(size=(15, spec.size))
        y = rng.normal(size=15)
        objective, gradient = _objective_pair(a, y, spec)
        for _ in range(100):
            x = rng.uniform(low + 1e-3, max(high, 10.0), 6)
            g = gradient(x)
            fd = np.empty_like(g)
            for i in range(6):
                e = np.zeros(6)
                e[i] = 1e-6 * max(1.0, abs(x[i]))
                fd[i] = (objective(x + e) - objective(x - e)) / (2 * e[i])
            worst_rel = max(worst_rel, float(np.linalg.norm(g - fd)
                                             / max(np.linalg.norm(fd), 1e-12)))
    checks["gradient"] = worst_rel < 1e-5

    # optimizer invariants on a generic strongly convex quadratic: symmetric
    # guarded updates, monotone objective, and the right minimizer (the
    # converged flag itself can stay False when the gradient tolerance sits
    # below the double-precision objective floor)
    q = np.diag(rng.uniform(0.5, 40.0, 10))
    b = rng.normal(size=10)
    res = minimize_dfp(lambda x: 0.5 * x @ q @ x - b @ x,
                       lambda x: q @ x - b, np.zeros(10))
    trace = np.array(res.objective_trace)
    solution_err = float(np.max(np.abs(res.x - np.linalg.solve(q, b))))
    checks["optimizer"] = (res.max_asymmetry < 1e-8
                           and res.curvature_skips == 0
                           and bool(np.all(np.diff(trace) <= 1e-12))
                           and solution_err < 1e-6)

    # sigma_N never decreases while the greedy adds sensors
    graph = generate_er_graph(6, 0.5, seed=4)
    config = ExperimentConfig(n_values=(6,), seed=4,
                              training_trajectories=20, training_ticks=30)
    params = config.params()
    low, high = default_initial_range(params.kind)
    x1s = random_initial_states(6, 20, low, high, seed=5)
    spec6 = log_spec(6)
    model = fit(assemble_training(simulate_ensemble(graph, params, x1s, 30),
                                  spec6))
    theta = rollout(model, np.eye(spec6.size), 12)
    jac = lift_jacobian(spec6, np.full(6, 0.5))
    full_plan = greedy_select(rollout(model, jac, 12), spec6,
                              SelectionConfig())
    sigmas = []
    for k in range(1, len(full_plan.nodes) + 1):
        obs = gamma_map(full_plan.nodes[:k], spec6, 12).observable_indices
        rows = np.take(theta, obs, axis=1).reshape(-1, spec6.size)
        svals = np.linalg.svd(rows, compute_uv=False)
        sigmas.append(svals[5] if svals.size >= 6 else 0.0)
    checks["sigma-monotone"] = bool(np.all(np.diff(sigmas) >= -1e-12))

    # observed-energy identity in eigencoordinates at M = 6
    lam = rng.uniform(-0.9, 0.9, 6)
    v = rng.normal(size=(6, 6)) + 2.0 * np.eye(6)
    op = v @ np.diag(lam) @ np.linalg.inv(v)
    # W_h: the three leading rows of V^-1, as the poly-gramian baseline's
    # budget walk visits them
    eigenvalues, v_inv = baselines._sorted_eigensystem(op)
    w_h = v_inv[:3]
    z1 = rng.normal(size=6)
    z_tilde = v_inv @ z1
    lhs = sum(float(np.linalg.norm(
        w_h @ np.linalg.matrix_power(op, t) @ z1) ** 2) for t in range(7))
    rhs = sum(abs(eigenvalues[i]) ** (2 * t) * abs(z_tilde[i]) ** 2
              for t in range(7) for i in range(3))
    checks["energy-identity"] = abs(lhs - rhs) <= 1e-10 * abs(rhs)

    ok = all(checks.values())
    detail = ", ".join(f"{name} {'ok' if passed else 'FAIL'}"
                       for name, passed in checks.items())
    acceptance_log(f"criterion 6 {'PASS' if ok else 'FAIL'} — {detail} "
                   f"(worst round-trip {worst:.1e}, worst gradient rel "
                   f"{worst_rel:.1e})")
    assert checks == {name: True for name in checks}


# ---------------------------------------------------------------------------
# 7. byte-level determinism of sweep output


def test_criterion_7_determinism(tmp_path, acceptance_log):
    samp = ExperimentConfig(n_values=(10,), seed=3, trials=2,
                            training_trajectories=30, training_ticks=30,
                            sampling_ticks=12, sampling_rates=(0.5,),
                            refine_trajectories=8)
    lin = ExperimentConfig(n_values=(8,), seed=6, training_trajectories=20,
                           test_trajectories=5, training_ticks=30,
                           log_power_grid=((1, 2),), poly_power_grid=(1,))
    outcomes = {}
    for name, config, runner in (("sampling", samp, run_sampling_sweep),
                                 ("linearization", lin,
                                  run_linearization_sweep)):
        blobs = []
        for attempt in ("a", "b"):
            report = runner(config)
            paths = emit(report, tmp_path / f"{name}_{attempt}")
            blobs.append(paths[0].read_bytes())
        outcomes[name] = blobs[0] == blobs[1]
    ok = all(outcomes.values())
    acceptance_log(f"criterion 7 {'PASS' if ok else 'FAIL'} — repeated runs "
                   f"byte-identical: sampling {outcomes['sampling']}, "
                   f"linearization {outcomes['linearization']}")
    assert outcomes["sampling"]
    assert outcomes["linearization"]
