"""
Recovering a full trajectory from half of the nodes
===================================================

The end-to-end pipeline: fit a log-dictionary operator, pick half of the
nodes greedily, read just those nodes over tau ticks, then solve for the
initial state x1 by quasi-Newton descent on || A(S) psi(x1) - y(S) ||^2 and
roll the linear model forward.  The unsampled nodes come along for free.
"""

import numpy as np

from koopnet import (ExperimentConfig, OptimizerConfig, SelectionConfig,
                     assemble_training, default_initial_range, fit,
                     generate_er_graph, greedy_select, lift_jacobian, nrmse,
                     per_tick_nrmse, random_initial_states,
                     recover_initial_state, refine_with_samples, rollout,
                     simulate_ensemble, take_samples, log_spec)

n, tau = 10, 20
config = ExperimentConfig(n_values=(n,), seed=21)
params = config.params()
low, high = default_initial_range(params.kind)

# training data and the ground-truth trajectory we pretend not to know
graph = generate_er_graph(n, 0.5, seed=21)
x1s = random_initial_states(n, 100, low, high, seed=22)
train = simulate_ensemble(graph, params, x1s, 50)
(truth,) = simulate_ensemble(
    graph, params, random_initial_states(n, 1, low, high, seed=23), tau)

spec = log_spec(n)
training = assemble_training(train, spec)
model = fit(training)

# choose 5 of 10 sensors, scored on K^t J rolled out of the lift's Jacobian
# at the unsampled nodes' start, and take their readings
fill = 0.5 * (low + high)
theta_j = rollout(model, lift_jacobian(spec, np.full(n, fill)), tau)
plan = greedy_select(theta_j, spec,
                     SelectionConfig(gamma=None, max_nodes=n // 2))
samples = take_samples(truth, plan)
print(f"sampling nodes {sorted(plan.nodes)}: "
      f"{len(plan.observable_indices)} readable observables x {tau} ticks "
      f"= {samples.values.size} scalar readings")

# refinement: fold short rollouts near the observed cells back into the fit
refined, _ = refine_with_samples(training, plan.nodes,
                                 truth.states[list(plan.nodes), 0], graph,
                                 params, tau, 50, seed=24)

# the recovery reads the plan's rows off the refined K, one tick at a time
result = recover_initial_state(samples, refined,
                               OptimizerConfig(fill_value=fill))
print(f"optimizer: {result.iterations} iterations, converged "
      f"{result.converged}, objective {result.objective:.3e}")

print(f"\n{'node':>5} {'true x1':>9} {'recovered':>10} {'sampled?':>9}")
for i in range(n):
    mark = "yes" if i in plan.nodes else "no"
    print(f"{i:>5} {truth.states[i, 0]:>9.4f} {result.x1[i]:>10.4f} {mark:>9}")

err = nrmse(result.trajectory, truth.states)
per_tick = per_tick_nrmse(result.trajectory, truth.states)
print(f"\nwhole-trajectory N-RMSE: {err:.4f}")
print("per-tick N-RMSE, every fourth tick:",
      " ".join(f"{e:.4f}" for e in per_tick[::4]))
