"""
Greedy sensor selection on the lifted linear system
===================================================

Stacking the operator powers Theta = [K^0; ...; K^(tau-1)] and keeping only
the rows a node set S can read turns "which nodes do we sample?" into a
singular-value question.  Recovery solves for the N node states, so the kept
rows are multiplied by the lift's Jacobian J at a reference state (every node
at the recovery's fill value): the selection is sound once Theta_S J has rank
N, and its conditioning is the quotient sigma_1 / sigma_N.  Short of rank N
the greedy pass adds whichever node raises the rank most (then the largest
log-volume); after that, whichever gives the best quotient.  It stops at the
budget (or once the quotient clears a threshold gamma).
"""

import numpy as np

from koopnet import (ExperimentConfig, SelectionConfig, assemble_training,
                     build_theta, default_initial_range, fit,
                     generate_er_graph, gramian_nodes_for_budget,
                     greedy_select, lift_jacobian, log_spec,
                     random_initial_states, selected_rows, sigma_quotient,
                     simulate_ensemble, verify_rank)

# fit a log-dictionary operator for a 10-node biochemical network
n, tau = 10, 15
config = ExperimentConfig(n_values=(n,), seed=5)
params = config.params()
low, high = default_initial_range(params.kind)
graph = generate_er_graph(n, 0.5, seed=5)
x1s = random_initial_states(n, 100, low, high, seed=6)
model = fit(assemble_training(simulate_ensemble(graph, params, x1s, 50),
                              log_spec(n)))
theta = build_theta(model, tau)
spec = model.spec

# 1. run the greedy pass through every node (gamma=None disables the early
#    stop).  Each step takes the best remaining candidate; note the quotient
#    itself is not monotone, because adding rows grows sigma_1 as well as
#    sigma_N.
fill = config.optimizer().fill_value
plan = greedy_select(theta, spec, SelectionConfig(gamma=None), fill)
print(f"greedy pass over {n} nodes (tau = {tau}, dictionary M = {spec.size}):")
print(f"{'step':>4} {'node':>5} {'score sigma1/sigmaN of Theta_S J':>33}")
for step, score in enumerate(plan.score_trace):
    shown = f"{score:.4g}" if np.isfinite(score) else "inf (rank short)"
    print(f"{step + 1:>4} {plan.nodes[step]:>5} {shown:>33}")

# 2. how small can the sensor set be and still see everything?
for budget in range(1, n + 1):
    candidate = greedy_select(theta, spec, SelectionConfig(max_nodes=budget),
                              fill)
    if verify_rank(candidate, model, fill):
        # the matrix verify_rank reads: Theta_S J at the fill value
        rows = selected_rows(candidate, theta) @ lift_jacobian(
            spec, np.full(n, fill))
        rank = sigma_quotient(rows, n)[2]
        print(f"\nfirst full-rank set: {budget} sensor(s) "
              f"{list(candidate.nodes)} -> {rows.shape[0]} rows, "
              f"Theta_S J of rank {rank} of {n} needed")
        break

# 3. the eigen-energy baseline ranks nodes by leading-mode weight instead
half = max(1, n // 2)
nodes = gramian_nodes_for_budget(model, half)
greedy_half = greedy_select(theta, spec,
                            SelectionConfig(gamma=None, max_nodes=half), fill)
print(f"\nobservability-gramian pick at budget {half}: {sorted(nodes)}")
print(f"greedy pick at the same budget:          {sorted(greedy_half.nodes)}")
