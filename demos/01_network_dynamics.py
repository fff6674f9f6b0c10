"""
Simulating networked nonlinear dynamics
=======================================

Two pairwise-coupled systems drive everything else in this package: a
biochemical birth/death/binding model whose states live near (0, 10), and a
gene-regulatory model with saturating activation whose states start anywhere
up to 100.  This script builds a random graph, integrates both, and prints
enough of the trajectories to see their character.
"""

import numpy as np

from koopnet import (DynamicsParams, default_initial_range, generate_er_graph,
                     random_initial_states, simulate_ensemble)

# 1. a random Erdős–Rényi graph on 8 nodes, edge probability one half
n = 8
graph = generate_er_graph(n, 0.5, seed=42)
degrees = graph.adjacency.sum(axis=1).astype(int)
print(f"graph: {n} nodes, {graph.adjacency.sum() / 2:.0f} edges, "
      f"degrees {degrees.tolist()}")

# 2. biochemical kinetics: flow in, linear decay, pairwise binding
params = DynamicsParams(kind="biochemical", flow_in=10.0)
low, high = default_initial_range("biochemical")
x1 = random_initial_states(n, 1, low, high, seed=7)   # one column, one run
(traj,) = simulate_ensemble(graph, params, x1, 50)
print("\nbiochemical, 50 ticks from x(0) ~ U(0, 1):")
for t in (0, 4, 9, 24, 49):
    row = " ".join(f"{v:7.4f}" for v in traj.states[:4, t])
    print(f"  t={t:2d}  x[0:4] = {row}")
print(f"  states stay positive: min over run {traj.states.min():.4f}")

# an isolated node (no binding partners) settles at flow/decay = 10
(lone,) = simulate_ensemble(generate_er_graph(1, 0.0, seed=0), params,
                            np.array([[0.3]]), 200)
print(f"  isolated node settles at {lone.states[0, -1]:.4f} (flow/decay = 10)")

# 3. gene regulation: saturating activation, much larger scale
params = DynamicsParams(kind="regulatory")
low, high = default_initial_range("regulatory")
x1 = random_initial_states(n, 1, low, high, seed=7)
(traj,) = simulate_ensemble(graph, params, x1, 50)
print("\nregulatory, 50 ticks from x(0) ~ U(0, 100):")
for t in (0, 4, 9, 24, 49):
    row = " ".join(f"{v:8.4f}" for v in traj.states[:4, t])
    print(f"  t={t:2d}  x[0:4] = {row}")
print(f"  activation saturates, so trajectories decay toward the "
      f"low-degree fixed points (final mean {traj.states[:, -1].mean():.4f})")
