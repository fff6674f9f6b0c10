"""The benchmark's workloads: one koopnet sweep configuration each.

Every workload is a closed loop with one client: a child process runs one
sweep with ``workers=1`` and exits, and the next child starts only after it.
A run of ``--seconds`` seconds runs ``sweeps_per_run`` such children, one per
``SWEEP_SLOT_S`` seconds, each on its own instance (config seed) drawn from
the run's ``--seed``.  The count follows from ``--seconds`` alone, never from
a clock reading, so one seed always measures the same inputs.

This module imports nothing from numpy or koopnet: the parent process reads
it before any child has pinned its BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass

SAMPLING = "sampling"
LINEARIZATION = "linearization"

# About one n=20 acceptance-sweep trial on two cores.  Three slots in a run
# give a median that one slow sweep cannot move.
SWEEP_SLOT_S = 10.0

# Spans every sweep of a kind must fire (see spans.py for the names).
_COMMON = ("dynamics.generate_er_graph", "dynamics.simulate_ensemble",
           "koopman.assemble_training", "experiments.emit")
_PROPOSED = ("koopman.fit.log", "koopman.build_theta",
             "koopman.refine_with_samples", "sampling.greedy_select",
             "sampling.sigma_quotient", "recovery.take_samples",
             "recovery.recover_initial_state", "optimize.minimize_dfp",
             "observables.lift_jacobian")
_BASELINES = ("koopman.fit.poly", "baselines.gramian_nodes_for_budget",
              "baselines.linear_observable_recover",
              "baselines.build_laplacian_basis", "baselines.linear_gft_select",
              "baselines.linear_gft_recover_trajectory")


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: str                    # SAMPLING or LINEARIZATION
    config: dict                  # ExperimentConfig fields except seed/trials/workers
    expected_spans: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    # Biochemical acceptance sweep: the poly-gramian baseline (M=841) does
    # most of the work; three rates expose work repeated once per rate.
    Workload(
        "bio-n20", SAMPLING,
        dict(dynamics="biochemical", n_values=(20,), sampling_ticks=20,
             sampling_rates=(0.25, 0.5, 0.75),
             baselines=("poly-gramian", "linear-gft")),
        _COMMON + _PROPOSED + _BASELINES),
    # Regulatory acceptance sweep: the same layers under the other dynamics,
    # where DFP stops differently; one rate, so nothing per rate to reuse.
    Workload(
        "reg-n20", SAMPLING,
        dict(dynamics="regulatory", n_values=(20,), sampling_ticks=20,
             sampling_rates=(0.5,), baselines=("poly-gramian", "linear-gft")),
        _COMMON + _PROPOSED + _BASELINES),
    # The scaling wall: greedy selection and recovery at n=40, baselines off.
    Workload(
        "bio-n40-log", SAMPLING,
        dict(dynamics="biochemical", n_values=(40,), sampling_ticks=20,
             sampling_rates=(0.25, 0.5, 0.75), baselines=()),
        _COMMON + _PROPOSED),
    # The only path through the linearization sweep and its rollouts;
    # selection, recovery and the baselines are bypassed.
    Workload(
        "lin-n30", LINEARIZATION,
        dict(n_values=(30,), include_dmd=True,
             log_power_grid=((1,), (1, 2), (1, 2, 3)), poly_power_grid=(1, 2)),
        _COMMON + ("koopman.fit.identity", "koopman.fit.log",
                   "koopman.fit.poly", "koopman.linearization_nrmse")),
)}


def sweeps_per_run(seconds: float) -> int:
    return max(1, round(seconds / SWEEP_SLOT_S))


def instance_seed(seed: int, k: int) -> int:
    """Config seed of the k-th sweep in a run started with ``--seed seed``."""
    return 1000 * seed + k
