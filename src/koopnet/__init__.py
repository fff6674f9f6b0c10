"""Koopman linearization, sensor selection, and recovery on networks.

The pipeline: simulate nonlinear node dynamics on a graph, lift the states
through an observable dictionary (log-based by default, so the dictionary
grows linearly with the network), fit the lifted one-tick operator by least
squares, pick a minimal sensor-node set by greedy conditioning analysis of
the stacked operator powers, and recover full trajectories from the sampled
nodes with a quasi-Newton solve through the lift.
"""

from .baselines import (build_laplacian_basis, gramian_nodes_for_budget,
                        gramian_select, linear_gft_recover_trajectory,
                        linear_gft_select, linear_observable_recover)
from .dynamics import (DynamicsParams, Graph, Trajectory, default_initial_range,
                       generate_er_graph, random_initial_states,
                       simulate_ensemble, trajectory_from_csv,
                       trajectory_to_csv)
from .experiments import (ExperimentConfig, ExperimentReport, TrialRecord,
                          aggregate, emit, report_from_json,
                          run_linearization_sweep, run_sampling_sweep)
from .koopman import (KoopmanModel, TrainingSet, assemble_training,
                      build_theta, fit, linearization_nrmse, load_model,
                      refine_with_samples, rollout, save_model)
from .metrics import nrmse, per_tick_nrmse
from .observables import (ObservableSpec, build_spec, identity_spec,
                          lift_jacobian, lift_trajectory, log_spec, poly_spec,
                          unlift_trajectory)
from .optimize import minimize_dfp
from .recovery import (OptimizerConfig, recover_initial_state, result_to_dict,
                       save_result, take_samples)
from .sampling import (SamplingPlan, SelectionConfig, gamma_map, greedy_select,
                       load_plan, save_plan, selected_rows, sigma_quotient,
                       verify_rank)

__version__ = "0.1.0"
