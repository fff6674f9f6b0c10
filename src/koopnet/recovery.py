"""Full-network recovery from node samples.

Samples are the dictionary entries owned by the chosen sensor nodes, read at
every tick of one trajectory.  The unknown initial state enters those samples
through the lift followed by the stacked linear evolution, so recovery
minimizes the squared sample mismatch over the initial state with an analytic
gradient (chain rule through the lift Jacobian) and a DFP quasi-Newton
search.  The search runs on the triangular QR factor of ``[A | y]`` that
``sampled_factor`` builds from all sampled rows as one block: a system of
at most M + 1 rows with the same objective value at every state.
The recovered initial state is then multiplied by the stack of operator
powers and unlifted into a full trajectory estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .koopman import sampled_factor
from .metrics import nrmse, per_tick_nrmse
from .observables import (ObservableSpec, as_int, as_real, lift_jacobian,
                          lift_trajectory, unlift_trajectory)
from .optimize import MinimizeResult, minimize_dfp
from .sampling import RANK_TOL, SamplingPlan, selected_rows


@dataclass(frozen=True)
class OptimizerConfig:
    """Recovery solver settings.

    ``fill_value`` is the starting guess for unsampled nodes (conventionally
    the midpoint of the dynamics' initial-state range); sampled nodes always
    start from their observed first-tick values.  That base start runs
    first, then one deterministic start that unlifts the min-norm
    least-squares solution of the sampled linear system; the run with the
    lowest final objective wins.  Both runs keep ``minimize_dfp``'s
    defaults: its iteration cap (500), gradient tolerance (1e-8) and Wolfe
    constants.  ``seed`` seeds nothing: both starts are deterministic.
    """

    # no extra starts beside base and warm; read by the benchmark's tracer
    multistarts: ClassVar[int] = 0
    fill_value: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(as_real(self.fill_value, "fill_value")):
            raise ValueError(f"fill_value: {self.fill_value!r} is not finite")
        as_int(self.seed, "seed")


@dataclass(frozen=True)
class SampleMatrix:
    """Observed sample vector plus the plan that produced it (time-major)."""

    values: np.ndarray
    plan: SamplingPlan

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.plan.sample_count,):
            raise ValueError("sample vector length does not match the plan")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class RecoveryResult:
    x1: np.ndarray
    trajectory: np.ndarray        # node-by-tick reconstruction
    objective: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] = ()
    gradient_norm: float = math.nan   # the winning DFP run's final gradient norm
    resets: int = 0                   # its steepest-descent restarts


def take_samples(trajectory, spec: ObservableSpec, plan: SamplingPlan) -> SampleMatrix:
    """Read the plan's entries off a trajectory, in ``selected_rows`` order."""
    states = trajectory.states if hasattr(trajectory, "states") else np.asarray(trajectory)
    if states.shape[0] != spec.n:
        raise ValueError("trajectory and dictionary disagree on the node count")
    if states.shape[1] != plan.tau:
        raise ValueError(f"plan expects {plan.tau} ticks, trajectory has {states.shape[1]}")
    plan.check_dictionary(spec)
    z = lift_trajectory(spec, states)
    return SampleMatrix(values=z[plan.observable_indices].T.ravel(), plan=plan)


def initial_guess(samples: SampleMatrix, spec: ObservableSpec,
                  fill_value: float) -> np.ndarray:
    """Sampled nodes from their observed first-tick values; the rest filled."""
    plan = samples.plan
    x0 = np.full(spec.n, float(fill_value))
    nodes = list(plan.nodes)
    # a node's state entry reads that node alone, so the plan reads it
    pos = np.searchsorted(plan.observable_indices, spec.linear_indices[nodes])
    x0[nodes] = samples.values[pos] * spec.scale
    return x0


def _objective_pair(a: np.ndarray, y: np.ndarray, spec: ObservableSpec):
    # The line search asks for the gradient at the point whose objective it
    # has just evaluated, so the objective keeps that point's residual.
    last: dict[str, np.ndarray] = {}

    def objective(x):
        try:
            psi = lift_trajectory(spec, x)
        except ValueError:
            return math.inf
        r = a @ psi - y
        last["x"], last["r"] = np.array(x, dtype=float), r
        return float(r @ r)

    def gradient(x):
        if last and np.array_equal(x, last["x"]):
            r = last["r"]
        else:
            r = a @ lift_trajectory(spec, x) - y
        jac = lift_jacobian(spec, x)
        return 2.0 * (jac.T @ (a.T @ r))

    return objective, gradient


def recover_initial_state(samples: SampleMatrix, theta: np.ndarray,
                          spec: ObservableSpec,
                          config: OptimizerConfig | None = None) -> RecoveryResult:
    """Estimate the initial state behind ``samples`` and reconstruct the rest
    from ``theta``, the tau x M x M stack of powers ``build_theta`` makes."""
    config = config or OptimizerConfig()
    plan = samples.plan
    plan.check_dictionary(spec)
    # one block, freed before the final QR; the last row of R keeps the
    # residual that no psi can remove
    r_a, r_y = sampled_factor(iter([selected_rows(plan, theta)]), samples.values)
    objective, gradient = _objective_pair(r_a, r_y, spec)

    starts = [initial_guess(samples, spec, config.fill_value)]
    warm = _linear_warm_start(r_a, r_y, spec)
    if warm is not None:
        starts.append(warm)

    best: MinimizeResult | None = None
    failures = []
    for x0 in starts:
        try:
            run = minimize_dfp(objective, gradient, x0)
        except ValueError as exc:  # infeasible start
            failures.append(str(exc))
            continue
        if best is None or run.fun < best.fun:
            best = run
    if best is None:
        raise RuntimeError("every recovery start failed: " + "; ".join(failures))

    # one matrix-vector product per power, K**t @ z1 at index t
    z1 = lift_trajectory(spec, best.x)
    trajectory = unlift_trajectory(spec, (theta @ z1).T)
    trajectory[:, 0] = best.x
    return RecoveryResult(x1=best.x, trajectory=trajectory, objective=best.fun,
                          iterations=best.iterations, converged=best.converged,
                          objective_trace=tuple(best.objective_trace),
                          gradient_norm=best.gradient_norm, resets=best.resets)


def _linear_warm_start(a: np.ndarray, y: np.ndarray,
                       spec: ObservableSpec) -> np.ndarray | None:
    """Deterministic extra start: unlift the min-norm solution of A z = y.

    Ignoring the constraint that z must lie on the lift manifold gives a
    linear least-squares problem whose solution, read back through the
    dictionary's linear entries, can land in a basin the base start misses.
    Entries are floored at zero because both dynamics evolve nonnegative
    states.
    """
    if not (np.isfinite(a).all() and np.isfinite(y).all()):
        return None
    try:
        z1, *_ = np.linalg.lstsq(a, y, rcond=RANK_TOL)
    except np.linalg.LinAlgError:
        return None
    return np.clip(unlift_trajectory(spec, z1), 0.0, None)


# ---------------------------------------------------------------------------
# Serialization

def result_to_dict(result: RecoveryResult, truth: np.ndarray | None = None) -> dict:
    d = {
        "x1": result.x1.tolist(),
        "trajectory": result.trajectory.tolist(),
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "objective_trace": list(result.objective_trace),
        "gradient_norm": result.gradient_norm,
        "resets": result.resets,
    }
    if truth is not None:
        truth = truth.states if hasattr(truth, "states") else np.asarray(truth)
        d["nrmse"] = nrmse(result.trajectory, truth)
        d["per_tick_nrmse"] = per_tick_nrmse(result.trajectory, truth).tolist()
    return d


def save_result(result: RecoveryResult, path: str | Path,
                truth: np.ndarray | None = None) -> Path:
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result, truth)))
    return path
