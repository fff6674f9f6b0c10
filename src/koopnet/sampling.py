"""Greedy sensor-node selection on the sampled evolution of the lift.

Sampling a node set S makes observable exactly the dictionary entries whose
owner nodes all lie in S (the constant entry is always available).  Those
entries, read at every tick t, select the rows of each operator power K**t;
stacked time-major, they form the row submatrix Theta_S.  This module reads
those rows two ways: gathered off a rollout (``_rows``), or off K alone, a
tick at a time (``operator_rows``), for both recoveries.

Recovery solves for the n-entry state, so a node set is scored on the
n-column matrix Theta_S J(x_ref): the sampled rows times the lift's Jacobian
at the reference state x_ref, every node at the recovery's ``fill_value``
(the DFP base start before any sample is read).  Local observability of the
state is read off that matrix (Hermann & Krener 1977); for the identity
dictionary J = I.  Greedy and ``verify_rank`` both read it off K**t J
rolled out of J: the powers times J lose digits where K**t grows and K**t J
stays small, on some fits enough to change a pick.  Singular values at or
below ``SCORE_TOL`` (1e-8) times the largest count as zero.  While the
numerical rank is short of n, sets rank by that rank, then by the
log-volume (the sum of log sigma above the floor), then by the lowest node;
at full rank by the quotient sigma_1/sigma_n, then the larger sigma_n, then
the lowest node.  Nodes are added greedily until the quotient clears a
threshold or a sensor budget is exhausted.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .koopman import KoopmanModel, rollout
from .observables import (ObservableSpec, as_int, as_nodes, as_real,
                          check_fields, lift_jacobian, spec_from_dict,
                          spec_to_dict)

# Singular values at or below SCORE_TOL (resp. RANK_TOL) times the largest
# are treated as zero in every rank check and score (resp. lstsq solve).
RANK_TOL = 1e-10
SCORE_TOL = 1e-8


@dataclass(frozen=True)
class SelectionConfig:
    """Stopping rules for the greedy search.

    ``gamma`` is the target score (quotient of extreme singular values,
    always >= 1); ``None`` disables that stop so selection runs to the node
    budget.  ``max_nodes`` defaults to every node.
    """

    gamma: float | None = 1e6
    max_nodes: int | None = None

    def __post_init__(self):
        if self.gamma is not None and not as_real(self.gamma, "gamma") >= 1.0:
            raise ValueError("gamma is a singular-value quotient; it cannot be < 1")
        if self.max_nodes is not None and as_int(self.max_nodes, "max_nodes") < 1:
            raise ValueError("max_nodes must be at least 1")


@dataclass(frozen=True)
class SamplingPlan:
    """A node set on a dictionary, read for ``tau`` ticks, and the score after
    each greedy pick (none for a plan mapped by hand); ``gamma_map`` builds
    one.  The readable entries, the score and its rank flag follow."""

    nodes: tuple[int, ...]
    spec: ObservableSpec
    tau: int
    score_trace: tuple[float, ...]

    @cached_property
    def observable_indices(self) -> np.ndarray:
        """Sorted dictionary rows whose owner nodes all lie in ``nodes``."""
        node_set = set(self.nodes)
        return np.array([m for m, owners in enumerate(self.spec.owners)
                         if set(owners) <= node_set], dtype=int)

    @property
    def score(self) -> float:
        return self.score_trace[-1] if self.score_trace else math.inf

    @property
    def rank_deficient(self) -> bool:
        return not math.isfinite(self.score)

    @property
    def sample_count(self) -> int:
        return self.tau * int(self.observable_indices.size)

    def check_dictionary(self, spec: ObservableSpec) -> None:
        """Reject any dictionary but the one the plan was mapped on."""
        if spec != self.spec:
            a, b = self.spec, spec
            raise ValueError(f"plan was selected on the {a.kind} dictionary of "
                             f"size {a.size} and is read with another, the "
                             f"{b.kind} dictionary of size {b.size}")


def gamma_map(nodes, spec: ObservableSpec, tau: int) -> SamplingPlan:
    """Map a node set on ``spec`` to a plan; checks the nodes and ``tau``."""
    tau = as_int(tau, "tau")
    if tau < 1:
        raise ValueError("tau must be at least 1")
    nodes = as_nodes(nodes, spec.n, "nodes")
    return SamplingPlan(tuple(nodes), spec, tau, score_trace=())


def _rows(theta: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Rows ``obs`` of every tick of a rollout (tau x M x k), time-major and
    each tick in ascending dictionary order, as one C-contiguous gather."""
    return np.take(theta, obs, axis=1).reshape(-1, theta.shape[2])


def operator_rows(plan: SamplingPlan, model: KoopmanModel) -> Iterator[np.ndarray]:
    """The plan's rows of the operator powers, read off K alone, one tick at
    a time.

    Yields the |obs| x M block E K**t for t = 0, ..., tau - 1.  The row
    recurrence ``rows_t = rows_(t-1) @ K`` runs from the observables'
    identity rows; it is the left-hand twin of ``rollout``'s ``K @`` and
    builds neither the stack of powers nor all tau*|obs| rows at once.
    Stacked, the blocks equal the plan's rows of the rollout of the identity
    up to rounding, in the same time-major order.  The dictionary check runs
    on the first ``next``.
    """
    plan.check_dictionary(model.spec)
    obs = plan.observable_indices
    rows = np.zeros((obs.size, model.size))
    rows[np.arange(obs.size), obs] = 1.0
    yield rows
    for _ in range(1, plan.tau):
        rows = rows @ model.operator
        yield rows


def sigma_quotient(matrix: np.ndarray,
                   k: int) -> tuple[float, float, int, float]:
    """Return ``(sigma_1 / sigma_k, sigma_k, rank, log_volume)`` of ``matrix``.

    ``rank`` counts the first ``k`` singular values that lie above
    ``SCORE_TOL * sigma_1``, and ``log_volume`` sums their logs.  Short of
    rank ``k`` (too few rows, a zero matrix, or sigma_k at or below the
    floor) the quotient is +inf and sigma_k reads 0.
    """
    svals = np.linalg.svd(matrix, compute_uv=False)[:k]
    if svals.size == 0 or svals[0] <= 0.0:
        return math.inf, 0.0, 0, 0.0
    kept = svals[svals > SCORE_TOL * svals[0]]
    log_volume = float(np.log(kept).sum())
    if kept.size < k:
        return math.inf, 0.0, int(kept.size), log_volume
    return float(svals[0] / svals[k - 1]), float(svals[k - 1]), k, log_volume


def pick_key(score: tuple[float, float, int, float], cand: int) -> tuple:
    """The order both greedy searches take candidates in, from a candidate's
    ``sigma_quotient`` score: a full-rank set first, by (quotient,
    -sigma_k); short of full rank by (-rank, -log_volume); the lowest node
    last."""
    quotient, sigma_k, rank, log_volume = score
    if math.isfinite(quotient):
        return 0, quotient, -sigma_k, cand
    return 1, -rank, -log_volume, cand


def greedy_select(theta_j: np.ndarray, spec: ObservableSpec,
                  config: SelectionConfig | None = None) -> SamplingPlan:
    """Grow a node set one node at a time, always taking the candidate first
    in ``pick_key``'s order, scored on its rows of ``theta_j``: the tau x M
    x n stack K**t J that ``rollout(model, J, tau)`` rolls out of the lift's
    Jacobian J at the reference state.

    Stops when the score reaches ``config.gamma`` or the node budget is hit.
    The returned plan is flagged ``rank_deficient`` when no finite score was
    reached within the budget.

    The rows already selected are carried as their triangular QR factor (at
    most n x n), which has the same singular values, so each candidate is
    scored on that factor plus only the rows it adds: one ``sigma_quotient``
    call per candidate and pick.  Scores agree with scoring all the rows up
    to rounding.  A stack not of shape (tau, M, n), such as the stack of
    powers, or one holding NaN or +-inf is rejected up front.
    """
    shape = np.shape(theta_j)
    if shape != (need := shape[:1] + (spec.size, spec.n)):
        raise ValueError(f"Theta J has shape {shape}; the {spec.kind} "
                         f"dictionary on {spec.n} nodes needs {need}")
    if not np.isfinite(theta_j).all():
        raise ValueError("Theta J holds a non-finite entry (NaN or +-inf)")
    tau, n = len(theta_j), spec.n
    config = config or SelectionConfig()
    budget = min(config.max_nodes or n, n)
    # each node's dictionary entries, ascending; a candidate adds those whose
    # other owners are all selected already
    owned: list[list[int]] = [[] for _ in range(n)]
    for m, owners in enumerate(spec.owners):
        for v in owners:
            owned[v].append(m)
    selected: list[int] = []
    chosen: set[int] = set()
    obs = gamma_map(selected, spec, tau).observable_indices
    r_s = np.linalg.qr(_rows(theta_j, obs), mode="r")
    trace: list[float] = []
    while len(selected) < budget:
        best = None
        for c in range(n):
            if c in chosen:
                continue
            new = [m for m in owned[c]
                   if all(v == c or v in chosen for v in spec.owners[m])]
            rows = _rows(theta_j, np.array(new, dtype=int))
            score = sigma_quotient(np.vstack([r_s, rows]), n)
            key = pick_key(score, c)
            if best is None or key < best[0]:
                best = key, score[0], rows
        key, current_score, rows = best
        r_s = np.linalg.qr(np.vstack([r_s, rows]), mode="r")
        selected.append(key[-1])
        chosen.add(key[-1])
        trace.append(current_score)
        if config.gamma is not None and current_score <= config.gamma:
            break
    return replace(gamma_map(selected, spec, tau), score_trace=tuple(trace))


def verify_rank(plan: SamplingPlan, model: KoopmanModel,
                fill_value: float) -> bool:
    """True when the plan's rows of K**t J, J the lift's Jacobian at
    ``fill_value`` on every node, have rank n at ``greedy_select``'s floor.
    The rows are gathered off ``rollout(model, J, plan.tau)`` as greedy
    gathers them, so a plan greedy selected at that ``fill_value`` passes
    exactly when it is not ``rank_deficient``; the fill has no default, as
    each dynamics scores J at its own (``ExperimentConfig.optimizer()``).
    A plan mapped on another dictionary than the model's is rejected."""
    plan.check_dictionary(model.spec)
    n = plan.spec.n
    jac = lift_jacobian(plan.spec, np.full(n, float(fill_value)))
    rows_j = _rows(rollout(model, jac, plan.tau), plan.observable_indices)
    return sigma_quotient(rows_j, n)[2] == n


# ---------------------------------------------------------------------------
# Serialization

def plan_to_dict(plan: SamplingPlan) -> dict:
    return {
        "nodes": list(plan.nodes),
        "spec": spec_to_dict(plan.spec),
        "tau": plan.tau,
        "score_trace": [s if math.isfinite(s) else None for s in plan.score_trace],
    }


def plan_from_dict(d: dict) -> SamplingPlan:
    """Rebuild a plan through ``gamma_map``, so bad nodes fail at load."""
    check_fields(d, SamplingPlan, "plan", hint="; re-run koopnet select",
                 types={"score_trace": tuple[float | None, ...]})
    plan = gamma_map(d["nodes"], spec_from_dict(d["spec"]), d["tau"])
    trace = tuple(math.inf if s is None else float(s) for s in d["score_trace"])
    if len(trace) not in (0, len(plan.nodes)):
        raise ValueError(f"score_trace: {len(trace)} scores for "
                         f"{len(plan.nodes)} nodes; a plan holds one per "
                         f"pick or none")
    if not all(s >= 1.0 for s in trace):
        raise ValueError("score_trace: a score below 1; a quotient "
                         "sigma_1/sigma_n is at least 1")
    return replace(plan, score_trace=trace)


def save_plan(plan: SamplingPlan, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(plan_to_dict(plan)))
    return path


def load_plan(path: str | Path) -> SamplingPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))
