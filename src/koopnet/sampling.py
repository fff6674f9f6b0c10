"""Greedy sensor-node selection on the stacked evolution operator.

Sampling a node set S makes observable exactly the dictionary entries whose
owner nodes all lie in S (the constant entry is always available).  Those
entries, read at every tick t, select the rows of each operator power K**t;
stacked time-major, they form the row submatrix whose conditioning - the
ratio of its largest singular value to its N-th - scores how well the
initial state can be recovered from the samples.  This module is the one
reader of those rows: off the stack of powers, or off K alone.  Nodes are
added greedily until the score clears a threshold or a sensor budget is
exhausted.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .koopman import KoopmanModel
from .observables import ObservableSpec

# Singular values below RANK_TOL (resp. SCORE_TOL) times the largest are
# treated as zero in rank checks and lstsq solves (resp. scoring a set).
RANK_TOL = 1e-10
SCORE_TOL = 1e-12
_FOLD_ROWS = 2   # pending rows, in multiples of M, folded into R at once


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
        if self.gamma is not None and self.gamma < 1.0:
            raise ValueError("gamma is a singular-value quotient; it cannot be < 1")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")


@dataclass(frozen=True)
class SamplingPlan:
    """A chosen node set and the dictionary entries it makes observable."""

    nodes: tuple[int, ...]
    observable_indices: np.ndarray   # sorted dictionary rows readable from nodes
    tau: int
    dictionary_size: int             # M of the dictionary it was mapped on
    score: float = math.inf
    rank_deficient: bool = False
    score_trace: tuple[float, ...] = ()

    @property
    def sample_count(self) -> int:
        return self.tau * int(self.observable_indices.size)

    def check_dictionary(self, size: int) -> None:
        """Reject a dictionary of another size than the plan was mapped on."""
        if self.dictionary_size != size:
            raise ValueError(f"plan was selected on a dictionary of size "
                             f"{self.dictionary_size}, the model's dictionary "
                             f"has size {size}")


def gamma_map(nodes, spec: ObservableSpec, tau: int) -> SamplingPlan:
    """Map a node set to the dictionary rows it makes observable."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    node_list = [int(v) for v in nodes]
    if len(set(node_list)) != len(node_list):
        raise ValueError("duplicate nodes in sampling set")
    for v in node_list:
        if not 0 <= v < spec.n:
            raise ValueError(f"node {v} outside 0..{spec.n - 1}")
    node_set = set(node_list)
    obs = np.array([m for m, term in enumerate(spec.terms)
                    if set(term.owners) <= node_set], dtype=int)
    return SamplingPlan(nodes=tuple(node_list), observable_indices=obs,
                        tau=tau, dictionary_size=spec.size)


def _rows(powers: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Rows ``obs`` of each power, time-major, as one C-contiguous gather."""
    return np.take(powers, obs, axis=1).reshape(-1, powers.shape[2])


def selected_rows(plan: SamplingPlan, theta: np.ndarray) -> np.ndarray:
    """The plan's rows of the tau x M x M stack of powers: every sampled
    entry at tick 1, then at tick 2, and so on, each tick in ascending
    dictionary order."""
    if plan.tau != theta.shape[0]:
        raise ValueError("plan and evolution stack disagree on tau")
    plan.check_dictionary(theta.shape[1])
    return _rows(theta, plan.observable_indices)


def operator_rows(plan: SamplingPlan, model: KoopmanModel) -> Iterator[np.ndarray]:
    """The plan's rows of the operator powers, read off K alone, one tick at
    a time.

    Yields the |obs| x M block E K**t for t = 0, ..., tau - 1.  The row
    recurrence ``rows_t = rows_(t-1) @ K`` runs from the observables'
    identity rows; it is the left-hand twin of ``rollout``'s ``K @`` and
    builds neither the stack of powers nor all tau*|obs| rows at once.
    Stacked, the blocks equal ``selected_rows(plan, build_theta(model,
    plan.tau))`` up to rounding, in the same time-major order.  The
    dictionary check runs on the first ``next``.
    """
    plan.check_dictionary(model.size)
    obs = plan.observable_indices
    rows = np.zeros((obs.size, model.size))
    rows[np.arange(obs.size), obs] = 1.0
    yield rows
    for _ in range(1, plan.tau):
        rows = rows @ model.operator
        yield rows


def sampled_factor(blocks, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R of ``[A | y]`` = QR as ``(R_a, R_y)``, A the row blocks stacked in
    order and y the samples, so ``||A z - y|| = ||R_a z - R_y||`` for all
    z.  The blocks are written under R in one buffer, folded into R by QR
    when the next would not fit; one block is factored as it stands.  No
    later block may be longer than both the first and ``_FOLD_ROWS * M``.
    Blocks passed in an iterator are freed once written."""
    buffer, filled, start = None, 0, 0   # R on top, then pending blocks
    for rows in blocks:
        k, m = rows.shape
        if buffer is None:
            buffer = np.empty((max(k, _FOLD_ROWS * m) + m + 1, m + 1))
        elif filled + k > buffer.shape[0]:
            r = np.linalg.qr(buffer[:filled], mode="r")
            filled = r.shape[0]
            buffer[:filled] = r
        buffer[filled:filled + k, :m] = rows
        buffer[filled:filled + k, m] = samples[start:start + k]
        filled += k
        start += k
        del rows
    r = np.linalg.qr(buffer[:filled], mode="r")
    return r[:, :m], r[:, m]


def sigma_quotient(matrix: np.ndarray, k: int) -> tuple[float, float]:
    """Return ``(sigma_1 / sigma_k, sigma_k)`` of ``matrix``.

    The quotient is +inf when the matrix has fewer than ``k`` rows or when
    ``sigma_k`` falls below ``SCORE_TOL * sigma_1``.
    """
    if matrix.shape[0] < k:
        return math.inf, 0.0
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size < k or svals[0] <= 0.0:
        return math.inf, 0.0
    sk = float(svals[k - 1])
    if sk <= SCORE_TOL * svals[0]:
        return math.inf, sk
    return float(svals[0] / sk), sk


def numerical_rank(matrix: np.ndarray) -> int:
    """Count of singular values above ``RANK_TOL`` times the largest.

    0 for an empty or all-zero matrix; a NaN entry makes the SVD raise
    ``LinAlgError``.
    """
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[0] <= 0.0:
        return 0
    return int((svals > RANK_TOL * svals[0]).sum())


def greedy_select(theta: np.ndarray, spec: ObservableSpec,
                  config: SelectionConfig | None = None) -> SamplingPlan:
    """Grow a node set one node at a time, always taking the candidate with the
    best (lowest) score; among candidates with infinite score the one with the
    largest N-th singular value wins.  Ties go to the lowest node index.

    Stops when the score reaches ``config.gamma`` or the node budget is hit.
    The returned plan is flagged ``rank_deficient`` when no finite score was
    reached within the budget.

    The rows already selected are carried as their triangular QR factor
    (at most M x M), which has the same singular values, so each candidate
    is scored on that factor plus only the rows it adds.  Scores agree with
    scoring the full row stack up to rounding.
    """
    tau, size = theta.shape[:2]
    if size != spec.size:
        raise ValueError(f"evolution stack has dictionary size {size}, "
                         f"the spec has size {spec.size}")
    config = config or SelectionConfig()
    n = spec.n
    budget = min(config.max_nodes or n, n)
    # each node's dictionary entries, ascending; a candidate adds those whose
    # other owners are all selected already
    owned: list[list[int]] = [[] for _ in range(n)]
    for m, term in enumerate(spec.terms):
        for v in term.owners:
            owned[v].append(m)
    selected: list[int] = []
    obs = gamma_map(selected, spec, tau).observable_indices
    r_s = np.linalg.qr(_rows(theta, obs), mode="r")
    trace: list[float] = []
    current_score = math.inf
    while len(selected) < budget:
        best_key = None
        best_node = -1
        for cand in range(n):
            if cand in selected:
                continue
            new_obs = [m for m in owned[cand]
                       if all(v == cand or v in selected
                              for v in spec.terms[m].owners)]
            new_rows = _rows(theta, np.array(new_obs, dtype=int))
            score, sigma_n = sigma_quotient(np.vstack([r_s, new_rows]), n)
            key = (score, -sigma_n, cand)
            if best_key is None or key < best_key:
                best_key, best_node, best_rows = key, cand, new_rows
        selected.append(best_node)
        r_s = np.linalg.qr(np.vstack([r_s, best_rows]), mode="r")
        current_score = best_key[0]
        trace.append(current_score)
        if config.gamma is not None and current_score <= config.gamma:
            break
    plan = gamma_map(selected, spec, tau)
    return replace(plan, score=current_score,
                   rank_deficient=not math.isfinite(current_score),
                   score_trace=tuple(trace))


def verify_rank(plan: SamplingPlan, theta: np.ndarray,
                spec: ObservableSpec) -> bool:
    """True when the sampled rows have numerical rank N.

    The row-count necessary condition is checked before any factorization.
    """
    if plan.sample_count < spec.n:
        return False
    # rank at least N determines the state; with M > N observables the rows
    # routinely carry more than N independent directions, which is harmless
    return numerical_rank(selected_rows(plan, theta)) >= spec.n


# ---------------------------------------------------------------------------
# Serialization

def plan_to_dict(plan: SamplingPlan) -> dict:
    return {
        "nodes": list(plan.nodes),
        "observable_indices": plan.observable_indices.tolist(),
        "dictionary_size": plan.dictionary_size,
        "tau": plan.tau,
        "score": plan.score if math.isfinite(plan.score) else None,
        "rank_deficient": plan.rank_deficient,
        "score_trace": [s if math.isfinite(s) else None for s in plan.score_trace],
    }


def plan_from_dict(d: dict) -> SamplingPlan:
    def _restore(v):
        return math.inf if v is None else float(v)

    if "dictionary_size" not in d:
        raise ValueError("plan file predates dictionary_size; "
                         "re-run koopnet select")
    return SamplingPlan(
        nodes=tuple(int(v) for v in d["nodes"]),
        observable_indices=np.asarray(d["observable_indices"], dtype=int),
        tau=int(d["tau"]),
        dictionary_size=int(d["dictionary_size"]),
        score=_restore(d["score"]),
        rank_deficient=bool(d["rank_deficient"]),
        score_trace=tuple(_restore(s) for s in d["score_trace"]),
    )


def save_plan(plan: SamplingPlan, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(plan_to_dict(plan)))
    return path


def load_plan(path: str | Path) -> SamplingPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))
