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

Each pick bounds every candidate's score from below by the eigenvalues of
the candidate's own Gram, with error terms of 100 (m + M) eps for the
Gram's rounding, the eigensolver and the SVD (Higham 2002, sec. 3.5; LAPACK
Users' Guide secs. 4.7 and 4.9), and computes the exact SVD score only for
the candidates whose bound does not exceed the best exact score so far.
Picks and score traces are those of scoring every candidate, bit for bit.
While every score is still infinite (the rank-deficient phase), every
candidate is scored.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .koopman import KoopmanModel
from .observables import (ObservableSpec, as_int, as_real, check_fields,
                          spec_from_dict, spec_to_dict)

# Singular values below RANK_TOL (resp. SCORE_TOL) times the largest are
# treated as zero in rank checks and lstsq solves (resp. scoring a set).
RANK_TOL = 1e-10
SCORE_TOL = 1e-12
_FOLD_ROWS = 2   # pending rows, in multiples of M, folded into R at once
_EPS = float(np.finfo(float).eps)


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
    node_list = [as_int(v, "nodes") for v in nodes]
    if len(set(node_list)) != len(node_list):
        raise ValueError("duplicate nodes in sampling set")
    for v in node_list:
        if not 0 <= v < spec.n:
            raise ValueError(f"node {v} outside 0..{spec.n - 1}")
    return SamplingPlan(tuple(node_list), spec, tau, score_trace=())


def _rows(powers: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Rows ``obs`` of each power, time-major, as one C-contiguous gather."""
    return np.take(powers, obs, axis=1).reshape(-1, powers.shape[2])


def selected_rows(plan: SamplingPlan, theta: np.ndarray) -> np.ndarray:
    """The plan's rows of the tau x M x M stack of powers: every sampled
    entry at tick 1, then at tick 2, and so on, each tick in ascending
    dictionary order."""
    if plan.tau != theta.shape[0]:
        raise ValueError("plan and evolution stack disagree on tau")
    if plan.spec.size != theta.shape[1]:
        raise ValueError(f"plan was selected on a dictionary of size "
                         f"{plan.spec.size}, the evolution stack has size "
                         f"{theta.shape[1]}")
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
    plan.check_dictionary(model.spec)
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


def _score_floor(gram: np.ndarray, rows: int, n: int) -> tuple[float, float]:
    """``(lambda_N / lambda_1, floor)`` for a stack of ``rows`` rows whose
    computed Gram is ``gram``: the eigenvalue quotient greedy selection
    visits candidates by, and a lower bound on the score ``sigma_quotient``
    computes for that stack (-inf when the eigenvalues cannot be had).

    ``delta`` covers the Gram's rounding (Higham 2002, sec. 3.5) and the
    eigensolver's backward error (LAPACK Users' Guide sec. 4.7), ``err``
    the SVD's error on each computed singular value (sec. 4.9); both carry
    a factor of 100 over the constants those bounds state.
    """
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError:
        return 0.0, -math.inf
    top, nth = float(lam[-1]), max(float(lam[-n]), 0.0)
    slack = 100 * (rows + gram.shape[0]) * _EPS
    delta = slack * float(np.trace(gram))
    err = slack * math.sqrt(max(top + delta, 0.0))
    sigma_1 = math.sqrt(max(top - delta, 0.0)) - err
    sigma_n = math.sqrt(nth + delta) + err
    if not math.isfinite(sigma_1 + sigma_n):   # overflow or NaN: no bound
        return 0.0, -math.inf
    floor = math.inf if sigma_n <= SCORE_TOL * sigma_1 else sigma_1 / sigma_n
    return (nth / top if top > 0.0 else 0.0), floor


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

    Each pick first bounds every candidate's score from the eigenvalues of
    its own M x M Gram (``_score_floor``), one Gram at a time, and visits the
    candidates by descending lambda_N / lambda_1.  The exact SVD score of
    ``sigma_quotient`` is taken for the first, and for every later one whose
    bound does not exceed the best exact score so far; the bound is a lower
    bound on the computed score, so a skipped candidate could not have won
    and picks and scores are those of scoring every candidate.  While that
    best score is infinite (the rank-deficient phase), or when a candidate
    adds too few rows for N singular values, every candidate is scored.
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
    for m, owners in enumerate(spec.owners):
        for v in owners:
            owned[v].append(m)
    selected: list[int] = []
    chosen: set[int] = set()
    obs = gamma_map(selected, spec, tau).observable_indices
    r_s = np.linalg.qr(_rows(theta, obs), mode="r")

    def new_obs(cand):
        return np.array([m for m in owned[cand]
                         if all(v == cand or v in chosen
                                for v in spec.owners[m])], dtype=int)

    trace: list[float] = []
    while len(selected) < budget:
        added = {c: new_obs(c) for c in range(n) if c not in chosen}
        if min(tau * a.size for a in added.values()) + r_s.shape[0] < n:
            visits = [(c, -math.inf) for c in added]
        else:
            gram_s = r_s.T @ r_s
            bounds = []
            for c, a in added.items():
                rows = _rows(theta, a)
                gram = rows.T @ rows
                gram += gram_s
                order, floor = _score_floor(gram, r_s.shape[0] + rows.shape[0], n)
                bounds.append((-order, c, floor))
            visits = [(c, floor) for _, c, floor in sorted(bounds)]
        best, best_rows = None, None
        for c, floor in visits:
            if best is not None and floor > best[0]:
                continue
            rows = _rows(theta, added[c])
            score, sigma_n = sigma_quotient(np.vstack([r_s, rows]), n)
            if best is None or (score, -sigma_n, c) < best:
                best, best_rows = (score, -sigma_n, c), rows
        current_score, _, pick = best
        r_s = np.linalg.qr(np.vstack([r_s, best_rows]), mode="r")
        selected.append(pick)
        chosen.add(pick)
        trace.append(current_score)
        if config.gamma is not None and current_score <= config.gamma:
            break
    return replace(gamma_map(selected, spec, tau), score_trace=tuple(trace))


def verify_rank(plan: SamplingPlan, theta: np.ndarray,
                spec: ObservableSpec) -> bool:
    """True when the sampled rows have numerical rank N.

    The row-count necessary condition is checked before any factorization.
    """
    plan.check_dictionary(spec)
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
        "spec": spec_to_dict(plan.spec),
        "tau": plan.tau,
        "score_trace": [s if math.isfinite(s) else None for s in plan.score_trace],
    }


def plan_from_dict(d: dict) -> SamplingPlan:
    """Rebuild a plan through ``gamma_map``, so bad nodes fail at load."""
    check_fields(d, SamplingPlan, "plan", hint="; re-run koopnet select",
                 types={"score_trace": tuple[float | None, ...]})
    plan = gamma_map(d["nodes"], spec_from_dict(d["spec"]), d["tau"])
    return replace(plan, score_trace=tuple(
        math.inf if s is None else float(s) for s in d["score_trace"]))


def save_plan(plan: SamplingPlan, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(plan_to_dict(plan)))
    return path


def load_plan(path: str | Path) -> SamplingPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))
