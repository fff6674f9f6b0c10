"""Reference schemes the log-dictionary pipeline is compared against.

* Observability-gramian selection on a (typically polynomial) lifted
  operator: eigendecompose K, keep the k modes with the largest eigenvalue
  moduli, and read sensor nodes off the significant entries of the matching
  rows of V^-1.  Recovery then treats the initial lifted vector as a free
  vector and solves the sampled stacked system by pseudo-inverse, ignoring
  the nonlinear structure tying lifted entries to states.
* Classic bandlimited graph-signal sampling: an r-dimensional Laplacian
  eigenbasis, greedy row selection until the sampled basis has rank r, and
  per-tick least-squares recovery of the basis coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Graph
from .koopman import EvolutionStack, KoopmanModel
from .observables import ObservableSpec, unlift_trajectory
from .recovery import RecoveryResult, SampleMatrix
from .sampling import numerical_rank, sigma_quotient

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class GramianSelector:
    """Leading eigenmodes of the lifted operator, ordered by |eigenvalue|."""

    k: int
    w_h: np.ndarray            # k x M, real report matrix
    eigenvalues: np.ndarray    # all M eigenvalues, sorted by descending modulus
    v_inv: np.ndarray          # M x M, rows aligned with ``eigenvalues``


def _sorted_eigensystem(operator: np.ndarray):
    lam, v = np.linalg.eig(operator)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RuntimeError(
            f"defective spectrum: eigenvector condition number {cond:.3g}")
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order], np.linalg.inv(v)[order]


def _is_complex(value: complex) -> bool:
    return abs(value.imag) > 1e-12 * max(1.0, abs(value))


def _extend_past_pair(lam: np.ndarray, k: int) -> int:
    """Grow the cut so a conjugate eigenvalue pair is never split."""
    m = lam.size
    k = min(k, m)
    if k < m and _is_complex(lam[k - 1]) and abs(lam[k] - np.conj(lam[k - 1])) <= \
            1e-8 * max(1.0, abs(lam[k - 1])):
        k += 1
    return k


def _real_report_rows(lam: np.ndarray, v_inv: np.ndarray, k: int) -> np.ndarray:
    """Real-valued report matrix: real rows pass through, conjugate pairs
    contribute their real and imaginary parts."""
    rows = []
    i = 0
    while i < k:
        if _is_complex(lam[i]):
            rows.append(np.real(v_inv[i]))
            rows.append(np.imag(v_inv[i]))
            i += 2
        else:
            rows.append(np.real(v_inv[i]))
            i += 1
    return np.vstack(rows)


def gramian_select(model: KoopmanModel, k: int,
                   weight_tol: float = 1e-8) -> tuple[list[int], GramianSelector]:
    """Nodes owning any observable with significant weight in the k leading
    eigenrows of the lifted operator."""
    if not 1 <= k <= model.size:
        raise ValueError(f"k must lie in 1..{model.size}")
    lam, v_inv = _sorted_eigensystem(model.operator)
    k = _extend_past_pair(lam, k)
    weights = np.abs(v_inv[:k])
    nodes: set[int] = set()
    for m in range(model.size):
        if weights[:, m].max() > weight_tol:
            nodes.update(model.spec.terms[m].owners)
    selector = GramianSelector(k=k, w_h=_real_report_rows(lam, v_inv, k),
                               eigenvalues=lam, v_inv=v_inv)
    return sorted(nodes), selector


def gramian_nodes_for_budget(model: KoopmanModel, budget: int,
                             weight_tol: float = 1e-8) -> tuple[list[int], GramianSelector]:
    """Sweep k upward, collecting nodes in eigen-energy order, until exactly
    ``budget`` sensors are picked.

    Rows are visited in descending |eigenvalue| order; within a row, nodes
    enter by the largest weight among the observables they own.  Should the
    spectrum leave some nodes untouched, the remaining slots are filled in
    node order.
    """
    n = model.spec.n
    if not 1 <= budget <= n:
        raise ValueError(f"budget must lie in 1..{n}")
    lam, v_inv = _sorted_eigensystem(model.operator)
    picked: list[int] = []
    seen: set[int] = set()
    rows_used = 0
    for r in range(v_inv.shape[0]):
        if len(picked) >= budget:
            break
        rows_used = r + 1
        w = np.abs(v_inv[r])
        node_weight: dict[int, float] = {}
        for m, term in enumerate(model.spec.terms):
            if w[m] <= weight_tol:
                continue
            for node in term.owners:
                node_weight[node] = max(node_weight.get(node, 0.0), float(w[m]))
        for node in sorted(node_weight, key=lambda v: (-node_weight[v], v)):
            if node not in seen:
                seen.add(node)
                picked.append(node)
                if len(picked) >= budget:
                    break
    for node in range(n):
        if len(picked) >= budget:
            break
        if node not in seen:
            seen.add(node)
            picked.append(node)
    rows_used = _extend_past_pair(lam, max(rows_used, 1))
    selector = GramianSelector(k=rows_used,
                               w_h=_real_report_rows(lam, v_inv, rows_used),
                               eigenvalues=lam, v_inv=v_inv)
    return picked, selector


def linear_observable_recover(samples: SampleMatrix, theta: EvolutionStack,
                              spec: ObservableSpec,
                              rcond: float = 1e-10) -> RecoveryResult:
    """Recover the initial lifted vector as a free M-vector by least squares,
    then unlift and roll forward.  No lift structure is enforced, which is
    what makes this a baseline rather than the proposed recovery."""
    a = theta.theta[samples.plan.row_indices]
    z1, *_ = np.linalg.lstsq(a, samples.values, rcond=rcond)
    residual = a @ z1 - samples.values
    out = unlift_trajectory(spec, theta.evolve(z1))
    x1 = out[:, 0]
    objective = float(residual @ residual)
    return RecoveryResult(x1=x1, trajectory=out, objective=objective,
                          iterations=0, converged=True,
                          objective_trace=(objective,))


@dataclass(frozen=True)
class LinearGFTBasis:
    """First r Laplacian eigenvectors (ascending eigenvalue), orthonormal."""

    u: np.ndarray
    eigenvalues: np.ndarray
    r: int

    @property
    def n(self) -> int:
        return self.u.shape[0]


def build_laplacian_basis(graph: Graph, r: int) -> LinearGFTBasis:
    """Eigenbasis of L = D - A restricted to the r smallest eigenvalues."""
    if not 1 <= r <= graph.n:
        raise ValueError(f"r must lie in 1..{graph.n}")
    degrees = graph.adjacency.sum(axis=1)
    lap = np.diag(degrees) - graph.adjacency
    w, v = np.linalg.eigh(lap)
    return LinearGFTBasis(u=v[:, :r], eigenvalues=w[:r], r=r)


def linear_gft_select(basis: LinearGFTBasis,
                      budget: int | None = None) -> tuple[tuple[int, ...], bool]:
    """Greedy node-row selection on the basis until its sampled rows reach
    numerical rank r (or the budget runs out).

    Returns the chosen rows and whether full rank was reached.
    """
    n, r = basis.n, basis.r
    budget = n if budget is None else budget
    if not 1 <= budget <= n:
        raise ValueError(f"budget must lie in 1..{n}")
    selected: list[int] = []
    reached = False
    while len(selected) < budget and not reached:
        best_key, best_node = None, -1
        target = min(len(selected) + 1, r)
        for cand in range(n):
            if cand in selected:
                continue
            sub = basis.u[selected + [cand]]
            score, sigma = sigma_quotient(sub, target)
            key = (score, -sigma, cand)
            if best_key is None or key < best_key:
                best_key, best_node = key, cand
        selected.append(best_node)
        if len(selected) >= r:
            reached = numerical_rank(basis.u[selected]) == r
    return tuple(selected), reached


def linear_gft_recover_trajectory(nodes, basis: LinearGFTBasis,
                                  sampled_states: np.ndarray,
                                  rcond: float = 1e-10) -> np.ndarray:
    """Least-squares bandlimited recovery of a trajectory, one column per
    tick, from its node samples (one row per node of ``nodes``)."""
    rows = basis.u[list(nodes)]
    sampled_states = np.asarray(sampled_states, dtype=float)
    if sampled_states.ndim != 2 or sampled_states.shape[0] != rows.shape[0]:
        raise ValueError("sampled_states must be (len(nodes), tau)")
    if numerical_rank(rows) < basis.r:
        raise RuntimeError("sampled basis rows are rank-deficient; "
                           "recovery is not identifiable")
    coef, *_ = np.linalg.lstsq(rows, sampled_states, rcond=rcond)
    return basis.u @ coef
