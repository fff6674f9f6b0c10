"""Reference schemes the log-dictionary pipeline is compared against.

* Observability-gramian selection on a (typically polynomial) lifted
  operator: eigendecompose K, walk the rows of V^-1 by descending
  |eigenvalue|, and let nodes enter by their largest significant weight in
  each row until the budget is met.  Recovery then treats the initial
  lifted vector as a free vector, solves the sampled rows of the operator
  powers (read off K tick by tick and folded into the triangular factor
  both recoveries solve on) by pseudo-inverse, and rolls K forward from the
  solution, ignoring the nonlinear structure tying lifted entries to states.
* Classic bandlimited graph-signal sampling: an r-dimensional Laplacian
  eigenbasis, greedy row selection until the sampled basis has rank r, and
  per-tick least-squares recovery of the basis coefficients.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Graph
from .koopman import KoopmanModel
from .observables import ObservableSpec
from .recovery import SampleMatrix, sampled_system
from .sampling import RANK_TOL, pick_key, sigma_quotient

_COND_LIMIT = 1e12     # on the 1-norm condition number of the eigenvectors
_WEIGHT_TOL = 1e-8     # eigen-row weights at or below this reach no node


def _sorted_eigensystem(operator: np.ndarray):
    """Eigenvalues by descending modulus and the matching rows of V^-1.

    The spectrum is rejected as defective when V is singular or when
    ||V||_1 ||V^-1||_1 exceeds ``_COND_LIMIT``.
    """
    lam, v = np.linalg.eig(operator)
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        cond = np.inf
    else:
        cond = np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RuntimeError(
            f"defective spectrum: eigenvector condition number {cond:.3g}")
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order], v_inv[order]


def _node_weights(spec: ObservableSpec, row: np.ndarray) -> dict[int, float]:
    """Each node's largest |weight| in one eigen-row among the observables it
    owns, counting only weights above ``_WEIGHT_TOL``."""
    w = np.abs(row)
    weights: dict[int, float] = {}
    for m in np.flatnonzero(w > _WEIGHT_TOL):
        for node in spec.owners[m]:
            weights[node] = max(weights.get(node, 0.0), float(w[m]))
    return weights


def gramian_nodes_for_budget(model: KoopmanModel, budget: int) -> list[int]:
    """The first ``budget`` sensors in eigen-energy order.

    Rows of V^-1 are visited in descending |eigenvalue| order; within a row,
    nodes enter by the largest weight among the observables they own (ties
    to the lower index).  Should the spectrum leave some nodes untouched, the
    remaining slots are filled in node order.
    """
    n = model.spec.n
    if not 1 <= budget <= n:
        raise ValueError(f"budget must lie in 1..{n}")
    _, v_inv = _sorted_eigensystem(model.operator)
    order: dict[int, None] = {}    # insertion-ordered set of picked nodes
    for row in v_inv:
        if len(order) >= budget:
            break
        weights = _node_weights(model.spec, row)
        order.update(dict.fromkeys(sorted(weights,
                                          key=lambda v: (-weights[v], v))))
    order.update(dict.fromkeys(range(n)))
    return list(order)[:budget]


def linear_observable_recover(samples: SampleMatrix,
                              model: KoopmanModel) -> tuple[np.ndarray, float]:
    """Recover the initial lifted vector as a free M-vector by least squares,
    then roll it forward through K and unlift.  No lift structure is
    enforced, which is what makes this a baseline rather than the proposed
    recovery.  Returns the n x tau trajectory and ``||A z1 - y||^2``, both
    read off ``recovery.sampled_system``, which never forms A."""
    r_a, r_y, path = sampled_system(samples, model)
    z1, *_ = np.linalg.lstsq(r_a, r_y, rcond=RANK_TOL)
    residual = r_a @ z1 - r_y
    return path(z1), float(residual @ residual)


def build_laplacian_basis(graph: Graph, r: int) -> np.ndarray:
    """The n x r orthonormal eigenvectors of L = D - A that belong to its r
    smallest eigenvalues, in ascending order."""
    if not 1 <= r <= graph.n:
        raise ValueError(f"r must lie in 1..{graph.n}")
    degrees = graph.adjacency.sum(axis=1)
    lap = np.diag(degrees) - graph.adjacency
    _, v = np.linalg.eigh(lap)
    return v[:, :r]


def linear_gft_select(basis: np.ndarray,
                      budget: int) -> tuple[tuple[int, ...], bool]:
    """Greedy node-row selection on the n x r basis until its sampled rows
    reach rank r (or the budget runs out).

    Returns the chosen rows and whether full rank was reached.
    """
    n, r = basis.shape
    if not 1 <= budget <= n:
        raise ValueError(f"budget must lie in 1..{n}")
    selected: list[int] = []
    reached = False

    def key(cand):   # greedy_select's order
        return pick_key(sigma_quotient(basis[selected + [cand]],
                                       min(len(selected) + 1, r)), cand)

    while len(selected) < budget and not reached:
        full, *_, best = min(key(c) for c in range(n) if c not in selected)
        selected.append(best)
        # the winning key is full rank (0) when its quotient is finite
        reached = len(selected) >= r and full == 0
    return tuple(selected), reached


def linear_gft_recover_trajectory(nodes, basis: np.ndarray,
                                  sampled_states: np.ndarray) -> np.ndarray:
    """Least-squares bandlimited recovery of a trajectory, one column per
    tick, from its node samples (one row per node of ``nodes``) on the
    n x r basis."""
    rows = basis[list(nodes)]
    sampled_states = np.asarray(sampled_states, dtype=float)
    if sampled_states.ndim != 2 or sampled_states.shape[0] != rows.shape[0]:
        raise ValueError("sampled_states must be (len(nodes), tau)")
    if sigma_quotient(rows, basis.shape[1])[2] < basis.shape[1]:
        raise RuntimeError("sampled basis rows are rank-deficient; "
                           "recovery is not identifiable")
    coef, *_ = np.linalg.lstsq(rows, sampled_states, rcond=RANK_TOL)
    return basis @ coef
