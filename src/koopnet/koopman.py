"""Least-squares estimation of the lifted one-tick transition operator.

Snapshot pairs from simulated trajectories are lifted through an observable
dictionary; the operator K is the minimizer of ``||Y - K X||_F^2``, solved
through an SVD pseudo-inverse with a relative singular-value cutoff, taken
of one of two matrices.  The M x M leading block of R, the triangular
factor of ``[X.T | Y.T]`` that a training set keeps and each refit folds
its new trajectories into (a QR update; Golub & Van Loan, Matrix
Computations, sec. 6.5), serves every refit and every ``fit`` with at least
``FACTOR_PAIRS`` snapshot pairs per observable; ``fit`` takes the SVD of
the lifted snapshots ``X.T`` otherwise.  The cut follows a measurement at
one BLAS thread: through R, the n = 40 log fit (121 observables, 4,900
pairs) took 6% less time and lowered the biochemical n = 40 sweep's peak
memory from 59.1 to 54.1 MB, while poly fits at 841 and 1,861 observables
(M/P = 0.17 and 0.38) took 25% longer, so they keep the snapshot SVD and
their bytes.
``rollout`` is the one forward recurrence: it pushes lifted vectors through
K tick by tick (both recoveries' paths), and ``build_theta`` rolls out the
identity to get the powers ``K^0 .. K^(tau-1)`` that greedy selection scores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .dynamics import (DynamicsParams, Graph, Trajectory, default_initial_range,
                       simulate_ensemble)
from .metrics import nrmse
from .observables import (ObservableSpec, as_nodes, check_fields,
                          lift_trajectory, spec_from_dict, spec_to_dict,
                          unlift_trajectory)

SV_CUTOFF = 1e-10
FACTOR_PAIRS = 20   # fit solves from R when P >= FACTOR_PAIRS * M
_FOLD_ROWS = 2   # pending rows, in multiples of M, folded into R at once


def fold(pairs) -> tuple[np.ndarray, np.ndarray]:
    """R of ``[A | B]`` = QR as ``(R_a, R_b)`` for ``(rows, rhs)`` blocks of
    A and B stacked in order, so ``||A z - B|| = ||R_a z - R_b||`` for all
    z; ``R_b`` is a vector when the blocks' ``rhs`` are.  The blocks are
    written under R in one buffer, folded into R by QR when the next would
    not fit; one block is factored as it stands.  The buffer holds a block
    as long as the first or ``_FOLD_ROWS * M`` rows beside R, and grows for
    a longer one.  Blocks passed in an iterator are freed once written."""
    buffer, filled = None, 0   # R on top, then pending blocks
    for rows, rhs in pairs:
        k, m = rows.shape
        if buffer is None:
            vector = rhs.ndim == 1
            c = 1 if vector else rhs.shape[1]
            buffer = np.empty((max(k, _FOLD_ROWS * m) + m + c, m + c))
        elif filled + k > buffer.shape[0]:
            r = np.linalg.qr(buffer[:filled], mode="r")
            filled = r.shape[0]
            if filled + k > buffer.shape[0]:
                buffer = np.empty((filled + k, m + c))
            buffer[:filled] = r
        buffer[filled:filled + k, :m] = rows
        buffer[filled:filled + k, m:] = rhs.reshape(k, c)
        filled += k
        del rows, rhs
    r = np.linalg.qr(buffer[:filled], mode="r")
    return r[:, :m], (r[:, m] if vector else r[:, m:])


@dataclass(frozen=True)
class TrainingSet:
    """Trajectories and the dictionary that lifts them into snapshot pairs.

    ``x`` and ``y`` are lifted on each access, one trajectory at a time, into
    one M x P array: every column of ``y`` follows the same column of ``x``
    by one tick.  Nothing lifted is kept, so a caller holds at most the copy
    it asked for.  ``factor``, the R of ``[X.T | Y.T]``, is folded one
    trajectory at a time on first read and then kept.  ``fit`` reads it
    instead of ``x`` and ``y`` when ``pairs >= FACTOR_PAIRS * M`` (every
    log and identity fit of the default sweeps; on the n = 40 log sweep
    this lowered peak memory by 8%), and every refit starts from it.
    """

    trajectories: tuple[Trajectory, ...]
    spec: ObservableSpec

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        if not self.trajectories:
            raise ValueError("need at least one trajectory")
        for traj in self.trajectories:
            if traj.n != self.spec.n:
                raise ValueError(f"a trajectory has {traj.n} nodes, the "
                                 f"dictionary expects {self.spec.n}")
            if traj.tau < 2:
                raise ValueError("a trajectory needs at least two ticks")

    @property
    def d(self) -> int:
        """Number of source trajectories."""
        return len(self.trajectories)

    @property
    def x(self) -> np.ndarray:
        """Lifted sources: each trajectory's ticks but its last, M x P."""
        return self._lifted(slice(None, -1))

    @property
    def y(self) -> np.ndarray:
        """Lifted targets: each trajectory's ticks but its first, M x P."""
        return self._lifted(slice(1, None))

    @property
    def pairs(self) -> int:
        """Number of snapshot pairs P."""
        return sum(traj.tau - 1 for traj in self.trajectories)

    def _lifted(self, ticks: slice) -> np.ndarray:
        out = np.empty((self.spec.size, self.pairs))
        start = 0
        for traj in self.trajectories:
            stop = start + traj.tau - 1
            z = lift_trajectory(self.spec, traj.states)
            out[:, start:stop] = z[:, ticks]
            start = stop
        return out

    @cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """R of ``[X.T | Y.T]`` as its column halves ``(R_x, R_y)``, each
        min(P, 2M) x M; no M x P array is formed."""
        return fold(_snapshot_rows(self.trajectories, self.spec))


def _snapshot_rows(trajectories, spec: ObservableSpec):
    """Each trajectory's rows of ``(X.T, Y.T)``, lifted one at a time."""
    for traj in trajectories:
        z = lift_trajectory(spec, traj.states)
        yield z[:, :-1].T, z[:, 1:].T


@dataclass(frozen=True)
class KoopmanModel:
    operator: np.ndarray      # M x M
    spec: ObservableSpec
    residual: float           # relative one-tick training residual

    def __post_init__(self):
        m = self.spec.size
        if np.shape(self.operator) != (m, m):
            raise ValueError(f"operator has shape {np.shape(self.operator)}, "
                             f"the {self.spec.kind} dictionary of size {m} "
                             f"needs ({m}, {m})")

    @property
    def size(self) -> int:
        return self.spec.size


def assemble_training(trajectories: list[Trajectory],
                      spec: ObservableSpec) -> TrainingSet:
    """Validate the trajectories and wrap them; nothing is lifted yet."""
    return TrainingSet(trajectories=trajectories, spec=spec)


def fit(training: TrainingSet) -> KoopmanModel:
    """Solve ``min_K ||Y - K X||_F^2`` by pseudo-inverse: ``K = Y X^+``.

    The pseudo-inverse drops singular values below ``SV_CUTOFF`` times the
    largest one.  All-zero snapshot data is rejected.  With at least
    ``FACTOR_PAIRS`` snapshot pairs per observable, K is solved as a refit
    solves it, from ``training.factor``: no M x P array is formed, and each
    trajectory is lifted once for this fit and every later refit.  With
    fewer, K is solved from the SVD of the lifted snapshots: on poly fits at
    M/P = 0.17 and 0.38 the fold took 25% longer.
    """
    if training.pairs >= FACTOR_PAIRS * training.spec.size:
        return _solve_factor(training.factor, training.spec)
    # X = ut.T diag(s) v.T.  With more snapshots than observables, X.T is
    # tall, and LAPACK factors it on its QR path, faster than X's LQ path.
    # X is freed when the SVD returns, before Y is lifted, so only one
    # lifted M x P array is held beside the factors.
    return _solve(np.linalg.svd(training.x.T, full_matrices=False),
                  training.y, training.spec)


def _solve_factor(factor, spec: ObservableSpec) -> KoopmanModel:
    """``_solve`` on the R of ``[X.T | Y.T]``, given as ``(R_x, R_y)``."""
    r_x, r_y = factor
    m = spec.size
    return _solve(np.linalg.svd(r_x[:m], full_matrices=False), r_y[:m].T,
                  spec, rest=np.linalg.norm(r_y[m:]))


def _solve(svd, y: np.ndarray, spec: ObservableSpec,
           rest: float = 0.0) -> KoopmanModel:
    """``K = Y X^+`` from the thin SVD ``(v, s, ut)`` of ``X.T`` and Y.

    ``fit`` on few pairs passes the lifted snapshots; ``_solve_factor``
    passes ``R_xx`` for ``X.T`` and ``R_xy.T`` for Y, the blocks of the R of
    ``[X.T | Y.T]``, and ``rest`` = ``||R_yy||``, the part of Y no K can
    fit, so the residual is that of all the pairs.
    """
    v, s, ut = svd
    if s.size == 0 or s[0] <= 0.0:
        raise RuntimeError("degenerate training data: X has no nonzero columns")
    r = np.count_nonzero(s > SV_CUTOFF * s[0])
    v, s, ut = v[:, :r], s[:r], ut[:r]
    yv = y @ v
    yv *= 1.0 / s
    k = yv @ ut
    # K X = Y V V.T: M r P flops, one M x P temporary
    yv *= s
    fitted = yv @ v.T
    fitted -= y
    y_norm = math.hypot(np.linalg.norm(y), rest)
    residual = (math.hypot(np.linalg.norm(fitted), rest) / y_norm
                if y_norm > 0 else 0.0)
    return KoopmanModel(operator=k, spec=spec, residual=residual)


def rollout(model: KoopmanModel, z1: np.ndarray, tau: int) -> np.ndarray:
    """All lifted states ``K**t z1`` for t = 0..tau-1, time first.

    ``z1`` is one lifted vector (the result is tau x M), an M x d block of
    them (tau x M x d), or the M x M identity (the stack of powers), pushed
    forward together by one ``K @`` product per tick; index 0 is ``z1``.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    z = np.asarray(z1, dtype=float)
    out = np.empty((tau,) + z.shape)
    out[0] = z
    for t in range(1, tau):
        out[t] = model.operator @ out[t - 1]
    return out


def linearization_nrmse(model: KoopmanModel,
                        trajectories: list[Trajectory]) -> float:
    """Mean N-RMSE of linear rollouts from each trajectory's initial state.

    All initial states are lifted and rolled out as one block, to the
    longest trajectory; each trajectory reads its own first ``tau`` ticks.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    x1s = np.column_stack([traj.states[:, 0] for traj in trajectories])
    z_hat = rollout(model, lift_trajectory(model.spec, x1s),
                    max(traj.tau for traj in trajectories))
    errors = [nrmse(unlift_trajectory(model.spec, z_hat[:traj.tau, :, j].T),
                    traj.states)
              for j, traj in enumerate(trajectories)]
    return float(np.mean(errors))


def build_theta(model: KoopmanModel, tau: int) -> np.ndarray:
    """The stack of powers, tau x M x M with ``K**t`` at index t; index 0 is I."""
    return rollout(model, np.eye(model.size), tau)


def refine_with_samples(training: TrainingSet, sampled_nodes,
                        sampled_x1: np.ndarray, graph: Graph,
                        params: DynamicsParams, num_steps: int, d_extra: int,
                        seed: int | None = None
                        ) -> tuple[KoopmanModel, TrainingSet]:
    """Refit K with extra trajectories conditioned on observed initial samples.

    ``d_extra`` new initial states are drawn uniformly from the dynamics'
    ``default_initial_range``, their entries at ``sampled_nodes`` (distinct
    nodes of the graph) overwritten by the observed values ``sampled_x1``,
    and the operator is refit on the union of old and new snapshot pairs.
    Only the new trajectories are lifted: they are folded into a copy of
    ``training.factor``, and K is solved from the result as ``fit`` solves
    it on many pairs, from the SVD of its M x M block ``R_xx``.  The
    returned union is a new ``TrainingSet``.  ``d_extra`` must be at least 1.
    """
    nodes = as_nodes(sampled_nodes, graph.n, "sampled_nodes")
    values = np.asarray(sampled_x1, dtype=float)
    if values.shape != (len(nodes),):
        raise ValueError("one observed value per sampled node is required")
    if d_extra < 1:
        raise ValueError("d_extra must be at least 1")
    rng = np.random.default_rng(seed)
    x1s = rng.uniform(*default_initial_range(params.kind), (graph.n, d_extra))
    x1s[nodes, :] = values[:, None]
    extra = tuple(simulate_ensemble(graph, params, x1s, num_steps))
    spec = training.spec
    refit = _solve_factor(
        fold(chain([training.factor], _snapshot_rows(extra, spec))), spec)
    return refit, TrainingSet(training.trajectories + extra, spec)


# ---------------------------------------------------------------------------
# Serialization

def model_to_dict(model: KoopmanModel) -> dict:
    return {"operator": model.operator.tolist(),
            "spec": spec_to_dict(model.spec),
            "residual": model.residual}


def model_from_dict(d: dict) -> KoopmanModel:
    """Rebuild a model; its operator is a list of rows of finite numbers."""
    check_fields(d, KoopmanModel, "model",
                 types={"operator": tuple[tuple[float, ...], ...]})
    lengths = [len(row) for row in d["operator"]]
    if len(set(lengths)) > 1:
        raise ValueError(f"operator: rows of lengths {lengths} are not a matrix")
    return KoopmanModel(operator=np.asarray(d["operator"], dtype=float),
                        spec=spec_from_dict(d["spec"]),
                        residual=float(d["residual"]))


def save_model(model: KoopmanModel, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(model_to_dict(model)))
    return path


def load_model(path: str | Path) -> KoopmanModel:
    return model_from_dict(json.loads(Path(path).read_text()))
