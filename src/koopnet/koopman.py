"""Least-squares estimation of the lifted one-tick transition operator.

Snapshot pairs from simulated trajectories are lifted through an observable
dictionary; the operator K is the minimizer of ``||Y - K X||_F^2``, solved
through an SVD pseudo-inverse with a relative singular-value cutoff.
``rollout`` is the one forward recurrence: it pushes lifted vectors through
K tick by tick, and ``build_theta`` rolls out the identity to get the powers
``K^0 .. K^(tau-1)`` as one tau x M x M array for selection and recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import (DynamicsParams, Graph, Trajectory, default_initial_range,
                       simulate_ensemble)
from .metrics import nrmse
from .observables import (ObservableSpec, check_fields, lift_trajectory,
                          spec_from_dict, spec_to_dict, unlift_trajectory)

SV_CUTOFF = 1e-10


@dataclass(frozen=True)
class TrainingSet:
    """Trajectories and the dictionary that lifts them into snapshot pairs.

    ``x`` and ``y`` are lifted on each access, one trajectory at a time, into
    one M x P array: every column of ``y`` follows the same column of ``x``
    by one tick.  Nothing lifted is kept, so a caller holds at most the copy
    it asked for.
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

    def _lifted(self, ticks: slice) -> np.ndarray:
        out = np.empty((self.spec.size,
                        sum(traj.tau - 1 for traj in self.trajectories)))
        start = 0
        for traj in self.trajectories:
            stop = start + traj.tau - 1
            z = lift_trajectory(self.spec, traj.states)
            out[:, start:stop] = z[:, ticks]
            start = stop
        return out


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
    largest one.  All-zero snapshot data is rejected.
    """
    # X = ut.T diag(s) v.T.  With more snapshots than observables, X.T is
    # tall, and LAPACK factors it on its QR path, faster than X's LQ path.
    # X is freed when the SVD returns, before Y is lifted, so only one
    # lifted M x P array is held beside the factors.
    v, s, ut = np.linalg.svd(training.x.T, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise RuntimeError("degenerate training data: X has no nonzero columns")
    r = np.count_nonzero(s > SV_CUTOFF * s[0])
    v, s, ut = v[:, :r], s[:r], ut[:r]
    y = training.y
    yv = y @ v
    yv *= 1.0 / s
    k = yv @ ut
    # K X = Y V V.T: M r P flops, one M x P temporary
    yv *= s
    fitted = yv @ v.T
    fitted -= y
    y_norm = np.linalg.norm(y)
    residual = float(np.linalg.norm(fitted) / y_norm) if y_norm > 0 else 0.0
    return KoopmanModel(operator=k, spec=training.spec, residual=residual)


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


def refine_with_samples(model: KoopmanModel, training: TrainingSet,
                        sampled_nodes, sampled_x1: np.ndarray,
                        graph: Graph, params: DynamicsParams, num_steps: int,
                        d_extra: int, seed: int | None = None
                        ) -> tuple[KoopmanModel, TrainingSet]:
    """Refit K with extra trajectories conditioned on observed initial samples.

    ``d_extra`` new initial states are drawn uniformly from the dynamics'
    ``default_initial_range``, their entries at ``sampled_nodes``
    overwritten by the observed values ``sampled_x1``, and
    the operator is refit on the union of old and new snapshot pairs.  With
    ``d_extra == 0`` the model is returned unchanged.
    """
    if d_extra < 0:
        raise ValueError("d_extra must be nonnegative")
    if d_extra == 0:
        return model, training
    nodes = list(sampled_nodes)
    values = np.asarray(sampled_x1, dtype=float)
    if values.shape != (len(nodes),):
        raise ValueError("one observed value per sampled node is required")
    rng = np.random.default_rng(seed)
    x1s = rng.uniform(*default_initial_range(params.kind), (graph.n, d_extra))
    x1s[nodes, :] = values[:, None]
    extra = simulate_ensemble(graph, params, x1s, num_steps)
    combined = TrainingSet(trajectories=training.trajectories + tuple(extra),
                           spec=model.spec)
    return fit(combined), combined


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
