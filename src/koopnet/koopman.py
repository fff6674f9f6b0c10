"""Least-squares estimation of the lifted one-tick transition operator.

Snapshot pairs from simulated trajectories are lifted through an observable
dictionary; the operator K is the minimizer of ``||Y - K X||_F^2`` (plus an
optional ridge term), solved through an SVD pseudo-inverse with a relative
singular-value cutoff.  ``EvolutionStack`` caches the powers
``K^0 .. K^(tau-1)`` as one tau x M x M array for selection and recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DynamicsParams, Graph, Trajectory, simulate_ensemble
from .metrics import nrmse
from .observables import (ObservableSpec, lift_trajectory, spec_from_dict,
                          spec_to_dict, unlift_trajectory)

SV_CUTOFF = 1e-10


@dataclass(frozen=True)
class TrainingSet:
    """Lifted snapshot pairs: columns of ``y`` follow columns of ``x`` by one tick."""

    x: np.ndarray
    y: np.ndarray
    d: int  # number of source trajectories
    spec: ObservableSpec

    def __post_init__(self):
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have matching shapes")
        if self.x.ndim != 2 or self.x.shape[1] < 1:
            raise ValueError("need at least one snapshot pair")
        if self.x.shape[0] != self.spec.size:
            raise ValueError("snapshot rows do not match the dictionary size")


@dataclass(frozen=True)
class KoopmanModel:
    operator: np.ndarray      # M x M
    spec: ObservableSpec
    residual: float           # relative one-tick training residual

    @property
    def size(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class EvolutionStack:
    """Operator powers: ``powers[t]`` is ``K**t``, t = 0..tau-1; index 0 is I."""

    powers: np.ndarray        # tau x M x M

    @property
    def tau(self) -> int:
        return self.powers.shape[0]

    @property
    def m(self) -> int:
        return self.powers.shape[1]

    def evolve(self, z1: np.ndarray) -> np.ndarray:
        """The lifted path ``K**t z1`` for t = 0..tau-1, as M x tau columns.

        One matrix-vector product per power; column 0 is ``z1`` itself.
        """
        return (self.powers @ z1).T


def assemble_training(trajectories: list[Trajectory],
                      spec: ObservableSpec) -> TrainingSet:
    """Lift every trajectory and collect all consecutive column pairs."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    xs, ys = [], []
    for traj in trajectories:
        z = lift_trajectory(spec, traj.states)
        xs.append(z[:, :-1])
        ys.append(z[:, 1:])
    return TrainingSet(x=np.hstack(xs), y=np.hstack(ys), d=len(trajectories),
                       spec=spec)


def fit(training: TrainingSet, ridge: float = 0.0) -> KoopmanModel:
    """Solve ``min_K ||Y - K X||_F^2 + ridge * ||K||_F^2``.

    The pseudo-inverse drops singular values below ``SV_CUTOFF`` times the
    largest one.  All-zero snapshot data is rejected.
    """
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    x, y = training.x, training.y
    # X = ut.T diag(s) v.T.  With more snapshots than observables, X.T is
    # tall, and LAPACK factors it on its QR path, faster than X's LQ path.
    v, s, ut = np.linalg.svd(x.T, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise RuntimeError("degenerate training data: X has no nonzero columns")
    r = np.count_nonzero(s > SV_CUTOFF * s[0])
    v, s, ut = v[:, :r], s[:r], ut[:r]
    gain = s / (s * s + ridge) if ridge > 0 else 1.0 / s
    yv = y @ v
    yv *= gain
    k = yv @ ut
    # K X = Y V diag(gain * s) V.T: M r P flops, one M x P temporary
    yv *= s
    fitted = yv @ v.T
    fitted -= y
    y_norm = np.linalg.norm(y)
    residual = float(np.linalg.norm(fitted) / y_norm) if y_norm > 0 else 0.0
    return KoopmanModel(operator=k, spec=training.spec, residual=residual)


def rollout(model: KoopmanModel, z1: np.ndarray, tau: int) -> np.ndarray:
    """All lifted states ``K**(t-1) z1`` for t = 1..tau, along a new last axis.

    ``z1`` is one lifted vector (the result is M x tau) or an M x d block of
    them (M x d x tau), pushed forward together by one ``K @`` product per
    tick.  The model-path forward map: it needs only K, where
    ``EvolutionStack.evolve`` needs the tau x M x M stack of its powers.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    z = np.asarray(z1, dtype=float)
    out = np.empty(z.shape + (tau,))
    out[..., 0] = z
    for t in range(1, tau):
        out[..., t] = model.operator @ out[..., t - 1]
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
    errors = [nrmse(unlift_trajectory(model.spec, z_hat[:, j, :traj.tau]),
                    traj.states)
              for j, traj in enumerate(trajectories)]
    return float(np.mean(errors))


def build_theta(model: KoopmanModel, tau: int) -> EvolutionStack:
    """Stack ``K**0 .. K**(tau-1)`` (computed iteratively) into one array."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    m = model.size
    powers = np.empty((tau, m, m))
    powers[0] = np.eye(m)
    for t in range(1, tau):
        powers[t] = model.operator @ powers[t - 1]
    return EvolutionStack(powers=powers)


def refine_with_samples(model: KoopmanModel, training: TrainingSet,
                        sampled_nodes, sampled_x1: np.ndarray,
                        graph: Graph, params: DynamicsParams, num_steps: int,
                        init_low: float, init_high: float, d_extra: int,
                        seed: int | None = None, ridge: float = 0.0) -> tuple[KoopmanModel, TrainingSet]:
    """Refit K with extra trajectories conditioned on observed initial samples.

    ``d_extra`` new initial states are drawn uniformly, their entries at
    ``sampled_nodes`` overwritten by the observed values ``sampled_x1``, and
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
    x1s = rng.uniform(init_low, init_high, (graph.n, d_extra))
    x1s[nodes, :] = values[:, None]
    extra = assemble_training(simulate_ensemble(graph, params, x1s, num_steps),
                              model.spec)
    combined = TrainingSet(x=np.hstack([training.x, extra.x]),
                           y=np.hstack([training.y, extra.y]),
                           d=training.d + d_extra, spec=model.spec)
    return fit(combined, ridge=ridge), combined


# ---------------------------------------------------------------------------
# Serialization

def model_to_dict(model: KoopmanModel) -> dict:
    return {"operator": model.operator.tolist(),
            "spec": spec_to_dict(model.spec),
            "residual": model.residual}


def model_from_dict(d: dict) -> KoopmanModel:
    return KoopmanModel(operator=np.asarray(d["operator"], dtype=float),
                        spec=spec_from_dict(d["spec"]),
                        residual=float(d["residual"]))


def save_model(model: KoopmanModel, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(model_to_dict(model)))
    return path


def load_model(path: str | Path) -> KoopmanModel:
    return model_from_dict(json.loads(Path(path).read_text()))
