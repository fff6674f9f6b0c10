"""Network topologies and the nonlinear node dynamics simulated on them.

Two dynamics families are provided: a biochemical model (constant inflow,
linear decay, bilinear neighbor coupling) and a gene-regulatory model
(linear decay driven by saturating neighbor activation), both with unit
decay and coupling rates.  Both are integrated with fixed-step RK4 and
sampled every ``STEPS_PER_TICK`` steps, so one trajectory tick spans
``RK4_STEP * STEPS_PER_TICK`` = 0.1 time units.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .observables import as_real

BIOCHEMICAL = "biochemical"
REGULATORY = "regulatory"
_KINDS = (BIOCHEMICAL, REGULATORY)

# States beyond this magnitude are treated as numerical blow-up.
OVERFLOW_GUARD = 1e12

# The RK4 step size and the number of steps between two trajectory ticks.
RK4_STEP = 0.01
STEPS_PER_TICK = 10


@dataclass(frozen=True)
class Graph:
    """Undirected, self-loop-free topology on ``n`` nodes.

    ``adjacency`` is a dense 0/1 matrix; it is validated and stored as
    float64 so it can be used directly in vectorized coupling terms.
    """

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        if a.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}, got {a.shape}")
        if not np.isin(a, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.diagonal(a).any():
            raise ValueError("adjacency has self-loops")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", a)

    @property
    def edge_count(self) -> int:
        return int(round(self.adjacency.sum())) // 2


def generate_er_graph(n: int, p: float, seed: int | None = None) -> Graph:
    """Sample an Erdos-Renyi graph: each unordered pair is an edge with prob ``p``."""
    if n < 1:
        raise ValueError("graph needs at least one node")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    rows, cols = np.triu_indices(n, k=1)
    a[rows, cols] = rng.random(rows.size) < p
    a += a.T
    return Graph(n=n, adjacency=a)


@dataclass(frozen=True)
class DynamicsParams:
    """A dynamics family and its inflow rate (biochemical only).

    The coupling term of node i sums over its graph neighbors only.
    """

    kind: str
    flow_in: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown dynamics kind {self.kind!r}")
        if not as_real(self.flow_in, "flow_in") >= 0:
            raise ValueError("flow_in must be nonnegative")
        if self.kind == REGULATORY and self.flow_in != 0:
            raise ValueError("the regulatory dynamics has no inflow; "
                             "flow_in must be 0")


def default_initial_range(kind: str) -> tuple[float, float]:
    """Initial-state sampling interval conventionally used with each dynamics."""
    if kind == BIOCHEMICAL:
        return (0.0, 1.0)
    if kind == REGULATORY:
        return (0.0, 100.0)
    raise ValueError(f"unknown dynamics kind {kind!r}")


def _rhs(x, graph, params):
    # x may be a single state (n,) or a batch of columns (n, d)
    a = graph.adjacency
    if params.kind == BIOCHEMICAL:
        return params.flow_in - x - x * (a @ x)
    sat = x * x
    sat = sat / (1.0 + sat)
    return -x + a @ sat


def derivative(x: np.ndarray, graph: Graph, params: DynamicsParams) -> np.ndarray:
    """Instantaneous time derivative of the node states."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != graph.n:
        raise ValueError(f"state has {x.shape[0]} entries, graph has {graph.n} nodes")
    if not np.isfinite(x).all():
        raise ValueError("state contains non-finite entries")
    return _rhs(x, graph, params)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states, one column per tick (column 0 is the initial state)."""

    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        if s.ndim != 2:
            raise ValueError("states must be a 2-D node-by-tick array")
        if s.shape[1] < 2:
            raise ValueError("a trajectory needs at least two ticks")
        if not np.isfinite(s).all():
            raise ValueError("trajectory contains non-finite entries")
        object.__setattr__(self, "states", s)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def tau(self) -> int:
        return self.states.shape[1]


def simulate_ensemble(graph: Graph, params: DynamicsParams, x1s: np.ndarray,
                      num_steps: int) -> list[Trajectory]:
    """Integrate a batch of initial states (columns of ``x1s``) in one sweep
    of fixed-step RK4; one trajectory is a one-column batch."""
    x1s = np.asarray(x1s, dtype=float)
    if x1s.ndim != 2 or x1s.shape[0] != graph.n:
        raise ValueError(f"x1s must be ({graph.n}, d)")
    if not np.isfinite(x1s).all():
        raise ValueError("initial states contain non-finite entries")
    if num_steps < 2:
        raise ValueError("num_steps must be at least 2")
    h = RK4_STEP
    paths = np.empty((graph.n, num_steps, x1s.shape[1]))
    paths[:, 0] = x1s
    x = x1s.copy()
    # overflow on a diverging path is reported through the guard below,
    # not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for tick in range(1, num_steps):
            for _ in range(STEPS_PER_TICK):
                k1 = _rhs(x, graph, params)
                k2 = _rhs(x + 0.5 * h * k1, graph, params)
                k3 = _rhs(x + 0.5 * h * k2, graph, params)
                k4 = _rhs(x + h * k3, graph, params)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all() or np.abs(x).max() > OVERFLOW_GUARD:
                raise RuntimeError(f"simulation diverged at tick {tick}")
            paths[:, tick] = x
    return [Trajectory(states=paths[:, :, d]) for d in range(x1s.shape[1])]


def random_initial_states(n: int, d: int, low: float, high: float,
                          seed: int | None = None) -> np.ndarray:
    """Uniform (n, d) batch of initial states on (low, high)."""
    if not low < high:
        raise ValueError("need low < high")
    if d < 1:
        raise ValueError("need at least one column")
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, (n, d))


# ---------------------------------------------------------------------------
# On-disk format: one CSV row of node states per tick.

def trajectory_to_csv(trajectory: Trajectory, path: str | Path) -> Path:
    """Write ``t,x_1,...,x_N`` rows, one per tick (t counts from 1)."""
    path = Path(path)
    n = trajectory.n
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}" for i in range(n)])
        for t in range(trajectory.tau):
            writer.writerow([t + 1] + [repr(float(v))
                                       for v in trajectory.states[:, t]])
    return path


def trajectory_from_csv(path: str | Path) -> Trajectory:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 2 or header[0] != "t":
            raise ValueError(f"{path}: expected a 't,x_1,...' header")
        rows = []
        for row in filter(None, reader):  # skip blank lines
            line = reader.line_num
            if len(row) != len(header):
                raise ValueError(f"{path}: line {line} has {len(row)} "
                                 f"fields, the header has {len(header)}")
            try:
                t, *values = map(float, row)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
            if t != len(rows) + 1:
                raise ValueError(f"{path}: line {line} has t = {row[0]}, "
                                 f"expected {len(rows) + 1}")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: line {line} holds a non-finite "
                                 f"value (nan or inf)")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Trajectory(states=np.asarray(rows).T)

