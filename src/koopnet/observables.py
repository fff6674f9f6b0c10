"""Observable dictionaries that lift node states into a linearizable space.

Three dictionary kinds are supported:

* ``log``  -- per node: the scaled state ``x_i / C`` plus ``log(1 + (x_i/C)**p)``
  for each configured power ``p``, with a single shared constant entry.
  Size grows linearly in the node count.
* ``poly`` -- deduplicated cross monomials ``x_i**a * x_j**b`` with per-factor
  exponents up to a cap.  Size grows quadratically in the node count.
* ``identity`` -- the raw states themselves (plain DMD).

Every non-constant dictionary entry is owned by the node(s) whose state it
reads, which is what lets a sampled node set determine exactly which lifted
coordinates are observable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LOG = "log"
POLY = "poly"
IDENTITY = "identity"

# Advisory bound on |x|/C before the log entries drift away from their
# small-argument polynomial behaviour.
SCALE_HEADROOM = 0.2


@dataclass(frozen=True)
class ObservableTerm:
    """One dictionary entry: its functional form and the nodes it reads."""

    form: str                                   # "const" | "linear" | "log" | "monomial"
    owners: tuple[int, ...]
    power: int = 0                              # log exponent
    exponents: tuple[tuple[int, int], ...] = () # monomial (node, exponent) pairs


@dataclass(frozen=True)
class ObservableSpec:
    """A fully enumerated dictionary over ``n`` nodes."""

    kind: str
    n: int
    scale: float
    log_powers: tuple[int, ...]
    poly_max_power: int
    terms: tuple[ObservableTerm, ...]

    @property
    def size(self) -> int:
        """Number of dictionary entries M."""
        return len(self.terms)

    @cached_property
    def linear_indices(self) -> np.ndarray:
        """Dictionary row holding the (scaled) state of each node, in node order."""
        idx = np.full(self.n, -1, dtype=int)
        for m, term in enumerate(self.terms):
            if term.form == "linear":
                idx[term.owners[0]] = m
            elif term.form == "monomial" and term.exponents == ((term.owners[0], 1),):
                idx[term.owners[0]] = m
        if (idx < 0).any():
            raise ValueError("dictionary is missing a linear entry for some node")
        return idx

    @cached_property
    def _poly_factors(self):
        """Per-term (i, a, j, b) factor arrays for vectorized monomial evaluation."""
        i_idx = np.zeros(self.size, dtype=int)
        i_pow = np.zeros(self.size, dtype=int)
        j_idx = np.zeros(self.size, dtype=int)
        j_pow = np.zeros(self.size, dtype=int)
        for m, term in enumerate(self.terms):
            exps = term.exponents
            if len(exps) >= 1:
                i_idx[m], i_pow[m] = exps[0]
            if len(exps) == 2:
                j_idx[m], j_pow[m] = exps[1]
        return i_idx, i_pow, j_idx, j_pow


def log_spec(n: int, scale: float = 500.0, powers: tuple[int, ...] = (1, 2)) -> ObservableSpec:
    """Log dictionary: constant entry, then per node the scaled state and one
    log entry per power.  Size is ``1 + n * (1 + len(powers))``."""
    if n < 1:
        raise ValueError("need at least one node")
    if scale <= 0:
        raise ValueError("scale must be positive")
    powers = tuple(int(p) for p in powers)
    if len(powers) == 0:
        raise ValueError("need at least one log power")
    if len(set(powers)) != len(powers) or any(p < 1 for p in powers):
        raise ValueError("log powers must be distinct positive integers")
    terms = [ObservableTerm(form="const", owners=())]
    for i in range(n):
        terms.append(ObservableTerm(form="linear", owners=(i,)))
        for p in powers:
            terms.append(ObservableTerm(form="log", owners=(i,), power=p))
    return ObservableSpec(kind=LOG, n=n, scale=float(scale), log_powers=powers,
                          poly_max_power=0, terms=tuple(terms))


def poly_spec(n: int, max_power: int = 2) -> ObservableSpec:
    """Cross-monomial dictionary ``x_i**a * x_j**b`` with ``a, b <= max_power``,
    deduplicated, ordered by first appearance under lexicographic
    ``(i, j, a, b)`` enumeration."""
    if n < 1:
        raise ValueError("need at least one node")
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    seen: set[tuple] = set()
    terms: list[ObservableTerm] = []
    for i in range(n):
        for j in range(n):
            for a in range(max_power + 1):
                for b in range(max_power + 1):
                    merged: dict[int, int] = {}
                    for node, e in ((i, a), (j, b)):
                        if e > 0:
                            merged[node] = merged.get(node, 0) + e
                    key = tuple(sorted(merged.items()))
                    if key in seen:
                        continue
                    seen.add(key)
                    if not key:
                        terms.append(ObservableTerm(form="const", owners=()))
                    else:
                        owners = tuple(node for node, _ in key)
                        terms.append(ObservableTerm(form="monomial", owners=owners,
                                                    exponents=key))
    return ObservableSpec(kind=POLY, n=n, scale=1.0, log_powers=(),
                          poly_max_power=int(max_power), terms=tuple(terms))


def identity_spec(n: int) -> ObservableSpec:
    """Raw states as observables; lifting is the identity map."""
    if n < 1:
        raise ValueError("need at least one node")
    terms = tuple(ObservableTerm(form="linear", owners=(i,)) for i in range(n))
    return ObservableSpec(kind=IDENTITY, n=n, scale=1.0, log_powers=(),
                          poly_max_power=0, terms=terms)


def build_spec(kind: str, n: int, scale: float = 500.0,
               powers: tuple[int, ...] = (1, 2), max_power: int = 2) -> ObservableSpec:
    """Dispatch on dictionary kind; unused arguments are ignored."""
    if kind == LOG:
        return log_spec(n, scale=scale, powers=powers)
    if kind == POLY:
        return poly_spec(n, max_power=max_power)
    if kind == IDENTITY:
        return identity_spec(n)
    raise ValueError(f"unknown dictionary kind {kind!r}")


def _as_columns(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[:, None], True
    if x.ndim == 2:
        return x, False
    raise ValueError("states must be a vector or a node-by-tick matrix")


def lift_trajectory(spec: ObservableSpec, states: np.ndarray) -> np.ndarray:
    """Apply the dictionary to each column of ``states`` (n x T -> M x T)."""
    x, _ = _as_columns(states)
    if x.shape[0] != spec.n:
        raise ValueError(f"states have {x.shape[0]} rows, dictionary expects {spec.n}")
    if not np.isfinite(x).all():
        raise ValueError("states contain non-finite entries")
    t = x.shape[1]

    if spec.kind == IDENTITY:
        return x.copy()

    if spec.kind == LOG:
        z = np.empty((spec.size, t))
        z[0] = 1.0
        u = x / spec.scale
        # rows 1.. hold one block per node: its scaled state, then its logs
        blocks = z[1:].reshape(spec.n, 1 + len(spec.log_powers), t)
        blocks[:, 0] = u
        for k, p in enumerate(spec.log_powers):
            base = 1.0 + u ** p
            if (base <= 0.0).any():
                node = int(np.argwhere((base <= 0.0).any(axis=-1)).ravel()[0])
                raise ValueError(
                    f"log entry undefined: 1 + (x/{spec.scale:g})**{p} <= 0 "
                    f"at node {node}")
            blocks[:, 1 + k] = np.log(base)
        return z

    # each power of each node once, then gathered per term; the exponent is
    # an integer array, as in a per-term ``x[i] ** a``, so the values match
    i_idx, i_pow, j_idx, j_pow = spec._poly_factors
    top = int(max(i_pow.max(), j_pow.max()))
    table = np.empty((top + 1,) + x.shape)
    for e in range(top + 1):
        np.power(x, np.full((spec.n, 1), e), out=table[e])
    z = table[i_pow, i_idx]
    pair = j_pow > 0
    z[pair] *= table[j_pow[pair], j_idx[pair]]
    return z


def lift(spec: ObservableSpec, x: np.ndarray) -> np.ndarray:
    """Lift a single state vector into the dictionary space."""
    cols, was_vector = _as_columns(x)
    if not was_vector:
        raise ValueError("lift expects a single state vector; see lift_trajectory")
    return lift_trajectory(spec, cols)[:, 0]


def unlift_trajectory(spec: ObservableSpec, z: np.ndarray) -> np.ndarray:
    """Read the node states back out of lifted columns (M x T -> n x T); a
    single lifted vector gives a single state vector."""
    z = np.asarray(z, dtype=float)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[:, None]
    if z.shape[0] != spec.size:
        raise ValueError(f"lifted columns have {z.shape[0]} rows, expected {spec.size}")
    x = z[spec.linear_indices] * spec.scale
    return x[:, 0] if squeeze else x


def lift_jacobian(spec: ObservableSpec, x: np.ndarray) -> np.ndarray:
    """Jacobian of the lift at ``x``: M x n matrix of entrywise partials."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n,):
        raise ValueError(f"state must have shape ({spec.n},)")
    if not np.isfinite(x).all():
        raise ValueError("state contains non-finite entries")

    if spec.kind == IDENTITY:
        return np.eye(spec.n)

    jac = np.zeros((spec.size, spec.n))
    if spec.kind == LOG:
        u = x / spec.scale
        bases = np.array([1.0 + u ** p for p in spec.log_powers])
        bad = bases <= 0.0
        if bad.any():
            node = int(np.flatnonzero(bad.any(axis=0))[0])
            p = spec.log_powers[int(np.flatnonzero(bad[:, node])[0])]
            raise ValueError(
                f"log entry undefined: 1 + (x/{spec.scale:g})**{p} <= 0 "
                f"at node {node}")
        # node i's partials: its scaled state, then one per power
        partials = np.empty((spec.n, 1 + len(spec.log_powers)))
        partials[:, 0] = 1.0 / spec.scale
        for k, p in enumerate(spec.log_powers):
            partials[:, 1 + k] = p * u ** (p - 1) / (spec.scale * bases[k])
        # rows 1.. hold node i's entries as block i; column i reads only it
        nodes = np.arange(spec.n)
        jac[1:].reshape(spec.n, -1, spec.n)[nodes, :, nodes] = partials
        return jac

    for m, term in enumerate(spec.terms):
        for node, e in term.exponents:
            partial = e * x[node] ** (e - 1)
            for other, oe in term.exponents:
                if other != node:
                    partial *= x[other] ** oe
            jac[m, node] = partial
    return jac


def check_scale(spec: ObservableSpec, states: np.ndarray) -> float:
    """Warn when data pushes |x|/C past the advisory headroom; returns the ratio."""
    if spec.kind != LOG:
        return 0.0
    ratio = float(np.abs(np.asarray(states, dtype=float)).max() / spec.scale)
    if ratio >= SCALE_HEADROOM:
        warnings.warn(
            f"states reach |x|/C = {ratio:.3g}, beyond the advisory headroom "
            f"{SCALE_HEADROOM:g}; consider a larger scale", stacklevel=2)
    return ratio


# ---------------------------------------------------------------------------
# Serialization

def spec_to_dict(spec: ObservableSpec) -> dict:
    """The parameters that rebuild ``spec``; its terms follow from them."""
    return {
        "kind": spec.kind, "n": spec.n, "scale": spec.scale,
        "log_powers": list(spec.log_powers),
        "poly_max_power": spec.poly_max_power,
    }


def spec_from_dict(d: dict) -> ObservableSpec:
    """Rebuild a spec from its parameters; a ``terms`` list, which older
    files carry, is ignored."""
    return build_spec(d["kind"], int(d["n"]), scale=float(d["scale"]),
                      powers=tuple(int(p) for p in d["log_powers"]),
                      max_power=int(d["poly_max_power"]))
