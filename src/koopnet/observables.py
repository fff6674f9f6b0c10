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

import math
import numbers
import operator
import typing
from dataclasses import MISSING, dataclass, fields
from functools import cache, cached_property

import numpy as np

LOG = "log"
POLY = "poly"
IDENTITY = "identity"


@dataclass(frozen=True)
class ObservableSpec:
    """A dictionary over ``n`` nodes, given by its parameters alone; its
    entries, and the nodes each one reads, follow from them."""

    kind: str
    n: int
    scale: float
    log_powers: tuple[int, ...]
    poly_max_power: int

    @cached_property
    def size(self) -> int:
        """Number of dictionary entries M."""
        if self.kind == LOG:
            return 1 + self.n * (1 + len(self.log_powers))
        if self.kind == POLY:
            return len(self._poly_factors[0])
        return self.n

    @cached_property
    def owners(self) -> tuple[tuple[int, ...], ...]:
        """The nodes each entry reads, in entry order; the constant reads none."""
        if self.kind == LOG:
            per_node = 1 + len(self.log_powers)
            return ((),) + tuple((i,) for i in range(self.n)
                                 for _ in range(per_node))
        if self.kind == POLY:
            factors = (f.tolist() for f in self._poly_factors)
            return tuple(() if a == 0 else (i,) if b == 0 else (i, j)
                         for i, a, j, b in zip(*factors))
        return tuple((i,) for i in range(self.n))

    @cached_property
    def linear_indices(self) -> np.ndarray:
        """Dictionary row holding the (scaled) state of each node, in node order."""
        if self.kind == LOG:
            return 1 + (1 + len(self.log_powers)) * np.arange(self.n)
        if self.kind == POLY:
            i_idx, i_pow, _, j_pow = self._poly_factors
            single = np.flatnonzero((i_pow == 1) & (j_pow == 0))
            idx = np.empty(self.n, dtype=int)
            idx[i_idx[single]] = single
            return idx
        return np.arange(self.n)

    @cached_property
    def _poly_factors(self) -> tuple[np.ndarray, ...]:
        """The poly entries ``x_i**a * x_j**b`` as four arrays (i, a, j, b).

        Each monomial appears once, in order of first appearance under
        lexicographic ``(i, j, a, b)`` enumeration with ``a, b <=
        poly_max_power``.  A one-node monomial, ``x_i**a * x_i**b`` merged
        into ``x_i**(a + b)`` included, has ``b = 0``; the constant has
        ``a = b = 0``.
        """
        top = self.poly_max_power
        seen: dict[tuple, None] = {}
        for i in range(self.n):
            for j in range(self.n):
                for a in range(top + 1):
                    for b in range(top + 1):
                        merged: dict[int, int] = {}
                        for node, e in ((i, a), (j, b)):
                            if e > 0:
                                merged[node] = merged.get(node, 0) + e
                        seen.setdefault(tuple(sorted(merged.items())), None)
        rows = [sum(key + ((0, 0),) * (2 - len(key)), ()) for key in seen]
        return tuple(np.array(col, dtype=int) for col in zip(*rows))


def log_spec(n: int, scale: float = 500.0, powers: tuple[int, ...] = (1, 2)) -> ObservableSpec:
    """Log dictionary: constant entry, then per node the scaled state and one
    log entry per power.  Size is ``1 + n * (1 + len(powers))``."""
    n, scale = as_int(n, "n"), as_real(scale, "scale")
    if n < 1:
        raise ValueError("need at least one node")
    if not scale > 0:
        raise ValueError("scale must be positive")
    powers = tuple(as_int(p, "log_powers") for p in powers)
    if len(powers) == 0:
        raise ValueError("need at least one log power")
    if len(set(powers)) != len(powers) or any(p < 1 for p in powers):
        raise ValueError("log powers must be distinct positive integers")
    return ObservableSpec(kind=LOG, n=n, scale=scale, log_powers=powers,
                          poly_max_power=0)


def poly_spec(n: int, max_power: int = 2) -> ObservableSpec:
    """Cross-monomial dictionary ``x_i**a * x_j**b`` with ``a, b <= max_power``,
    deduplicated (see ``ObservableSpec._poly_factors`` for the order)."""
    n, max_power = as_int(n, "n"), as_int(max_power, "poly_max_power")
    if n < 1:
        raise ValueError("need at least one node")
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    return ObservableSpec(kind=POLY, n=n, scale=1.0, log_powers=(),
                          poly_max_power=max_power)


def identity_spec(n: int) -> ObservableSpec:
    """Raw states as observables; lifting is the identity map."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("need at least one node")
    return ObservableSpec(kind=IDENTITY, n=n, scale=1.0, log_powers=(),
                          poly_max_power=0)


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


def lift_trajectory(spec: ObservableSpec, states: np.ndarray) -> np.ndarray:
    """Apply the dictionary to each column of ``states`` (n x T -> M x T); a
    single state vector gives a single lifted vector."""
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        return lift_trajectory(spec, x[:, None])[:, 0]
    if x.ndim != 2:
        raise ValueError("states must be a vector or a node-by-tick matrix")
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
        for k, base in enumerate(_log_bases(spec, u)):
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


def _log_bases(spec: ObservableSpec, u: np.ndarray) -> list[np.ndarray]:
    """``1 + u**p`` for each log power ``p`` of ``spec``, at the scaled
    states ``u`` (one node per row), or a ValueError naming the lowest node
    where one is <= 0, and that node's first such power."""
    bases = [1.0 + u ** p for p in spec.log_powers]
    if min(base.min() for base in bases) <= 0.0:
        bad = np.array([(base <= 0.0).reshape(spec.n, -1).any(axis=1)
                        for base in bases])     # power x node
        node = int(np.flatnonzero(bad.any(axis=0))[0])
        p = spec.log_powers[int(np.flatnonzero(bad[:, node])[0])]
        raise ValueError(f"log entry undefined: 1 + (x/{spec.scale:g})**{p} "
                         f"<= 0 at node {node}")
    return bases


def unlift_trajectory(spec: ObservableSpec, z: np.ndarray) -> np.ndarray:
    """Read the node states back out of lifted columns (M x T -> n x T); a
    single lifted vector gives a single state vector."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        return unlift_trajectory(spec, z[:, None])[:, 0]
    if z.ndim != 2:
        raise ValueError("lifted columns must be a vector or an entry-by-tick matrix")
    if z.shape[0] != spec.size:
        raise ValueError(f"lifted columns have {z.shape[0]} rows, expected {spec.size}")
    return z[spec.linear_indices] * spec.scale


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
        bases = _log_bases(spec, u)
        # node i's partials: its scaled state, then one per power
        partials = np.empty((spec.n, 1 + len(spec.log_powers)))
        partials[:, 0] = 1.0 / spec.scale
        for k, p in enumerate(spec.log_powers):
            partials[:, 1 + k] = p * u ** (p - 1) / (spec.scale * bases[k])
        # rows 1.. hold node i's entries as block i; column i reads only it
        nodes = np.arange(spec.n)
        jac[1:].reshape(spec.n, -1, spec.n)[nodes, :, nodes] = partials
        return jac

    # row m is x_i**a * x_j**b; scalar powers of Python ints (x_j**0 is
    # exactly 1.0), as array powers can round differently in the last bit
    factors = (f.tolist() for f in spec._poly_factors)
    for m, (i, a, j, b) in enumerate(zip(*factors)):
        if a:
            jac[m, i] = a * x[i] ** (a - 1) * x[j] ** b
        if b:
            jac[m, j] = b * x[j] ** (b - 1) * x[i] ** a
    return jac


# ---------------------------------------------------------------------------
# Serialization

def check_fields(d, cls, what: str, hint: str = "", types=None,
                 strict: bool = False, finite: bool = True) -> None:
    """Check a loaded ``what`` against the fields of the dataclass ``cls``,
    raising a ValueError that names the key at fault.  ``d`` must be a JSON
    object with every field that has no default and, if ``strict``, no
    other key (``hint`` ends those messages).  Each value must fit its
    annotation, or its entry in ``types`` for the file's own form: a list
    for a tuple, entry by entry; an int (a real, finite if ``finite``) as
    ``as_int`` (``as_real``) takes it; a bool, str or JSON object for one;
    ``None`` only for ``X | None``.  Other annotations, a nested dataclass
    say, are left to the loader."""
    if not isinstance(d, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(d).__name__}{hint}")
    missing = [f.name for f in fields(cls) if f.name not in d and f.default is MISSING]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}{hint}")
    hints = {**_type_hints(cls), **(types or {})}
    unknown = sorted(set(d) - set(hints)) if strict else []
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}{hint}")
    for name, kind in hints.items():
        if name in d:
            _check_value(d[name], kind, name, finite)


_INSTANCES = {bool: "a bool", str: "a string", dict: "a JSON object"}
# evaluated once per class, not once per loaded record
_type_hints = cache(typing.get_type_hints)


def _check_value(value, kind, name: str, finite: bool) -> None:
    """One value of ``check_fields`` against the annotation ``kind``."""
    args = typing.get_args(kind)
    if type(None) in args:          # ``X | None``
        if value is None:
            return
        kind = args[0]
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name}: {value!r} is not a list")
        for v in value:
            _check_value(v, typing.get_args(kind)[0], name, finite)
    elif kind is int:
        as_int(value, name)
    elif kind is float:
        if not math.isfinite(as_real(value, name)) and finite:
            raise ValueError(f"{name}: {value!r} is not finite")
    elif kind in _INSTANCES and not isinstance(value, kind):
        raise ValueError(f"{name}: {value!r} is not {_INSTANCES[kind]}")


def as_int(value, name: str) -> int:
    """``value`` as an int, or a ValueError naming ``name``: it must have
    ``__index__`` (what ``operator.index`` needs; 1.5 has none) and not be
    a bool."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name}: {value!r} is not an integer")
    return operator.index(value)


def as_nodes(values, n: int, name: str) -> list[int]:
    """``values`` as distinct node indices in 0..n-1, or a ValueError
    naming ``name``; each must pass ``as_int``."""
    nodes = [as_int(v, name) for v in values]
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"{name}: duplicate nodes in {nodes}")
    for v in nodes:
        if not 0 <= v < n:
            raise ValueError(f"{name}: node {v} outside 0..{n - 1}")
    return nodes


def as_real(value, name: str) -> float:
    """``value`` as a float, or a ValueError naming ``name``: it must be a
    ``numbers.Real`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: {value!r} is not a real number")
    return float(value)


def spec_to_dict(spec: ObservableSpec) -> dict:
    """The parameters that rebuild ``spec``; its entries follow from them."""
    return {
        "kind": spec.kind, "n": spec.n, "scale": spec.scale,
        "log_powers": list(spec.log_powers),
        "poly_max_power": spec.poly_max_power,
    }


def spec_from_dict(d: dict) -> ObservableSpec:
    """Rebuild a spec from its parameters, each the value its kind holds; a
    ``terms`` list, which older files carry, is ignored."""
    check_fields(d, ObservableSpec, "dictionary")
    spec = build_spec(d["kind"], d["n"], d["scale"], tuple(d["log_powers"]),
                      d["poly_max_power"])
    for name, value in spec_to_dict(spec).items():
        if value != (list(d[name]) if name == "log_powers" else d[name]):
            raise ValueError(f"{name}: {d[name]!r} is not the {spec.kind} "
                             f"dictionary's {value!r}")
    return spec
