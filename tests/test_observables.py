"""Observable dictionaries: sizes, lifting, Jacobians, serialization.

The log dictionary is the workhorse: per node it carries the scaled linear
entry x_i/C and one log(1 + (x_i/C)^p) entry per power, plus one shared
constant.  The polynomial dictionary enumerates deduplicated monomials up to
a total structure of two nodes; the identity dictionary is plain DMD.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from koopnet import (
    ObservableSpec,
    build_spec,
    identity_spec,
    lift_jacobian,
    lift_trajectory,
    log_spec,
    poly_spec,
    unlift_trajectory,
)
from koopnet.observables import spec_from_dict, spec_to_dict


# =========================================================================
# Dictionary sizes
# =========================================================================

def test_log_size_formula():
    # 1 + n * (1 + #powers)
    assert log_spec(50, powers=(1, 2)).size == 151
    assert log_spec(1, powers=(1,)).size == 3
    assert log_spec(10, powers=(1, 2, 3)).size == 41


def test_identity_size_is_n():
    spec = identity_spec(7)
    assert spec.size == 7
    x = np.arange(7.0)
    assert np.array_equal(lift_trajectory(spec, x), x)


def _poly_monomial_count(n, d):
    """Independent enumeration of x_i^a * x_j^b up to deduplication."""
    seen = set()
    for a in range(d + 1):
        for b in range(d + 1):
            for i, j in itertools.product(range(n), range(n)):
                # normalize: drop zero-power factors, merge same-node powers
                expo = {}
                for node, p in ((i, a), (j, b)):
                    if p:
                        expo[node] = expo.get(node, 0) + p
                if expo:
                    seen.add(tuple(sorted(expo.items())))
    return 1 + len(seen)


def test_poly_size_matches_enumeration():
    for n, d in ((4, 1), (4, 2), (10, 2), (6, 3)):
        assert poly_spec(n, max_power=d).size == _poly_monomial_count(n, d)


def test_poly_size_grows_quadratically():
    # at n = 10, d = 2 the dictionary dwarfs both the state and the log grid
    spec = poly_spec(10, max_power=2)
    assert spec.size == 221
    assert spec.size > 100
    for n in (10, 14, 20):
        assert poly_spec(n, max_power=2).size > n * n / 2


def _reference_terms(spec):
    """Every entry as (form, owners, exponents), enumerated one by one: the
    constant, then per node its scaled state and one log entry per power
    (log); deduplicated monomials as sorted (node, exponent) pairs in order
    of first appearance under lexicographic (i, j, a, b) (poly); the raw
    states (identity)."""
    if spec.kind == "identity":
        return [("linear", (i,), ()) for i in range(spec.n)]
    if spec.kind == "log":
        terms = [("const", (), ())]
        for i in range(spec.n):
            terms.append(("linear", (i,), ()))
            terms += [("log", (i,), ()) for _ in spec.log_powers]
        return terms
    seen, terms = set(), []
    top = spec.poly_max_power
    for i, j, a, b in itertools.product(range(spec.n), range(spec.n),
                                        range(top + 1), range(top + 1)):
        merged = {}
        for node, e in ((i, a), (j, b)):
            if e > 0:
                merged[node] = merged.get(node, 0) + e
        key = tuple(sorted(merged.items()))
        if key not in seen:
            seen.add(key)
            terms.append(("monomial" if key else "const",
                          tuple(node for node, _ in key), key))
    return terms


def _grid_specs(n):
    return ([identity_spec(n)]
            + [poly_spec(n, max_power=d) for d in (1, 2, 3)]
            + [log_spec(n, powers=p) for p in ((1,), (1, 2), (1, 2, 3))])


@pytest.mark.parametrize("n", [1, 3, 8, 20, 30])
def test_derived_entries_match_the_term_enumeration(n):
    for spec in _grid_specs(n):
        terms = _reference_terms(spec)
        assert spec.size == len(terms)
        assert spec.owners == tuple(owners for _, owners, _ in terms)
        linear = np.full(n, -1)
        for m, (form, owners, exponents) in enumerate(terms):
            if form == "linear" or (form == "monomial"
                                    and exponents == ((owners[0], 1),)):
                linear[owners[0]] = m
        assert np.array_equal(spec.linear_indices, linear)
        if spec.kind == "poly":
            padded = [sum(e + ((0, 0),) * (2 - len(e)), ())
                      for _, _, e in terms]
            for got, want in zip(spec._poly_factors, zip(*padded)):
                assert np.array_equal(got, want)


def test_build_spec_dispatch():
    assert build_spec("log", 5).kind == "log"
    assert build_spec("poly", 5).kind == "poly"
    assert build_spec("identity", 5).kind == "identity"
    with pytest.raises(ValueError):
        build_spec("fourier", 5)


def test_spec_parameter_validation():
    with pytest.raises(ValueError):
        log_spec(3, scale=0.0)
    with pytest.raises(ValueError):
        log_spec(3, powers=())
    with pytest.raises(ValueError):
        log_spec(3, powers=(1, 1))
    with pytest.raises(ValueError):
        poly_spec(3, max_power=0)
    with pytest.raises(ValueError):
        identity_spec(0)


# =========================================================================
# Lifting
# =========================================================================

def test_lift_at_origin():
    spec = log_spec(1, scale=500.0, powers=(1, 2))
    z = lift_trajectory(spec, np.array([0.0]))
    assert np.array_equal(z, [1.0, 0.0, 0.0, 0.0])


def test_lift_at_the_scale_point():
    spec = log_spec(1, scale=500.0, powers=(1, 2))
    z = lift_trajectory(spec, np.array([500.0]))
    assert z == pytest.approx([1.0, 1.0, math.log(2.0), math.log(2.0)])


def test_log_entries_linearize_products():
    # log(1+u) + log(1+v) = log(1 + u + v + uv): sums of log observables
    # capture the pairwise product that the raw states hide
    spec = log_spec(2, scale=1.0, powers=(1,))
    z = lift_trajectory(spec, np.array([0.01, 0.01]))
    logs = z[2] + z[4]
    u = v = 0.01
    assert logs == pytest.approx(math.log(1.0 + u + v + u * v), abs=1e-15)
    # for small states the sum is the linear+product combination itself,
    # up to second-order terms ~ (u + v)^2 / 2
    assert abs(logs - (u + v)) < 1.1e-4
    assert abs(logs - (u + v + u * v)) < 2.1e-4


def test_lift_round_trip_is_exact():
    rng = np.random.default_rng(0)
    spec = log_spec(12, scale=500.0, powers=(1, 2))
    x = rng.uniform(0.0, 100.0, size=(12, 7))
    z = lift_trajectory(spec, x)
    back = unlift_trajectory(spec, z)
    assert np.allclose(back, x, rtol=1e-12, atol=1e-12)


def test_unlift_reads_the_scaled_linear_entries():
    spec = log_spec(3, scale=500.0, powers=(1, 2))
    z = np.ones(spec.size)
    z[spec.linear_indices] = [0.2, 0.4, 0.6]
    assert np.allclose(unlift_trajectory(spec, z), [100.0, 200.0, 300.0])


def test_poly_lift_matches_direct_monomials():
    rng = np.random.default_rng(3)
    spec = poly_spec(4, max_power=2)
    x = rng.uniform(0.5, 2.0, size=4)
    z = lift_trajectory(spec, x)
    for m, (_, _, exponents) in enumerate(_reference_terms(spec)):
        expected = 1.0
        for node, power in exponents:
            expected *= x[node] ** power
        assert z[m] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n, max_power", [(8, 3), (15, 2), (20, 2), (30, 2)])
def test_poly_lift_equals_the_per_term_power(n, max_power):
    # the per-term formula the power table replaced: each gathered row
    # raised to its own exponent
    spec = poly_spec(n, max_power=max_power)
    i_idx, i_pow, j_idx, j_pow = spec._poly_factors
    x = np.random.default_rng(n).uniform(0.0, 3.0, (n, 40))
    expected = x[i_idx] ** i_pow[:, None]
    pair = j_pow > 0
    expected[pair] *= x[j_idx[pair]] ** j_pow[pair, None]
    assert np.array_equal(lift_trajectory(spec, x), expected)


def test_ownership_is_local():
    # perturbing node j moves only the entries owned by j
    spec = log_spec(6, scale=500.0, powers=(1, 2))
    x = np.full(6, 3.0)
    z0 = lift_trajectory(spec, x)
    x[2] += 1.0
    z1 = lift_trajectory(spec, x)
    changed = set(np.nonzero(z1 != z0)[0])
    owned = {m for m in range(spec.size) if spec.owners[m] == (2,)}
    assert changed == owned
    assert spec.owners[0] == ()                 # the constant has no owner


def test_lift_domain_violation_names_node_and_power():
    spec = log_spec(3, scale=500.0, powers=(1, 2))
    x = np.array([1.0, -1000.0, 1.0])
    with pytest.raises(ValueError) as err:
        lift_trajectory(spec, x)
    assert "node 1" in str(err.value)
    assert "**1" in str(err.value)


@pytest.mark.parametrize("spec", [identity_spec(4), log_spec(4, powers=(1, 2)),
                                  poly_spec(4, max_power=2)],
                         ids=["identity", "log", "poly"])
def test_lift_of_a_state_is_the_matrix_column(spec):
    x = np.random.default_rng(5).uniform(0.5, 90.0, 4)
    z = lift_trajectory(spec, x)
    assert z.shape == (spec.size,)
    assert np.array_equal(z, lift_trajectory(spec, x[:, None])[:, 0])


def test_lift_shape_errors():
    spec = log_spec(3)
    with pytest.raises(ValueError):
        lift_trajectory(spec, np.zeros(4))           # wrong-length state
    with pytest.raises(ValueError):
        lift_trajectory(spec, np.zeros((4, 5)))      # wrong-length columns
    with pytest.raises(ValueError, match="vector or a node-by-tick matrix"):
        lift_trajectory(spec, np.zeros((3, 5, 2)))   # 3-D
    with pytest.raises(ValueError):
        unlift_trajectory(spec, np.zeros((5, 2)))


@pytest.mark.parametrize("shape", [(), (10, 2, 2), (10, 1, 1, 1)])
def test_unlift_rejects_anything_but_a_vector_or_a_matrix(shape):
    # (10, 2, 2) holds a first axis of the log size for n = 3, which once
    # came back as a 3-D "trajectory"
    spec = log_spec(3)
    with pytest.raises(ValueError, match="vector or an entry-by-tick matrix"):
        unlift_trajectory(spec, np.ones(shape))


@pytest.mark.parametrize("payload, message", [
    ([], "a dictionary must be a JSON object, got list"),
    ({"kind": "log", "n": 3}, "missing dictionary keys: "
                              "['scale', 'log_powers', 'poly_max_power']"),
])
def test_spec_from_dict_names_what_is_wrong(payload, message):
    with pytest.raises(ValueError) as info:
        spec_from_dict(payload)
    assert str(info.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("n", 4.7, "n: 4.7 is not an integer"),
    ("n", True, "n: True is not an integer"),
    ("log_powers", [1.9], "log_powers: 1.9 is not an integer"),
    ("scale", "500", "scale: '500' is not a real number"),
    ("poly_max_power", 2.5, "poly_max_power: 2.5 is not an integer"),
    # "log_powers": 1 once raised a bare TypeError, and a NaN scale loaded
    ("log_powers", 1, "log_powers: 1 is not a list"),
    ("scale", math.nan, "scale: nan is not finite"),
])
def test_spec_from_dict_rejects_non_integers_rather_than_truncating(
        field, value, message):
    # these once loaded as n = 4, powers (1,) and scale 500.0
    d = spec_to_dict(log_spec(4))
    d[field] = value
    with pytest.raises(ValueError) as info:
        spec_from_dict(d)
    assert str(info.value) == message


# Each field of a dictionary file replaced by each kind it must not hold.
SPEC_WRONG_KINDS = (
    [("kind", v) for v in (5, ["log"], True, None)]
    + [(f, v) for f in ("n", "poly_max_power")
       for v in ([4], "4", True, None, 4.5)]
    + [("scale", v) for v in ([500.0], "500", True, None, math.nan,
                              math.inf)]
    + [("log_powers", v) for v in (2, "12", True, None, [1.5], [None],
                                   [[1]])])


@pytest.mark.parametrize("field, value", SPEC_WRONG_KINDS)
def test_spec_from_dict_names_the_field_of_each_wrong_kind(field, value):
    d = spec_to_dict(log_spec(4))
    d[field] = value
    with pytest.raises(ValueError, match=f"^{field}: "):
        spec_from_dict(d)


def test_spec_from_dict_takes_numpy_integers_and_an_integer_scale():
    d = {"kind": "log", "n": np.int64(4), "scale": 500,
         "log_powers": [np.int32(1), 2], "poly_max_power": 0}
    spec = spec_from_dict(d)
    assert spec == log_spec(4)
    assert type(spec.n) is int and type(spec.scale) is float
    assert all(type(p) is int for p in spec.log_powers)
    assert spec_from_dict({**spec_to_dict(poly_spec(3)),
                           "poly_max_power": np.int64(2)}) == poly_spec(3)


@pytest.mark.parametrize("spec, fields, message", [
    (poly_spec(3), {"scale": 7.0, "log_powers": [1, 2]},
     "scale: 7.0 is not the poly dictionary's 1.0"),
    (identity_spec(3), {"scale": 9.0, "log_powers": [5], "poly_max_power": 4},
     "scale: 9.0 is not the identity dictionary's 1.0"),
    (log_spec(3), {"poly_max_power": 3},
     "poly_max_power: 3 is not the log dictionary's 0"),
], ids=["poly", "identity", "log"])
def test_spec_from_dict_rejects_a_field_its_kind_does_not_hold(
        spec, fields, message):
    # each once loaded as its kind's own values: the file's were dropped
    with pytest.raises(ValueError) as info:
        spec_from_dict({**spec_to_dict(spec), **fields})
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: log_spec(4.7), "n: 4.7 is not an integer"),
    (lambda: log_spec(4, scale="500"), "scale: '500' is not a real number"),
    (lambda: log_spec(4, powers=(1.9,)), "log_powers: 1.9 is not an integer"),
    (lambda: poly_spec(4, max_power=1.5), "poly_max_power: 1.5 is not an integer"),
    (lambda: identity_spec(4.7), "n: 4.7 is not an integer"),
])
def test_spec_constructors_reject_non_integers(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# =========================================================================
# Jacobian
# =========================================================================

def test_jacobian_rows_at_origin():
    spec = log_spec(2, scale=500.0, powers=(1, 2))
    jac = lift_jacobian(spec, np.zeros(2))
    assert jac.shape == (spec.size, 2)
    assert np.array_equal(jac[0], [0.0, 0.0])          # constant
    assert np.allclose(jac[1], [1.0 / 500.0, 0.0])     # x_0 / C
    # d/dx log(1 + u) = 1/C at u=0 for p=1; = 0 for p=2
    assert np.allclose(jac[2], [1.0 / 500.0, 0.0])
    assert np.allclose(jac[3], [0.0, 0.0])


def _fd_jacobian(spec, x, h=1e-6):
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((lift_trajectory(spec, x + e)
                     - lift_trajectory(spec, x - e)) / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("factory,low,high", [
    (lambda: log_spec(5, scale=500.0, powers=(1, 2)), 0.5, 90.0),
    (lambda: poly_spec(5, max_power=2), 0.5, 2.0),
    (lambda: identity_spec(5), -3.0, 3.0),
])
def test_jacobian_matches_central_differences(factory, low, high):
    rng = np.random.default_rng(8)
    spec = factory()
    for _ in range(5):
        x = rng.uniform(low, high, size=5)
        jac = lift_jacobian(spec, x)
        fd = _fd_jacobian(spec, x)
        scale = np.abs(fd).max()
        assert np.abs(jac - fd).max() < 1e-5 * max(scale, 1.0)


def _loop_log_jacobian(spec, x):
    """The log Jacobian filled node by node, one power at a time."""
    jac = np.zeros((spec.size, spec.n))
    stride = 1 + len(spec.log_powers)
    u = x / spec.scale
    for i in range(spec.n):
        row = 1 + stride * i
        jac[row, i] = 1.0 / spec.scale
        for k, p in enumerate(spec.log_powers):
            base = 1.0 + u[i] ** p
            jac[row + 1 + k, i] = p * u[i] ** (p - 1) / (spec.scale * base)
    return jac


@pytest.mark.parametrize("powers", [(1,), (1, 2), (1, 2, 3)])
def test_log_jacobian_matches_the_node_loop(powers):
    # equal up to the last bits: an array power may round differently from
    # a scalar one
    rng = np.random.default_rng(len(powers))
    spec = log_spec(7, scale=50.0, powers=powers)
    for _ in range(200):
        x = rng.uniform(-40.0, 200.0, spec.n)
        expected = _loop_log_jacobian(spec, x)
        np.testing.assert_allclose(lift_jacobian(spec, x), expected,
                                   rtol=1e-14, atol=0.0)


def _reference_poly_jacobian(spec, x):
    """The poly Jacobian filled term by term: each factor's partial times
    the other factor, in scalar powers."""
    jac = np.zeros((spec.size, spec.n))
    for m, (_, _, exponents) in enumerate(_reference_terms(spec)):
        for node, e in exponents:
            partial = e * x[node] ** (e - 1)
            for other, oe in exponents:
                if other != node:
                    partial *= x[other] ** oe
            jac[m, node] = partial
    return jac


@pytest.mark.parametrize("n, max_power", [(4, 2), (8, 3), (20, 2)])
def test_poly_jacobian_matches_the_term_loop_bit_for_bit(n, max_power):
    spec = poly_spec(n, max_power=max_power)
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = rng.uniform(-2.0, 3.0, n)
        assert np.array_equal(lift_jacobian(spec, x),
                              _reference_poly_jacobian(spec, x))


def test_log_jacobian_names_the_lowest_node_out_of_domain():
    spec = log_spec(4, scale=1.0, powers=(2, 1, 3))
    x = np.array([0.5, 0.5, -3.0, -2.0])   # nodes 2 and 3 fail at p = 1, 3
    with pytest.raises(ValueError) as err:
        lift_jacobian(spec, x)
    assert "at node 2" in str(err.value)
    assert "**1 " in str(err.value)        # its first failing power


def test_lift_and_jacobian_name_the_same_node_and_power():
    spec = log_spec(4, scale=1.0, powers=(2, 3, 1))
    x = np.array([0.5, -2.0, 0.5, -3.0])   # nodes 1 and 3 fail at p = 3, 1
    messages = set()
    for lift, state in ((lift_trajectory, x), (lift_trajectory, x[:, None]),
                        (lift_jacobian, x)):
        with pytest.raises(ValueError) as err:
            lift(spec, state)
        messages.add(str(err.value))
    assert messages == {"log entry undefined: 1 + (x/1)**3 <= 0 at node 1"}


def test_jacobian_rejects_bad_state():
    spec = log_spec(3)
    with pytest.raises(ValueError):
        lift_jacobian(spec, np.zeros(2))
    with pytest.raises(ValueError):
        lift_jacobian(spec, np.array([1.0, np.nan, 0.0]))


# =========================================================================
# Serialization
# =========================================================================

# Older files also list the entries as [form, owners, log power, exponents];
# loading ignores that list and rebuilds from the parameters.
LEGACY_FILES = [
    ({"kind": "log", "n": 2, "scale": 250.0, "log_powers": [1, 3],
      "poly_max_power": 0,
      "terms": [["const", [], 0, []],
                ["linear", [0], 0, []], ["log", [0], 1, []],
                ["log", [0], 3, []],
                ["linear", [1], 0, []], ["log", [1], 1, []],
                ["log", [1], 3, []]]},
     log_spec(2, scale=250.0, powers=(1, 3))),
    ({"kind": "poly", "n": 1, "scale": 1.0, "log_powers": [],
      "poly_max_power": 1,
      "terms": [["const", [], 0, []],
                ["monomial", [0], 0, [[0, 1]]],
                ["monomial", [0], 0, [[0, 2]]]]},
     poly_spec(1, max_power=1)),
    ({"kind": "identity", "n": 2, "scale": 1.0, "log_powers": [],
      "poly_max_power": 0,
      "terms": [["linear", [0], 0, []], ["linear", [1], 0, []]]},
     identity_spec(2)),
]


def test_spec_json_round_trip():
    for spec in (log_spec(4, scale=250.0, powers=(1, 3)),
                 poly_spec(3, max_power=2),
                 identity_spec(5)):
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back == spec
        assert back.size == spec.size
        # dict form is plain JSON data
        d = spec_to_dict(spec)
        assert json.loads(json.dumps(d)) == d
        assert spec_from_dict(d) == spec
        assert "terms" not in d
    for d, spec in LEGACY_FILES:
        back = spec_from_dict(json.loads(json.dumps(d)))
        assert back == spec
        assert back.size == len(d["terms"])
        assert back.owners == tuple(tuple(t[1]) for t in d["terms"])


def test_spec_is_its_parameters():
    fields = [f.name for f in dataclasses.fields(ObservableSpec)]
    assert fields == ["kind", "n", "scale", "log_powers", "poly_max_power"]
    assert list(spec_to_dict(poly_spec(3))) == fields
