"""The columnar canonicaliser: batch buckets and the instance digest.

``LatencyBatch`` fills its family buckets from the per-class parameter
columns of ``LatencyColumns``, and ``instance_digest`` hashes the same
columns.  The batch must hold, bit for bit, the arrays of a per-link
canonicaliser (written out below as the reference); the digest must be a
structural identity: stable under every lossless re-representation of an
instance and different for any change to it.
"""

from __future__ import annotations

import json
import math
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.latency import (
    BPRLatency,
    ConstantLatency,
    LatencyBatch,
    LatencyFunction,
    LinearLatency,
    MM1Latency,
    MonomialLatency,
    PolynomialLatency,
    ScaledLatency,
    ShiftedLatency,
)
from repro.latency.batch import _STOCK_SHIFTS
from repro.network import Commodity, Network, NetworkInstance, ParallelLinkInstance
from repro.serialization import (
    instance_digest,
    instance_from_dict,
    instance_to_dict,
)

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


class SubLinear(LinearLatency):
    """A stock subclass: batched and serialised as a linear latency."""

    __slots__ = ()


class SquareRootLatency(LatencyFunction):
    """A class the table does not know: the generic bucket, no digest."""

    def value(self, x):
        return np.sqrt(x) + 1.0

    def derivative(self, x):
        return 0.5 / np.sqrt(np.maximum(x, 1e-300))

    def integral(self, x):
        return (2.0 / 3.0) * np.power(x, 1.5) + x


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
positive = st.floats(0.05, 5.0)
#: Zero often, so the constant-collapse branches run.
maybe_zero = st.one_of(st.just(0.0), positive)

linear = st.builds(LinearLatency, maybe_zero, maybe_zero)
sub_linear = st.builds(SubLinear, maybe_zero, maybe_zero)
constant = st.builds(ConstantLatency, maybe_zero)
monomial = st.builds(MonomialLatency, maybe_zero,
                     st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                               st.floats(1.0, 4.0)),
                     maybe_zero)
polynomial = st.builds(PolynomialLatency, st.lists(maybe_zero, min_size=1,
                                                   max_size=5))
bpr = st.builds(BPRLatency, positive, st.floats(0.5, 8.0),
                st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                st.floats(1.0, 5.0))
mm1 = st.builds(MM1Latency, st.floats(1.0, 50.0))
stock = st.one_of(linear, sub_linear, constant, monomial, polynomial, bpr,
                  mm1)
unknown = st.builds(SquareRootLatency)

#: Subnormal factors make a linear slope underflow to zero.
factors = st.one_of(st.floats(0.1, 4.0), st.just(1e-320))


def _wrap(inner):
    return st.one_of(st.builds(ShiftedLatency, inner, st.floats(0.0, 2.0)),
                     st.builds(ScaledLatency, inner, factors))


plain = st.one_of(stock, unknown)
wrapped = st.one_of(_wrap(plain), _wrap(_wrap(plain)),
                    _wrap(_wrap(_wrap(plain))))
any_latency = st.one_of(stock, stock, unknown, wrapped)


# --------------------------------------------------------------------------- #
# The per-link reference canonicaliser
# --------------------------------------------------------------------------- #
def _unwrap(lat):
    offset, factor, nested, base = 0.0, 1.0, False, lat
    while True:
        if isinstance(base, ShiftedLatency):
            nested = nested or base is not lat
            offset += base.offset
            base = base.base
        elif isinstance(base, ScaledLatency):
            factor *= base.factor
            base = base.base
        else:
            return base, offset, factor, nested


def reference(latencies):
    """``(buckets, is_constant, derivable, domain_upper)``, link by link."""
    rows = {name: [] for name in ("linear", "constant", "power", "mm1",
                                  "poly", "generic")}
    is_constant = []
    uppers = []
    derivable = all(type(lat).shifted in _STOCK_SHIFTS for lat in latencies)
    for i, lat in enumerate(latencies):
        base, offset, factor, nested = _unwrap(lat)
        derivable = derivable and not nested
        if isinstance(base, LinearLatency):
            slope = factor * base.slope
            if slope == 0.0:
                derivable = derivable and base.slope == 0.0
                row = ("constant", factor * (base.slope * offset
                                             + base.intercept))
            else:
                row = ("linear", slope, base.slope, base.intercept, factor,
                       offset)
        elif isinstance(base, ConstantLatency):
            row = ("constant", factor * base.constant)
        elif isinstance(base, MM1Latency):
            row = ("mm1", base.capacity, offset, factor)
        elif isinstance(base, MonomialLatency):
            row = (("constant", factor * base.constant)
                   if base.coefficient == 0.0 else
                   ("power", factor * base.coefficient, base.degree,
                    factor * base.constant, offset))
        elif isinstance(base, BPRLatency):
            row = (("constant", factor * base.free_flow_time)
                   if base.alpha == 0.0 else
                   ("power", factor * base.free_flow_time * base.alpha
                    / base.capacity ** base.beta, base.beta,
                    factor * base.free_flow_time, offset))
        elif isinstance(base, PolynomialLatency):
            row = (("constant", factor * base.coefficients[0])
                   if base.is_constant else
                   ("poly", tuple(factor * c for c in base.coefficients),
                    offset))
        else:
            row = ("generic", lat)
        rows[row[0]].append((i,) + row[1:])
        uppers.append(base.capacity - offset if row[0] == "mm1"
                      else float(lat.domain_upper) if row[0] == "generic"
                      else math.inf)
        is_constant.append(row[0] == "constant"
                           or (row[0] == "generic" and bool(lat.is_constant)))
    buckets = {}
    for name, members in rows.items():
        indices = [row[0] for row in members]
        if name == "generic":
            columns = {"functions": [row[1] for row in members]}
        elif name == "poly" and members:
            width = max(len(row[1]) for row in members)
            coeffs = np.zeros((len(members), width))
            for k, row in enumerate(members):
                coeffs[k, :len(row[1])] = row[1]
            columns = {"coeffs": coeffs,
                       "offsets": np.array([row[2] for row in members])}
        else:
            names = {"linear": ("slopes", "base_slopes", "base_intercepts",
                                "factors", "offsets"),
                     "constant": ("constants",),
                     "power": ("coeffs", "degrees", "consts", "offsets"),
                     "mm1": ("base_capacities", "offsets", "factors"),
                     "poly": ()}[name]
            columns = {key: np.array([row[1 + k] for row in members],
                                     dtype=float)
                       for k, key in enumerate(names)}
        buckets[name] = (indices, columns)
    return (buckets, np.array(is_constant, dtype=bool), derivable,
            np.array(uppers, dtype=float))


def assert_matches_reference(latencies):
    batch = LatencyBatch(latencies)
    buckets, is_constant, derivable, uppers = reference(latencies)
    assert batch.is_constant.tobytes() == is_constant.tobytes()
    assert batch.derives_shifts is derivable
    for fam in batch._buckets():
        indices, columns = buckets[fam.name]
        assert fam.index_array().tolist() == indices, fam.name
        if not indices:
            continue
        if fam.name == "generic":
            assert all(a is b for a, b in zip(fam.functions,
                                              columns["functions"]))
            continue
        for name, want in columns.items():
            got = getattr(fam, name)
            assert got.dtype == want.dtype, (fam.name, name)
            assert got.shape == want.shape, (fam.name, name)
            assert got.tobytes() == want.tobytes(), (fam.name, name)
    assert batch.domain_upper.tobytes() == uppers.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(any_latency, min_size=1, max_size=30))
def test_batch_equals_per_link_reference(latencies):
    assert_matches_reference(latencies)


@settings(max_examples=50, deadline=None)
@given(st.lists(stock, min_size=1, max_size=30))
def test_instance_batch_from_cached_columns(latencies):
    instance = ParallelLinkInstance(latencies, 0.5)
    instance_digest(instance)  # canonicalises once, for the digest
    fresh = LatencyBatch(latencies)
    batch = instance.latency_batch()
    for got, want in zip(batch._buckets(), fresh._buckets()):
        assert got.index_array().tolist() == want.index_array().tolist()
        for name in want._ARRAYS if len(want) else ():
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()
    assert batch.is_constant.tobytes() == fresh.is_constant.tobytes()
    assert instance._uppers.tobytes() == fresh.domain_upper.tobytes()


def test_fixed_mix_matches_reference():
    assert_matches_reference([
        LinearLatency(1.2, 0.3), SubLinear(0.0, 0.4), ConstantLatency(1.5),
        MM1Latency(4.0), MonomialLatency(0.0, 2.0, 0.2),
        BPRLatency(1.0, 2.0, 0.0), PolynomialLatency([0.1, 0.5, 0.0, 0.3]),
        PolynomialLatency([2.0]), SquareRootLatency(),
        ShiftedLatency(LinearLatency(0.8, 0.1), 0.4),
        ScaledLatency(ShiftedLatency(PolynomialLatency([0.2, 0.0, 0.4]),
                                     0.3), 1.5),
        ScaledLatency(LinearLatency(1.0, 0.5), 1e-320),
        ShiftedLatency(SquareRootLatency(), 0.2),
    ])


@pytest.mark.parametrize("seed", range(3))
def test_seeded_random_mix_matches_reference(seed):
    """Unrounded random parameters, where ``np.power`` and ``**`` differ."""
    rng = random.Random(seed)
    u = rng.uniform
    makers = (
        lambda: LinearLatency(u(0.1, 3.0), u(0.0, 2.0)),
        lambda: MonomialLatency(u(0.1, 3.0), u(1.0, 4.0), u(0.0, 1.0)),
        lambda: BPRLatency(u(0.1, 3.0), u(0.5, 8.0), u(0.01, 1.0),
                           u(1.0, 5.0)),
        lambda: PolynomialLatency([u(0.0, 1.0) for _ in range(4)]),
        lambda: MM1Latency(u(1.0, 50.0)),
    )
    links = []
    for _ in range(400):
        lat = rng.choice(makers)()
        if rng.random() < 0.3:
            lat = ScaledLatency(ShiftedLatency(lat, u(0.0, 1.0)), u(0.1, 3.0))
        links.append(lat)
    assert_matches_reference(links)


# --------------------------------------------------------------------------- #
# Digest identity
# --------------------------------------------------------------------------- #
demands = st.floats(0.01, 0.5)


@st.composite
def instances(draw):
    links = draw(st.lists(stock, min_size=1, max_size=12))
    names = draw(st.one_of(st.none(), st.just([f"L{i}" for i in
                                               range(len(links))])))
    return ParallelLinkInstance(links, draw(demands), names=names)


class Wrapper:
    """A duck-typed instance forwarding every attribute."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class MyInstance(ParallelLinkInstance):
    __slots__ = ()


@settings(max_examples=100, deadline=None)
@given(instances())
def test_digest_is_stable_across_representations(instance):
    digest = instance_digest(instance)
    assert instance_digest(instance_from_dict(instance_to_dict(instance))) \
        == digest
    assert instance_digest(pickle.loads(pickle.dumps(instance))) == digest
    assert instance_digest(Wrapper(instance)) == digest
    assert instance_digest(MyInstance(instance.latencies, instance.demand,
                                      names=instance.names)) == digest
    # The cached columns and a fresh canonicalisation hash alike.
    assert instance_digest(instance) == digest


def _bump(lat):
    """``lat`` with its first parameter one ulp larger."""
    data = instance_to_dict(ParallelLinkInstance([lat], 0.01))["links"][0]
    key = next(k for k in data if k != "type")
    if key == "coefficients":
        data[key] = [math.nextafter(data[key][0], math.inf)] + data[key][1:]
    else:
        data[key] = math.nextafter(data[key], math.inf)
    return instance_from_dict({"type": "parallel", "demand": 0.01,
                               "links": [data]}).latencies[0]


@settings(max_examples=100, deadline=None)
@given(instances(), st.data())
def test_digest_changes_with_the_instance(instance, data):
    digest = instance_digest(instance)
    links = list(instance.latencies)
    names = list(instance.names)
    k = data.draw(st.integers(0, len(links) - 1))

    bumped = links[:k] + [_bump(links[k])] + links[k + 1:]
    assert instance_digest(ParallelLinkInstance(
        bumped, instance.demand, names=names)) != digest

    renamed = names[:k] + [names[k] + "'"] + names[k + 1:]
    assert instance_digest(ParallelLinkInstance(
        links, instance.demand, names=renamed)) != digest

    other_demand = math.nextafter(instance.demand, 0.0)
    assert instance_digest(instance.with_demand(other_demand)) != digest

    j = data.draw(st.integers(0, len(links) - 1))
    if instance_to_dict(instance)["links"][j] != \
            instance_to_dict(instance)["links"][k]:
        swapped = list(links)
        swapped[j], swapped[k] = swapped[k], swapped[j]
        assert instance_digest(ParallelLinkInstance(
            swapped, instance.demand, names=names)) != digest


def test_linear_with_zero_slope_is_not_a_constant():
    a = ParallelLinkInstance([LinearLatency(0.0, 1.5), LinearLatency(1.0)],
                             1.0)
    b = ParallelLinkInstance([ConstantLatency(1.5), LinearLatency(1.0)], 1.0)
    assert instance_digest(a) != instance_digest(b)


def _network(reverse: bool) -> NetworkInstance:
    network = Network()
    network.add_edge("s", "a", LinearLatency(1.0))
    network.add_edge("a", "t", ConstantLatency(1.0))
    network.add_edge("s", "t", LinearLatency(2.0, 0.5))
    if reverse:
        network.add_edge("b", "s", MM1Latency(3.0))
    else:
        network.add_edge("s", "b", MM1Latency(3.0))
    return NetworkInstance(network, [Commodity("s", "t", 1.0)])


def test_network_digest_sees_edge_direction():
    forward = _network(False)
    assert instance_digest(forward) == instance_digest(_network(False))
    assert instance_digest(forward) == instance_digest(
        instance_from_dict(instance_to_dict(forward)))
    assert instance_digest(forward) != instance_digest(_network(True))


@pytest.mark.parametrize("odd", [
    ShiftedLatency(LinearLatency(1.0), 0.5),
    ScaledLatency(ConstantLatency(1.0), 2.0),
    SquareRootLatency(),
])
def test_unserialisable_instances_raise(odd):
    instance = ParallelLinkInstance([LinearLatency(1.0), odd], 1.0)
    with pytest.raises(ModelError, match=type(odd).__name__):
        instance_to_dict(instance)
    with pytest.raises(ModelError, match=type(odd).__name__):
        instance_digest(instance)
    network = Network()
    network.add_edge("s", "t", odd)
    with pytest.raises(ModelError, match=type(odd).__name__):
        instance_digest(NetworkInstance(network, [Commodity("s", "t", 1.0)]))


def test_non_instances_raise():
    with pytest.raises(ModelError, match="cannot serialise instance"):
        instance_digest(42)


_SNIPPET = """
import json
from repro.instances import grid_network, random_mixed_parallel
from repro.serialization import instance_digest
print(json.dumps([instance_digest(random_mixed_parallel(40, 8.0, seed=3)),
                  instance_digest(grid_network(3, 3, seed=1))]))
"""


def test_digest_is_stable_in_a_fresh_interpreter():
    from repro.instances import grid_network, random_mixed_parallel

    result = subprocess.run(
        [sys.executable, "-c", _SNIPPET], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": str(SRC_DIR),
                         "PYTHONHASHSEED": "random"})
    assert json.loads(result.stdout) == [
        instance_digest(random_mixed_parallel(40, 8.0, seed=3)),
        instance_digest(grid_network(3, 3, seed=1))]
