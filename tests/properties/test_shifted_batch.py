"""The Followers' batch derived by ``LatencyBatch.shifted`` is exact.

``batch.shifted(s)`` re-derives the offset-dependent family columns from the
raw ``(base, offset, factor)`` columns instead of canonicalising the shifted
latencies again.  Every family array it holds must equal, bit for bit, the
array of ``LatencyBatch([lat.shifted(s_i) for ...])``, and the induced
equilibrium computed on either batch must be the same flow vector.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equilibrium.parallel import parallel_nash
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
from repro.network import ParallelLinkInstance


class SquareRootLatency(LatencyFunction):
    """A family the canonicaliser does not know -> generic bucket."""

    def value(self, x):
        return np.sqrt(x) + 1.0

    def derivative(self, x):
        return 0.5 / np.sqrt(np.maximum(x, 1e-300))

    def integral(self, x):
        return (2.0 / 3.0) * np.power(x, 1.5) + x


#: One row of every family, bare and already shifted/scaled.
LINKS = [
    LinearLatency(1.2, 0.3),
    LinearLatency(0.0, 0.9),
    ConstantLatency(1.5),
    MonomialLatency(0.7, 3.0, 0.2),
    MonomialLatency(0.0, 2.0, 0.4),
    BPRLatency(1.0, 2.0),
    MM1Latency(40.0),
    PolynomialLatency([0.1, 0.5, 0.0, 0.3]),
    PolynomialLatency([0.2, 0.0, 0.7]),
    PolynomialLatency([2.0]),
    SquareRootLatency(),
    ShiftedLatency(LinearLatency(0.8, 0.1), 0.4),
    ShiftedLatency(MM1Latency(50.0), 0.7),
    ShiftedLatency(MonomialLatency(1.0, 2.0, 0.0), 0.25),
    ShiftedLatency(SquareRootLatency(), 0.3),
    ScaledLatency(MM1Latency(45.0), 2.0),
    ScaledLatency(LinearLatency(0.6, 0.2), 1.7),
    ScaledLatency(BPRLatency(2.0, 3.0), 0.9),
    ScaledLatency(SquareRootLatency(), 1.3),
    ShiftedLatency(ScaledLatency(PolynomialLatency([0.2, 0.0, 0.4]), 1.5), 0.3),
]


def assert_same_batch(derived: LatencyBatch, fresh: LatencyBatch) -> None:
    """Every family array of ``derived`` equals ``fresh``'s bit for bit."""
    assert derived.family_names == fresh.family_names
    assert derived.is_constant.tobytes() == fresh.is_constant.tobytes()
    for got, want in zip(derived._buckets(), fresh._buckets()):
        assert got.index_array().tolist() == want.index_array().tolist()
        if not len(want):
            continue
        for name, value in vars(want).items():
            if name.startswith("_") or name in ("indices", "functions"):
                continue
            mine = getattr(got, name)
            if isinstance(value, np.ndarray):
                assert mine.dtype == value.dtype, (want.name, name)
                assert mine.tobytes() == value.tobytes(), (want.name, name)
            else:
                assert mine == value, (want.name, name)
        if want.name == "generic":
            assert [repr(f) for f in got.functions] == \
                [repr(f) for f in want.functions]
    assert isinstance(derived.latencies, tuple)
    assert [repr(lat) for lat in derived.latencies] == \
        [repr(lat) for lat in fresh.latencies]


def rebuilt(links, offsets) -> LatencyBatch:
    return LatencyBatch([lat.shifted(float(s)) for lat, s in zip(links, offsets)])


class TestDerivedBatch:
    def test_every_family_matches_the_canonicaliser(self):
        offsets = np.linspace(0.0, 1.9, len(LINKS))
        offsets[::3] = 0.0
        batch = LatencyBatch(LINKS)
        assert batch.derives_shifts  # the array derivation, not the fallback
        derived = batch.shifted(offsets)
        assert_same_batch(derived, rebuilt(LINKS, offsets))

    def test_zero_offsets_keep_every_latency(self):
        batch = LatencyBatch(LINKS)
        derived = batch.shifted(np.zeros(len(LINKS)))
        assert all(a is b for a, b in zip(derived.latencies, LINKS))
        assert_same_batch(derived, batch)

    def test_shifting_a_derived_batch_again(self):
        first = np.full(len(LINKS), 0.3)
        second = np.linspace(0.0, 0.5, len(LINKS))
        derived = LatencyBatch(LINKS).shifted(first).shifted(second)
        links = [lat.shifted(0.3) for lat in LINKS]
        assert_same_batch(derived, rebuilt(links, second))

    def test_subset_of_a_derived_batch(self):
        offsets = np.linspace(0.1, 1.0, len(LINKS))
        derived = LatencyBatch(LINKS).shifted(offsets).subset([1, 4, 6, 10, 12])
        links = [LINKS[i].shifted(float(offsets[i])) for i in (1, 4, 6, 10, 12)]
        assert_same_batch(derived, LatencyBatch(links))

    @pytest.mark.parametrize("link", [
        ScaledLatency(ShiftedLatency(LinearLatency(1.0, 0.5), 0.2), 2.0),
        ShiftedLatency(ShiftedLatency(MM1Latency(30.0), 0.1), 0.2),
    ])
    def test_a_buried_shift_is_canonicalised_afresh(self, link):
        links = LINKS + [link]
        offsets = np.full(len(links), 0.35)
        batch = LatencyBatch(links)
        assert not batch.derives_shifts
        derived = batch.shifted(offsets)
        assert_same_batch(derived, rebuilt(links, offsets))

    def test_an_underflowed_slope_is_canonicalised_afresh(self):
        # ``factor * slope`` underflows to a constant row whose value still
        # moves with the offset, ``factor * (slope * offset + intercept)``.
        links = [ScaledLatency(LinearLatency(1e-200, 0.5), 1e-200),
                 LinearLatency(1.0, 0.0)]
        offsets = np.array([1e200, 0.0])
        batch = LatencyBatch(links)
        assert not batch.derives_shifts
        derived = batch.shifted(offsets)
        assert_same_batch(derived, rebuilt(links, offsets))

    def test_a_custom_shifted_is_canonicalised_afresh(self):
        class Reparametrised(LinearLatency):
            def shifted(self, offset):
                return LinearLatency(self.slope,
                                     self.intercept + self.slope * offset)

        links = LINKS + [Reparametrised(2.0, 1.0)]
        offsets = np.full(len(links), 0.5)
        batch = LatencyBatch(links)
        assert not batch.derives_shifts
        derived = batch.shifted(offsets)
        assert_same_batch(derived, rebuilt(links, offsets))

    @pytest.mark.parametrize("offsets", [
        np.zeros(3), np.array([0.0, np.nan]), np.array([np.inf, 0.0]),
        np.array([-0.5, 0.0]),
    ])
    def test_bad_offsets_raise(self, offsets):
        batch = LatencyBatch([LinearLatency(1.0, 0.0), MM1Latency(3.0)])
        with pytest.raises(ModelError):
            batch.shifted(offsets)


def _link(spec) -> LatencyFunction:
    family, a, b, wrap, o, f = spec
    base = {
        "linear": lambda: LinearLatency(a, b),
        "constant": lambda: ConstantLatency(b),
        "monomial": lambda: MonomialLatency(a, 1.0 + b, b),
        "bpr": lambda: BPRLatency(0.5 + a, 1.0 + b),
        "mm1": lambda: MM1Latency(20.0 + a),
        "poly": lambda: PolynomialLatency([b, a, 0.0, b * a]),
        "generic": lambda: SquareRootLatency(),
    }[family]()
    if wrap == "shifted":
        return ShiftedLatency(base, o)
    if wrap == "scaled":
        return ScaledLatency(base, f)
    if wrap == "both":
        return ShiftedLatency(ScaledLatency(base, f), o)
    return base


positive = st.floats(min_value=0.05, max_value=4.0)
link_specs = st.tuples(
    st.sampled_from(["linear", "constant", "monomial", "bpr", "mm1", "poly",
                     "generic"]),
    positive, positive,
    st.sampled_from(["none", "shifted", "scaled", "both"]),
    st.floats(min_value=0.0, max_value=2.0), positive)
offset_values = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(link_specs, offset_values), min_size=1, max_size=12))
def test_derived_batch_matches_canonicaliser(rows):
    links = [_link(spec) for spec, _ in rows]
    offsets = np.array([s for _, s in rows])
    derived = LatencyBatch(links).shifted(offsets)
    assert_same_batch(derived, rebuilt(links, offsets))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(link_specs, offset_values), min_size=1, max_size=12),
       st.floats(min_value=0.1, max_value=5.0))
def test_induced_flows_match_canonicaliser(rows, followers):
    links = [_link(spec) for spec, _ in rows]
    strategy = np.array([s for _, s in rows])
    instance = ParallelLinkInstance(links, float(strategy.sum()) + followers)
    derived = instance.shifted(strategy)
    fresh = ParallelLinkInstance(
        [lat.shifted(float(s)) for lat, s in zip(links, strategy)],
        derived.demand)
    try:
        expected = parallel_nash(fresh).flows
    except ModelError:
        with pytest.raises(ModelError):
            parallel_nash(derived)
        return
    assert parallel_nash(derived).flows.tobytes() == expected.tobytes()


def assert_same_objects(got, want) -> None:
    """``got`` and ``want`` hold equal latency objects, one for one."""
    assert isinstance(got, tuple)
    assert [type(lat) for lat in got] == [type(lat) for lat in want]
    assert [repr(lat) for lat in got] == [repr(lat) for lat in want]


def per_link_uppers(latencies) -> bytes:
    return np.array([float(lat.domain_upper) for lat in latencies]).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(link_specs, offset_values), min_size=1, max_size=12),
       st.data())
def test_lazy_latencies_match_the_eager_shift(rows, data):
    links = [_link(spec) for spec, _ in rows]
    offsets = np.array([s for _, s in rows])
    eager = [lat.shifted(float(s)) for lat, s in zip(links, offsets)]
    parent = LatencyBatch(links)
    derived = parent.shifted(offsets)
    keep = data.draw(st.lists(st.integers(0, len(links) - 1), min_size=1,
                              unique=True))
    subset = derived.subset(keep)
    if parent.derives_shifts:
        # The derived columns hold the shifted objects' domains bit for bit.
        assert derived.domain_upper.tobytes() == per_link_uppers(eager)
        assert subset.domain_upper.tobytes() == \
            per_link_uppers([eager[i] for i in keep])
    assert_same_objects(subset.latencies, [eager[i] for i in keep])
    assert_same_objects(derived.latencies, eager)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["mixed", "mm1"]), st.integers(1, 300),
       st.integers(0, 2**32 - 1), st.floats(min_value=0.0, max_value=0.9))
def test_derived_instances_match_the_eager_objects(family, m, seed, share):
    from repro.instances import random_mixed_parallel, random_mm1_parallel

    instance = (random_mixed_parallel(m, 0.2 * m, seed=seed)
                if family == "mixed" else random_mm1_parallel(m, seed=seed))
    rng = np.random.default_rng(seed)
    strategy = rng.dirichlet(np.ones(m)) * share * instance.demand
    strategy[rng.random(m) < 0.5] = 0.0
    strategy = np.minimum(strategy, 0.5 * instance._uppers)  # queues stay open
    followers = instance.shifted(strategy)
    eager = [lat.shifted(float(s))
             for lat, s in zip(instance.latencies, strategy)]
    # The capacity check ran on the column bounds; they are the objects'.
    assert followers._uppers.tobytes() == per_link_uppers(eager)
    assert_same_objects(followers.latencies, eager)
    keep = np.flatnonzero(rng.random(m) < 0.5)
    if keep.size:
        sub = instance.sub_instance(keep, 0.0)
        assert_same_objects(sub.latencies,
                            [instance.latencies[i] for i in keep])
        assert sub.names == tuple(instance.names[i] for i in keep)
