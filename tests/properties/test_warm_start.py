"""Warm-started path equilibration ends where a cold solve ends.

A path solve seeded with the certified path flows of a neighbouring
problem (``start=``) must stop on the same residual test as a cold one.
These properties seed the optimum with the Nash path flows (the warm start
MOP and LLF use with ``compute_nash``) and the Nash with the optimum's,
and check each seeded result with code independent of the solver
(``network_commodity_gap``) and against the cold solve's edge flows.  A
malformed start raises ``ModelError``, and no start reaches Frank–Wolfe.
The Followers' network derived by ``Network.shifted`` must equal a rebuild
through ``add_edge``.

Instances: the grids, layered graphs, multicommodity grids and
parallel-edge embeddings of ``test_path_equilibration``, plus grids and
embeddings with M/M/1 edges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.equilibrium import (
    network_commodity_gap,
    network_nash,
    network_optimum,
    path_based_flow,
)
from repro.api import SolveConfig, solve
from repro.cache import LRUCache
from repro.exceptions import ModelError
from repro.instances import (
    grid_network,
    random_mm1_parallel,
    random_multicommodity_instance,
)
from repro.latency import LatencyBatch, LinearLatency, MM1Latency
from repro.network import Network, NetworkInstance
from repro.network.builders import parallel_network_as_graph
from test_path_equilibration import (
    RTOL,
    _distance_scale,
    demands,
    grids,
    layered,
    multicommodity,
    parallel_embeddings,
    seeds,
)
from test_shifted_batch import assert_same_batch


@st.composite
def mm1_grids(draw):
    """A grid with some edges replaced by M/M/1 queues of tight capacity."""
    base = grid_network(draw(st.integers(2, 5)), draw(st.integers(2, 5)),
                        draw(demands), seed=draw(seeds))
    rng = np.random.default_rng(draw(seeds))
    network = Network()
    for edge in base.network.edges:
        latency = edge.latency
        if rng.random() < 0.4:
            latency = MM1Latency(base.total_demand * rng.uniform(0.7, 2.5))
        network.add_edge(edge.tail, edge.head, latency)
    instance = NetworkInstance(network, base.commodities)
    try:
        path_based_flow(instance, "optimum")
    except ModelError:  # the capacities admit no routing of the demand
        assume(False)
    return instance


@st.composite
def mm1_embeddings(draw):
    return parallel_network_as_graph(
        random_mm1_parallel(draw(st.integers(2, 12)), seed=draw(seeds)))


instances = st.one_of(grids(), layered(), multicommodity(),
                      parallel_embeddings(), mm1_grids(), mm1_embeddings())


def _assert_certified(instance, result, kind: str) -> None:
    assert result.converged and result.relative_gap <= 1e-12
    costs = (instance.latencies_at(result.edge_flows) if kind == "nash"
             else instance.marginal_costs_at(result.edge_flows))
    tolerance = RTOL * _distance_scale(instance, costs)
    assert network_commodity_gap(instance, result.commodity_flows,
                                 kind) <= tolerance


def _assert_same_flows(instance, seeded, cold) -> None:
    np.testing.assert_allclose(seeded.edge_flows, cold.edge_flows, rtol=0.0,
                               atol=RTOL * max(1.0, instance.total_demand))


@settings(max_examples=40, deadline=None)
@given(instances)
def test_nash_and_optimum_seed_each_other(instance):
    cold = {kind: path_based_flow(instance, kind)
            for kind in ("nash", "optimum")}
    for kind, other in (("optimum", "nash"), ("nash", "optimum")):
        seeded = path_based_flow(instance, kind,
                                 start=cold[other].path_flows)
        _assert_certified(instance, seeded, kind)
        _assert_same_flows(instance, seeded, cold[kind])


# --------------------------------------------------------------------------- #
# Malformed starts
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def seeded_grid():
    """A 3x4 grid and its Nash path flows."""
    instance = grid_network(3, 4, 2.0, seed=5)
    return instance, path_based_flow(instance, "nash").path_flows


def _first_path(change):
    """A start whose first pair is replaced by ``change(path, flow,
    num_edges)``."""
    def build(start, num_edges, demand):
        (path, flow), *rest = start[0]
        return ((change(path, flow, num_edges),) + tuple(rest),) + start[1:]
    return build


def _one_path(amount):
    """A start routing ``amount(demand)`` on the first path alone."""
    def build(start, num_edges, demand):
        return ((start[0][0][0], amount(demand)),),
    return build


#: Each malformed start, by name: the error it must raise and its builder.
MALFORMED = {
    "too few entries": ("entries", lambda start, m, demand: ()),
    "too many entries": ("entries", lambda start, m, demand: start + start),
    "not a sequence": ("one entry per commodity", lambda start, m, demand: 3),
    "not pairs": ("pairs", lambda start, m, demand: ((start[0][0][0],),)),
    "empty path": ("edge indices", _first_path(lambda p, f, m: ((), f))),
    "edge out of range": ("edge indices",
                          _first_path(lambda p, f, m: (p + (m,), f))),
    "negative edge": ("edge indices",
                      _first_path(lambda p, f, m: ((-1,) + p[1:], f))),
    "float edges": ("edge indices",
                    _first_path(lambda p, f, m: (tuple(map(float, p)), f))),
    "edge past int64": ("edge indices", _first_path(lambda p, f, m: (
        np.array(p + (2**64 - 1,), dtype=np.uint64), f))),
    "not from the source": ("simple", _first_path(lambda p, f, m: (p[1:], f))),
    "not to the sink": ("simple", _first_path(lambda p, f, m: (p[:-1], f))),
    "not contiguous": ("simple",
                       _first_path(lambda p, f, m: (p[:1] + p[2:], f))),
    "negative flow": ("non-negative", lambda start, m, demand: (
        ((start[0][0][0], -1.0), (start[0][0][0], demand + 1.0)),)),
    "nan flow": ("non-negative", _one_path(lambda demand: float("nan"))),
    "short of demand": ("sum", _one_path(lambda demand: demand * (1 - 1e-8))),
    "over demand": ("sum", _one_path(lambda demand: demand * (1 + 1e-8))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_start_raises(seeded_grid, case):
    instance, start = seeded_grid
    message, build = MALFORMED[case]
    bad = build(start, instance.network.num_edges, instance.total_demand)
    for kind in ("nash", "optimum"):
        with pytest.raises(ModelError, match=message):
            path_based_flow(instance, kind, start=bad)


#: The cases that break one path of a start.
PATH_CASES = ("empty path", "edge out of range", "negative edge",
              "float edges", "edge past int64", "not from the source",
              "not to the sink", "not contiguous")


@pytest.mark.parametrize("case", PATH_CASES)
def test_malformed_last_path_raises(seeded_grid, case):
    """A commodity's paths are checked together: a malformed path after
    valid ones is rejected too."""
    instance, start = seeded_grid
    assert len(start[0]) > 1
    message, build = MALFORMED[case]
    last_first = (tuple(reversed(start[0])),) + start[1:]
    bad = build(last_first, instance.network.num_edges,
                instance.total_demand)
    bad = (tuple(reversed(bad[0])),) + bad[1:]
    with pytest.raises(ModelError, match=message):
        path_based_flow(instance, "nash", start=bad)


def test_start_with_a_cycle_raises():
    instance = random_multicommodity_instance(3, 3, num_commodities=1, seed=2)
    network = instance.network
    path_flows = path_based_flow(instance, "nash").path_flows[0]
    (path, flow), *_ = path_flows
    first = network.edge(path[0])
    back = next(i for i in network.out_edges(first.head)
                if network.edge(i).head == first.tail)
    looped = (path[0], back) + path
    # A loop from the source through a node off the path.
    out = next(i for i in network.out_edges(first.tail)
               if network.edge(i).head != first.head)
    home = next(i for i in network.out_edges(network.edge(out).head)
                if network.edge(i).head == first.tail)
    # A detour from a longer path's second node and back: a cycle that
    # misses the source.
    longer = max((p for p, _ in path_flows), key=len)
    second = network.edge(longer[0]).head
    detour = next(i for i in network.out_edges(second)
                  if network.edge(i).head not in (
                      network.edge(longer[0]).tail,
                      network.edge(longer[1]).head))
    ret = next(i for i in network.out_edges(network.edge(detour).head)
               if network.edge(i).head == second)
    for bad in (looped, (out, home) + path,
                (longer[0], detour, ret) + longer[1:]):
        with pytest.raises(ModelError, match="simple"):
            path_based_flow(instance, "nash",
                            start=(((bad, instance.total_demand),),))


def test_start_is_rescaled_to_the_demand(seeded_grid):
    instance, start = seeded_grid
    nudged = tuple(tuple((path, flow * (1.0 + 5e-10)) for path, flow in entry)
                   for entry in start)
    result = path_based_flow(instance, "optimum", start=nudged)
    total = sum(flow for _, flow in result.path_flows[0])
    assert total == pytest.approx(instance.total_demand, rel=1e-14, abs=0.0)


def test_start_past_an_mm1_capacity_raises():
    network = Network()
    network.add_edge("s", "t", MM1Latency(1.0))
    network.add_edge("s", "t", LinearLatency(1.0, 0.0))
    instance = NetworkInstance.single_commodity(network, "s", "t", 1.5)
    queue, line = (0,), (1,)
    with pytest.raises(ModelError, match="capacity"):
        path_based_flow(instance, "nash", start=(((queue, 1.5),),))
    result = path_based_flow(instance, "nash",
                             start=(((queue, 0.5), (line, 1.0)),))
    assert result.converged


def test_frank_wolfe_takes_no_start():
    instance = grid_network(3, 4, 2.0, seed=5)
    start = path_based_flow(instance, "nash").path_flows
    config = SolveConfig(backend="frank_wolfe", max_iterations=20)
    assert network_nash(instance, config=config).path_flows is None
    for solve in (network_nash, network_optimum):
        with pytest.raises(ModelError):
            solve(instance, config=config, start=start)


@pytest.mark.parametrize("strategy", ["optop", "llf"])
@pytest.mark.parametrize("instance, backend", [
    (grid_network(3, 4, 2.0, seed=5), "frank_wolfe"),
    (grid_network(5, 8, seed=1), "frank_wolfe"),
], ids=["frank_wolfe", "frank_wolfe-67-edges"])
def test_solve_under_frank_wolfe_passes_no_start(strategy, instance,
                                                 backend):
    """A network ``solve`` whose path solves all run Frank-Wolfe seeds
    nothing and returns a report."""
    config = SolveConfig(backend=backend, max_iterations=50)
    report = solve(instance, strategy, config=config, cache=LRUCache())
    assert report.instance_kind == "network"
    assert report.strategy == strategy


# --------------------------------------------------------------------------- #
# The derived Followers' network
# --------------------------------------------------------------------------- #
def _rebuilt(network: Network, offsets) -> Network:
    rebuilt = Network()
    for node in network.nodes:
        rebuilt.add_node(node)
    for edge, s in zip(network.edges, offsets):
        rebuilt.add_edge(edge.tail, edge.head, edge.latency.shifted(float(s)))
    return rebuilt


@settings(max_examples=40, deadline=None)
@given(instances, st.integers(0, 2**16), st.sampled_from(("zero", "sparse",
                                                          "dense")))
def test_shifted_network_matches_a_rebuild(instance, seed, pattern):
    network = instance.network
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, 0.5, network.num_edges)
    offsets *= 0.0 if pattern == "zero" else 1.0
    if pattern == "sparse":
        offsets[rng.random(network.num_edges) < 0.6] = 0.0
    caps = network.latency_batch().domain_upper
    offsets = np.minimum(offsets, 0.5 * caps)
    derived = network.shifted(offsets)
    rebuilt = _rebuilt(network, offsets)
    assert derived.nodes == rebuilt.nodes
    assert [(e.tail, e.head, e.key) for e in derived.edges] == \
        [(e.tail, e.head, e.key) for e in rebuilt.edges]
    assert [repr(e.latency) for e in derived.edges] == \
        [repr(e.latency) for e in rebuilt.edges]
    for node in network.nodes:
        assert derived.out_edges(node) == rebuilt.out_edges(node)
        assert derived.in_edges(node) == rebuilt.in_edges(node)
    mine, want = derived.csr_structure(), rebuilt.csr_structure()
    assert mine.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert mine[name].dtype == value.dtype, name
            assert mine[name].tobytes() == value.tobytes(), name
        else:
            assert mine[name] == value, name
    batch = derived.latency_batch()
    assert_same_batch(batch, LatencyBatch([e.latency for e in rebuilt.edges]))
    assert batch.derives_shifts == rebuilt.latency_batch().derives_shifts


def test_shifted_network_stays_independent():
    """Adding edges to the Followers' network leaves the Leader's alone."""
    instance = grid_network(2, 3, seed=0)
    network = instance.network
    derived = network.shifted(np.full(network.num_edges, 0.1))
    derived.add_edge((0, 0), (0, 1), LinearLatency(1.0))
    assert derived.edge(derived.num_edges - 1).key == 1
    assert network.num_edges == derived.num_edges - 1
    assert network.out_edges((0, 0)) == derived.out_edges((0, 0))[:-1]
    assert network.add_edge((0, 0), (0, 1), LinearLatency(2.0)) == \
        network.num_edges - 1
    assert network.edge(network.num_edges - 1).key == 1
