"""Path equilibration is certified on every small network it is given.

``path_based_flow`` generates its paths by shortest-path queries and stops
on its own path-cost residual.  These properties re-check each solve with
code that shares nothing with the solver:

* node conservation of every commodity's edge flows, which sum to the
  reported edge flows;
* ``network_commodity_gap`` (pure-Python Dijkstra) relative to the
  commodities' shortest-path distances, and with a single commodity also
  ``network_wardrop_gap`` / ``network_optimality_gap`` of the summed flow;
* the objective against a capped Frank–Wolfe run, whose iterates are
  feasible and so bound the minimum from above.

Instances: random grids and layered graphs up to 60 edges (``linear`` and
``bpr`` latencies), bidirected multicommodity grids and parallel-edge
embeddings of parallel-link instances.

The two branches of ``ShortestPathEngine`` (a Python heap Dijkstra up to
``HEAP_MAX_NODES`` nodes, one ``csgraph`` call above) are each forced by
patching the constant and checked against ``shortest_distances`` on cyclic
graphs with parallel, zero-cost and unusable edges and unreachable nodes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.equilibrium import (
    FrankWolfeOptions,
    frank_wolfe,
    network_commodity_gap,
    network_optimality_gap,
    network_wardrop_gap,
    path_based_flow,
)
from repro.instances import (
    grid_network,
    layered_network,
    random_mixed_parallel,
    random_multicommodity_instance,
)
from repro.api import solve
from repro.cache import LRUCache
from repro.exceptions import ModelError
from repro.latency import LinearLatency
from repro.network import Network
from repro.network.builders import parallel_network_as_graph
from repro.paths import dijkstra
from repro.paths.dijkstra import shortest_distances, walk_tree_path

#: Certification tolerance of every property, relative.
RTOL = 1e-9
#: Frank–Wolfe iteration cap of the objective bound.
FW_CAP = 200

families = st.sampled_from(("linear", "bpr"))
seeds = st.integers(0, 2**16)
demands = st.floats(0.2, 5.0)


@st.composite
def grids(draw):
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    return grid_network(rows, cols, draw(demands), seed=draw(seeds),
                        latency_family=draw(families))


@st.composite
def layered(draw):
    instance = layered_network(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                               draw(demands), seed=draw(seeds),
                               latency_family=draw(families),
                               extra_edge_probability=draw(st.floats(0.0, 1.0)))
    assume(instance.network.num_edges <= 60)
    return instance


@st.composite
def multicommodity(draw):
    return random_multicommodity_instance(
        draw(st.integers(2, 4)), draw(st.integers(2, 4)),
        num_commodities=draw(st.integers(1, 3)), seed=draw(seeds),
        latency_family=draw(families))


@st.composite
def parallel_embeddings(draw):
    links = random_mixed_parallel(draw(st.integers(2, 12)),
                                  demand=draw(demands), seed=draw(seeds))
    return parallel_network_as_graph(links)


def _conservation_residual(instance, commodity_flows) -> float:
    """Largest node imbalance of any commodity's own edge flows."""
    worst = 0.0
    for commodity, flows in zip(instance.commodities, commodity_flows):
        net = defaultdict(float)
        for flow, edge in zip(flows, instance.network.edges):
            net[edge.tail] += flow
            net[edge.head] -= flow
        net[commodity.source] -= commodity.demand
        net[commodity.sink] += commodity.demand
        worst = max(worst, max(abs(v) for v in net.values()))
    return worst / max(1.0, instance.total_demand)


def _distance_scale(instance, costs) -> float:
    """The largest commodity shortest-path distance under ``costs``."""
    scale = 1.0
    for commodity in instance.commodities:
        dist, _ = shortest_distances(instance.network, commodity.source, costs)
        scale = max(scale, dist[commodity.sink])
    return scale


def _check(instance) -> None:
    for kind in ("nash", "optimum"):
        result = path_based_flow(instance, kind)
        flows = result.edge_flows
        assert result.converged and result.relative_gap <= 1e-12
        assert np.all(flows >= 0.0)
        assert np.all(result.commodity_flows >= 0.0)
        np.testing.assert_allclose(result.commodity_flows.sum(axis=0), flows,
                                   rtol=0.0, atol=RTOL)
        assert _conservation_residual(instance, result.commodity_flows) <= RTOL
        if kind == "nash":
            costs = instance.latencies_at(flows)
            aggregate_gap = network_wardrop_gap
            objective = instance.beckmann
        else:
            costs = instance.marginal_costs_at(flows)
            aggregate_gap = network_optimality_gap
            objective = instance.cost
        tolerance = RTOL * _distance_scale(instance, costs)
        assert network_commodity_gap(instance, result.commodity_flows,
                                     kind) <= tolerance
        if len(instance.commodities) == 1:
            assert aggregate_gap(instance, flows) <= tolerance
        bound = frank_wolfe(instance, kind,
                            FrankWolfeOptions(tolerance=0.0,
                                              max_iterations=FW_CAP))
        value = objective(flows)
        assert value <= objective(bound.edge_flows) + RTOL * max(1.0, abs(value))


@settings(max_examples=25, deadline=None)
@given(grids())
def test_grids(instance):
    _check(instance)


@settings(max_examples=25, deadline=None)
@given(layered())
def test_layered_graphs(instance):
    _check(instance)


@settings(max_examples=20, deadline=None)
@given(multicommodity())
def test_multicommodity_grids(instance):
    _check(instance)


@settings(max_examples=20, deadline=None)
@given(parallel_embeddings())
def test_parallel_edge_embeddings(instance):
    _check(instance)


def test_engine_reprice_matches_a_fresh_engine():
    """Repricing in place answers like an engine built on the new costs,
    parallel edges included."""
    rng = np.random.default_rng(3)
    for instance in (grid_network(4, 5, seed=2),
                     parallel_network_as_graph(random_mixed_parallel(6, 2.0,
                                                                     seed=1))):
        network = instance.network
        engine = dijkstra.ShortestPathEngine(network,
                                             np.ones(network.num_edges))
        for _ in range(5):
            costs = rng.uniform(0.0, 2.0, network.num_edges)
            costs[rng.integers(network.num_edges)] = 0.0
            engine.reprice(costs)
            fresh = dijkstra.ShortestPathEngine(network, costs)
            for e in (engine, fresh):
                e.run([instance.source])
            assert engine.path_edges(instance.source, instance.sink) == \
                fresh.path_edges(instance.source, instance.sink)
            reference, _ = shortest_distances(network, instance.source, costs)
            assert math.isclose(engine.distance(instance.source, instance.sink),
                                reference[instance.sink], rel_tol=1e-12)


#: ``HEAP_MAX_NODES`` values that force each engine branch on these graphs.
BRANCHES = {"python": 10**9, "csgraph": 0}
#: Edge costs with many exact ties, zero-cost edges and a tiny cost that
#: only an exact relaxation tells from zero; ``inf`` marks an unusable edge.
edge_costs = st.one_of(st.sampled_from((0.0, 2.0**-30, 0.5, 1.0, 2.0,
                                        math.inf)),
                       st.floats(0.0, 10.0))


@st.composite
def engine_cases(draw):
    """A bidirected grid (cyclic) with extra parallel copies of some edges,
    an isolated node, a sink-only node, and two cost vectors: the engine is
    built on the first and repriced to the second."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    network = Network()
    for r in range(rows):
        for c in range(cols):
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < rows and cc < cols:
                    network.add_edge((r, c), (rr, cc), LinearLatency(1.0))
                    network.add_edge((rr, cc), (r, c), LinearLatency(1.0))
    network.add_edge((rows - 1, cols - 1), "sink only", LinearLatency(1.0))
    network.add_node("isolated")
    for idx in draw(st.lists(st.integers(0, network.num_edges - 1),
                             max_size=6)):
        edge = network.edge(idx)
        network.add_edge(edge.tail, edge.head, LinearLatency(1.0))
    vectors = st.lists(edge_costs, min_size=network.num_edges,
                       max_size=network.num_edges)
    grid_nodes = [(r, c) for r in range(rows) for c in range(cols)]
    sources = draw(st.lists(st.sampled_from(grid_nodes + ["sink only"]),
                            min_size=1, max_size=4))
    return network, np.array(draw(vectors)), np.array(draw(vectors)), sources


def _check_engine(network, engine, costs, sources) -> None:
    """Distances against the reference; every path a valid shortest path on
    the cheapest, lowest-index copy of each node pair."""
    for source in sources:
        reference, pred = shortest_distances(network, source, costs)
        for sink in network.nodes:
            distance = engine.distance(source, sink)
            if math.isinf(reference[sink]):
                assert math.isinf(distance)
                with pytest.raises(ModelError) as got:
                    engine.path_edges(source, sink)
                with pytest.raises(ModelError) as expected:
                    walk_tree_path(network, reference, pred, source, sink)
                assert str(got.value) == str(expected.value)
                continue
            assert math.isclose(distance, reference[sink], rel_tol=1e-12,
                                abs_tol=0.0)
            path = engine.path_edges(source, sink)
            node = source
            for idx in path:
                edge = network.edge(idx)
                assert edge.tail == node
                node = edge.head
                copies = [k for k in network.out_edges(edge.tail)
                          if network.edge(k).head == edge.head]
                assert min(copies, key=lambda k: (costs[k], k)) == idx
            assert node == sink
            assert math.isclose(math.fsum(costs[path]), distance,
                                rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("branch", sorted(BRANCHES))
@settings(max_examples=60, deadline=None)
@given(case=engine_cases())
def test_engine_branches_match_the_reference(branch, case):
    network, first, costs, sources = case
    with mock.patch.object(dijkstra, "HEAP_MAX_NODES", BRANCHES[branch]):
        engine = dijkstra.ShortestPathEngine(network, first)
        engine.run(sources[:1])
        engine.reprice(costs)
        engine.run(sources[:2])
        engine.run(sources)  # accumulates: only new sources are solved
    _check_engine(network, engine, costs, dict.fromkeys(sources))


def _count_csgraph_calls(instance) -> int:
    calls = []
    sparse = dijkstra._sparse_dijkstra

    def counted(*args, **kwargs):
        calls.append(1)
        return sparse(*args, **kwargs)

    with mock.patch.object(dijkstra, "_sparse_dijkstra", counted):
        solve(instance, "optop", cache=LRUCache())
    return len(calls)


def test_small_networks_make_no_csgraph_call():
    """A cold 5x5 ``optop`` (three path solves) runs every shortest-path
    tree in Python; a cold 10x10 one is above the cut."""
    small, large = grid_network(5, 5, seed=3), grid_network(10, 10, seed=3)
    assert small.network.num_nodes <= dijkstra.HEAP_MAX_NODES \
        < large.network.num_nodes
    assert _count_csgraph_calls(small) == 0
    assert _count_csgraph_calls(large) > 0
