"""Tests for Dijkstra shortest paths over edge-cost vectors."""

from __future__ import annotations

import math

from unittest import mock

import numpy as np
import pytest

from repro.equilibrium.frank_wolfe import all_or_nothing, all_or_nothing_reference
from repro.exceptions import ModelError
from repro.instances import grid_network
from repro.latency import LinearLatency
from repro.network import Network
from repro.paths import dijkstra
from repro.paths import shortest_distances, shortest_path_edge_set, shortest_path_edges

#: Patches that force each branch of the engine on a small network.
BRANCHES = {"python": 10**9, "csgraph": 0}


def build_diamond():
    """s -> {a, b} -> t with an extra a -> b edge."""
    net = Network()
    net.add_edge("s", "a", LinearLatency(1.0))  # 0
    net.add_edge("s", "b", LinearLatency(1.0))  # 1
    net.add_edge("a", "t", LinearLatency(1.0))  # 2
    net.add_edge("b", "t", LinearLatency(1.0))  # 3
    net.add_edge("a", "b", LinearLatency(1.0))  # 4
    return net


class TestShortestDistances:
    def test_basic_distances(self):
        net = build_diamond()
        costs = np.array([1.0, 4.0, 1.0, 1.0, 1.0])
        dist, pred = shortest_distances(net, "s", costs)
        assert dist["s"] == 0.0
        assert dist["a"] == 1.0
        assert dist["b"] == 2.0  # via a
        assert dist["t"] == 2.0
        assert pred["a"] == 0

    def test_reverse_distances(self):
        net = build_diamond()
        costs = np.array([1.0, 4.0, 1.0, 1.0, 1.0])
        dist, _ = shortest_distances(net, "t", costs, reverse=True)
        assert dist["t"] == 0.0
        assert dist["a"] == 1.0
        assert dist["s"] == 2.0

    def test_unreachable_node_is_infinite(self):
        net = Network()
        net.add_edge("s", "a", LinearLatency(1.0))
        net.add_node("isolated")
        dist, _ = shortest_distances(net, "s", np.array([1.0]))
        assert math.isinf(dist["isolated"])

    def test_missing_source_rejected(self):
        net = build_diamond()
        with pytest.raises(ModelError):
            shortest_distances(net, "zzz", np.zeros(5))

    def test_negative_costs_rejected(self):
        net = build_diamond()
        with pytest.raises(ModelError):
            shortest_distances(net, "s", np.array([1.0, -1.0, 1.0, 1.0, 1.0]))

    def test_wrong_cost_length_rejected(self):
        net = build_diamond()
        with pytest.raises(ModelError):
            shortest_distances(net, "s", np.zeros(3))

    @pytest.mark.parametrize("tiny", [6.9e-189, 2.0**-60, 1e-16])
    def test_tiny_improvement_wins(self, tiny):
        """``t`` first gets the tiny direct cost and must then drop to the
        exact zero of the detour through ``a``."""
        net = Network()
        net.add_edge("s", "t", LinearLatency(1.0))
        net.add_edge("s", "a", LinearLatency(1.0))
        net.add_edge("a", "t", LinearLatency(1.0))
        dist, pred = shortest_distances(net, "s", np.array([tiny, 0.0, 0.0]))
        assert dist["t"] == 0.0
        assert pred["t"] == 2


class TestShortestPathEdges:
    def test_recovers_cheapest_path(self):
        net = build_diamond()
        costs = np.array([1.0, 4.0, 1.0, 1.0, 1.0])
        path = shortest_path_edges(net, "s", "t", costs)
        assert path == [0, 2]

    def test_unreachable_sink_raises(self):
        net = Network()
        net.add_edge("s", "a", LinearLatency(1.0))
        net.add_node("t")
        with pytest.raises(ModelError):
            shortest_path_edges(net, "s", "t", np.array([1.0]))

    def test_zero_cost_edges(self):
        net = build_diamond()
        costs = np.zeros(5)
        path = shortest_path_edges(net, "s", "t", costs)
        assert path  # any path is shortest; must return a valid one
        assert net.edge(path[0]).tail == "s"
        assert net.edge(path[-1]).head == "t"


class TestShortestPathEdgeSet:
    def test_single_shortest_path(self):
        net = build_diamond()
        costs = np.array([1.0, 4.0, 1.0, 1.0, 1.0])
        edge_set = shortest_path_edge_set(net, "s", "t", costs)
        assert edge_set == {0, 2}

    def test_multiple_shortest_paths(self):
        net = build_diamond()
        costs = np.array([1.0, 1.0, 1.0, 1.0, 5.0])
        edge_set = shortest_path_edge_set(net, "s", "t", costs)
        assert edge_set == {0, 1, 2, 3}

    def test_tolerance_includes_near_ties(self):
        net = build_diamond()
        costs = np.array([1.0, 1.0 + 1e-12, 1.0, 1.0, 5.0])
        edge_set = shortest_path_edge_set(net, "s", "t", costs, atol=1e-9)
        assert {0, 1, 2, 3} <= edge_set


class TestEngineBranches:
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_tiny_improvement_wins(self, branch):
        """``a`` settles before ``b`` at the same distance, so ``t`` first
        gets the tiny cost via ``a`` and must then drop to zero via ``b``."""
        net = build_diamond()
        costs = np.array([0.0, 0.0, 2.0**-30, 0.0, 1.0])
        with mock.patch.object(dijkstra, "HEAP_MAX_NODES", BRANCHES[branch]):
            engine = dijkstra.ShortestPathEngine(net, costs)
        engine.run(["s"])
        assert engine.distance("s", "t") == 0.0
        assert engine.path_edges("s", "t") == [1, 3]


class TestNonFiniteCosts:
    """A NaN cost raises everywhere; a ``+inf`` cost is an unusable edge."""

    @staticmethod
    def nan_costs():
        instance = grid_network(3, 3, seed=1)
        costs = np.ones(instance.network.num_edges)
        costs[0] = math.nan
        return instance, costs

    def test_reference_rejects_nan(self):
        instance, costs = self.nan_costs()
        with pytest.raises(ModelError, match="NaN"):
            shortest_distances(instance.network, instance.source, costs)

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_engine_rejects_nan(self, branch):
        instance, costs = self.nan_costs()
        network = instance.network
        with mock.patch.object(dijkstra, "HEAP_MAX_NODES", BRANCHES[branch]):
            with pytest.raises(ModelError, match="NaN"):
                dijkstra.ShortestPathEngine(network, costs)
            with pytest.raises(ModelError, match="NaN"):
                dijkstra.ShortestPathEngine(network, costs, validated=True)
            engine = dijkstra.ShortestPathEngine(network,
                                                 np.ones(network.num_edges))
            with pytest.raises(ModelError, match="NaN"):
                engine.reprice(costs, validated=True)

    @pytest.mark.parametrize("validated", [False, True])
    def test_all_or_nothing_rejects_nan(self, validated):
        instance, costs = self.nan_costs()
        with pytest.raises(ModelError, match="NaN"):
            all_or_nothing(instance, costs, validated=validated)

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_infinite_cost_is_an_unusable_edge(self, branch):
        net = build_diamond()
        costs = np.array([math.inf, 4.0, 1.0, 1.0, 1.0])
        dist, _ = shortest_distances(net, "s", costs)
        with mock.patch.object(dijkstra, "HEAP_MAX_NODES", BRANCHES[branch]):
            engine = dijkstra.ShortestPathEngine(net, costs)
        engine.run(["s"])
        assert engine.distance("s", "t") == dist["t"] == 5.0
        assert engine.path_edges("s", "t") == [1, 3]
        assert math.isinf(engine.distance("s", "a")) and math.isinf(dist["a"])
        with pytest.raises(ModelError, match="unreachable"):
            engine.path_edges("s", "a")
