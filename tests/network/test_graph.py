"""Tests for the Network edge-indexed graph model."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.latency import ConstantLatency, LinearLatency
from repro.instances import random_linear_parallel
from repro.network import Edge, Network
from repro.network.builders import parallel_network_as_graph


@pytest.fixture
def diamond():
    """A 4-node diamond network s -> {v, w} -> t."""
    net = Network()
    net.add_edge("s", "v", LinearLatency(1.0, 0.0))
    net.add_edge("s", "w", ConstantLatency(1.0))
    net.add_edge("v", "t", ConstantLatency(1.0))
    net.add_edge("w", "t", LinearLatency(1.0, 0.0))
    return net


class TestConstruction:
    def test_counts(self, diamond):
        assert diamond.num_nodes == 4
        assert diamond.num_edges == 4

    def test_edge_ordering_is_insertion_order(self, diamond):
        assert diamond.edge(0).endpoints == ("s", "v")
        assert diamond.edge(3).endpoints == ("w", "t")

    def test_out_and_in_edges(self, diamond):
        assert set(diamond.out_edges("s")) == {0, 1}
        assert set(diamond.in_edges("t")) == {2, 3}
        assert diamond.out_edges("t") == ()

    def test_parallel_edges_get_distinct_keys(self):
        net = Network()
        first = net.add_edge("a", "b", LinearLatency(1.0))
        second = net.add_edge("a", "b", LinearLatency(2.0))
        assert first != second
        assert net.edge(first).key == 0
        assert net.edge(second).key == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            Edge("a", "a", LinearLatency(1.0))

    def test_non_latency_rejected(self):
        with pytest.raises(ModelError):
            Edge("a", "b", 3.0)

    def test_add_node_idempotent(self, diamond):
        diamond.add_node("s")
        assert diamond.num_nodes == 4

    def test_has_node(self, diamond):
        assert diamond.has_node("v")
        assert not diamond.has_node("zzz")

    def test_construct_from_edges_iterable(self):
        edges = [Edge("a", "b", LinearLatency(1.0)), Edge("b", "c", LinearLatency(2.0))]
        net = Network(edges)
        assert net.num_edges == 2

    def test_keys_count_insertions_per_node_pair(self):
        rng = np.random.default_rng(7)
        net = Network()
        seen = {}
        for _ in range(400):
            tail, head = rng.choice(6, size=2, replace=False).tolist()
            index = net.add_edge(tail, head, LinearLatency(1.0))
            assert net.edge(index).key == seen.get((tail, head), 0)
            seen[(tail, head)] = seen.get((tail, head), 0) + 1
        assert sum(seen.values()) == net.num_edges

    def test_parallel_link_embedding_keys(self):
        instance = parallel_network_as_graph(
            random_linear_parallel(4000, demand=100.0, seed=0))
        assert [edge.key for edge in instance.network.edges] == list(range(4000))


class TestFunctionals:
    def test_latencies_at(self, diamond):
        flows = np.array([0.5, 0.2, 0.2, 0.5])
        assert np.allclose(diamond.latencies_at(flows), [0.5, 1.0, 1.0, 0.5])

    def test_marginal_costs_at(self, diamond):
        flows = np.array([0.5, 0.2, 0.2, 0.5])
        assert np.allclose(diamond.marginal_costs_at(flows), [1.0, 1.0, 1.0, 1.0])

    def test_cost(self, diamond):
        flows = np.array([0.5, 0.5, 0.5, 0.5])
        expected = 0.5 * 0.5 + 0.5 * 1.0 + 0.5 * 1.0 + 0.5 * 0.5
        assert diamond.cost(flows) == pytest.approx(expected)

    def test_beckmann(self, diamond):
        flows = np.array([1.0, 0.0, 0.0, 1.0])
        assert diamond.beckmann(flows) == pytest.approx(1.0)

    def test_path_latency(self, diamond):
        flows = np.array([0.5, 0.0, 0.0, 0.0])
        assert diamond.path_latency([0, 2], flows) == pytest.approx(0.5 + 1.0)

    def test_validate_edge_flows_shape(self, diamond):
        with pytest.raises(ModelError):
            diamond.validate_edge_flows(np.zeros(3))

    def test_validate_edge_flows_negative(self, diamond):
        with pytest.raises(ModelError):
            diamond.validate_edge_flows(np.array([-1.0, 0.0, 0.0, 0.0]))


class TestConversions:
    def test_shifted_network_values(self, diamond):
        shifted = diamond.shifted(np.array([0.5, 0.0, 0.0, 0.0]))
        assert float(shifted.edge(0).latency.value(0.0)) == pytest.approx(0.5)
        assert shifted.num_edges == diamond.num_edges

    def test_shifted_preserves_node_set(self, diamond):
        shifted = diamond.shifted(np.zeros(4))
        assert set(shifted.nodes) == set(diamond.nodes)

    def test_to_networkx(self, diamond):
        graph = diamond.to_networkx(edge_flows=np.ones(4), capacities=np.ones(4))
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 4
        _, _, data = next(iter(graph.edges(data=True)))
        assert "flow" in data and "capacity" in data and "index" in data

    def test_to_networkx_edge_paths_carry_edge_indices(self):
        net = Network()
        net.add_edge("s", "v", LinearLatency(1.0))  # 0
        net.add_edge("s", "w", LinearLatency(1.0))  # 1
        net.add_edge("v", "w", LinearLatency(1.0))  # 2
        net.add_edge("v", "t", LinearLatency(1.0))  # 3
        net.add_edge("w", "t", LinearLatency(1.0))  # 4
        graph = net.to_networkx()
        paths = {tuple(graph.edges[e]["index"] for e in path)
                 for path in nx.all_simple_edge_paths(graph, "s", "t")}
        assert paths == {(0, 3), (1, 4), (0, 2, 4)}

    def test_to_networkx_keeps_parallel_edges_apart(self):
        net = Network()
        net.add_edge("s", "t", LinearLatency(1.0))
        net.add_edge("s", "t", LinearLatency(2.0))
        graph = net.to_networkx()
        assert graph.number_of_edges("s", "t") == 2
        paths = list(nx.all_simple_edge_paths(graph, "s", "t"))
        assert sorted(graph.edges[p[0]]["index"] for p in paths) == [0, 1]
