"""Tests for the equilibrium-condition verification helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.equilibrium import (
    network_commodity_gap,
    network_nash,
    network_optimality_gap,
    network_optimum,
    network_wardrop_gap,
    parallel_nash,
    parallel_optimality_gap,
    parallel_optimum,
    parallel_wardrop_gap,
)
from repro.equilibrium.frank_wolfe import all_or_nothing
from repro.instances import (
    braess_paradox,
    grid_network,
    pigou,
    random_linear_parallel,
    random_multicommodity_instance,
)
from repro.exceptions import ModelError
from repro.latency import ConstantLatency, LinearLatency
from repro.network import Commodity, Network, NetworkInstance
from repro.network.builders import parallel_network_as_graph
from repro.paths.dijkstra import shortest_path_edges


class TestParallelGaps:
    def test_nash_has_zero_wardrop_gap(self):
        instance = pigou()
        assert parallel_wardrop_gap(instance, parallel_nash(instance).flows) \
            == pytest.approx(0.0, abs=1e-9)

    def test_optimum_has_zero_optimality_gap(self):
        instance = pigou()
        assert parallel_optimality_gap(instance, parallel_optimum(instance).flows) \
            == pytest.approx(0.0, abs=1e-9)

    def test_optimum_has_positive_wardrop_gap_on_pigou(self):
        """The optimum is NOT an equilibrium on Pigou (used link latencies differ)."""
        instance = pigou()
        gap = parallel_wardrop_gap(instance, parallel_optimum(instance).flows)
        assert gap == pytest.approx(0.5)

    def test_nash_has_positive_optimality_gap_on_pigou(self):
        instance = pigou()
        gap = parallel_optimality_gap(instance, parallel_nash(instance).flows)
        assert gap == pytest.approx(1.0)  # marginal 2x=2 on link 1 vs 1 on link 2

    def test_unbalanced_flow_has_positive_gap(self):
        instance = random_linear_parallel(4, demand=2.0, seed=0)
        lopsided = np.array([2.0, 0.0, 0.0, 0.0])
        assert parallel_wardrop_gap(instance, lopsided) > 0.0

    def test_zero_flow_has_zero_gap(self):
        instance = random_linear_parallel(4, demand=2.0, seed=0)
        assert parallel_wardrop_gap(instance, np.zeros(4)) == 0.0


class TestNetworkGap:
    def test_nash_flow_has_small_residual(self):
        instance = braess_paradox()
        nash = network_nash(instance)
        assert network_wardrop_gap(instance, nash.edge_flows) < 1e-6

    def test_bad_flow_has_large_residual(self):
        instance = braess_paradox()
        # Route everything over the two outer paths: the zig-zag is shorter.
        flows = np.array([0.5, 0.5, 0.0, 0.5, 0.5])
        assert network_wardrop_gap(instance, flows) > 0.4


class TestNetworkOptimalityGap:
    """The marginal-cost twin of the Wardrop residual."""

    INSTANCES = {
        "pigou": lambda: parallel_network_as_graph(pigou()),
        "braess": braess_paradox,
        "grid": lambda: grid_network(4, 4, demand=2.0, seed=3),
    }

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_optimum_has_zero_gap(self, name):
        instance = self.INSTANCES[name]()
        optimum = network_optimum(instance).edge_flows
        assert network_optimality_gap(instance, optimum) < 1e-9

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_perturbed_optimum_fails(self, name):
        """Moving a tenth of the flow onto the free-flow shortest paths keeps
        the flow feasible but breaks the marginal-cost equality."""
        instance = self.INSTANCES[name]()
        optimum = network_optimum(instance).edge_flows
        free_flow = all_or_nothing(instance, instance.latencies_at(
            np.zeros(instance.network.num_edges)))
        perturbed = 0.9 * optimum + 0.1 * free_flow
        instance.check_flow_conservation(perturbed)
        assert network_optimality_gap(instance, perturbed) > 1e-3

    def test_pigou_values(self):
        instance = parallel_network_as_graph(pigou())
        # Nash routes everything on the x link: marginal 2 against 1.
        assert network_optimality_gap(instance, [1.0, 0.0]) == \
            pytest.approx(1.0)
        assert network_optimality_gap(instance, [0.5, 0.5]) == \
            pytest.approx(0.0, abs=1e-15)

    def test_nash_is_not_optimal_on_braess(self):
        instance = braess_paradox()
        nash = network_nash(instance).edge_flows
        assert network_optimality_gap(instance, nash) > 0.4


def _free_flow_rows(instance):
    """Each commodity's whole demand on its own free-flow shortest path."""
    costs = instance.latencies_at(np.zeros(instance.network.num_edges))
    rows = np.zeros((len(instance.commodities), instance.network.num_edges))
    for row, commodity in zip(rows, instance.commodities):
        path = shortest_path_edges(instance.network, commodity.source,
                                   commodity.sink, costs)
        row[path] = commodity.demand
    return rows


class TestNetworkCommodityGap:
    """Per-commodity flows certify several commodities exactly."""

    @staticmethod
    def three_commodities():
        return random_multicommodity_instance(3, 3, num_commodities=3, seed=1)

    @pytest.mark.parametrize("kind, solve", [("nash", network_nash),
                                             ("optimum", network_optimum)])
    def test_solution_has_zero_gap(self, kind, solve):
        instance = self.three_commodities()
        result = solve(instance)
        assert network_commodity_gap(instance, result.commodity_flows,
                                     kind) < 1e-9

    @pytest.mark.parametrize("kind, solve", [("nash", network_nash),
                                             ("optimum", network_optimum)])
    def test_perturbed_solution_fails(self, kind, solve):
        instance = self.three_commodities()
        rows = solve(instance).commodity_flows
        perturbed = 0.9 * rows + 0.1 * _free_flow_rows(instance)
        instance.check_flow_conservation(perturbed.sum(axis=0))
        assert network_commodity_gap(instance, perturbed, kind) > 1e-3

    def test_aggregate_gap_is_conservative(self):
        """The summed flow cannot be split by commodity, so the aggregate
        gap of an exact optimum may read positive; the per-commodity gap
        does not."""
        instance = self.three_commodities()
        result = network_optimum(instance)
        assert network_commodity_gap(instance, result.commodity_flows,
                                     "optimum") < 1e-9
        assert network_optimality_gap(instance, result.edge_flows) > 1e-3

    def test_misrouted_commodity_fails(self):
        """Commodity s -> t routed over s-m-t while the direct edge is
        cheaper: the gap sees it, whichever DAG suits the edge m -> t."""
        net = Network()
        net.add_edge("s", "m", LinearLatency(1.0))
        net.add_edge("m", "t", LinearLatency(1.0))
        net.add_edge("s", "t", ConstantLatency(1.5))
        instance = NetworkInstance(net, [Commodity("s", "t", 1.0),
                                         Commodity("m", "t", 1.0)])
        misrouted = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        # Prices at (1, 2, 0): s-m-t costs 3 against 1.5 direct.
        assert network_commodity_gap(instance, misrouted, "nash") == \
            pytest.approx(1.5)
        assert network_wardrop_gap(instance, [1.0, 2.0, 0.0]) == \
            pytest.approx(1.5)

    def test_single_commodity_matches_aggregate_gap(self):
        instance = grid_network(4, 4, demand=2.0, seed=3)
        flows = 0.5 * network_optimum(instance).edge_flows \
            + 0.5 * _free_flow_rows(instance)[0]
        assert network_commodity_gap(instance, [flows], "optimum") == \
            network_optimality_gap(instance, flows)
        assert network_commodity_gap(instance, [flows], "nash") == \
            network_wardrop_gap(instance, flows)

    def test_rejects_bad_input(self):
        instance = self.three_commodities()
        with pytest.raises(ModelError):
            network_commodity_gap(instance, np.zeros((2, 3)), "nash")
        with pytest.raises(ModelError):
            network_commodity_gap(
                instance,
                np.zeros((3, instance.network.num_edges)), "stackelberg")
