"""Tests for the exact path-based solver and the high-level network entry points."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SolveConfig
from repro.exceptions import ModelError
from repro.latency import ConstantLatency, LatencyFunction, LinearLatency, MM1Latency
from repro.network import Commodity, Network, NetworkInstance
from repro.equilibrium import (
    frank_wolfe,
    FrankWolfeOptions,
    network_nash,
    network_optimum,
    network_commodity_gap,
    network_wardrop_gap,
    path_based_flow,
)
from repro.instances import (
    braess_paradox,
    grid_network,
    mm1_server_farm,
    roughgarden_example,
)
from repro.network.builders import parallel_network_as_graph


class TestPathBasedSolver:
    def test_braess_nash(self):
        result = path_based_flow(braess_paradox(), "nash")
        assert result.cost == pytest.approx(2.0, abs=1e-6)
        assert result.solver == "path-based"

    def test_braess_optimum(self):
        result = path_based_flow(braess_paradox(), "optimum")
        assert result.cost == pytest.approx(1.5, abs=1e-6)

    def test_roughgarden_optimum_flows(self):
        result = path_based_flow(roughgarden_example(), "optimum")
        assert result.edge_flows == pytest.approx([0.75, 0.25, 0.5, 0.25, 0.75],
                                                  abs=1e-5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            path_based_flow(braess_paradox(), "bogus")

    def test_too_many_paths_rejected(self):
        with pytest.raises(ModelError):
            path_based_flow(grid_network(4, 4, seed=0), "nash", max_paths=3)

    def test_agrees_with_frank_wolfe(self):
        instance = grid_network(3, 3, demand=1.5, seed=5)
        exact = path_based_flow(instance, "nash")
        iterative = frank_wolfe(instance, "nash", FrankWolfeOptions(tolerance=1e-9))
        assert exact.cost == pytest.approx(iterative.cost, rel=1e-4)

    def test_multicommodity(self):
        net = Network()
        net.add_edge("s", "m", LinearLatency(1.0))   # 0
        net.add_edge("m", "t", LinearLatency(1.0))   # 1
        net.add_edge("s", "t", ConstantLatency(3.0))  # 2
        from repro.network import Commodity
        instance = NetworkInstance(net, [Commodity("s", "t", 1.0),
                                         Commodity("m", "t", 1.0)])
        result = path_based_flow(instance, "nash")
        instance.check_flow_conservation(result.edge_flows, atol=1e-5)
        assert network_wardrop_gap(instance, result.edge_flows) < 1e-5


    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_mm1_start_stays_inside_capacities(self, kind):
        """Demand 12 would overload any single link (capacities 4 and 2)."""
        farm = mm1_server_farm(2, 6, fast_capacity=4.0, slow_capacity=2.0)
        instance = parallel_network_as_graph(farm)
        result = path_based_flow(instance, kind)
        assert np.all(result.edge_flows < farm.latency_batch().domain_upper)
        assert result.edge_flows.sum() == pytest.approx(farm.demand)
        assert network_commodity_gap(instance, result.commodity_flows,
                                     kind) < 1e-9

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_step_into_an_mm1_capacity_converges(self, kind):
        """A Newton step cut short at an M/M/1 capacity has a slope ~1e24
        at its end; the line search bisects such a bracket instead of
        creeping up from zero in secant steps."""
        base = grid_network(5, 4, 4.165117607354409, seed=59)
        capacities = {0: 5.745252000685658, 1: 4.11725491323553,
                      2: 10.207750481113527, 3: 9.921860562460608,
                      6: 6.7100042209027615, 8: 4.738395324422823,
                      9: 5.51290751121351, 10: 4.348176874029583,
                      11: 9.607028040497495, 14: 3.382334028332816,
                      20: 5.127225171985564, 22: 6.817968321863483,
                      26: 5.190469529929681, 27: 2.9429689168694555,
                      28: 7.567205134270629}
        network = Network()
        for i, edge in enumerate(base.network.edges):
            latency = (MM1Latency(capacities[i]) if i in capacities
                       else edge.latency)
            network.add_edge(edge.tail, edge.head, latency)
        instance = NetworkInstance(network, base.commodities)
        result = path_based_flow(instance, kind, max_iterations=100)
        assert result.relative_gap <= 1e-12
        assert network_commodity_gap(instance, result.commodity_flows,
                                     kind) < 1e-9

    def test_demand_beyond_capacity_rejected(self):
        """No start fits demand 3 into two M/M/1 links of capacity 1."""
        net = Network()
        net.add_edge("s", "t", MM1Latency(1.0))
        net.add_edge("s", "t", MM1Latency(1.0))
        instance = NetworkInstance(net, [Commodity("s", "t", 3.0)])
        with pytest.raises(ModelError, match="latency domains"):
            path_based_flow(instance, "nash")


class _CliffLatency(LatencyFunction):
    """Constant ``0.1`` up to a load of ``0.5``, NaN above: a generic latency
    whose prices stop being numbers once the start loads it."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, np.nan, 0.1)

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def integral(self, x):
        return 0.1 * np.asarray(x, dtype=float)


class TestNonFinitePrices:
    @staticmethod
    def cliff_instance():
        net = Network()
        net.add_edge("s", "t", _CliffLatency())
        net.add_edge("s", "m", LinearLatency(1.0, 0.5))
        net.add_edge("m", "t", LinearLatency(1.0, 0.5))
        return NetworkInstance(net, [Commodity("s", "t", 2.0)])

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_nan_prices_at_the_start_raise(self, kind):
        """The cold start loads all of the demand on ``s -> t``, where the
        price is NaN: no certificate may be issued for that flow."""
        with pytest.raises(ModelError, match="not finite"):
            path_based_flow(self.cliff_instance(), kind)

    def test_nan_prices_at_a_seeded_start_raise(self):
        instance = self.cliff_instance()
        with pytest.raises(ModelError, match="not finite"):
            path_based_flow(instance, "nash", start=[[([0], 2.0)]])


class TestNetworkEntryPoints:
    def test_auto_uses_path_solver_on_small_networks(self):
        result = network_nash(braess_paradox())
        assert result.solver == "path-based"

    def test_explicit_frank_wolfe(self):
        config = SolveConfig(backend="frank_wolfe", tolerance=1e-7)
        result = network_nash(braess_paradox(), config=config)
        assert result.solver == "frank-wolfe"
        assert result.cost == pytest.approx(2.0, abs=1e-3)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ModelError, match="backend"):
            network_nash(braess_paradox(), config=SolveConfig(backend="path"))

    def test_nash_cost_at_least_optimum(self):
        instance = grid_network(3, 3, demand=2.0, seed=9)
        assert network_nash(instance).cost >= network_optimum(instance).cost - 1e-6

    def test_auto_runs_path_equilibration_on_larger_networks(self):
        # A 7x7 grid has 84 edges; auto runs the certified path solver at
        # every size.
        instance = grid_network(7, 7, demand=2.0, seed=0)
        assert instance.network.num_edges == 84
        result = network_nash(instance, config=SolveConfig(tolerance=1e-4))
        assert result.solver == "path-based"
        assert result.converged and result.relative_gap <= 1e-12
