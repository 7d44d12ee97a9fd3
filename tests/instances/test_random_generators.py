"""Tests for the random instance generators."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import InstanceError, ModelError
from repro.instances import (
    grid_network,
    layered_network,
    mm1_server_farm,
    random_affine_common_slope,
    random_linear_parallel,
    random_mixed_parallel,
    random_mm1_parallel,
    random_multicommodity_instance,
    random_polynomial_parallel,
)
from repro.latency import LinearLatency, MM1Latency


class TestDeterminism:
    """Same seed -> identical instance; different seed -> (generally) different."""

    def test_linear_parallel_deterministic(self):
        a = random_linear_parallel(5, seed=3)
        b = random_linear_parallel(5, seed=3)
        for la, lb in zip(a.latencies, b.latencies):
            assert la.slope == lb.slope and la.intercept == lb.intercept

    def test_linear_parallel_seed_sensitivity(self):
        a = random_linear_parallel(5, seed=3)
        b = random_linear_parallel(5, seed=4)
        assert any(la.slope != lb.slope for la, lb in zip(a.latencies, b.latencies))

    def test_grid_network_deterministic(self):
        a = grid_network(3, 3, seed=1)
        b = grid_network(3, 3, seed=1)
        flows = np.linspace(0.1, 1.0, a.network.num_edges)
        assert a.cost(flows) == pytest.approx(b.cost(flows))

    def test_multicommodity_deterministic(self):
        a = random_multicommodity_instance(3, 3, num_commodities=2, seed=5)
        b = random_multicommodity_instance(3, 3, num_commodities=2, seed=5)
        assert [c.source for c in a.commodities] == [c.source for c in b.commodities]


class TestParallelGenerators:
    def test_link_counts(self):
        assert random_linear_parallel(7).num_links == 7
        assert random_polynomial_parallel(4).num_links == 4
        assert random_mixed_parallel(6).num_links == 6

    def test_common_slope_family(self):
        instance = random_affine_common_slope(5, slope=2.0, seed=0)
        assert all(isinstance(lat, LinearLatency) and lat.slope == 2.0
                   for lat in instance.latencies)

    def test_common_slope_intercepts_sorted(self):
        instance = random_affine_common_slope(5, seed=0)
        intercepts = [lat.intercept for lat in instance.latencies]
        assert intercepts == sorted(intercepts)

    def test_mixed_has_increasing_link(self):
        instance = random_mixed_parallel(6, seed=2, constant_fraction=1.0)
        assert any(not lat.is_constant for lat in instance.latencies)

    def test_invalid_parameters(self):
        with pytest.raises(InstanceError):
            random_linear_parallel(0)
        with pytest.raises(InstanceError):
            random_polynomial_parallel(3, max_degree=0)
        with pytest.raises(InstanceError):
            random_affine_common_slope(3, slope=0.0)
        with pytest.raises(InstanceError):
            random_mixed_parallel(3, constant_fraction=1.5)


class TestMM1Generators:
    def test_farm_composition(self):
        farm = mm1_server_farm(2, 3, fast_capacity=8.0, slow_capacity=2.0)
        assert farm.num_links == 5
        assert all(isinstance(lat, MM1Latency) for lat in farm.latencies)
        assert farm.names[:2] == ("fast1", "fast2")

    def test_farm_demand_below_capacity(self):
        farm = mm1_server_farm(1, 1, fast_capacity=3.0, slow_capacity=1.0,
                               utilisation=0.9)
        assert farm.demand < 4.0

    def test_farm_explicit_demand_validated(self):
        with pytest.raises(InstanceError):
            mm1_server_farm(1, 1, fast_capacity=1.0, slow_capacity=1.0, demand=2.5)

    def test_farm_needs_links(self):
        with pytest.raises(InstanceError):
            mm1_server_farm(0, 0)

    def test_random_mm1_feasible(self):
        instance = random_mm1_parallel(6, seed=1)
        capacity = sum(lat.capacity for lat in instance.latencies)
        assert instance.demand < capacity

    def test_random_mm1_invalid_fraction(self):
        with pytest.raises(InstanceError):
            random_mm1_parallel(3, demand_fraction=1.2)


class TestNetworkGenerators:
    def test_grid_dimensions(self):
        instance = grid_network(3, 4, seed=0)
        assert instance.network.num_nodes == 12
        # Right edges: 3 * 3, down edges: 2 * 4.
        assert instance.network.num_edges == 17

    def test_grid_source_sink_connected(self):
        instance = grid_network(3, 3, seed=0)
        paths = nx.all_simple_paths(instance.network.to_networkx(), (0, 0),
                                    (2, 2))
        assert len(list(paths)) == 6  # C(4, 2) lattice paths

    def test_grid_rejects_tiny_grids(self):
        with pytest.raises(InstanceError):
            grid_network(1, 3)

    def test_grid_bpr_family(self):
        instance = grid_network(3, 3, seed=0, latency_family="bpr")
        assert instance.network.num_edges == 12

    def test_unknown_latency_family(self):
        with pytest.raises(InstanceError):
            grid_network(3, 3, latency_family="exotic")

    def test_layered_network_connected(self):
        instance = layered_network(3, 2, seed=1)
        assert nx.has_path(instance.network.to_networkx(), "s", "t")

    def test_layered_invalid_parameters(self):
        with pytest.raises(InstanceError):
            layered_network(0, 2)

    def test_multicommodity_counts(self):
        instance = random_multicommodity_instance(3, 3, num_commodities=3, seed=2)
        assert instance.num_commodities == 3
        for commodity in instance.commodities:
            assert commodity.source != commodity.sink
            assert commodity.demand > 0.0

    def test_multicommodity_endpoints_reachable(self):
        instance = random_multicommodity_instance(3, 3, num_commodities=2, seed=4)
        graph = instance.network.to_networkx()
        for commodity in instance.commodities:
            assert nx.has_path(graph, commodity.source, commodity.sink)

    def test_multicommodity_invalid_parameters(self):
        with pytest.raises(InstanceError):
            random_multicommodity_instance(1, 1)
        with pytest.raises(InstanceError):
            random_multicommodity_instance(3, 3, num_commodities=0)


@pytest.mark.parametrize("generator, args", [
    (grid_network, (2.5, 2)),
    (grid_network, (2, 3.0)),
    (grid_network, (0, 2)),
    (grid_network, (2, -1)),
    (grid_network, ("3", 3)),
    (grid_network, (True, 3)),
    (layered_network, (1.5, 2)),
    (layered_network, (2, 0.5)),
    (layered_network, (0, 2)),
    (layered_network, (2, -3)),
    (layered_network, (None, 2)),
    (random_multicommodity_instance, (2.5, 3)),
    (random_multicommodity_instance, (3, 0)),
])
def test_network_generator_sizes_raise_model_error(generator, args):
    with pytest.raises(ModelError):
        generator(*args, seed=1)


def test_network_generators_accept_numpy_integers():
    assert grid_network(np.int64(3), np.int32(2), seed=1).network.num_edges == 7
