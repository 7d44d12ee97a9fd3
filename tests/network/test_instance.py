"""Tests for Commodity and NetworkInstance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InfeasibleFlowError, ModelError
from repro.latency import LinearLatency
from repro.network import Commodity, Network, NetworkInstance


@pytest.fixture
def two_path_network():
    net = Network()
    net.add_edge("s", "a", LinearLatency(1.0, 0.0))   # 0
    net.add_edge("a", "t", LinearLatency(1.0, 0.0))   # 1
    net.add_edge("s", "b", LinearLatency(2.0, 0.0))   # 2
    net.add_edge("b", "t", LinearLatency(2.0, 0.0))   # 3
    return net


@pytest.fixture
def single_instance(two_path_network):
    return NetworkInstance.single_commodity(two_path_network, "s", "t", 1.0)


@pytest.fixture
def multi_instance(two_path_network):
    return NetworkInstance(two_path_network, [
        Commodity("s", "t", 1.0),
        Commodity("a", "t", 0.5),
    ])


class TestCommodity:
    def test_valid(self):
        com = Commodity("s", "t", 2.0)
        assert com.demand == 2.0

    def test_same_endpoints_rejected(self):
        with pytest.raises(ModelError):
            Commodity("s", "s", 1.0)

    def test_non_positive_demand_rejected(self):
        with pytest.raises(ModelError):
            Commodity("s", "t", 0.0)

    @pytest.mark.parametrize("demand", [float("nan"), float("inf"), "2", None])
    def test_non_finite_or_non_numeric_demand_rejected(self, demand):
        with pytest.raises(ModelError, match="finite real number"):
            Commodity("s", "t", demand)


class TestNetworkInstance:
    def test_single_commodity_properties(self, single_instance):
        assert single_instance.is_single_commodity
        assert single_instance.source == "s"
        assert single_instance.sink == "t"
        assert single_instance.total_demand == 1.0

    def test_multi_commodity_properties(self, multi_instance):
        assert not multi_instance.is_single_commodity
        assert multi_instance.num_commodities == 2
        assert multi_instance.total_demand == pytest.approx(1.5)

    def test_source_on_multi_commodity_raises(self, multi_instance):
        with pytest.raises(ModelError):
            _ = multi_instance.source

    def test_missing_node_rejected(self, two_path_network):
        with pytest.raises(ModelError):
            NetworkInstance.single_commodity(two_path_network, "s", "zzz", 1.0)

    def test_no_commodities_rejected(self, two_path_network):
        with pytest.raises(ModelError):
            NetworkInstance(two_path_network, [])

    def test_cost_delegates_to_network(self, single_instance):
        flows = np.array([1.0, 1.0, 0.0, 0.0])
        assert single_instance.cost(flows) == pytest.approx(2.0)
        assert single_instance.beckmann(flows) == pytest.approx(1.0)


class TestFlowConservation:
    def test_feasible_aggregate_flow(self, single_instance):
        flows = np.array([0.6, 0.6, 0.4, 0.4])
        single_instance.check_flow_conservation(flows)

    def test_infeasible_aggregate_flow(self, single_instance):
        flows = np.array([0.6, 0.5, 0.4, 0.4])
        with pytest.raises(InfeasibleFlowError):
            single_instance.check_flow_conservation(flows)

    def test_per_commodity_check(self, multi_instance):
        flows_c1 = np.array([0.5, 0.5, 0.5, 0.5])
        flows_c2 = np.array([0.0, 0.5, 0.0, 0.0])
        total = flows_c1 + flows_c2
        multi_instance.check_flow_conservation(total, [flows_c1, flows_c2])

    def test_per_commodity_mismatch(self, multi_instance):
        flows_c1 = np.array([0.5, 0.5, 0.5, 0.5])
        flows_c2 = np.array([0.5, 0.0, 0.0, 0.0])  # violates conservation at 'a'
        with pytest.raises(InfeasibleFlowError):
            multi_instance.check_flow_conservation(flows_c1 + flows_c2,
                                                   [flows_c1, flows_c2])

    def test_wrong_number_of_commodity_vectors(self, multi_instance):
        with pytest.raises(InfeasibleFlowError):
            multi_instance.check_flow_conservation(np.zeros(4), [np.zeros(4)])


class TestDerivedInstances:
    def test_with_demands(self, multi_instance):
        updated = multi_instance.with_demands([2.0, 1.0])
        assert updated.total_demand == pytest.approx(3.0)

    def test_with_demands_drops_zero_commodities(self, multi_instance):
        updated = multi_instance.with_demands([2.0, 0.0])
        assert updated.num_commodities == 1

    def test_with_demands_all_zero_rejected(self, multi_instance):
        with pytest.raises(ModelError):
            multi_instance.with_demands([0.0, 0.0])

    def test_with_demands_wrong_length(self, multi_instance):
        with pytest.raises(ModelError):
            multi_instance.with_demands([1.0])

    def test_shifted_instance(self, single_instance):
        strategy = np.array([0.5, 0.5, 0.0, 0.0])
        shifted = single_instance.shifted(strategy, [0.5])
        assert shifted.total_demand == pytest.approx(0.5)
        assert float(shifted.network.edge(0).latency.value(0.0)) == pytest.approx(0.5)

    def test_shifted_with_full_control_keeps_token_commodity(self, single_instance):
        strategy = np.array([1.0, 1.0, 0.0, 0.0])
        shifted = single_instance.shifted(strategy, [0.0])
        assert shifted.num_commodities == 1
        assert shifted.total_demand <= 1e-9
