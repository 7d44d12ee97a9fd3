"""Tests for ParallelLinkInstance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InfeasibleFlowError, ModelError
from repro.latency import ConstantLatency, LinearLatency, MM1Latency
from repro.network import ParallelLinkInstance


@pytest.fixture
def instance():
    return ParallelLinkInstance(
        [LinearLatency(1.0, 0.0), LinearLatency(2.0, 0.5), ConstantLatency(1.0)],
        demand=2.0)


class TestConstruction:
    def test_basic_properties(self, instance):
        assert instance.num_links == 3
        assert len(instance) == 3
        assert instance.demand == 2.0
        assert instance.has_constant_links

    def test_default_names_follow_paper(self, instance):
        assert instance.names == ("M1", "M2", "M3")

    def test_custom_names(self):
        inst = ParallelLinkInstance([LinearLatency(1.0)], 1.0, names=["fast"])
        assert inst.names == ("fast",)

    def test_wrong_number_of_names_rejected(self):
        with pytest.raises(ModelError):
            ParallelLinkInstance([LinearLatency(1.0)], 1.0, names=["a", "b"])

    def test_empty_link_list_rejected(self):
        with pytest.raises(ModelError):
            ParallelLinkInstance([], 1.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ModelError):
            ParallelLinkInstance([LinearLatency(1.0)], -1.0)

    def test_non_latency_rejected(self):
        with pytest.raises(ModelError):
            ParallelLinkInstance([lambda x: x], 1.0)

    def test_demand_above_mm1_capacity_rejected(self):
        with pytest.raises(ModelError):
            ParallelLinkInstance([MM1Latency(1.0), MM1Latency(1.0)], 2.5)

    def test_zero_demand_allowed(self):
        inst = ParallelLinkInstance([LinearLatency(1.0)], 0.0)
        assert inst.demand == 0.0


class TestFunctionals:
    def test_cost(self, instance):
        flows = np.array([1.0, 0.5, 0.5])
        expected = 1.0 * 1.0 + 0.5 * (2 * 0.5 + 0.5) + 0.5 * 1.0
        assert instance.cost(flows) == pytest.approx(expected)

    def test_latencies_at(self, instance):
        lat = instance.latencies_at(np.array([1.0, 0.5, 0.5]))
        assert np.allclose(lat, [1.0, 1.5, 1.0])

    def test_marginal_costs_at(self, instance):
        marg = instance.marginal_costs_at(np.array([1.0, 0.5, 0.5]))
        assert np.allclose(marg, [2.0, 2.5, 1.0])

    def test_beckmann(self, instance):
        flows = np.array([1.0, 1.0, 0.0])
        expected = 0.5 + (1.0 + 0.5) + 0.0
        assert instance.beckmann(flows) == pytest.approx(expected)

    def test_cost_of_zero_flow_is_zero(self, instance):
        assert instance.cost(np.zeros(3)) == 0.0


class TestValidation:
    def test_validate_accepts_feasible_flow(self, instance):
        flows = instance.validate_flow([1.0, 0.5, 0.5])
        assert isinstance(flows, np.ndarray)

    def test_validate_rejects_wrong_length(self, instance):
        with pytest.raises(InfeasibleFlowError):
            instance.validate_flow([1.0, 1.0])

    def test_validate_rejects_negative(self, instance):
        with pytest.raises(InfeasibleFlowError):
            instance.validate_flow([2.5, -0.5, 0.0])

    def test_validate_rejects_wrong_total(self, instance):
        with pytest.raises(InfeasibleFlowError):
            instance.validate_flow([1.0, 0.0, 0.0])

    def test_validate_with_custom_demand(self, instance):
        flows = instance.validate_flow([0.5, 0.25, 0.25], demand=1.0)
        assert flows.sum() == pytest.approx(1.0)

    def test_tiny_negative_clipped(self, instance):
        flows = instance.validate_flow([2.0 + 1e-9, -1e-9, 0.0])
        assert np.all(flows >= 0.0)


class TestDerivedInstances:
    def test_with_demand(self, instance):
        smaller = instance.with_demand(1.0)
        assert smaller.demand == 1.0
        assert smaller.num_links == instance.num_links

    def test_sub_instance(self, instance):
        sub = instance.sub_instance([0, 2], 1.0)
        assert sub.num_links == 2
        assert sub.names == ("M1", "M3")
        assert sub.demand == 1.0

    def test_sub_instance_empty_rejected(self, instance):
        with pytest.raises(ModelError):
            instance.sub_instance([], 1.0)

    def test_shifted_reduces_demand(self, instance):
        shifted = instance.shifted(np.array([0.5, 0.0, 0.5]))
        assert shifted.demand == pytest.approx(1.0)

    def test_shifted_latency_values(self, instance):
        shifted = instance.shifted(np.array([0.5, 0.0, 0.0]))
        assert float(shifted.latencies[0].value(0.0)) == pytest.approx(0.5)

    def test_shifted_rejects_excess_strategy(self, instance):
        with pytest.raises(ModelError):
            instance.shifted(np.array([2.0, 1.0, 0.0]))

    def test_shifted_rejects_negative_strategy(self, instance):
        with pytest.raises(ModelError):
            instance.shifted(np.array([-0.5, 0.0, 0.0]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=3, max_size=3))
    def test_shifted_cost_identity(self, strategy):
        """Cost of combined flow equals shifted-instance cost plus cross terms.

        Specifically C_original(s + t) should equal the cost computed link by
        link with the shifted latencies evaluated at t.
        """
        instance = ParallelLinkInstance(
            [LinearLatency(1.0, 0.0), LinearLatency(2.0, 0.5), ConstantLatency(1.0)],
            demand=2.0)
        strategy_arr = np.asarray(strategy)
        shifted = instance.shifted(strategy_arr)
        followers = np.full(3, shifted.demand / 3.0)
        combined_cost = instance.cost(strategy_arr + followers)
        manual = sum((s + t) * float(lat.value(s + t))
                     for lat, s, t in zip(instance.latencies, strategy_arr, followers))
        assert combined_cost == pytest.approx(manual)


class TestDerivedInstanceErrors:
    """Derived instances skip per-link re-validation but keep every check."""

    @pytest.fixture
    def queues(self):
        return ParallelLinkInstance(
            [MM1Latency(1.0), MM1Latency(2.0), MM1Latency(3.0)], demand=2.5)

    @pytest.mark.parametrize("indices, demand", [
        ([], 1.0),                # no links
        ([0, 1], -0.5),           # negative demand
        ([0, 1], 3.0),            # demand at the kept links' capacity
        ([0, 0], 0.5),            # repeated link
        ([0, 3], 0.5),            # out of range
        ([-1, 0], 0.5),           # negative index
        ([0.0, 1.0], 0.5),        # not integers
    ])
    def test_sub_instance_rejects(self, queues, indices, demand):
        with pytest.raises(ModelError):
            queues.sub_instance(indices, demand)

    def test_sub_instance_keeps_the_kept_links(self, queues):
        sub = queues.sub_instance(np.array([2, 0]), 1.5)
        assert sub.latencies == (queues.latencies[2], queues.latencies[0])
        assert sub.names == ("M3", "M1")
        np.testing.assert_array_equal(sub.latency_batch().domain_upper,
                                      [3.0, 1.0])

    @pytest.mark.parametrize("strategy", [
        [0.5, 0.5],               # wrong shape
        [-0.5, 0.0, 0.0],         # negative
        [2.0, 1.0, 0.0],          # more than the demand
        [np.inf, 0.0, 0.0],       # more than the demand
        [np.nan, 0.0, 0.0],       # not a number
    ])
    def test_shifted_rejects(self, queues, strategy):
        with pytest.raises(ModelError):
            queues.shifted(np.array(strategy))

    def test_shifted_rejects_followers_at_the_shifted_capacity(self):
        # The Leader fills the only queue to within the strategy tolerance
        # of the demand: the Followers' capacity 1 - 1 = 0 cannot hold even
        # their (clamped) zero flow.
        single = ParallelLinkInstance([MM1Latency(1.0)], demand=1.0 - 1e-10)
        with pytest.raises(ModelError):
            single.shifted(np.array([1.0]))

    def test_shifted_capacity_uses_the_shifted_domains(self, queues):
        shifted = queues.shifted(np.array([0.5, 0.0, 1.0]))
        np.testing.assert_array_equal(shifted.latency_batch().domain_upper,
                                      [0.5, 2.0, 2.0])
        assert shifted.demand == pytest.approx(1.0)

    @pytest.mark.parametrize("demand", [-1.0, 6.0])
    def test_with_demand_rejects(self, queues, demand):
        with pytest.raises(ModelError):
            queues.with_demand(demand)

    @pytest.mark.parametrize("demand", [np.nan, np.inf, "3", None, 1j])
    def test_every_constructor_rejects_a_non_finite_demand(self, queues,
                                                           demand):
        builders = [
            lambda: ParallelLinkInstance(queues.latencies, demand),
            lambda: queues.with_demand(demand),
            lambda: queues.sub_instance([0, 1], demand),
        ]
        for build in builders:
            with pytest.raises(ModelError, match="finite real number"):
                build()

    @pytest.mark.parametrize("strategy", [["a"] * 3, [None, 0.0, 0.0],
                                          [[0.1], [0.2], [0.3]]])
    def test_shifted_rejects_malformed_flows(self, queues, strategy):
        with pytest.raises(ModelError):
            queues.shifted(strategy)

    def test_derived_instances_pickle(self, queues):
        import pickle

        shifted = queues.shifted(np.array([0.5, 0.0, 1.0]))
        clone = pickle.loads(pickle.dumps(shifted))
        assert clone.demand == shifted.demand
        assert clone.sub_instance([0, 2], 0.5).num_links == 2
