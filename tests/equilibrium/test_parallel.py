"""Tests for the parallel-link water-filling solvers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.latency import ConstantLatency, LinearLatency, MM1Latency, MonomialLatency
from repro.network import ParallelLinkInstance
from repro.equilibrium import (
    parallel_nash,
    parallel_optimum,
    parallel_optimality_gap,
    parallel_wardrop_gap,
)
from repro.equilibrium.parallel import water_fill, water_fill_reference


class TestPigouFlows:
    def test_nash_floods_fast_link(self, pigou_instance):
        nash = parallel_nash(pigou_instance)
        assert nash.flows == pytest.approx([1.0, 0.0], abs=1e-9)
        assert nash.cost == pytest.approx(1.0)
        assert nash.common_value == pytest.approx(1.0)

    def test_optimum_balances(self, pigou_instance):
        optimum = parallel_optimum(pigou_instance)
        assert optimum.flows == pytest.approx([0.5, 0.5], abs=1e-9)
        assert optimum.cost == pytest.approx(0.75)

    def test_kinds_are_labelled(self, pigou_instance):
        assert parallel_nash(pigou_instance).kind == "nash"
        assert parallel_optimum(pigou_instance).kind == "optimum"


class TestFigure4Flows:
    """Exact values derived in the paper's Figures 4-6 walk-through."""

    def test_optimum_flows(self, figure4_instance):
        optimum = parallel_optimum(figure4_instance)
        expected = [0.35, 7.0 / 30.0, 0.175, 8.0 / 75.0, 0.135]
        assert optimum.flows == pytest.approx(expected, abs=1e-9)

    def test_nash_leaves_constant_link_empty(self, figure4_instance):
        nash = parallel_nash(figure4_instance)
        assert nash.flows[4] == pytest.approx(0.0, abs=1e-12)
        assert nash.common_value < 0.7

    def test_links_4_and_5_under_loaded(self, figure4_instance):
        nash = parallel_nash(figure4_instance)
        optimum = parallel_optimum(figure4_instance)
        assert nash.flows[3] < optimum.flows[3]
        assert nash.flows[4] < optimum.flows[4]
        for i in range(3):
            assert nash.flows[i] > optimum.flows[i]


class TestEquilibriumConditions:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_nash_satisfies_wardrop(self, seed):
        from repro.instances import random_mixed_parallel
        instance = random_mixed_parallel(6, demand=2.0, seed=seed)
        nash = parallel_nash(instance)
        assert parallel_wardrop_gap(instance, nash.flows) < 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_optimum_satisfies_kkt(self, seed):
        from repro.instances import random_mixed_parallel
        instance = random_mixed_parallel(6, demand=2.0, seed=seed)
        optimum = parallel_optimum(instance)
        assert parallel_optimality_gap(instance, optimum.flows) < 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flows_sum_to_demand(self, seed):
        from repro.instances import random_linear_parallel
        instance = random_linear_parallel(5, demand=3.0, seed=seed)
        assert parallel_nash(instance).flows.sum() == pytest.approx(3.0, abs=1e-8)
        assert parallel_optimum(instance).flows.sum() == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_optimum_cost_never_exceeds_nash(self, seed):
        from repro.instances import random_polynomial_parallel
        instance = random_polynomial_parallel(5, demand=2.0, seed=seed)
        assert parallel_optimum(instance).cost <= parallel_nash(instance).cost + 1e-9

    def test_nash_minimises_beckmann(self, random_linear_instance):
        nash = parallel_nash(random_linear_instance)
        rng = np.random.default_rng(0)
        for _ in range(20):
            weights = rng.uniform(0.1, 1.0, random_linear_instance.num_links)
            other = random_linear_instance.demand * weights / weights.sum()
            assert random_linear_instance.beckmann(nash.flows) \
                <= random_linear_instance.beckmann(other) + 1e-9

    def test_optimum_minimises_cost(self, random_linear_instance):
        optimum = parallel_optimum(random_linear_instance)
        rng = np.random.default_rng(1)
        for _ in range(20):
            weights = rng.uniform(0.1, 1.0, random_linear_instance.num_links)
            other = random_linear_instance.demand * weights / weights.sum()
            assert optimum.cost <= random_linear_instance.cost(other) + 1e-9


class TestSpecialRegimes:
    def test_zero_demand(self):
        instance = ParallelLinkInstance([LinearLatency(1.0), LinearLatency(2.0)], 0.0)
        nash = parallel_nash(instance)
        assert np.allclose(nash.flows, 0.0)
        assert nash.cost == 0.0

    def test_single_link(self):
        instance = ParallelLinkInstance([LinearLatency(2.0, 1.0)], 1.5)
        nash = parallel_nash(instance)
        assert nash.flows == pytest.approx([1.5])
        assert nash.common_value == pytest.approx(4.0)

    def test_identical_links_split_evenly(self):
        instance = ParallelLinkInstance([LinearLatency(1.0)] * 4, 2.0)
        nash = parallel_nash(instance)
        optimum = parallel_optimum(instance)
        assert nash.flows == pytest.approx([0.5] * 4, abs=1e-9)
        assert optimum.flows == pytest.approx([0.5] * 4, abs=1e-9)

    def test_all_constant_links(self):
        instance = ParallelLinkInstance(
            [ConstantLatency(1.0), ConstantLatency(1.0)], 2.0)
        nash = parallel_nash(instance)
        assert nash.flows.sum() == pytest.approx(2.0)
        assert nash.cost == pytest.approx(2.0)

    def test_expensive_link_stays_empty(self):
        instance = ParallelLinkInstance(
            [LinearLatency(1.0, 0.0), LinearLatency(1.0, 100.0)], 1.0)
        nash = parallel_nash(instance)
        assert nash.flows == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_mm1_equilibrium_below_capacity(self):
        instance = ParallelLinkInstance([MM1Latency(2.0), MM1Latency(4.0)], 3.0)
        nash = parallel_nash(instance)
        assert nash.flows[0] < 2.0 and nash.flows[1] < 4.0
        assert nash.flows.sum() == pytest.approx(3.0, abs=1e-8)

    def test_monomial_links(self):
        instance = ParallelLinkInstance(
            [MonomialLatency(1.0, 2.0), ConstantLatency(1.0)], 1.0)
        optimum = parallel_optimum(instance)
        # marginal cost of x^2 link is 3x^2 = 1 -> x = 1/sqrt(3)
        assert optimum.flows[0] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-8)


class TestWaterFillFunction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            water_fill([LinearLatency(1.0)], 1.0, "bogus")

    def test_negative_demand_rejected(self):
        with pytest.raises(ModelError):
            water_fill([LinearLatency(1.0)], -1.0, "nash")

    def test_empty_links_rejected(self):
        with pytest.raises(ModelError):
            water_fill([], 1.0, "nash")

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    @pytest.mark.parametrize("solver", [
        lambda lats, demand, kind: water_fill(lats, demand, kind),
        lambda lats, demand, kind: water_fill_reference(lats, demand, kind),
    ], ids=["water_fill", "water_fill_reference"])
    def test_saturating_links_without_a_constant_rejected(self, solver, kind):
        # Capacities 1 + 2 < 5: no level routes the demand, and with no
        # constant link to take the excess the call must fail, not return
        # flows above capacity at level inf.
        with pytest.raises(ModelError):
            solver([MM1Latency(1.0), MM1Latency(2.0)], 5.0, kind)

    def test_common_level_reported(self):
        flows, level = water_fill([LinearLatency(1.0), LinearLatency(1.0)], 2.0,
                                  "nash")
        assert level == pytest.approx(1.0)
        assert flows == pytest.approx([1.0, 1.0])
