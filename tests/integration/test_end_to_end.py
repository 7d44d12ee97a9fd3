"""End-to-end integration tests across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    a_posteriori_ratio,
    aloof,
    llf,
    mop,
    optimal_restricted_strategy,
    optop,
    price_of_anarchy,
    scale,
    solve,
)
from repro.instances import (
    figure_4_example,
    pigou,
    random_affine_common_slope,
    random_linear_parallel,
    roughgarden_example,
)
from repro.network import parallel_network_as_graph


class TestFullPipelineOnParallelLinks:
    """PoA -> beta -> strategies -> induced costs, all consistent."""

    @pytest.mark.parametrize("seed", range(3))
    def test_strategy_hierarchy(self, seed):
        """Optimal <= LLF <= Aloof cost-wise, and OpTop closes the gap fully."""
        instance = random_linear_parallel(5, demand=2.0, seed=seed)
        result = optop(instance)
        alpha = result.beta
        optimum_cost = result.optimum_cost

        aloof_cost = aloof(instance).induce(instance).cost
        llf_cost = llf(instance, alpha).induce(instance).cost
        scale_cost = scale(instance, alpha).induce(instance).cost
        optop_cost = result.induced_cost

        assert optop_cost == pytest.approx(optimum_cost, rel=1e-7)
        assert llf_cost <= aloof_cost + 1e-9
        assert scale_cost <= aloof_cost + 1e-9
        assert optop_cost <= llf_cost + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_poa_and_ratio_consistency(self, seed):
        instance = random_linear_parallel(5, demand=2.0, seed=seed)
        poa = price_of_anarchy(instance)
        assert a_posteriori_ratio(instance, aloof(instance)) == pytest.approx(
            poa, rel=1e-9)
        result = optop(instance)
        assert a_posteriori_ratio(instance, result.strategy) == pytest.approx(
            1.0, abs=1e-6)

    def test_theorem_2_4_interpolates_between_nash_and_optimum(self):
        instance = random_affine_common_slope(4, demand=2.0, seed=5)
        result = optop(instance)
        costs = [optimal_restricted_strategy(instance, f * result.beta).cost
                 for f in (0.0, 0.5, 1.0)]
        assert costs[0] == pytest.approx(result.nash_cost, rel=1e-7)
        assert costs[2] == pytest.approx(result.optimum_cost, rel=1e-6)
        assert costs[2] <= costs[1] <= costs[0] + 1e-9


class TestParallelAndNetworkViewsAgree:
    """The same physical system must give the same answers in both models."""

    @pytest.mark.parametrize("builder", [pigou, figure_4_example])
    def test_price_of_anarchy_agrees(self, builder):
        parallel_instance = builder()
        network_instance = parallel_network_as_graph(parallel_instance)
        assert price_of_anarchy(network_instance) == pytest.approx(
            price_of_anarchy(parallel_instance), rel=1e-4)

    @pytest.mark.parametrize("builder", [pigou, figure_4_example])
    def test_price_of_optimum_agrees(self, builder):
        parallel_instance = builder()
        network_instance = parallel_network_as_graph(parallel_instance)
        beta_links = solve(parallel_instance).beta
        beta_graph = solve(network_instance).beta
        assert beta_graph == pytest.approx(beta_links, abs=1e-5)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_instances_agree(self, seed):
        parallel_instance = random_linear_parallel(4, demand=1.5, seed=seed)
        network_instance = parallel_network_as_graph(parallel_instance)
        beta_links = optop(parallel_instance).beta
        network_result = mop(network_instance)
        assert network_result.beta == pytest.approx(beta_links, abs=1e-4)
        assert network_result.induced_cost == pytest.approx(
            optop(parallel_instance).optimum_cost, rel=1e-5)


class TestStackelbergGuaranteesOnNetworks:
    def test_roughgarden_graph_full_pipeline(self):
        instance = roughgarden_example()
        result = mop(instance, compute_nash=True)
        # Selfish routing is strictly worse, MOP restores the optimum, and the
        # Leader's share is about one half.
        assert result.nash.cost > result.optimum_cost
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-6)
        assert result.beta == pytest.approx(0.5, abs=1e-4)
        assert result.strategy.alpha == pytest.approx(result.beta, abs=1e-9)

    def test_scale_on_network_never_hurts(self):
        instance = roughgarden_example()
        from repro.equilibrium import network_nash
        nash_cost = network_nash(instance).cost
        for alpha in (0.3, 0.7, 1.0):
            strategy = scale(instance, alpha)
            assert strategy.induce(instance).cost <= nash_cost * (1.0 + 1e-6)
