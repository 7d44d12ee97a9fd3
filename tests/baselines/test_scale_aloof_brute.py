"""Tests for the SCALE, Aloof and brute-force baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SolveConfig, solve
from repro.exceptions import StrategyError
from repro.baselines import (aloof, brute_force_strategy, enumerate_strategies,
                             network_brute_force, scale)
from repro.core import optop
from repro.equilibrium import network_nash, parallel_nash, parallel_optimum
from repro.instances import (pigou, random_linear_parallel,
                             random_mm1_parallel, roughgarden_example)
from repro.latency import MM1Latency
from repro.network import Network, NetworkInstance, ParallelLinkInstance


class TestScale:
    def test_parallel_scale_flows(self, pigou_instance):
        strategy = scale(pigou_instance, 0.5)
        optimum = parallel_optimum(pigou_instance)
        assert strategy.flows == pytest.approx(0.5 * optimum.flows, abs=1e-9)

    def test_network_scale_flows(self, roughgarden_instance):
        strategy = scale(roughgarden_instance, 0.4)
        assert strategy.alpha == pytest.approx(0.4)
        assert strategy.edge_flows.sum() > 0.0

    def test_alpha_out_of_range(self, pigou_instance):
        with pytest.raises(StrategyError):
            scale(pigou_instance, 1.5)

    def test_unsupported_type_rejected(self):
        with pytest.raises(StrategyError):
            scale("not-an-instance", 0.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_scale_never_hurts(self, seed):
        instance = random_linear_parallel(5, demand=2.0, seed=seed)
        nash_cost = parallel_nash(instance).cost
        for alpha in (0.3, 0.6, 1.0):
            assert scale(instance, alpha).induce(instance).cost <= nash_cost + 1e-9

    def test_scale_at_one_is_full_optimum(self, pigou_instance):
        strategy = scale(pigou_instance, 1.0)
        outcome = strategy.induce(pigou_instance)
        assert outcome.cost == pytest.approx(0.75, abs=1e-9)


class TestAloof:
    def test_parallel_aloof_is_nash(self, pigou_instance):
        outcome = aloof(pigou_instance).induce(pigou_instance)
        assert outcome.cost == pytest.approx(parallel_nash(pigou_instance).cost)

    def test_network_aloof_is_nash(self, roughgarden_instance):
        outcome = aloof(roughgarden_instance).induce(roughgarden_instance)
        assert outcome.cost == pytest.approx(
            network_nash(roughgarden_instance).cost, rel=1e-5)

    def test_aloof_controls_nothing(self, pigou_instance):
        assert aloof(pigou_instance).controlled_flow == 0.0

    def test_unsupported_type_rejected(self):
        with pytest.raises(StrategyError):
            aloof(3.14)


class TestBruteForce:
    def test_enumeration_count(self, pigou_instance):
        strategies = list(enumerate_strategies(pigou_instance, 0.5, resolution=4))
        assert len(strategies) == 5  # compositions of 4 into 2 parts

    def test_enumeration_budget(self, pigou_instance):
        for flows in enumerate_strategies(pigou_instance, 0.5, resolution=4):
            assert flows.sum() == pytest.approx(0.5, abs=1e-12)
            assert np.all(flows >= 0.0)

    def test_invalid_resolution_rejected(self, pigou_instance):
        with pytest.raises(StrategyError):
            list(enumerate_strategies(pigou_instance, 0.5, resolution=0))

    def test_brute_force_on_pigou_finds_optimum_at_half(self, pigou_instance):
        result = brute_force_strategy(pigou_instance, 0.5, resolution=10)
        assert result.cost == pytest.approx(0.75, abs=1e-9)
        assert result.strategy.flows == pytest.approx([0.0, 0.5], abs=1e-9)

    def test_brute_force_below_beta_cannot_reach_optimum(self, pigou_instance):
        result = brute_force_strategy(pigou_instance, 0.3, resolution=10)
        assert result.cost > 0.75 + 1e-6

    def test_evaluated_count_reported(self, pigou_instance):
        result = brute_force_strategy(pigou_instance, 0.5, resolution=6)
        assert result.evaluated == 7

    def test_brute_force_matches_optop_quality_at_beta(self):
        instance = random_linear_parallel(3, demand=1.0, seed=4)
        full = optop(instance)
        brute = brute_force_strategy(instance, full.beta, resolution=20)
        # The grid strategy can only be as good as the true optimum cost.
        assert brute.cost >= full.optimum_cost - 1e-9


class TestBruteForceCapacities:
    """Grid candidates that load a link up to its capacity are skipped."""

    @staticmethod
    def two_queues():
        return ParallelLinkInstance([MM1Latency(1.0), MM1Latency(1.0)], 1.5)

    @staticmethod
    def two_queue_network():
        network = Network()
        network.add_edge("s", "t", MM1Latency(1.0))
        network.add_edge("s", "t", MM1Latency(1.0))
        return NetworkInstance.single_commodity(network, "s", "t", 1.5)

    @pytest.mark.parametrize("resolution", [2, 4])
    def test_mm1_parallel_solves(self, resolution):
        instance = random_mm1_parallel(6, seed=1)
        config = SolveConfig(brute_force_resolution=resolution, cache=False)
        report = solve(instance, "brute_force", config=config)
        assert report.metadata["evaluated"] >= 1
        assert np.isfinite(report.induced_cost)
        assert report.induced_cost >= report.optimum_cost - 1e-9

    def test_skips_only_the_overloaded_candidates(self):
        result = brute_force_strategy(self.two_queues(), 1.0, resolution=4)
        assert result.evaluated == 1
        assert result.strategy.flows == pytest.approx([0.75, 0.75])

    def test_no_feasible_candidate_raises(self):
        with pytest.raises(StrategyError, match="capacity"):
            brute_force_strategy(self.two_queues(), 1.0, resolution=1)

    def test_network_skips_the_overloaded_candidates(self):
        result = network_brute_force(self.two_queue_network(), 1.0,
                                     resolution=4)
        assert result.evaluated == 1
        assert result.strategy.edge_flows == pytest.approx([0.75, 0.75])

    def test_network_no_feasible_candidate_raises(self):
        with pytest.raises(StrategyError, match="capacity"):
            network_brute_force(self.two_queue_network(), 1.0, resolution=1)


class TestNetworkBruteForceBound:
    """An oversized network grid is refused before any induced solve."""

    @pytest.mark.parametrize("strategy", ["exact", "brute_force"])
    def test_oversized_grid_raises_fast(self, strategy):
        import time

        from repro.instances import layered_network

        # 9 optimum paths at the default resolution 12: 125,970 candidates.
        start = time.perf_counter()
        with pytest.raises(StrategyError, match=r"125,970 candidates"):
            solve(layered_network(3, 3, seed=0), strategy,
                  config=SolveConfig(cache=False))
        assert time.perf_counter() - start < 1.0

    def test_error_suggests_a_lower_resolution(self):
        from repro.instances import layered_network

        with pytest.raises(StrategyError, match="brute_force_resolution"):
            network_brute_force(layered_network(3, 3, seed=0), 0.5,
                                resolution=12)

    def test_a_lower_resolution_runs(self):
        from repro.instances import layered_network

        # C(2 + 8, 8) = 45 candidates over the same 9 paths.
        result = network_brute_force(layered_network(3, 3, seed=0), 0.5,
                                     resolution=2)
        assert 1 <= result.evaluated <= 45
