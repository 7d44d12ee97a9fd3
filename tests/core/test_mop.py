"""Tests for algorithm MOP (Corollary 2.3 / Theorem 2.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SolveConfig, solve
from repro.core import mop
from repro.equilibrium import network_nash
from repro.instances import (
    braess_paradox,
    grid_network,
    layered_network,
    mm1_server_farm,
    random_multicommodity_instance,
    roughgarden_example,
)
from repro.network import parallel_network_as_graph
from repro.instances import pigou, figure_4_example
from repro.core import optop


class TestRoughgardenExample:
    """The paper's Figure 7 walk-through."""

    def test_optimum_flows_match_figure(self, roughgarden_instance):
        result = mop(roughgarden_instance)
        assert result.optimum.edge_flows == pytest.approx(
            [0.75, 0.25, 0.5, 0.25, 0.75], abs=1e-5)

    def test_beta_is_one_half(self, roughgarden_instance):
        result = mop(roughgarden_instance)
        assert result.beta == pytest.approx(0.5, abs=1e-4)

    def test_shortest_path_subgraph_is_middle_path(self, roughgarden_instance):
        result = mop(roughgarden_instance)
        # Edges 0 (s->v), 2 (v->w), 4 (w->t) form the shortest path P0.
        assert result.shortest_edge_sets[0] == frozenset({0, 2, 4})

    def test_leader_controls_outer_paths(self, roughgarden_instance):
        result = mop(roughgarden_instance)
        strategy = result.strategy.edge_flows
        assert strategy[1] == pytest.approx(0.25, abs=1e-4)  # s->w
        assert strategy[3] == pytest.approx(0.25, abs=1e-4)  # v->t
        assert strategy[2] == pytest.approx(0.0, abs=1e-4)   # v->w stays free

    def test_induced_cost_is_optimum(self, roughgarden_instance):
        result = mop(roughgarden_instance)
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-6)

    def test_free_flow_is_middle_path_flow(self, roughgarden_instance):
        result = mop(roughgarden_instance)
        assert result.free_flows[0] == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("epsilon", [0.02, 0.05, 0.1])
    def test_perturbed_instances_follow_beta_formula(self, epsilon):
        result = mop(roughgarden_example(epsilon))
        assert result.beta == pytest.approx(0.5 + 2 * epsilon, abs=1e-3)


class TestBraessParadox:
    def test_leader_must_control_everything(self, braess_instance):
        result = mop(braess_instance)
        assert result.beta == pytest.approx(1.0, abs=1e-9)

    def test_induced_cost_is_optimum(self, braess_instance):
        result = mop(braess_instance)
        assert result.induced_cost == pytest.approx(1.5, rel=1e-6)

    def test_nash_cost_reported_when_requested(self, braess_instance):
        result = mop(braess_instance, compute_nash=True)
        assert result.nash is not None
        assert result.nash.cost == pytest.approx(2.0, rel=1e-6)

    def test_induced_skipped_when_not_requested(self, braess_instance):
        result = mop(braess_instance, compute_induced=False)
        assert result.outcome is None
        with pytest.raises(ValueError):
            _ = result.induced_cost


class TestRandomNetworks:
    @pytest.mark.parametrize("seed", range(3))
    def test_grid_networks_reach_optimum(self, seed):
        instance = grid_network(3, 3, demand=2.0, seed=seed)
        result = mop(instance)
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-5)
        assert 0.0 <= result.beta <= 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_layered_networks_reach_optimum(self, seed):
        instance = layered_network(3, 3, demand=2.0, seed=seed)
        result = mop(instance)
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-5)

    @pytest.mark.parametrize("seed", range(3))
    def test_multicommodity_networks_reach_optimum(self, seed):
        instance = random_multicommodity_instance(3, 3, num_commodities=2, seed=seed)
        result = mop(instance)
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-4)
        assert len(result.free_flows) == 2
        assert len(result.shortest_edge_sets) == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_beta_never_exceeds_anarchy_free_instances(self, seed):
        """If Nash already equals the optimum, MOP controls (almost) nothing."""
        instance = grid_network(3, 3, demand=2.0, seed=seed)
        result = mop(instance, compute_nash=True)
        if abs(result.nash.cost - result.optimum_cost) < 1e-9:
            assert result.beta < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_strategy_edge_flows_within_optimum(self, seed):
        instance = grid_network(3, 3, demand=1.0, seed=seed)
        result = mop(instance)
        assert np.all(result.strategy.edge_flows
                      <= result.optimum.edge_flows + 1e-7)


class TestConsistencyWithOpTop:
    """On parallel links (embedded as a graph) MOP and OpTop must agree."""

    @pytest.mark.parametrize("builder", [pigou, figure_4_example])
    def test_beta_agrees_with_optop(self, builder):
        parallel_instance = builder()
        network_instance = parallel_network_as_graph(parallel_instance)
        beta_parallel = optop(parallel_instance).beta
        beta_network = mop(network_instance).beta
        assert beta_network == pytest.approx(beta_parallel, abs=1e-5)

    @pytest.mark.parametrize("utilisation", [0.6, 0.99])
    def test_mm1_farm_beyond_one_link_capacity(self, utilisation):
        """The demand exceeds every single link's M/M/1 capacity, so no
        all-or-nothing start fits; ``mop`` embeds the farm as a graph."""
        farm = mm1_server_farm(2, 6, fast_capacity=4.0, slow_capacity=2.0,
                               utilisation=utilisation)
        config = SolveConfig(cache=False)
        assert solve(farm, "mop", config=config).beta == pytest.approx(
            solve(farm, "optop", config=config).beta, abs=1e-9)

    def test_solve_dispatches_by_type(self):
        config = SolveConfig(cache=False)
        assert solve(pigou(), config=config).beta == pytest.approx(
            0.5, abs=1e-9)
        assert solve(roughgarden_example(), config=config).beta == \
            pytest.approx(0.5, abs=1e-4)

    def test_solve_rejects_other_types(self):
        from repro.exceptions import ModelError
        with pytest.raises(ModelError):
            solve(42)
