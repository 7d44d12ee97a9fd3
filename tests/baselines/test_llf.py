"""Tests for the LLF (Largest Latency First) baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from types import SimpleNamespace

from repro.exceptions import StrategyError
from repro.baselines import llf
from repro.core import optop
from repro.equilibrium import parallel_optimum, parallel_nash
from repro.instances import pigou, random_linear_parallel, random_polynomial_parallel
from repro.latency import ConstantLatency
from repro.network.parallel import ParallelLinkInstance


class TestLLFConstruction:
    def test_alpha_out_of_range_rejected(self, pigou_instance):
        with pytest.raises(StrategyError):
            llf(pigou_instance, 1.2)
        with pytest.raises(StrategyError):
            llf(pigou_instance, -0.2)

    def test_budget_respected(self, random_linear_instance):
        strategy = llf(random_linear_instance, 0.4)
        assert strategy.controlled_flow == pytest.approx(
            0.4 * random_linear_instance.demand, abs=1e-9)

    def test_alpha_zero_is_null_strategy(self, random_linear_instance):
        strategy = llf(random_linear_instance, 0.0)
        assert strategy.controlled_flow == 0.0

    def test_alpha_one_plays_full_optimum(self, random_linear_instance):
        strategy = llf(random_linear_instance, 1.0)
        optimum = parallel_optimum(random_linear_instance)
        assert strategy.flows == pytest.approx(optimum.flows, abs=1e-8)

    def test_fills_largest_latency_links_first(self, pigou_instance):
        # On Pigou the optimum latencies are l1(1/2)=1/2 and l2(1/2)=1, so LLF
        # loads the constant link first.
        strategy = llf(pigou_instance, 0.5)
        assert strategy.flows == pytest.approx([0.0, 0.5], abs=1e-9)

    def test_partial_fill_of_last_link(self, pigou_instance):
        strategy = llf(pigou_instance, 0.25)
        assert strategy.flows == pytest.approx([0.0, 0.25], abs=1e-9)

    def test_never_exceeds_optimum_per_link(self, random_linear_instance):
        optimum = parallel_optimum(random_linear_instance)
        for alpha in (0.2, 0.5, 0.9):
            strategy = llf(random_linear_instance, alpha)
            assert np.all(strategy.flows <= optimum.flows + 1e-9)


def _llf_loop(instance, alpha, opt_flows):
    """LLF as a per-link loop over the saturation order: the reference of
    the array form."""
    latencies = instance.latencies_at(opt_flows)
    budget = alpha * instance.demand
    strategy = np.zeros(instance.num_links)
    for i in np.argsort(-latencies, kind="stable").tolist():
        if budget <= 0.0:
            break
        take = min(float(opt_flows[i]), budget)
        strategy[i] = take
        budget -= take
    return strategy


class TestLLFMatchesTheLoop:
    """The array form gives the loop's flows bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 10_000),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    def test_random_instances(self, m, seed, alpha):
        instance = random_linear_parallel(m, demand=0.3 * m, seed=seed)
        optimum = parallel_optimum(instance)
        expected = _llf_loop(instance, alpha, optimum.flows)
        got = llf(instance, alpha, optimum=optimum).flows
        assert got.tobytes() == np.clip(expected, 0.0, None).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([1.0, 2.0, 3.0]),
                              st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0,
                                               -1e-13])),
                    min_size=1, max_size=12),
           st.data())
    def test_ties_and_a_budget_spent_on_a_link(self, links, data):
        """Tied latencies (constant links sharing a value), empty links, a
        rounding-level negative flow and budgets equal to a prefix of the
        saturation order, so the budget runs out exactly on a link."""
        flows = np.array([flow for _, flow in links])
        if flows.sum() <= 0.0:
            flows[0] = 1.0
        demand = float(flows.sum())
        instance = ParallelLinkInstance(
            [ConstantLatency(c) for c, _ in links], demand)
        order = np.argsort(-instance.latencies_at(flows), kind="stable")
        prefix = np.concatenate(([0.0], np.cumsum(flows[order])))
        alpha = data.draw(st.one_of(
            st.sampled_from([0.0, 1.0]),
            st.sampled_from(np.clip(prefix / demand, 0.0, 1.0).tolist()),
            st.floats(0.0, 1.0)))
        optimum = SimpleNamespace(flows=flows)
        expected = _llf_loop(instance, alpha, flows)
        got = llf(instance, alpha, optimum=optimum).flows
        assert got.tobytes() == np.clip(expected, 0.0, None).tobytes()


class TestLLFGuarantees:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=30),
           st.floats(min_value=0.15, max_value=1.0))
    def test_one_over_alpha_bound(self, seed, alpha):
        """Roughgarden: C(S+T) <= (1/alpha) C(O)."""
        instance = random_polynomial_parallel(5, demand=2.0, seed=seed)
        strategy = llf(instance, alpha)
        cost = strategy.induce(instance).cost
        optimum_cost = parallel_optimum(instance).cost
        assert cost <= optimum_cost / alpha * (1.0 + 1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=30),
           st.floats(min_value=0.0, max_value=1.0))
    def test_linear_bound(self, seed, alpha):
        """Roughgarden: C(S+T) <= 4/(3+alpha) C(O) for linear latencies."""
        instance = random_linear_parallel(5, demand=2.0, seed=seed)
        strategy = llf(instance, alpha)
        cost = strategy.induce(instance).cost
        optimum_cost = parallel_optimum(instance).cost
        assert cost <= optimum_cost * 4.0 / (3.0 + alpha) * (1.0 + 1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_llf_never_worse_than_doing_nothing(self, seed):
        instance = random_linear_parallel(5, demand=2.0, seed=seed)
        nash_cost = parallel_nash(instance).cost
        for alpha in (0.25, 0.5, 0.75):
            assert llf(instance, alpha).induce(instance).cost <= nash_cost + 1e-9

    def test_llf_at_pigou_beta_reaches_optimum(self, pigou_instance):
        strategy = llf(pigou_instance, 0.5)
        assert strategy.induce(pigou_instance).cost == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_llf_not_better_than_optop_at_beta(self, seed):
        """OpTop's strategy is optimal at alpha = beta; LLF can only match it."""
        instance = random_linear_parallel(5, demand=2.0, seed=seed)
        result = optop(instance)
        llf_cost = llf(instance, result.beta).induce(instance).cost
        assert llf_cost >= result.optimum_cost - 1e-9


class TestLLFThroughSolve:
    """``solve(..., "llf")`` solves the optimum once, with the config."""

    def test_strategy_uses_the_reported_optimum(self):
        from repro.api import SolveConfig, solve

        # Multi-term polynomials take the tolerance-bound numeric level
        # solve, so a loose ``water_fill_tol`` moves the optimum's flows.
        instance = random_polynomial_parallel(50, demand=10.0, seed=2)
        report = solve(instance, "llf",
                       config=SolveConfig(water_fill_tol=1e-4))
        leader = np.array(report.leader_flows)
        optimum = np.array(report.optimum_flows)
        used = np.flatnonzero(leader > 0.0)
        partial = used[leader[used] != optimum[used]]
        # Every used link but the last one filled is saturated at its
        # reported optimum flow.
        assert len(used) > 1 and len(partial) <= 1
        assert np.all(leader <= optimum)

    def test_network_llf_makes_three_path_based_solves(self, monkeypatch):
        from repro.api import solve
        from repro.cache import LRUCache
        from repro.equilibrium import network as network_module
        from repro.instances import grid_network

        calls = []
        original = network_module.path_based_flow

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(network_module, "path_based_flow", counted)
        solve(grid_network(3, 3, seed=1), "llf", cache=LRUCache())
        # The optimum (shared by the strategy and the report), the Nash
        # equilibrium and the induced equilibrium.
        assert sorted(calls) == ["nash", "nash", "optimum"]
