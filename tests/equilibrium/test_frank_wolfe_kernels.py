"""Frank–Wolfe kernels: CSR all-or-nothing, source grouping, Newton search."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.equilibrium.frank_wolfe import (
    FrankWolfeOptions,
    all_or_nothing,
    all_or_nothing_reference,
    frank_wolfe,
)
from repro.exceptions import ModelError
from repro.instances import grid_network, layered_network
from repro.latency import ConstantLatency, LinearLatency, MonomialLatency
from repro.latency.batch import LatencyBatch
from repro.network.graph import Network
from repro.network.instance import Commodity, NetworkInstance
from repro.paths.dijkstra import ShortestPathEngine


def multi_source_instance():
    net = Network()
    net.add_edge("s", "a", LinearLatency(1.0, 0.0))   # zero cost at zero flow
    net.add_edge("s", "a", LinearLatency(2.0, 0.5))   # parallel, costlier
    net.add_edge("a", "t", LinearLatency(1.0, 0.2))
    net.add_edge("s", "t", ConstantLatency(1.0))
    net.add_edge("a", "u", MonomialLatency(0.5, 2.0, 0.0))
    return NetworkInstance(net, [
        Commodity("s", "t", 1.0),
        Commodity("s", "a", 2.0),   # shares the source with the first
        Commodity("a", "t", 0.5),
        Commodity("a", "u", 0.25),  # shares the source with the third
    ])


class TestAllOrNothingKernels:
    def test_csr_matches_reference_on_parallel_and_zero_cost_edges(self):
        instance = multi_source_instance()
        costs = instance.latencies_at(np.zeros(instance.network.num_edges))
        vec = all_or_nothing(instance, costs)
        ref = all_or_nothing_reference(instance, costs)
        np.testing.assert_allclose(vec, ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_csr_matches_reference_path_costs_on_grids(self, seed):
        instance = grid_network(5, 5, demand=3.0, seed=seed)
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.0, 2.0, size=instance.network.num_edges)
        vec = all_or_nothing(instance, costs)
        ref = all_or_nothing_reference(instance, costs)
        # Several equally-short paths may exist; the routed *cost* is the
        # invariant both kernels must agree on.
        assert float(np.dot(costs, vec)) == pytest.approx(
            float(np.dot(costs, ref)), abs=1e-9)
        assert vec.sum() == pytest.approx(ref.sum(), abs=1e-9)

    def test_validated_costs_skip_revalidation(self):
        instance = multi_source_instance()
        costs = np.zeros(instance.network.num_edges)
        flows = all_or_nothing(instance, costs, validated=True)
        assert flows.sum() > 0.0

    def test_unreachable_sink_raises_on_both_kernels(self):
        net = Network()
        net.add_edge("s", "a", LinearLatency(1.0))
        net.add_edge("t", "b", LinearLatency(1.0))  # t has no incoming path
        instance = NetworkInstance(net, [Commodity("s", "t", 1.0)])
        costs = np.zeros(net.num_edges)
        with pytest.raises(ModelError):
            all_or_nothing(instance, costs)
        with pytest.raises(ModelError):
            all_or_nothing_reference(instance, costs)


class TestShortestPathEngine:
    def test_batched_sources_share_one_run(self):
        instance = multi_source_instance()
        costs = instance.latencies_at(np.zeros(instance.network.num_edges))
        engine = ShortestPathEngine(instance.network, costs)
        engine.run(["s", "a"])
        assert engine.distance("s", "a") == pytest.approx(0.0)
        path = engine.path_edges("s", "t")
        assert path  # some path exists
        with pytest.raises(ModelError):
            engine.path_edges("u", "t")  # 'u' was not part of run()

    def test_parallel_edges_use_cheapest_copy(self):
        instance = multi_source_instance()
        costs = np.array([5.0, 0.1, 0.0, 10.0, 1.0])  # parallel copy cheaper
        engine = ShortestPathEngine(instance.network, costs)
        engine.run(["s"])
        assert engine.path_edges("s", "a") == [1]

    def test_repeated_runs_accumulate_without_corrupting_earlier_sources(self):
        instance = multi_source_instance()
        costs = instance.latencies_at(np.zeros(instance.network.num_edges))
        engine = ShortestPathEngine(instance.network, costs)
        engine.run(["s"])
        before = engine.distance("s", "t")
        engine.run(["a"])  # must not invalidate the 's' tree
        assert engine.distance("s", "t") == pytest.approx(before)
        assert engine.path_edges("a", "t")  # new source answered too


class TestFrankWolfeKernels:
    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_kernels_agree_on_layered_network(self, kind):
        # The scalar run patches the oracle in where the solver looks up
        # all_or_nothing and forces the golden-section line search.
        options = FrankWolfeOptions(tolerance=1e-9, max_iterations=5000)
        instance = layered_network(3, 3, demand=2.0, seed=4)
        vec = frank_wolfe(instance, kind, options)
        with mock.patch("repro.equilibrium.frank_wolfe.all_or_nothing",
                        all_or_nothing_reference), \
                mock.patch.object(LatencyBatch, "supports_newton", False), \
                mock.patch("repro.equilibrium.frank_wolfe._newton_line_search",
                           side_effect=AssertionError("Newton ran")):
            ref = frank_wolfe(instance, kind, options)
        assert vec.cost == pytest.approx(ref.cost, rel=1e-6)
        assert vec.beckmann == pytest.approx(ref.beckmann, rel=1e-6)

    def test_newton_line_search_converges_on_polynomial_grid(self):
        instance = grid_network(4, 4, demand=2.0, seed=7)
        assert instance.network.latency_batch().supports_newton
        result = frank_wolfe(instance, "optimum",
                             FrankWolfeOptions(tolerance=1e-7,
                                               max_iterations=10000))
        assert result.converged
        instance.check_flow_conservation(result.edge_flows)
