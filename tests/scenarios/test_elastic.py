"""Elastic-demand fixed point: analytic answers, networks, serialisation."""

from __future__ import annotations

import pytest

from repro import instances
from repro.exceptions import ModelError
from repro.scenarios import (
    ElasticReport,
    ExponentialDemandCurve,
    LinearDemandCurve,
    solve_elastic,
    wardrop_level,
    with_total_demand,
)
from repro.study import ArtifactStore


class TestWardropLevel:
    def test_pigou_level_is_min_of_latency_and_constant(self):
        # Pigou: l1(x) = x, l2(x) = 1.  The Nash level is q for q <= 1,
        # then the constant link absorbs the rest at level 1.
        inst = instances.pigou()
        assert wardrop_level(inst, 0.5) == pytest.approx(0.5, abs=1e-9)
        assert wardrop_level(inst, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_level_is_monotone_in_the_rate(self):
        inst = instances.figure_4_example()
        levels = [wardrop_level(inst, q) for q in (0.5, 1.0, 2.0, 4.0)]
        assert levels == sorted(levels)

    def test_zero_rate_network_level_is_free_flow_distance(self):
        inst = instances.braess_paradox()
        assert wardrop_level(inst, 0.0) >= 0.0

    def test_reference_backend_agrees(self, reference_water_fill):
        inst = instances.figure_4_example()
        vec = wardrop_level(inst, 1.7)
        with reference_water_fill("repro.scenarios.elastic.water_fill") \
                as calls:
            ref = wardrop_level(inst, 1.7)
        assert calls == ["nash"]
        assert vec == pytest.approx(ref, abs=1e-9)


class TestWithTotalDemand:
    def test_parallel_rescale(self):
        inst = with_total_demand(instances.pigou(), 0.25)
        assert inst.demand == pytest.approx(0.25)

    def test_network_rescale_scales_commodities_proportionally(self):
        inst = instances.braess_paradox()
        scaled = with_total_demand(inst, 3.0)
        assert scaled.total_demand == pytest.approx(3.0)
        assert len(scaled.commodities) == len(inst.commodities)


class TestSolveElastic:
    def test_pigou_analytic_fixed_point(self):
        # D(q) = 2 - q meets the Pigou level (q for q <= 1) at q = 1.
        elastic = solve_elastic(instances.pigou(),
                                LinearDemandCurve(intercept=2.0, slope=1.0))
        assert elastic.realised_rate == pytest.approx(1.0, abs=1e-6)
        assert elastic.price == pytest.approx(1.0, abs=1e-6)
        assert elastic.consumer_surplus == pytest.approx(0.5, abs=1e-6)
        assert elastic.beta == pytest.approx(0.5, abs=1e-6)

    def test_residual_is_small_at_the_fixed_point(self):
        elastic = solve_elastic(
            instances.figure_4_example(),
            LinearDemandCurve(intercept=3.0, slope=0.5))
        assert abs(elastic.metadata["residual"]) < 1e-6

    def test_exponential_curve_on_unbounded_instance(self):
        elastic = solve_elastic(
            instances.figure_4_example(),
            ExponentialDemandCurve(intercept=4.0, decay=0.5))
        assert elastic.realised_rate > 0.0
        assert elastic.consumer_surplus > 0.0

    def test_network_instance(self):
        elastic = solve_elastic(
            instances.braess_paradox(),
            LinearDemandCurve(intercept=3.0, slope=1.0), "mop")
        # Braess: level(q) at the Nash flow; D(q) = 3 - q crosses at q = 1.
        assert elastic.realised_rate == pytest.approx(1.0, abs=1e-5)
        assert elastic.beta == pytest.approx(1.0, abs=1e-5)

    def test_market_that_does_not_open_is_rejected(self):
        # Pigou's constant link has l(0) = 0 on the linear link, so any
        # positive intercept opens the market; force a closed one on a
        # shifted instance instead.
        inst = instances.figure_4_example()
        floor = wardrop_level(inst, 0.0)
        if floor <= 0.0:
            pytest.skip("instance has a zero free-flow level")
        with pytest.raises(ModelError, match="no positive rate"):
            solve_elastic(inst, LinearDemandCurve(intercept=floor * 0.5))

    def test_curve_type_is_validated(self):
        with pytest.raises(ModelError, match="DemandCurve"):
            solve_elastic(instances.pigou(), {"kind": "linear"})

    def test_json_round_trip(self):
        elastic = solve_elastic(instances.pigou(),
                                LinearDemandCurve(intercept=2.0, slope=1.0))
        rebuilt = ElasticReport.from_json(elastic.to_json())
        assert rebuilt.realised_rate == elastic.realised_rate
        assert rebuilt.report == elastic.report
        assert rebuilt.demand_curve == elastic.demand_curve

    def test_store_resumes_the_static_solve(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        curve = LinearDemandCurve(intercept=2.0, slope=1.0)
        first = solve_elastic(instances.pigou(), curve, store=store)
        writes = store.stats()["writes"]
        assert writes == 1
        second = solve_elastic(instances.pigou(), curve, store=store)
        assert store.stats()["writes"] == writes  # served from the store
        assert second.report.induced_cost == first.report.induced_cost
