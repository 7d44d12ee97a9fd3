"""Vectorized/reference water-filling equivalence (the kernel contract).

Parametrized over random mixed instances (linear, M/M/1, polynomial, power
and constant families), both solve kinds, zero-demand and constant-floor edge
cases: :func:`water_fill` must match the scalar oracle
:func:`water_fill_reference` to 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optop import optop
from repro.equilibrium.parallel import (
    parallel_nash,
    parallel_optimum,
    water_fill,
    water_fill_reference,
)
from repro.exceptions import ModelError
from repro.latency import (
    BPRLatency,
    ConstantLatency,
    LinearLatency,
    MM1Latency,
    MonomialLatency,
    PolynomialLatency,
)
from repro.instances import random_linear_parallel, random_mixed_parallel
from repro.network.parallel import ParallelLinkInstance

EQ_TOL = 1e-9


def random_family_links(seed: int, m: int = 12):
    """A heterogeneous link set drawing from every analytic family."""
    rng = np.random.default_rng(seed)
    links = []
    for i in range(m):
        kind = rng.integers(0, 5)
        if kind == 0:
            links.append(LinearLatency(float(rng.uniform(0.2, 3.0)),
                                       float(rng.uniform(0.0, 1.0))))
        elif kind == 1:
            links.append(MM1Latency(float(rng.uniform(2.0, 6.0))))
        elif kind == 2:
            links.append(MonomialLatency(float(rng.uniform(0.3, 2.0)),
                                         float(rng.integers(2, 5)),
                                         float(rng.uniform(0.0, 0.5))))
        elif kind == 3:
            coeffs = rng.uniform(0.1, 1.0, size=int(rng.integers(2, 5)))
            links.append(PolynomialLatency([float(c) for c in coeffs]))
        else:
            links.append(ConstantLatency(float(rng.uniform(0.8, 2.0))))
    if all(lat.is_constant for lat in links):
        links[0] = LinearLatency(1.0, 0.0)
    return links


def assert_backends_agree(latencies, demand, kind, *, tol=1e-12):
    vec_flows, vec_level = water_fill(latencies, demand, kind, tol=tol)
    ref_flows, ref_level = water_fill_reference(latencies, demand, kind,
                                                tol=tol)
    np.testing.assert_allclose(vec_flows, ref_flows, atol=EQ_TOL, rtol=0.0)
    assert vec_level == pytest.approx(ref_level, abs=EQ_TOL)
    if demand > 0.0:
        assert vec_flows.sum() == pytest.approx(demand, rel=1e-9)


class TestRandomMixedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_mixed_families(self, seed, kind):
        links = random_family_links(seed)
        demand = float(np.random.default_rng(1000 + seed).uniform(0.1, 4.0))
        assert_backends_agree(links, demand, kind)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_all_linear_uses_exact_closed_form(self, seed, kind):
        instance = random_linear_parallel(40, demand=7.5, seed=seed)
        assert_backends_agree(instance.latencies, instance.demand, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_generator_mixed_instances(self, kind):
        instance = random_mixed_parallel(30, demand=4.0, seed=5)
        assert_backends_agree(instance.latencies, instance.demand, kind)


class TestEdgeCases:
    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_zero_demand(self, kind):
        links = random_family_links(3)
        assert_backends_agree(links, 0.0, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_constant_floor_absorbs_excess(self, kind):
        # A cheap constant link caps the level: the constants must soak up
        # the flow the increasing links cannot take below the floor.
        links = [LinearLatency(1.0, 0.0), ConstantLatency(0.5),
                 ConstantLatency(0.5), LinearLatency(2.0, 0.1)]
        assert_backends_agree(links, 10.0, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_all_constant_links(self, kind):
        links = [ConstantLatency(1.0), ConstantLatency(1.0)]
        assert_backends_agree(links, 2.0, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_bpr_and_constant_mixture(self, kind):
        links = [BPRLatency(1.0, 2.0), BPRLatency(0.5, 1.0, alpha=0.3),
                 ConstantLatency(1.8), LinearLatency(0.7, 0.2)]
        assert_backends_agree(links, 3.0, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_duplicate_breakpoints(self, kind):
        # Identical links share one activation breakpoint; the level engine
        # must deduplicate its grid without losing a segment.
        links = [LinearLatency(1.0, 1.0), LinearLatency(1.0, 1.0),
                 MonomialLatency(0.5, 3, 1.0), ConstantLatency(1.0)]
        for demand in (0.0, 0.5, 2.0, 6.0):
            assert_backends_agree(links, demand, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_link_without_closed_form_inverse(self, kind):
        # A generic link has no closed-form inverse, so the level solve
        # falls back to bisection on it; it must still match the oracle.
        from repro.latency.base import LatencyFunction

        class _SinhLatency(LatencyFunction):
            def value(self, x):
                return 1.0 + x + 0.1 * np.sinh(x)

            def derivative(self, x):
                return 1.0 + 0.1 * np.cosh(x)

            def integral(self, x):
                return x + 0.5 * x * x + 0.1 * (np.cosh(x) - 1.0)

        links = [_SinhLatency(), LinearLatency(1.0, 0.5), MM1Latency(4.0)]
        for demand in (0.3, 1.5, 3.0):
            assert_backends_agree(links, demand, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_single_link_carries_the_whole_demand(self, kind):
        for demand in (0.0, 1.0, 2.5):
            flows, _ = water_fill([MM1Latency(3.0)], demand, kind)
            np.testing.assert_allclose(flows, [demand], atol=EQ_TOL)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_prebuilt_batch_reused_across_demands(self, kind):
        # One LatencyBatch serves a whole demand sweep on its link system,
        # read through its columns alone, with the flows of a fresh solve.
        from repro.latency.batch import LatencyBatch

        links = random_family_links(7)
        batch = LatencyBatch(links)
        for demand in (0.0, 1.0, 3.0):
            shared, shared_level = water_fill(None, demand, kind, batch=batch)
            fresh, fresh_level = water_fill(links, demand, kind)
            np.testing.assert_array_equal(shared, fresh)
            assert shared_level == fresh_level

    def test_unknown_kind_raises_on_both_backends(self):
        links = [LinearLatency(1.0)]
        with pytest.raises(ModelError):
            water_fill(links, 1.0, "nope")
        with pytest.raises(ModelError):
            water_fill_reference(links, 1.0, "nope")


class TestWholeAlgorithmOnReferenceKernel:
    """Solvers rerun with the oracle patched in where they call the kernel."""

    def test_nash_matches_reference_kernel(self, reference_water_fill):
        instance = random_mixed_parallel(10, demand=2.0, seed=9)
        vec = parallel_nash(instance)
        with reference_water_fill() as calls:
            ref = parallel_nash(instance)
        assert calls == ["nash"]
        np.testing.assert_allclose(ref.flows, vec.flows, atol=EQ_TOL)
        assert ref.common_value == pytest.approx(vec.common_value, abs=EQ_TOL)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_optop_identical_across_backends(self, seed,
                                             reference_water_fill):
        instance = random_mixed_parallel(14, demand=3.0, seed=seed)
        vec = optop(instance)
        with reference_water_fill() as calls:
            ref = optop(instance)
        # optimum, initial Nash, one Nash per later round, induced Nash.
        assert calls[0] == "optimum"
        assert len(calls) == ref.num_rounds + 2
        assert vec.beta == pytest.approx(ref.beta, abs=1e-8)
        np.testing.assert_allclose(vec.strategy.flows, ref.strategy.flows,
                                   atol=1e-8)

    def test_optimum_matches_reference_kernel(self, reference_water_fill):
        instance = random_linear_parallel(25, demand=6.0, seed=2)
        vec = parallel_optimum(instance)
        with reference_water_fill() as calls:
            ref = parallel_optimum(instance)
        assert calls == ["optimum"]
        np.testing.assert_allclose(vec.flows, ref.flows, atol=EQ_TOL)


class TestMM1NearCapacity:
    """Regression: M/M/1 inverses probed exactly at capacity.

    With demand a hair under the joint capacity the common level is huge and
    the closed-form inverse ``c - f/L`` rounds to ``c`` exactly; evaluating
    the latency there divides by zero.  The inverses now clamp strictly
    inside the domain (``nextafter(c, 0)``), so the solve converges and the
    resulting flows remain evaluatable.
    """

    LINKS = [MM1Latency(1.0), MM1Latency(1000.0)]
    DEMAND = 1001.0 - 1e-9

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    @pytest.mark.parametrize("solver", [water_fill, water_fill_reference],
                             ids=["vectorized", "reference"])
    def test_near_capacity_demand_solves(self, kind, solver):
        flows, level = solver(self.LINKS, self.DEMAND, kind)
        assert np.all(np.isfinite(flows))
        assert flows.sum() == pytest.approx(self.DEMAND, rel=1e-9)
        assert level > 1e6  # the level blows up near capacity
        # Every flow stays strictly inside its link's domain: the latency
        # (and its derivative) must evaluate to a finite number.
        for lat, x in zip(self.LINKS, flows):
            assert x < lat.capacity
            assert np.isfinite(lat.value(float(x)))
            assert np.isfinite(lat.derivative(float(x)))

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_batch_values_evaluatable_at_solution(self, kind):
        from repro.latency.batch import LatencyBatch

        flows, _ = water_fill(self.LINKS, self.DEMAND, kind)
        values = LatencyBatch(self.LINKS).values(flows)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_backends_agree_near_capacity(self, kind):
        vec_flows, _ = water_fill(self.LINKS, self.DEMAND, kind)
        ref_flows, _ = water_fill_reference(self.LINKS, self.DEMAND, kind)
        np.testing.assert_allclose(vec_flows, ref_flows, atol=1e-6)
