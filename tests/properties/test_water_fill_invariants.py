"""Seed-randomized invariants of the water-filling solver.

For every latency family and every pinned seed, ``water_fill`` must
produce a feasible flow (conservation + non-negativity), equalise the
per-link level — latency for the Nash kind, marginal cost for the optimum
kind — across used links while unused links sit at or above it, and react
monotonically to demand growth (Proposition 7.1).
"""

from __future__ import annotations

import numpy as np
import pytest

from families import FAMILIES, SEEDS, make_instance
from repro.equilibrium.parallel import water_fill, water_fill_reference

KINDS = ("nash", "optimum")

#: Flow below this is treated as "unused" when checking level equalisation.
USED_ATOL = 1e-7


def _level_fn(kind: str):
    if kind == "nash":
        return lambda latency, x: float(latency.value(x))
    return lambda latency, x: float(latency.marginal_cost(x))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS)
def test_flow_conservation_and_nonnegativity(family, seed, kind):
    instance = make_instance(family, seed)
    flows, _ = water_fill(instance.latencies, instance.demand, kind)
    assert np.all(flows >= -1e-10), f"negative flow: {flows}"
    assert float(flows.sum()) == pytest.approx(instance.demand,
                                               rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS)
def test_level_equalisation_on_used_links(family, seed, kind):
    """Wardrop / KKT: used links share the level, unused links exceed it."""
    instance = make_instance(family, seed)
    flows, level = water_fill(instance.latencies, instance.demand, kind)
    fn = _level_fn(kind)
    scale = max(1.0, abs(level))
    for i, latency in enumerate(instance.latencies):
        if flows[i] > USED_ATOL:
            assert fn(latency, float(flows[i])) == pytest.approx(
                level, abs=1e-6 * scale), (
                f"used link {i} off the common level")
        else:
            assert fn(latency, 0.0) >= level - 1e-6 * scale, (
                f"unused link {i} below the common level")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS)
def test_flows_monotone_in_demand(family, seed, kind):
    """Growing the demand never shrinks any link's flow (Prop. 7.1)."""
    instance = make_instance(family, seed)
    demands = [0.25 * instance.demand, 0.6 * instance.demand,
               instance.demand]
    previous = None
    for demand in demands:
        flows, _ = water_fill(instance.latencies, demand, kind)
        if previous is not None:
            assert np.all(flows >= previous - 1e-7), (
                f"a link's flow decreased when demand grew to {demand}")
        previous = flows


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS)
def test_backends_agree(family, seed, kind):
    """The vectorized and the scalar reference kernels match to 1e-9."""
    instance = make_instance(family, seed)
    fast, fast_level = water_fill(instance.latencies, instance.demand, kind)
    slow, slow_level = water_fill_reference(instance.latencies,
                                            instance.demand, kind)
    assert np.allclose(fast, slow, atol=1e-7)
    assert fast_level == pytest.approx(slow_level, abs=1e-7)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS)
def test_backends_agree_across_a_demand_sweep(family, seed, kind):
    """One link system solved at several demands, as a study demand axis
    does: every demand matches the scalar reference kernel to 1e-9."""
    instance = make_instance(family, seed)
    for demand in (0.0, 0.3 * instance.demand, instance.demand):
        fast, fast_level = water_fill(instance.latencies, demand, kind)
        slow, slow_level = water_fill_reference(instance.latencies, demand,
                                                kind)
        assert np.allclose(fast, slow, atol=1e-9)
        assert fast_level == pytest.approx(slow_level, abs=1e-9, rel=1e-9)
