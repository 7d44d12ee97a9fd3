"""A report's optimum and Nash flow are solved once per solve.

Every built-in strategy solves the instance's system optimum exactly once
and its Nash flow at most once, and the strategy is built from the same
optimum the report shows.  Against the null strategy (``aloof``) the
Followers reach the plain Nash flow, so ``aloof`` runs no equilibrium solve
beyond that one.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.api import SolveConfig, solve
from repro.baselines import exact_strategy, network_brute_force, scale
from repro.equilibrium import network as network_module
from repro.equilibrium import parallel as parallel_module
from repro.instances import grid_network, random_linear_parallel

STRATEGIES = ("optop", "llf", "scale", "aloof", "exact", "brute_force")
INSTANCES = {
    "parallel": lambda: random_linear_parallel(4, seed=2),
    "network": lambda: grid_network(3, 3, seed=2),
}
SOLVERS = {
    "parallel_optimum": (parallel_module, "optimum"),
    "parallel_nash": (parallel_module, "nash"),
    "network_optimum": (network_module, "optimum"),
    "network_nash": (network_module, "nash"),
}
CONFIGS = {
    "default": SolveConfig(brute_force_resolution=4, cache=False),
    "no_nash": SolveConfig(brute_force_resolution=4, cache=False,
                           compute_nash=False),
}


@contextlib.contextmanager
def _counting_solves(instance):
    """Count optimum/Nash solves, on ``instance`` and on any instance.

    Every binding of the four solvers in a loaded ``repro`` module is
    wrapped, so an import under another module's name is counted too.
    """
    on_instance, anywhere = Counter(), Counter()

    def counted(solver, kind):
        def wrapper(inst, *args, **kwargs):
            anywhere[kind] += 1
            if inst is instance:
                on_instance[kind] += 1
            return solver(inst, *args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        for name, (home, kind) in SOLVERS.items():
            solver = getattr(home, name)
            for mod_name, module in list(sys.modules.items()):
                if ((mod_name == "repro" or mod_name.startswith("repro."))
                        and getattr(module, name, None) is solver):
                    stack.enter_context(mock.patch.object(
                        module, name, counted(solver, kind)))
        yield on_instance, anywhere


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kind", sorted(INSTANCES))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_one_optimum_and_at_most_one_nash(strategy, kind, config_name):
    instance = INSTANCES[kind]()
    with _counting_solves(instance) as (on_instance, anywhere):
        solve(instance, strategy, config=CONFIGS[config_name])
    assert on_instance["optimum"] == 1, dict(on_instance)
    assert on_instance["nash"] <= 1, dict(on_instance)
    if strategy == "aloof":
        assert anywhere == Counter(optimum=1, nash=1), dict(anywhere)


@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_aloof_induces_the_reported_nash_flow(kind):
    report = solve(INSTANCES[kind](), "aloof", config=CONFIGS["default"])
    assert report.controlled_flow == 0.0
    np.testing.assert_array_equal(report.induced_flows, report.nash_flows)
    assert report.induced_cost == report.nash_cost


@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_scale_scales_the_reported_optimum(kind):
    config = SolveConfig(alpha=0.3, cache=False)
    report = solve(INSTANCES[kind](), "scale", config=config)
    np.testing.assert_array_equal(report.leader_flows,
                                  0.3 * np.asarray(report.optimum_flows))


def test_network_exact_is_certified_against_the_reported_optimum():
    report = solve(INSTANCES["network"](), "exact", config=CONFIGS["default"])
    assert (report.metadata["certification"]["lower_bound"]
            == report.optimum_cost)


def _raising(*args, **kwargs):
    raise AssertionError("the passed reference flow was solved again")


class TestBaselinesTakeThePassedFlows:
    def test_scale(self):
        instance = INSTANCES["parallel"]()
        optimum = parallel_module.parallel_optimum(instance)
        with mock.patch("repro.baselines.scale.parallel_optimum", _raising):
            strategy = scale(instance, 0.5, optimum=optimum)
        np.testing.assert_array_equal(strategy.flows, 0.5 * optimum.flows)

    def test_scale_on_a_network(self):
        instance = INSTANCES["network"]()
        optimum = network_module.network_optimum(instance)
        with mock.patch("repro.baselines.scale.network_optimum", _raising):
            strategy = scale(instance, 0.5, optimum=optimum)
        np.testing.assert_array_equal(strategy.edge_flows,
                                      0.5 * optimum.edge_flows)

    def test_exact_strategy(self):
        instance = INSTANCES["parallel"]()
        optimum = parallel_module.parallel_optimum(instance)
        nash = parallel_module.parallel_nash(instance)
        with mock.patch("repro.baselines.exact.parallel_optimum", _raising), \
                mock.patch("repro.baselines.exact.parallel_nash", _raising), \
                mock.patch("repro.baselines.llf.parallel_optimum", _raising), \
                mock.patch("repro.baselines.scale.parallel_optimum", _raising):
            with_flows = exact_strategy(instance, 0.5, optimum=optimum,
                                        nash=nash, polish=False)
        alone = exact_strategy(instance, 0.5, polish=False)
        np.testing.assert_array_equal(with_flows.strategy.flows,
                                      alone.strategy.flows)
        assert with_flows.certification == alone.certification

    def test_network_brute_force(self):
        instance = INSTANCES["network"]()
        optimum = network_module.network_optimum(instance)
        with mock.patch("repro.baselines.network_ext.network_optimum",
                        _raising):
            with_optimum = network_brute_force(instance, 0.5, resolution=3,
                                               optimum=optimum)
        alone = network_brute_force(instance, 0.5, resolution=3)
        np.testing.assert_array_equal(with_optimum.strategy.edge_flows,
                                      alone.strategy.edge_flows)
        assert with_optimum.cost == alone.cost
