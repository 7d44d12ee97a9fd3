"""Tests of the strategy registry and instance-kind dispatch."""

from __future__ import annotations

import pytest

from repro.api import (
    REGISTRY,
    SolveConfig,
    SolveReport,
    StrategyRegistry,
    available_strategies,
    get_strategy,
    register_strategy,
    resolve_instance_kind,
    solve,
)
from repro.exceptions import ModelError, StrategyError
from repro.instances import pigou, braess_paradox
from repro.network.parallel import ParallelLinkInstance
from repro.serialization import (instance_digest, instance_from_dict,
                                 instance_to_dict)

BUILTINS = {"optop", "mop", "llf", "scale", "aloof", "brute_force"}


class TestDefaultRegistry:
    def test_all_six_builtins_registered(self):
        assert BUILTINS <= set(available_strategies())

    def test_get_returns_callables(self):
        for name in BUILTINS:
            assert callable(get_strategy(name))

    def test_unknown_strategy_lists_alternatives(self):
        with pytest.raises(StrategyError, match="optop"):
            get_strategy("definitely_not_registered")

    def test_solve_dispatches_every_builtin(self, pigou_instance):
        config = SolveConfig(brute_force_resolution=4)
        for name in BUILTINS:
            report = solve(pigou_instance, name, config=config)
            assert isinstance(report, SolveReport)
            assert report.strategy == name


class TestCustomRegistration:
    def test_register_and_unregister(self, pigou_instance):
        @register_strategy("stub_for_registry_test")
        def stub(instance, config):
            return solve(instance, "aloof",
                         config=SolveConfig(cache=False))
        try:
            assert "stub_for_registry_test" in REGISTRY
            report = solve(pigou_instance, "stub_for_registry_test",
                           config=SolveConfig(cache=False))
            assert isinstance(report, SolveReport)
        finally:
            REGISTRY.unregister("stub_for_registry_test")
        assert "stub_for_registry_test" not in REGISTRY

    def test_duplicate_name_rejected(self):
        registry = StrategyRegistry()
        registry.register("x", lambda instance, config: None)
        with pytest.raises(StrategyError):
            registry.register("x", lambda instance, config: None)

    def test_non_callable_rejected(self):
        registry = StrategyRegistry()
        with pytest.raises(StrategyError):
            registry.register("x", "not callable")

    def test_fresh_registry_is_isolated(self):
        registry = StrategyRegistry()
        assert len(registry) == 0
        assert "optop" not in registry


class TestInstanceKindDispatch:
    def test_concrete_classes(self, pigou_instance, braess_instance):
        assert resolve_instance_kind(pigou_instance) == "parallel"
        assert resolve_instance_kind(braess_instance) == "network"

    def test_subclass_accepted(self, pigou_instance):
        class LoadedParallel(ParallelLinkInstance):
            pass

        sub = LoadedParallel(pigou_instance.latencies, pigou_instance.demand)
        assert resolve_instance_kind(sub) == "parallel"

    def test_duck_typed_wrapper_accepted(self, pigou_instance):
        class Wrapper:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

        assert resolve_instance_kind(Wrapper(pigou_instance)) == "parallel"
        assert resolve_instance_kind(Wrapper(braess_paradox())) == "network"

    def test_garbage_rejected(self):
        with pytest.raises(ModelError):
            resolve_instance_kind(42)

    def test_duck_typed_wrapper_solves_through_api(self, pigou_instance):
        class Wrapper:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

        wrapped = Wrapper(pigou_instance)
        report = solve(wrapped, "optop", config=SolveConfig(cache=False))
        assert report.beta == pytest.approx(0.5, abs=1e-9)
        # The wrapper is the same instance to every digest-keyed cache.
        assert instance_digest(wrapped) == instance_digest(pigou_instance)


class TestSolveOnLoadedInstances:
    """``solve`` accepts serialization round-trips and instance subclasses."""

    def test_plain_round_trip(self, pigou_instance):
        loaded = instance_from_dict(instance_to_dict(pigou_instance))
        report = solve(loaded, config=SolveConfig(cache=False))
        assert abs(report.beta - 0.5) < 1e-9

    def test_subclass_round_trip(self, pigou_instance):
        class LoadedParallel(ParallelLinkInstance):
            """Mimics a loader reconstructing instances as a subclass."""

        loaded = LoadedParallel(pigou_instance.latencies, pigou_instance.demand)
        report = solve(loaded, config=SolveConfig(cache=False))
        assert abs(report.beta - 0.5) < 1e-9

    def test_network_round_trip(self, braess_instance):
        loaded = instance_from_dict(instance_to_dict(braess_instance))
        report = solve(loaded, config=SolveConfig(cache=False))
        assert abs(report.beta - 1.0) < 1e-9

    def test_garbage_rejected_with_a_typed_error(self):
        with pytest.raises(ModelError):
            solve("not an instance")
