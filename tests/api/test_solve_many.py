"""Batch execution: process-pool fan-out and the instance-digest cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    REGISTRY,
    SolveConfig,
    clear_cache,
    cache_size,
    instance_digest,
    register_strategy,
    solve,
    solve_many,
)
from repro.exceptions import ModelError, StrategyError
from repro.instances import pigou, random_linear_parallel


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestProcessPoolFanOut:
    def test_pool_over_sixteen_instances_matches_sequential(self):
        instances = [random_linear_parallel(5, demand=2.0, seed=s)
                     for s in range(16)]
        pooled = solve_many(instances, "optop", max_workers=4)
        clear_cache()
        sequential = solve_many(instances, "optop", max_workers=0)
        assert len(pooled) == 16
        for a, b in zip(pooled, sequential):
            assert a.beta == pytest.approx(b.beta, abs=1e-12)
            assert a.induced_cost == pytest.approx(b.induced_cost, rel=1e-12)
            assert a.induced_flows == pytest.approx(b.induced_flows,
                                                    rel=1e-12)

    def test_order_is_preserved(self):
        instances = [random_linear_parallel(4, demand=1.0 + s, seed=s)
                     for s in range(6)]
        reports = solve_many(instances, "optop", max_workers=2)
        for inst, report in zip(instances, reports):
            assert sum(report.induced_flows) == pytest.approx(inst.demand)

    def test_unknown_strategy_fails_before_forking(self):
        with pytest.raises(StrategyError):
            solve_many([pigou()], "nope", max_workers=4)


class TestDigestCache:
    def test_strategy_called_once_per_distinct_instance_hash(self):
        calls = []

        @register_strategy("counting_stub")
        def counting_stub(instance, config):
            calls.append(instance_digest(instance))
            return solve(instance, "aloof",
                         config=SolveConfig(cache=False, compute_nash=False))

        try:
            distinct = [random_linear_parallel(3, demand=1.0, seed=s)
                        for s in range(4)]
            # Three copies of each instance in one batch, plus a repeat batch.
            batch = distinct + distinct + distinct
            config = SolveConfig(cache=True)
            reports = solve_many(batch, "counting_stub", config=config,
                                 max_workers=0)
            assert len(reports) == 12
            assert len(calls) == 4
            assert sorted(set(calls)) == sorted(
                instance_digest(inst) for inst in distinct)

            solve_many(distinct, "counting_stub", config=config, max_workers=0)
            assert len(calls) == 4, "repeat batch must be served from the cache"
        finally:
            REGISTRY.unregister("counting_stub")

    def test_duplicates_get_their_own_hit_report(self):
        inst = random_linear_parallel(3, demand=1.0, seed=0)
        twin = random_linear_parallel(3, demand=1.0, seed=0)
        reports = solve_many([inst, twin], "optop", max_workers=0)
        assert reports[0] is not reports[1]
        assert reports[0].metadata["cache"]["hit"] is False
        assert reports[1].metadata["cache"]["hit"] is True
        assert reports[0].beta == reports[1].beta
        assert reports[0].induced_cost == reports[1].induced_cost

    def test_cache_disabled_calls_per_item(self):
        calls = []

        @register_strategy("counting_stub_nocache")
        def counting_stub(instance, config):
            calls.append(1)
            return solve(instance, "aloof",
                         config=SolveConfig(cache=False, compute_nash=False))

        try:
            inst = random_linear_parallel(3, demand=1.0, seed=1)
            solve_many([inst, inst], "counting_stub_nocache",
                       config=SolveConfig(cache=False), max_workers=0)
            assert len(calls) == 2
            assert cache_size() == 0
        finally:
            REGISTRY.unregister("counting_stub_nocache")

    def test_config_is_part_of_the_key(self):
        inst = random_linear_parallel(3, demand=1.0, seed=2)
        a = solve(inst, "llf", config=SolveConfig(alpha=0.25))
        b = solve(inst, "llf", config=SolveConfig(alpha=0.75))
        assert cache_size() == 2
        assert a.alpha != b.alpha

    def test_reregistered_strategy_does_not_serve_stale_reports(self):
        inst = random_linear_parallel(3, demand=1.0, seed=5)

        @register_strategy("versioned_stub")
        def v1(instance, config):
            return solve(instance, "aloof",
                         config=SolveConfig(cache=False, compute_nash=False))

        try:
            first = solve(inst, "versioned_stub")
            assert first.strategy == "aloof"
        finally:
            REGISTRY.unregister("versioned_stub")

        @register_strategy("versioned_stub")
        def v2(instance, config):
            return solve(instance, "optop",
                         config=SolveConfig(cache=False, compute_nash=False))

        try:
            second = solve(inst, "versioned_stub")
            assert second.strategy == "optop", \
                "re-registered implementation must not be shadowed by the cache"
        finally:
            REGISTRY.unregister("versioned_stub")

    def test_cache_is_bounded(self):
        from repro.api.session import CACHE_MAX_ENTRIES

        assert CACHE_MAX_ENTRIES >= 1
        inst = random_linear_parallel(3, demand=1.0, seed=6)
        solve(inst, "optop")
        assert cache_size() <= CACHE_MAX_ENTRIES

    def test_digest_is_structural(self):
        a = random_linear_parallel(4, demand=2.0, seed=3)
        b = random_linear_parallel(4, demand=2.0, seed=3)
        c = random_linear_parallel(4, demand=2.0, seed=4)
        assert instance_digest(a) == instance_digest(b)
        assert instance_digest(a) != instance_digest(c)


class TestSpawnStartMethodFallback:
    """Runtime-registered strategies must not crash spawn-started pools."""

    def test_runtime_strategy_falls_back_to_sequential(self, monkeypatch):
        import repro.api.session as session

        @register_strategy("runtime_only_stub")
        def runtime_only_stub(instance, config):
            return solve(instance, "aloof",
                         config=SolveConfig(cache=False, compute_nash=False))

        monkeypatch.setattr(session, "_start_method", lambda: "spawn")
        try:
            instances = [random_linear_parallel(3, demand=1.0, seed=s)
                         for s in range(3)]
            with pytest.warns(RuntimeWarning, match="sequential"):
                reports = solve_many(instances, "runtime_only_stub",
                                     max_workers=4)
            assert len(reports) == 3
            assert all(r.strategy == "aloof" for r in reports)
        finally:
            REGISTRY.unregister("runtime_only_stub")

    def test_builtin_strategies_still_use_the_pool_on_spawn(self, monkeypatch):
        import repro.api.session as session

        monkeypatch.setattr(session, "_start_method", lambda: "spawn")
        # Built-ins are re-registered when the worker imports the package,
        # so no fallback (and no warning) is needed.
        assert session._pool_unsafe_reason("optop") is None

    def test_runtime_alias_of_a_package_function_falls_back(self, monkeypatch):
        import repro.api.session as session
        from repro.api.strategies import solve_aloof

        # The *name* decides worker-side resolution: aliasing a package
        # function under a new runtime name is still unsafe on spawn.
        register_strategy("aloof_alias", solve_aloof)
        monkeypatch.setattr(session, "_start_method", lambda: "spawn")
        try:
            assert session._pool_unsafe_reason("aloof_alias") is not None
        finally:
            REGISTRY.unregister("aloof_alias")

    def test_fork_platforms_never_fall_back(self, monkeypatch):
        import repro.api.session as session

        @register_strategy("fork_ok_stub")
        def fork_ok_stub(instance, config):
            return solve(instance, "aloof",
                         config=SolveConfig(cache=False, compute_nash=False))

        monkeypatch.setattr(session, "_start_method", lambda: "fork")
        try:
            assert session._pool_unsafe_reason("fork_ok_stub") is None
        finally:
            REGISTRY.unregister("fork_ok_stub")


class TestMaxWorkersCheck:
    """``max_workers`` is None or an int >= 0, checked before any solve."""

    @pytest.mark.parametrize("bad", ["x", 2.5, -3, True, [2]])
    def test_solve_many_rejects(self, bad):
        # One instance: the check must not depend on a pool being needed.
        with pytest.raises(ModelError, match="max_workers"):
            solve_many([pigou()], "optop", max_workers=bad)

    @pytest.mark.parametrize("good", [None, 0, 1, np.int64(1)])
    def test_accepted(self, good):
        reports = solve_many([pigou()], "optop", max_workers=good)
        assert reports[0].beta == pytest.approx(0.5)


class TestOneLinkSystemBatch:
    """aloof over one link system at many demands, in sequential solve_many."""

    def _instances(self, n=6):
        base = random_linear_parallel(5, demand=1.0, seed=3)
        return [base.with_demand(0.5 + 0.7 * i) for i in range(n)]

    def test_aloof_batch_matches_per_instance_solve(self):
        instances = self._instances()
        batched = solve_many(instances, "aloof", max_workers=0)
        singles = [solve(inst, "aloof",
                         config=SolveConfig(cache=False))
                   for inst in instances]
        for a, b in zip(batched, singles):
            assert a.induced_cost == pytest.approx(b.induced_cost, abs=1e-9)
            assert a.beta == pytest.approx(b.beta, abs=1e-9)
            for fa, fb in zip(a.induced_flows, b.induced_flows):
                assert fa == pytest.approx(fb, abs=1e-9)

    def test_batch_reports_are_cached(self):
        instances = self._instances()
        first = solve_many(instances, "aloof", max_workers=0)
        assert all(not r.metadata["cache"]["hit"] for r in first)
        second = solve_many(instances, "aloof", max_workers=0)
        assert all(r.metadata["cache"]["hit"] for r in second)
