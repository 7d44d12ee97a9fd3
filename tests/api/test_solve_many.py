"""Batch execution: process-pool fan-out and the instance-digest cache."""

from __future__ import annotations

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
from repro.exceptions import StrategyError
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


class TestBatchPrePass:
    """The whole-batch solver shortcut in sequential solve_many."""

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

    def test_batch_metadata_records_group_size(self):
        instances = self._instances(4)
        reports = solve_many(instances, "aloof", max_workers=0,
                             config=SolveConfig(cache=False))
        assert all(r.metadata.get("batched") == 4 for r in reports)

    def test_mixed_latency_groups_and_singletons(self):
        shared = random_linear_parallel(4, demand=1.0, seed=8)
        group = [shared.with_demand(d) for d in (0.4, 1.3, 2.2)]
        loner = random_linear_parallel(4, demand=1.5, seed=9)
        reports = solve_many(group + [loner], "aloof", max_workers=0,
                             config=SolveConfig(cache=False))
        assert [r.metadata.get("batched") for r in reports[:3]] == [3, 3, 3]
        assert reports[3].metadata.get("batched") is None
        single = solve(loner, "aloof", config=SolveConfig(cache=False))
        assert reports[3].induced_cost == pytest.approx(single.induced_cost,
                                                        abs=1e-12)

    def test_profiled_batch_runs_the_pre_pass(self):
        # Profiling does not change which code runs: the batch pre-pass
        # runs under one recorder and every report carries its phases.
        instances = self._instances(3)
        reports = solve_many(instances, "aloof", max_workers=0,
                             config=SolveConfig(cache=False, profile=True))
        assert [r.metadata.get("batched") for r in reports] == [3, 3, 3]
        profiles = [r.metadata["profile"] for r in reports]
        assert all(profile == profiles[0] for profile in profiles)
        assert profiles[0]["phases"]
        assert profiles[0]["total_seconds"] > 0.0

    def test_link_system_groups_match_the_json_grouping(self):
        # The groups key on the bytes of the cached latency columns; they
        # are the groups the JSON of every link's parameters gives.
        import json

        from repro.instances import random_mixed_parallel
        from repro.network import ParallelLinkInstance
        from repro.serialization import latency_to_dict

        shared = random_mixed_parallel(30, demand=5.0, seed=4)
        renamed = ParallelLinkInstance(shared.latencies, 2.0,
                                       names=[f"L{i}" for i in range(30)])
        instances = ([shared.with_demand(d) for d in (1.0, 3.0, 6.0)]
                     + [random_mixed_parallel(30, demand=5.0, seed=s)
                        for s in (5, 6)]
                     + [renamed, random_linear_parallel(30, 5.0, seed=4),
                        shared.with_demand(2.5)])
        groups = {}
        for i, inst in enumerate(instances):
            key = json.dumps([latency_to_dict(lat) for lat in inst.latencies],
                             sort_keys=True)
            groups.setdefault(key, []).append(i)
        sizes = [len(group) for i in range(len(instances))
                 for group in groups.values() if i in group]
        assert sizes == [5, 5, 5, 1, 1, 5, 1, 5]
        reports = solve_many(instances, "aloof", max_workers=0,
                             config=SolveConfig(cache=False))
        assert [r.metadata.get("batched", 1) for r in reports] == sizes

    def test_a_wrapped_link_declines_the_batch(self):
        from repro.api.strategies import solve_aloof_many
        from repro.latency import ShiftedLatency
        from repro.network import ParallelLinkInstance

        base = random_linear_parallel(4, demand=1.0, seed=8)
        wrapped = ParallelLinkInstance(
            [ShiftedLatency(lat, 0.1) for lat in base.latencies], 1.0)
        assert solve_aloof_many([base, wrapped], SolveConfig()) is None
