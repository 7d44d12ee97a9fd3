"""Unit tests for `SolveService`: coalescing, batching, backpressure,
tiered caching, failure containment and lifecycle."""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.api import SolveConfig, clear_cache, solve, solve_many
from repro.exceptions import (
    ModelError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.instances import pigou, random_linear_parallel
from repro.serialization import instance_digest
from repro.serve import SolveService, TieredCache
from repro.study.store import ArtifactStore, artifact_key

QUICK = SolveConfig(compute_nash=False)


@pytest.fixture(autouse=True)
def fresh_session_cache():
    clear_cache()
    yield
    clear_cache()


class CountingSolver:
    """A solve_many wrapper counting batch calls and solved instances."""

    def __init__(self, inner=solve_many, delay: float = 0.0):
        self.inner = inner
        self.delay = delay
        self.calls = 0
        self.instances = 0
        self._lock = threading.Lock()

    def __call__(self, instances, strategy=None, *, config=None,
                 max_workers=None, cache=None):
        with self._lock:
            self.calls += 1
            self.instances += len(list(instances))
        if self.delay:
            time.sleep(self.delay)
        return self.inner(instances, strategy, config=config,
                          max_workers=max_workers)


class FailingSolver:
    """Raises for the first ``failures`` batches, then delegates."""

    def __init__(self, failures: int = 1):
        self.failures = failures
        self.calls = 0

    def __call__(self, instances, strategy=None, *, config=None,
                 max_workers=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("synthetic solver crash")
        return solve_many(instances, strategy, config=config,
                          max_workers=max_workers)


class TestBasicServing:
    def test_submit_returns_a_report_future(self):
        with SolveService(max_wait_ms=1.0) as service:
            report = service.submit(pigou(), "optop").result(timeout=30)
        assert report.beta == pytest.approx(0.5)

    def test_blocking_solve_wrapper(self):
        with SolveService(max_wait_ms=1.0) as service:
            report = service.solve(pigou(), "optop", timeout=30)
        assert report.strategy == "optop"

    def test_repeat_submission_is_a_tier1_hit(self):
        with SolveService(max_wait_ms=1.0) as service:
            instance = pigou()
            service.solve(instance, "optop", config=QUICK, timeout=30)
            service.solve(instance, "optop", config=QUICK, timeout=30)
            stats = service.stats()
        assert stats.tier1_hits == 1
        assert stats.enqueued == 1
        assert stats.consistent

    def test_unknown_strategy_fails_fast(self):
        from repro.exceptions import StrategyError

        with SolveService(max_wait_ms=1.0) as service:
            with pytest.raises(StrategyError):
                service.submit(pigou(), "no_such_strategy")


class TestCoalescing:
    def test_concurrent_identical_requests_solve_once(self):
        solver = CountingSolver(delay=0.05)
        instance = random_linear_parallel(4, demand=2.0, seed=1)
        with SolveService(max_wait_ms=20.0, solver=solver) as service:
            futures = [service.submit(instance, "optop", config=QUICK)
                       for _ in range(25)]
            reports = [f.result(timeout=30) for f in futures]
            stats = service.stats()
        assert solver.instances == 1, "identical requests must coalesce"
        assert stats.coalesced == 24
        assert stats.enqueued == 1
        assert stats.consistent
        assert len({r.beta for r in reports}) == 1

    def test_distinct_requests_share_one_batch(self):
        solver = CountingSolver()
        instances = [random_linear_parallel(3, demand=1.0, seed=s)
                     for s in range(10)]
        with SolveService(max_batch=32, max_wait_ms=50.0,
                          solver=solver) as service:
            futures = [service.submit(inst, "optop", config=QUICK)
                       for inst in instances]
            for future in futures:
                future.result(timeout=30)
            stats = service.stats()
        assert solver.calls < len(instances), \
            "micro-batching must need fewer solve_many calls than requests"
        assert stats.batched_requests == len(instances)
        assert stats.consistent

    def test_mixed_strategies_group_into_separate_batches(self):
        solver = CountingSolver()
        instance = random_linear_parallel(4, demand=1.5, seed=2)
        with SolveService(max_batch=32, max_wait_ms=50.0,
                          solver=solver) as service:
            a = service.submit(instance, "optop", config=QUICK)
            b = service.submit(instance, "aloof", config=QUICK)
            a.result(timeout=30), b.result(timeout=30)
        assert solver.calls == 2, "one solve_many per (strategy, config)"


class TestBackpressure:
    def test_full_queue_rejects_with_overload_error(self):
        release = threading.Event()

        def blocking_solver(instances, strategy=None, *, config=None,
                            max_workers=None):
            release.wait(timeout=30)
            return solve_many(instances, strategy, config=config,
                              max_workers=max_workers)

        service = SolveService(max_queue=2, max_batch=1, max_wait_ms=0.0,
                               solver=blocking_solver).start()
        try:
            futures = []
            # First request is picked up by the dispatcher (and blocks);
            # then fill the bounded queue to the brim.
            futures.append(service.submit(
                random_linear_parallel(3, demand=1.0, seed=0), "optop",
                config=QUICK))
            time.sleep(0.1)
            rejected = 0
            seed = 1
            while rejected == 0 and seed < 50:
                try:
                    futures.append(service.submit(
                        random_linear_parallel(3, demand=1.0, seed=seed),
                        "optop", config=QUICK))
                except ServiceOverloadedError:
                    rejected += 1
                seed += 1
            assert rejected == 1
            stats = service.stats()
            assert stats.rejected == 1
            assert stats.consistent
        finally:
            release.set()
            service.shutdown(wait=True, timeout=30)


class TestTieredCache:
    def test_store_backed_restart_serves_tier2(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        instance = random_linear_parallel(4, demand=2.0, seed=3)

        with SolveService(store=store, max_wait_ms=1.0) as warm:
            first = warm.solve(instance, "optop", config=QUICK, timeout=30)
        assert store.stats()["writes"] == 1

        solver = CountingSolver()
        clear_cache()  # the session cache must not mask the tiers
        with SolveService(store=ArtifactStore(tmp_path / "artifacts"),
                          max_wait_ms=1.0, solver=solver) as cold:
            second = cold.solve(instance, "optop", config=QUICK, timeout=30)
            third = cold.solve(instance, "optop", config=QUICK, timeout=30)
            stats = cold.stats()
        assert solver.calls == 0, "restart must re-warm from the store"
        assert stats.tier2_hits == 1, "first lookup promotes from disk"
        assert stats.tier1_hits == 1, "second lookup hits memory"
        assert second.beta == pytest.approx(first.beta)
        assert third.beta == pytest.approx(first.beta)

    def test_write_through_lands_in_both_tiers(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        cache = TieredCache(store=store)
        with SolveService(cache=cache, max_wait_ms=1.0) as service:
            service.solve(pigou(), "optop", config=QUICK, timeout=30)
        assert len(cache.memory) == 1
        assert len(store) == 1

    def test_cache_disabled_requests_bypass_the_tiers(self):
        solver = CountingSolver()
        nocache = SolveConfig(cache=False, compute_nash=False)
        instance = random_linear_parallel(3, demand=1.0, seed=4)
        with SolveService(max_wait_ms=1.0, solver=solver) as service:
            service.solve(instance, "optop", config=nocache, timeout=30)
            service.solve(instance, "optop", config=nocache, timeout=30)
            stats = service.stats()
        assert solver.instances == 2
        assert stats.hits == 0 and stats.enqueued == 2
        assert stats.consistent

    def test_corrupt_tier2_artifact_is_healed_not_fatal(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        instance = random_linear_parallel(4, demand=2.0, seed=11)
        with SolveService(store=store, max_wait_ms=1.0) as warm:
            first = warm.solve(instance, "optop", config=QUICK, timeout=30)
        # Corrupt the artifact on disk.
        artifact = next(iter(store.root.glob("??/*.json")))
        artifact.write_text("{not json", encoding="utf-8")

        clear_cache()
        with SolveService(store=ArtifactStore(tmp_path / "artifacts"),
                          max_wait_ms=1.0) as cold:
            healed = cold.solve(instance, "optop", config=QUICK, timeout=30)
            stats = cold.stats()
        assert healed.beta == pytest.approx(first.beta)
        assert stats.consistent, stats.to_dict()
        assert stats.enqueued == 1, "corrupt artifact must be a miss"
        # The store quarantined the damaged file (renamed aside) ...
        assert stats.cache["store"]["corrupt"] == 1
        quarantined = list((tmp_path / "artifacts").glob("??/*.corrupt.*"))
        assert len(quarantined) == 1
        # ... and the write-through landed a fresh, verifiable artifact.
        import json as _json

        from repro.api.report import SolveReport

        envelope = _json.loads(artifact.read_text(encoding="utf-8"))
        SolveReport.from_dict(envelope["report"])

    def test_service_traffic_leaves_the_global_cache_alone(self):
        from repro.api import cache_stats

        before = cache_stats()
        with SolveService(max_wait_ms=1.0) as service:
            for seed in range(4):
                inst = random_linear_parallel(3, demand=1.0, seed=seed)
                service.solve(inst, "optop", config=QUICK, timeout=30)
                service.solve(inst, "optop", config=QUICK, timeout=30)
        assert cache_stats() == before, \
            "serve traffic must not skew repro.api.cache_stats()"

    def test_each_event_is_counted_once_across_the_layers(self, tmp_path):
        # The tiers count their probes, the service counts the request
        # buckets; on an idle service they describe the same events.
        store = ArtifactStore(tmp_path / "artifacts")
        instances = [random_linear_parallel(3, demand=1.0, seed=seed)
                     for seed in range(6)]
        for instance in instances[:2]:  # pre-stored: tier-2 hits
            store.put(artifact_key(instance_digest(instance), "optop",
                                   QUICK),
                      solve(instance, "optop", config=QUICK))
        with SolveService(store=store, max_wait_ms=1.0) as service:
            def client(offset):
                for round_index in range(5):
                    for i in range(len(instances)):
                        instance = instances[(i + offset + round_index)
                                             % len(instances)]
                        service.solve(instance, "optop", config=QUICK,
                                      timeout=30)

            threads = [threading.Thread(target=client, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.drain()
            stats = service.stats()
        memory, tier2 = stats.cache["memory"], stats.cache["store"]
        assert stats.consistent and stats.probing == 0, stats.to_dict()
        assert stats.requests == 4 * 5 * len(instances)
        assert stats.rejected == 0
        assert stats.tier2_hits == 2 and stats.enqueued == 4
        assert memory["hits"] == stats.tier1_hits
        assert tier2["hits"] == stats.tier2_hits
        assert tier2["misses"] == stats.enqueued
        assert memory["misses"] == (stats.coalesced + stats.tier2_hits
                                    + stats.enqueued)

    def test_a_raising_store_is_a_logged_miss(self, tmp_path, caplog):
        class RaisingStore(ArtifactStore):
            def get(self, key):
                raise ModelError("synthetic store failure")

        solver = CountingSolver()
        with caplog.at_level(logging.WARNING, logger="repro.serve.cache"):
            with SolveService(store=RaisingStore(tmp_path / "artifacts"),
                              max_wait_ms=1.0, solver=solver) as service:
                report = service.solve(pigou(), "optop", config=QUICK,
                                       timeout=30)
                stats = service.stats()
        assert report.beta == pytest.approx(0.5)
        assert solver.instances == 1
        assert stats.enqueued == 1 and stats.tier2_hits == 0
        assert stats.consistent, stats.to_dict()
        assert any(record.levelno == logging.WARNING
                   and "synthetic store failure" in record.getMessage()
                   for record in caplog.records)


class TestFailureContainment:
    def test_failed_write_through_still_serves_the_report(self, tmp_path):
        """Disk-full persistence must degrade, not hang the futures."""

        class BrokenStore(ArtifactStore):
            def put(self, key, report):
                raise OSError("disk full")

        store = BrokenStore(tmp_path / "artifacts")
        instance = random_linear_parallel(3, demand=1.0, seed=21)
        with SolveService(store=store, max_wait_ms=1.0) as service:
            report = service.solve(instance, "optop", config=QUICK,
                                   timeout=30)
            again = service.solve(instance, "optop", config=QUICK,
                                  timeout=30)
            stats = service.stats()
        assert report.beta is not None
        assert stats.cache_put_failures == 1
        assert stats.tier1_hits == 1, \
            "tier 1 is written before the failing tier-2 put"
        assert again.beta == pytest.approx(report.beta)
        assert stats.pending == 0 and stats.consistent

    def test_reregistered_strategy_is_not_served_stale(self, tmp_path):
        from repro.api import REGISTRY, register_strategy, solve

        instance = random_linear_parallel(3, demand=1.0, seed=22)
        store = ArtifactStore(tmp_path / "artifacts")

        @register_strategy("serve_versioned_stub")
        def v1(inst, config):
            return solve(inst, "aloof",
                         config=SolveConfig(cache=False, compute_nash=False))

        try:
            with SolveService(store=store, max_wait_ms=1.0) as service:
                first = service.solve(instance, "serve_versioned_stub",
                                      config=QUICK, timeout=30)
                assert first.strategy == "aloof"
        finally:
            REGISTRY.unregister("serve_versioned_stub")

        @register_strategy("serve_versioned_stub")
        def v2(inst, config):
            return solve(inst, "optop",
                         config=SolveConfig(cache=False, compute_nash=False))

        try:
            with SolveService(store=store, max_wait_ms=1.0) as service:
                second = service.solve(instance, "serve_versioned_stub",
                                       config=QUICK, timeout=30)
                stats = service.stats()
            assert second.strategy == "optop", \
                "tier caches must not replay the old implementation"
            assert stats.tier2_hits == 0, \
                "the store must be bypassed for re-registered names"
        finally:
            REGISTRY.unregister("serve_versioned_stub")

    def test_failed_batch_fails_only_its_futures(self):
        solver = FailingSolver(failures=1)
        a = random_linear_parallel(3, demand=1.0, seed=5)
        b = random_linear_parallel(3, demand=1.0, seed=6)
        with SolveService(max_wait_ms=1.0, solver=solver) as service:
            first = service.submit(a, "optop", config=QUICK)
            with pytest.raises(RuntimeError, match="synthetic solver crash"):
                first.result(timeout=30)
            # The service survives and keeps serving.
            second = service.submit(b, "optop", config=QUICK)
            assert second.result(timeout=30).beta is not None
            stats = service.stats()
        assert stats.batch_failures == 1
        assert stats.consistent

    def test_coalesced_futures_share_the_failure(self):
        solver = FailingSolver(failures=1)
        instance = random_linear_parallel(3, demand=1.0, seed=7)
        with SolveService(max_wait_ms=30.0, solver=solver) as service:
            futures = [service.submit(instance, "optop", config=QUICK)
                       for _ in range(5)]
            failures = 0
            for future in futures:
                with pytest.raises(RuntimeError):
                    future.result(timeout=30)
                failures += 1
        assert failures == 5


class TestLifecycle:
    def test_drain_waits_for_all_pending(self):
        with SolveService(max_wait_ms=1.0) as service:
            futures = [service.submit(
                random_linear_parallel(3, demand=1.0, seed=s), "optop",
                config=QUICK) for s in range(6)]
            assert service.drain(timeout=60)
            assert all(f.done() for f in futures)
            assert service.stats().pending == 0

    def test_submit_after_shutdown_raises(self):
        service = SolveService(max_wait_ms=1.0).start()
        service.shutdown(wait=True, timeout=30)
        with pytest.raises(ServiceClosedError):
            service.submit(pigou(), "optop")

    def test_hard_shutdown_fails_pending_futures(self):
        release = threading.Event()

        def stuck_solver(instances, strategy=None, *, config=None,
                         max_workers=None):
            release.wait(timeout=30)
            return solve_many(instances, strategy, config=config,
                              max_workers=max_workers)

        service = SolveService(max_wait_ms=0.0, max_batch=1,
                               solver=stuck_solver).start()
        blocked = service.submit(random_linear_parallel(3, demand=1.0,
                                                        seed=8),
                                 "optop", config=QUICK)
        time.sleep(0.05)
        queued = service.submit(random_linear_parallel(3, demand=1.0,
                                                       seed=9),
                                "optop", config=QUICK)
        service.shutdown(wait=False)
        release.set()
        with pytest.raises(ServiceClosedError):
            queued.result(timeout=30)
        # The in-flight request either finished or was failed; both are
        # legal, but the future must settle.
        assert blocked.done() or blocked.exception(timeout=30) is not None

    def test_context_manager_drains_on_clean_exit(self):
        with SolveService(max_wait_ms=1.0) as service:
            future = service.submit(pigou(), "optop", config=QUICK)
        assert future.done() and future.exception() is None

    def test_stats_snapshot_is_a_dataclass_with_dict_view(self):
        with SolveService(max_wait_ms=1.0) as service:
            service.solve(pigou(), "optop", config=QUICK, timeout=30)
            data = service.stats().to_dict()
        assert data["requests"] == 1
        assert data["consistent"] is True
        assert "cache" in data
