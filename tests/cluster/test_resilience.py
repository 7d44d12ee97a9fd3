"""Cluster resilience: wire deadlines, breakers, supervised respawn.

Real worker processes are spawned, so the module lives in the slow lane
with the lifecycle tests.
"""

from __future__ import annotations

import time

import pytest

from repro.config import SolveConfig
from repro.cluster import start_cluster
from repro.exceptions import ServiceTimeoutError
from repro.serve.bench import build_workload

pytestmark = pytest.mark.slow

CONFIG = SolveConfig(compute_nash=False)


def make_stream(num_requests=30, num_distinct=12, seed=4):
    instances, schedule = build_workload(
        num_requests=num_requests, num_distinct=num_distinct,
        num_links=3, seed=seed)
    return [instances[i] for i in schedule]


class TestWireDeadlines:
    def test_expired_deadline_times_out_before_the_wire(self, tmp_path):
        stream = make_stream(num_requests=4, num_distinct=4)
        with start_cluster(n_workers=2,
                           store_dir=str(tmp_path / "store")) as cluster:
            future = cluster.submit(stream[0], "optop", config=CONFIG,
                                    deadline=time.monotonic() - 0.1)
            with pytest.raises(ServiceTimeoutError):
                future.result(timeout=60.0)
            gateway = cluster.stats()["gateway"]
        assert gateway["timeouts"] >= 1

    def test_generous_deadline_solves_end_to_end(self, tmp_path):
        stream = make_stream(num_requests=6, num_distinct=6)
        with start_cluster(n_workers=2,
                           store_dir=str(tmp_path / "store")) as cluster:
            reports = [
                cluster.submit(instance, "optop", config=CONFIG,
                               deadline=time.monotonic() + 120.0)
                .result(timeout=120.0)
                for instance in stream
            ]
            gateway = cluster.stats()["gateway"]
        assert all(report.strategy == "optop" for report in reports)
        assert gateway["timeouts"] == 0


class TestBreakerFailover:
    def test_worker_death_after_health_check_still_fails_over(self,
                                                              tmp_path):
        # The classic TOCTOU: /health said alive, then the worker died
        # before /solve. The connection error must open the breaker and
        # re-route — callers never see a raw socket error.
        stream = make_stream(num_requests=24, num_distinct=24)
        with start_cluster(n_workers=2,
                           store_dir=str(tmp_path / "store")) as cluster:
            health = cluster.health()
            assert health["status"] == "ok"
            assert all(entry["alive"] for entry in health["workers"].values())
            cluster.kill_worker(0)
            reports = [
                cluster.submit(instance, "optop", config=CONFIG)
                .result(timeout=300.0)
                for instance in stream
            ]
            stats = cluster.stats()
        assert all(report is not None for report in reports)
        assert stats["gateway"]["breaker_opens"] >= 1
        assert stats["merged"]["consistent"] is True


class TestSupervisedRespawn:
    def test_sigkilled_worker_respawns_and_serves_warm(self, tmp_path):
        stream = make_stream(num_requests=16, num_distinct=8)
        with start_cluster(n_workers=2, store_dir=str(tmp_path / "store"),
                           supervise=True) as cluster:
            cluster.solve_many(stream, "optop", config=CONFIG)
            # Refresh so the doomed incarnation's snapshot is on record —
            # the respawn archives it into ``retired_stats``.
            cluster.stats()
            dead = cluster.kill_worker(0)

            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                stats = cluster.stats()
                respawned = stats["supervisor"]["worker_respawns"] >= 1
                alive = stats["workers"][dead]["alive"]
                if respawned and alive:
                    break
                time.sleep(0.2)
            else:
                pytest.fail("supervisor never respawned the killed worker")

            before = cluster.merged_stats()
            cluster.solve_many(stream, "optop", config=CONFIG)
            after = cluster.merged_stats()
            stats = cluster.stats()

        # The respawned worker reattached to the shared store, so the
        # replay is pure cache traffic — no solver work is repeated.  A
        # duplicate key that attaches to an in-flight tier-2 probe counts as
        # coalesced rather than as a hit, so the two buckets are summed.
        assert after.enqueued - before.enqueued == 0
        assert ((after.hits + after.coalesced)
                - (before.hits + before.coalesced)) == len(stream)
        assert stats["workers"][dead]["respawns"] >= 1
        assert stats["supervisor"]["worker_respawns"] >= 1
        assert after.consistent
