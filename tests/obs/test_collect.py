"""Collectors: the `/metrics` view must equal the legacy stats exactly."""

from __future__ import annotations

import json

import pytest

from repro.api import SolveConfig, clear_cache
from repro.instances import pigou, random_linear_parallel
from repro.obs import Observability
from repro.obs.collect import (
    collect_cluster_stats,
    collect_service_stats,
    merged_snapshot,
    render_merged,
)
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.serve import SolveService
from repro.serve.service import ServiceStats
from repro.study.store import ArtifactStore

QUICK = SolveConfig(compute_nash=False)


@pytest.fixture(autouse=True)
def fresh_session_cache():
    clear_cache()
    yield
    clear_cache()


def series_value(parsed, name, **labels):
    return parsed[name][json.dumps(
        {k: str(v) for k, v in labels.items()}, sort_keys=True)]


class TestServiceEquivalence:
    def drive_service(self, tmp_path) -> ServiceStats:
        store = ArtifactStore(tmp_path / "store")
        with SolveService(store=store, max_wait_ms=1.0) as service:
            instance = random_linear_parallel(4, demand=2.0, seed=3)
            service.solve(instance, "optop", config=QUICK, timeout=30)
            service.solve(instance, "optop", config=QUICK, timeout=30)
            service.solve(pigou(), "optop", config=QUICK, timeout=30)
            return service.stats()

    def test_every_legacy_counter_reproduced_exactly(self, tmp_path):
        stats = self.drive_service(tmp_path)
        parsed = parse_prometheus(
            collect_service_stats(stats).render_prometheus())
        data = stats.to_dict()

        assert parsed["repro_requests_total"]["{}"] == data["requests"]
        assert series_value(parsed, "repro_cache_hits_total",
                            tier="tier1") == data["tier1_hits"]
        assert series_value(parsed, "repro_cache_hits_total",
                            tier="tier2") == data["tier2_hits"]
        assert parsed["repro_coalesced_total"]["{}"] == data["coalesced"]
        assert parsed["repro_enqueued_total"]["{}"] == data["enqueued"]
        assert parsed["repro_rejected_total"]["{}"] == data["rejected"]
        assert parsed["repro_batches_total"]["{}"] == data["batches"]
        assert parsed["repro_batched_requests_total"]["{}"] == \
            data["batched_requests"]
        assert parsed["repro_queue_peak"]["{}"] == data["queue_peak"]
        assert parsed["repro_pending"]["{}"] == data["pending"]
        assert parsed["repro_probing"]["{}"] == data["probing"]
        for key in ("batch_failures", "cache_put_failures", "pool_restarts",
                    "worker_restarts", "timeouts", "shutdown_timeouts"):
            assert parsed[f"repro_{key}_total"]["{}"] == data[key], key

        cache = data["cache"]
        assert set(cache) == {"memory", "store"}
        for key in ("hits", "misses", "evictions"):
            assert parsed[f"repro_memory_cache_{key}_total"]["{}"] == \
                cache["memory"][key], key
        for key in ("size", "max_entries"):
            assert parsed[f"repro_memory_cache_{key}"]["{}"] == \
                cache["memory"][key], key
        for key in ("hits", "misses", "writes", "skipped_writes", "corrupt"):
            assert parsed[f"repro_store_{key}_total"]["{}"] == \
                cache["store"][key], key
        # The tiered cache keeps no counters of its own, so it projects
        # no series of its own either.
        assert not [name for name in parsed
                    if name.startswith("repro_tiered_cache")]

    def test_accepts_object_or_mapping(self, tmp_path):
        stats = self.drive_service(tmp_path)
        from_object = collect_service_stats(stats).snapshot()
        from_mapping = collect_service_stats(stats.to_dict()).snapshot()
        assert from_object == from_mapping


class TestClusterEquivalence:
    def cluster_stats(self):
        return {
            "gateway": {"requests": 50, "completed": 48, "remote_errors": 1,
                        "overload_retries": 3, "reroutes": 2, "failures": 2,
                        "timeouts": 1, "breaker_opens": 2,
                        "breaker_closes": 1, "unavailable_waits": 0,
                        "worker_respawns": 1},
            "workers": {
                "127.0.0.1:1001": {"alive": True, "breaker_open": False,
                                   "forwarded": 30, "respawns": 1,
                                   "stats": None},
                "127.0.0.1:1002": {"alive": False, "breaker_open": True,
                                   "forwarded": 20, "respawns": 0,
                                   "stats": None},
            },
            "merged": ServiceStats(requests=50, tier1_hits=20, tier2_hits=5,
                                   enqueued=25).to_dict(),
            "supervisor": {"enabled": True, "max_respawns": 3,
                           "worker_respawns": 1, "respawn_failures": 0},
        }

    def test_gateway_workers_supervisor_and_merged(self):
        stats = self.cluster_stats()
        parsed = parse_prometheus(
            collect_cluster_stats(stats).render_prometheus())
        for key, name in (
                ("requests", "repro_gateway_requests_total"),
                ("completed", "repro_gateway_completed_total"),
                ("overload_retries", "repro_gateway_overload_retries_total"),
                ("reroutes", "repro_gateway_reroutes_total"),
                ("timeouts", "repro_gateway_timeouts_total"),
                ("breaker_opens", "repro_gateway_breaker_opens_total"),
                ("worker_respawns", "repro_gateway_worker_respawns_total")):
            assert parsed[name]["{}"] == stats["gateway"][key], name
        assert series_value(parsed, "repro_worker_alive",
                            node="127.0.0.1:1001") == 1
        assert series_value(parsed, "repro_worker_alive",
                            node="127.0.0.1:1002") == 0
        assert series_value(parsed, "repro_worker_breaker_open",
                            node="127.0.0.1:1002") == 1
        assert series_value(parsed, "repro_worker_forwarded_total",
                            node="127.0.0.1:1001") == 30
        assert parsed["repro_supervisor_respawns_total"]["{}"] == 1
        # The merged ServiceStats section rides along at equality too.
        assert parsed["repro_requests_total"]["{}"] == 50
        assert series_value(parsed, "repro_cache_hits_total",
                            tier="tier1") == 20

    def test_chaos_report_embeds_the_same_numbers(self):
        stats = self.cluster_stats()
        snapshot = collect_cluster_stats(stats).snapshot()
        assert snapshot["repro_gateway_requests_total"]["samples"] == [
            {"labels": {}, "value": 50}]
        json.dumps(snapshot)  # ChaosReport.to_dict must stay serializable


class TestMergedViews:
    def test_render_merged_concatenates_disjoint_registries(self):
        obs = Observability(service="svc")
        obs.registry.counter("repro_live_total").inc(3)
        scraped = MetricsRegistry()
        scraped.counter("repro_requests_total").set_exact(9)
        parsed = parse_prometheus(render_merged(scraped, obs.registry))
        assert parsed["repro_requests_total"]["{}"] == 9
        assert parsed["repro_live_total"]["{}"] == 3

    def test_render_merged_skips_none(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc()
        assert "repro_x_total 1" in render_merged(registry, None)
        assert render_merged(None) == "\n"

    def test_merged_snapshot_unions_names(self):
        a = MetricsRegistry()
        a.counter("repro_a_total").inc()
        b = MetricsRegistry()
        b.counter("repro_b_total").inc(2)
        merged = merged_snapshot(a, None, b)
        assert set(merged) == {"repro_a_total", "repro_b_total"}
