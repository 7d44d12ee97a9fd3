"""Re-home the platform's legacy counters onto the metrics registry.

Every layer below :mod:`repro.obs` already keeps exact accounting behind
a public ``stats()`` API (:class:`repro.serve.ServiceStats`, the tiered
cache, :class:`repro.study.ArtifactStore`, the gateway's breaker/retry
counters, the supervisor).  Those APIs are load-bearing — tests, benches
and the chaos harness consume them — so rather than moving the counters,
the collectors here project a ``stats()`` snapshot onto canonically-named
registry metrics **at numeric identity**: the ``/metrics`` exposition on
a worker or the gateway reproduces every legacy counter exactly (asserted
key-by-key by ``tests/obs/test_collect.py``).

Naming scheme (see ``docs/subsystems/obs.md`` for the full table):

* ``repro_*`` — per-shard :class:`~repro.serve.SolveService` counters
  (``repro_requests_total``, ``repro_cache_hits_total{tier=...}``, ...);
* ``repro_memory_cache_*`` / ``repro_store_*`` — the in-memory LRU
  tier and the artifact store;
* ``repro_gateway_*`` — gateway retry/breaker accounting, plus per-node
  ``repro_worker_*{node="host:port"}`` series;
* ``repro_supervisor_*`` — respawn budget accounting.

Monotonic legacy counters land on :class:`~repro.obs.metrics.Counter`
via ``set_exact`` (which refuses to regress); point-in-time values
(queue peaks, breaker state, liveness) land on gauges.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "collect_cluster_stats",
    "collect_service_stats",
    "merged_snapshot",
    "render_merged",
]

#: ServiceStats counter -> (metric name, kind).  ``tier1_hits`` and
#: ``tier2_hits`` are special-cased into one labeled family below.
_SERVICE_SERIES = (
    ("requests", "repro_requests_total", "counter",
     "Requests accepted by the shard's SolveService"),
    ("coalesced", "repro_coalesced_total", "counter",
     "Requests folded into an identical in-flight computation"),
    ("enqueued", "repro_enqueued_total", "counter",
     "Requests that missed every cache tier and entered the solve queue"),
    ("rejected", "repro_rejected_total", "counter",
     "Requests refused by backpressure (queue full or service closed)"),
    ("probing", "repro_probing", "gauge",
     "Requests currently probing the store tier"),
    ("solve_failures", "repro_solve_failures_total", "counter",
     "Solves that raised"),
    ("cache_put_failures", "repro_cache_put_failures_total", "counter",
     "Write-through cache puts that raised"),
    ("worker_restarts", "repro_worker_restarts_total", "counter",
     "Dispatch worker thread restarts"),
    ("timeouts", "repro_timeouts_total", "counter",
     "Requests failed because their deadline expired before execution"),
    ("shutdown_timeouts", "repro_shutdown_timeouts_total", "counter",
     "Shutdowns whose dispatcher outlived its join timeout"),
    ("queue_peak", "repro_queue_peak", "gauge",
     "High-water mark of the solve queue"),
    ("pending", "repro_pending", "gauge",
     "Requests currently queued or executing"),
)

_MEMORY_SERIES = (
    ("hits", "repro_memory_cache_hits_total", "counter"),
    ("misses", "repro_memory_cache_misses_total", "counter"),
    ("evictions", "repro_memory_cache_evictions_total", "counter"),
    ("size", "repro_memory_cache_size", "gauge"),
    ("max_entries", "repro_memory_cache_max_entries", "gauge"),
)

_STORE_SERIES = (
    ("hits", "repro_store_hits_total"),
    ("misses", "repro_store_misses_total"),
    ("writes", "repro_store_writes_total"),
    ("skipped_writes", "repro_store_skipped_writes_total"),
    ("corrupt", "repro_store_corrupt_total"),
)

_GATEWAY_SERIES = (
    ("requests", "repro_gateway_requests_total"),
    ("completed", "repro_gateway_completed_total"),
    ("remote_errors", "repro_gateway_remote_errors_total"),
    ("overload_retries", "repro_gateway_overload_retries_total"),
    ("reroutes", "repro_gateway_reroutes_total"),
    ("failures", "repro_gateway_failures_total"),
    ("timeouts", "repro_gateway_timeouts_total"),
    ("breaker_opens", "repro_gateway_breaker_opens_total"),
    ("breaker_closes", "repro_gateway_breaker_closes_total"),
    ("unavailable_waits", "repro_gateway_unavailable_waits_total"),
    ("worker_respawns", "repro_gateway_worker_respawns_total"),
)


def _stats_dict(stats: Any) -> Mapping[str, Any]:
    if hasattr(stats, "to_dict"):
        return stats.to_dict()
    return stats


def collect_service_stats(stats: Any,
                          registry: Optional[MetricsRegistry] = None
                          ) -> MetricsRegistry:
    """Project one :class:`~repro.serve.ServiceStats` snapshot (object or
    ``to_dict()`` mapping) onto a registry, at numeric identity."""
    data = _stats_dict(stats)
    registry = registry or MetricsRegistry()

    for key, name, kind, help_text in _SERVICE_SERIES:
        value = data.get(key, 0)
        if kind == "counter":
            registry.counter(name, help_text).set_exact(value)
        else:
            registry.gauge(name, help_text).set(value)
    hits = registry.counter(
        "repro_cache_hits_total",
        "Requests served from a cache tier, by tier", labels=("tier",))
    hits.labels(tier="tier1").set_exact(data.get("tier1_hits", 0))
    hits.labels(tier="tier2").set_exact(data.get("tier2_hits", 0))

    cache = data.get("cache") or {}
    if cache:
        _collect_cache_tiers(cache, registry)
    return registry


def _collect_cache_tiers(cache: Mapping[str, Any],
                         registry: MetricsRegistry) -> None:
    memory = cache.get("memory") or {}
    for key, name, kind in _MEMORY_SERIES:
        if kind == "counter":
            registry.counter(name).set_exact(memory.get(key, 0))
        else:
            registry.gauge(name).set(memory.get(key, 0))

    store = cache.get("store")
    if store:
        for key, name in _STORE_SERIES:
            registry.counter(name).set_exact(store.get(key, 0))


def collect_cluster_stats(stats: Mapping[str, Any],
                          registry: Optional[MetricsRegistry] = None
                          ) -> MetricsRegistry:
    """Project a gateway/cluster ``stats()`` mapping (the shape returned
    by :meth:`repro.cluster.ClusterGateway.stats`, optionally with the
    launcher's ``supervisor`` section) onto a registry.

    The ``merged`` cross-shard :class:`~repro.serve.ServiceStats` section
    lands via :func:`collect_service_stats`, so a gateway ``/metrics``
    scrape answers cluster-wide questions (``repro_requests_total`` is
    the fleet total) while per-node state stays addressable through the
    ``node`` label.
    """
    registry = registry or MetricsRegistry()
    gateway = stats.get("gateway") or {}
    for key, name in _GATEWAY_SERIES:
        registry.counter(name).set_exact(gateway.get(key, 0))

    workers = stats.get("workers") or {}
    if workers:
        alive = registry.gauge("repro_worker_alive",
                               "Worker liveness as seen by the gateway",
                               labels=("node",))
        breaker = registry.gauge("repro_worker_breaker_open",
                                 "Whether the node's circuit breaker is open",
                                 labels=("node",))
        forwarded = registry.counter("repro_worker_forwarded_total",
                                     "Requests forwarded to the node",
                                     labels=("node",))
        respawns = registry.counter("repro_worker_respawns_total",
                                    "Process respawns recorded for the node",
                                    labels=("node",))
        for node, entry in sorted(workers.items()):
            alive.labels(node=node).set(1 if entry.get("alive") else 0)
            breaker.labels(node=node).set(
                1 if entry.get("breaker_open") else 0)
            forwarded.labels(node=node).set_exact(entry.get("forwarded", 0))
            respawns.labels(node=node).set_exact(entry.get("respawns", 0))

    supervisor = stats.get("supervisor") or {}
    if supervisor:
        registry.gauge("repro_supervisor_enabled").set(
            1 if supervisor.get("enabled") else 0)
        registry.gauge("repro_supervisor_max_respawns").set(
            supervisor.get("max_respawns", 0))
        registry.counter("repro_supervisor_respawns_total").set_exact(
            supervisor.get("worker_respawns", 0))
        registry.counter("repro_supervisor_respawn_failures_total").set_exact(
            supervisor.get("respawn_failures", 0))

    merged = stats.get("merged")
    if merged:
        collect_service_stats(merged, registry)
    return registry


def render_merged(*registries: Optional[MetricsRegistry]) -> str:
    """Concatenate expositions from disjoint registries (e.g. the scrape
    built from legacy ``stats()`` plus a live latency-histogram registry).
    """
    parts = [registry.render_prometheus()
             for registry in registries if registry is not None]
    return "".join(parts) if parts else "\n"


def merged_snapshot(*registries: Optional[MetricsRegistry]
                    ) -> Dict[str, Any]:
    """Merge JSON snapshots of disjoint registries into one mapping."""
    out: Dict[str, Any] = {}
    for registry in registries:
        if registry is not None:
            out.update(registry.snapshot())
    return out
