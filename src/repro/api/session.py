"""Solver sessions: single-instance dispatch, batch solving, result caching.

:func:`solve` is the one public entry point for "run this strategy on this
instance": it looks the strategy up in the registry, times the call and
returns a :class:`~repro.api.report.SolveReport`.  :func:`solve_many` calls
it on each instance of a batch, in order and in process.

Both consult a **result cache** keyed by ``(strategy, instance digest,
config)`` — the digest is a SHA-256 of the instance's canonical parameter
columns, so structurally equal instances (including duplicates inside one
batch) are solved once.  The cache is a thread-safe
:class:`repro.cache.LRUCache`; the process global is shared by default and
both entry points accept an injected ``cache`` (the serving layer passes its
own tier-1 instance).

Every fresh solve runs through :func:`execute`, the uncached executor;
:class:`repro.serve.SolveService` calls it directly, since its own tiered
cache sits in front.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import SolveConfig, resolve_config
from repro.api.registry import REGISTRY, get_strategy
from repro.api.report import SolveReport
from repro.cache import LRUCache
from repro.exceptions import ModelError
from repro.network import NetworkInstance, ParallelLinkInstance
from repro.serialization import instance_digest

__all__ = ["solve", "solve_many", "execute", "clear_cache", "cache_size",
           "cache_stats", "resolve_strategy_name", "CACHE_MAX_ENTRIES"]

#: Upper bound on cached reports; the least recently used entry is evicted
#: first, so long-running sweeps cannot grow memory without limit.
CACHE_MAX_ENTRIES = 4096

#: Process-global LRU result cache:
#: (strategy@generation, instance digest, config) -> report.  The strategy
#: generation invalidates entries when a name is re-registered with a new
#: implementation.  Thread-safe: get/put/counters all run under the cache's
#: internal lock, so concurrent solvers never tear the statistics.
_RESULT_CACHE = LRUCache(max_entries=CACHE_MAX_ENTRIES)


def cache_stats() -> Dict[str, int]:
    """Cumulative ``{"hits": ..., "misses": ...}`` of the result cache.

    A *hit* is a report served without running a solver (including
    duplicates inside one ``solve_many`` batch); a *miss* is a lookup that
    led to a solver call with caching enabled.  Counters are process-global
    and reset by :func:`clear_cache`.  Each report served through a cache
    carries only its own outcome, ``metadata["cache"] == {"hit": ...}``.
    """
    stats = _RESULT_CACHE.stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


def _with_cache_metadata(report: SolveReport, *, hit: Optional[bool],
                         wall_time: Optional[float] = None,
                         profile: Optional[dict] = None) -> SolveReport:
    """Attach the cache outcome to a report.

    The one copy a served report goes through
    (:meth:`SolveReport.stamped`, which normalises only the new entries):
    a fresh solve also sets its ``wall_time`` and ``profile`` here.
    ``hit=None`` (an uncached solve) leaves the cache record out.
    """
    entries = {}
    if profile is not None:
        entries["profile"] = profile
    if hit is not None:
        entries["cache"] = {"hit": hit}
    return report.stamped(wall_time=wall_time, **entries)


def _result_cache(cache: Optional[LRUCache]) -> LRUCache:
    """The cache a call uses: ``cache``, or the process-global one."""
    if cache is None:
        return _RESULT_CACHE
    if not isinstance(cache, LRUCache):
        raise ModelError(
            f"cache must be None or an LRUCache, got {cache!r}; to solve "
            f"without caching pass config=SolveConfig(cache=False)")
    return cache

#: Default strategy: the paper's Price-of-Optimum algorithm, which itself
#: dispatches between OpTop (parallel links) and MOP (networks).
_DEFAULT_STRATEGY = "optop"


def clear_cache() -> int:
    """Drop every cached report (and reset the hit/miss counters).

    Returns how many entries were evicted.
    """
    return _RESULT_CACHE.clear()


def cache_size() -> int:
    """Number of reports currently cached."""
    return len(_RESULT_CACHE)


def resolve_strategy_name(strategy: Optional[str]) -> str:
    """Map ``None`` / ``"auto"`` to the default strategy name."""
    return _DEFAULT_STRATEGY if strategy in (None, "auto") else strategy


_resolve_name = resolve_strategy_name  # internal alias, kept for brevity


def _cache_key(name: str, instance, config: SolveConfig,
               ) -> Optional[Tuple[str, str, str]]:
    """Cache key for the call, or ``None`` when the instance has no digest."""
    try:
        digest = instance_digest(instance)
    except ModelError:
        return None
    return (f"{name}@{REGISTRY.generation(name)}", digest, config.to_json())


def execute(instance, name: str, config: SolveConfig,
            keyed: bool) -> SolveReport:
    """Run the strategy without touching any cache; times the call.

    ``name`` must be a registered strategy name (already resolved from
    ``None``/``"auto"``).  A ``keyed`` solve — one whose instance has a
    digest and whose config enables caching — gets a ``hit=False`` cache
    record, exactly as :func:`solve` stamps a cache miss.  With
    ``config.profile`` set, the strategy runs under a fresh
    :class:`~repro.obs.profiling.PhaseRecorder` — installed *here* because
    this function executes wherever the solve actually runs (the calling
    thread, a service dispatcher, or a pool worker process) — and the
    per-phase kernel timings land in ``metadata["profile"]``.
    """
    fn = get_strategy(name)
    hit = False if keyed else None
    start = time.perf_counter()
    if not config.profile:
        report = fn(instance, config)
        return _with_cache_metadata(report, hit=hit,
                                    wall_time=time.perf_counter() - start)
    from repro.obs.profiling import profiled
    with profiled() as recorder:
        report = fn(instance, config)
    wall_time = time.perf_counter() - start
    return _with_cache_metadata(
        report, hit=hit, wall_time=wall_time,
        profile=recorder.to_dict(total_seconds=wall_time))


def solve(instance, strategy: Optional[str] = None, *,
          config: Optional[SolveConfig] = None,
          cache: Optional[LRUCache] = None) -> SolveReport:
    """Solve one instance with a registered strategy.

    Parameters
    ----------
    instance:
        A parallel-link or network instance.
    strategy:
        Registry name (see :func:`repro.api.available_strategies`); ``None``
        or ``"auto"`` selects the Price-of-Optimum algorithm.
    config:
        Solver settings; defaults to ``SolveConfig()``.
    cache:
        Result cache (an :class:`~repro.cache.LRUCache`) to consult/fill;
        defaults to the process-global one.  To solve without caching,
        pass ``config=SolveConfig(cache=False)``.

    Returns
    -------
    SolveReport
        The unified, JSON-serialisable result record.
    """
    config = resolve_config(config)
    name = _resolve_name(strategy)
    get_strategy(name)  # fail fast on unknown strategies
    result_cache = _result_cache(cache)
    key = _cache_key(name, instance, config) if config.cache else None
    if key is not None:
        cached = result_cache.get(key)  # counts the hit or the miss
        if cached is not None:
            return _with_cache_metadata(cached, hit=True)
    report = execute(instance, name, config, key is not None)
    if key is not None:
        result_cache.put(key, report)
    return report


def solve_many(instances: Iterable[object], strategy: Optional[str] = None, *,
               config: Optional[SolveConfig] = None,
               cache: Optional[LRUCache] = None) -> List[SolveReport]:
    """Solve a batch of instances in order, one :func:`solve` call each.

    Parameters
    ----------
    instances:
        Any iterable of parallel-link / network instances (a single
        instance raises :class:`ModelError`).
    strategy:
        Registry name shared by the whole batch (``None``/``"auto"`` selects
        the Price-of-Optimum algorithm).
    config:
        Solver settings shared by the whole batch.  With ``config.cache``
        enabled (the default), duplicates and previously solved instances
        are served from the cache, so each distinct instance digest is
        solved once — unless the batch holds more than
        :data:`CACHE_MAX_ENTRIES` distinct instances, when a duplicate whose
        first copy was already evicted is solved again.
    cache:
        Result cache (an :class:`~repro.cache.LRUCache`) to consult/fill;
        defaults to the process-global one.  Callers with their own
        caching discipline inject a private
        :class:`~repro.cache.LRUCache` instead.

    Returns
    -------
    list[SolveReport]
        Reports aligned with the input order.
    """
    config = resolve_config(config)
    name = _resolve_name(strategy)
    get_strategy(name)  # fail fast, even on an empty batch
    result_cache = _result_cache(cache)
    if isinstance(instances, (ParallelLinkInstance, NetworkInstance)):
        raise ModelError("solve_many takes an iterable of instances, got a "
                         "single instance; use solve() for one instance")
    try:
        batch = iter(instances)
    except TypeError:
        raise ModelError(f"solve_many takes an iterable of instances, got "
                         f"{type(instances).__name__}") from None
    return [solve(instance, name, config=config, cache=result_cache)
            for instance in batch]
