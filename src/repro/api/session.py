"""Solver sessions: single-instance dispatch, batch fan-out, result caching.

:func:`solve` is the one public entry point for "run this strategy on this
instance": it looks the strategy up in the registry, times the call and
returns a :class:`~repro.api.report.SolveReport`.  :func:`solve_many` maps it
over a batch with two production conveniences:

* a **result cache** keyed by ``(strategy, instance digest, config)`` — the
  digest is a SHA-256 of the instance's canonical parameter columns, so
  structurally equal instances (including duplicates inside one batch) are
  solved exactly once.
  The cache is a thread-safe :class:`repro.cache.LRUCache`; the process
  global is shared by default and both entry points accept an injected
  ``cache`` (the serving layer passes its own tier-1 instance);
* **process-pool fan-out** via :class:`concurrent.futures.ProcessPoolExecutor`
  for cache misses, since the solvers are CPU-bound and release no GIL.

Both run every fresh solve through :func:`execute`, the uncached executor;
:class:`repro.serve.SolveService` calls it directly, since its own tiered
cache sits in front.

Strategies registered at runtime (e.g. test stubs) are visible to worker
processes only on fork-based platforms: workers resolve strategies by
*name*, and only the built-in names are re-registered when a spawned worker
imports the package.  :func:`solve_many` therefore detects the combination
of a non-fork start method and a runtime-registered strategy and falls back
to sequential in-process execution with a warning instead of failing inside
the worker.  Pass ``max_workers=0`` to force sequential execution
explicitly.
"""

from __future__ import annotations

import multiprocessing
import numbers
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import SolveConfig, resolve_config
from repro.api.registry import REGISTRY, get_strategy
from repro.api.report import SolveReport
from repro.cache import LRUCache
from repro.exceptions import ModelError
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


def _start_method() -> str:
    """The multiprocessing start method a fresh pool would use."""
    return multiprocessing.get_start_method(allow_none=False)


#: Strategy names registered while :mod:`repro.api` itself was importing.
#: A spawned worker re-creates exactly these when it imports the package,
#: so only they resolve by name inside pool workers;
#: :mod:`repro.api.__init__` fills this in right after the built-in
#: registrations.
_IMPORT_REGISTERED_NAMES: Optional[frozenset] = None


def _mark_import_registered(names: Iterable[str]) -> None:
    """Record the strategy names that exist after the package import."""
    global _IMPORT_REGISTERED_NAMES
    _IMPORT_REGISTERED_NAMES = frozenset(names)


def _pool_unsafe_reason(name: str) -> Optional[str]:
    """Why a process pool cannot execute strategy ``name``, or ``None``.

    Workers look strategies up by *name* after importing :mod:`repro.api`,
    which re-registers only the built-in strategies.  Under the fork start
    method runtime registrations are inherited from the parent; under spawn
    (Windows, macOS default) or forkserver they are not, so any name
    registered after import — including aliases of package functions and
    re-registered built-ins — would misresolve inside the worker.
    """
    method = _start_method()
    if method == "fork":
        return None
    if (_IMPORT_REGISTERED_NAMES is not None
            and name in _IMPORT_REGISTERED_NAMES
            and REGISTRY.generation(name) == 1):
        return None
    return (f"strategy {name!r} was registered at runtime and is invisible "
            f"to {method!r}-started worker processes")


def _check_max_workers(max_workers: Optional[int]) -> Optional[int]:
    """``max_workers`` when it is ``None`` or an int >= 0.

    Anything else (a negative int, a float, a string, a bool) raises
    :class:`ModelError` instead of failing later inside the process pool.
    """
    if max_workers is None:
        return None
    if (isinstance(max_workers, numbers.Integral)
            and not isinstance(max_workers, bool) and max_workers >= 0):
        return int(max_workers)
    raise ModelError(
        f"max_workers must be None or an int >= 0, got {max_workers!r}")


def solve_many(instances: Iterable[object], strategy: Optional[str] = None, *,
               config: Optional[SolveConfig] = None,
               max_workers: Optional[int] = None,
               cache: Optional[LRUCache] = None) -> List[SolveReport]:
    """Solve a batch of instances, reusing cached results and fanning out.

    Parameters
    ----------
    instances:
        Any iterable of parallel-link / network instances.
    strategy:
        Registry name shared by the whole batch (``None``/``"auto"`` selects
        the Price-of-Optimum algorithm).
    config:
        Solver settings shared by the whole batch.  With ``config.cache``
        enabled (the default), each distinct instance digest is solved exactly
        once — duplicates and previously solved instances are served from the
        cache.
    max_workers:
        Size of the :class:`~concurrent.futures.ProcessPoolExecutor` used for
        cache misses: ``None`` or an int >= 0 (anything else raises
        :class:`ModelError`).  ``None`` picks ``min(pending, cpu_count)``;
        ``0`` or ``1`` forces sequential in-process execution (required for
        strategies registered at runtime on non-fork platforms).
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
    max_workers = _check_max_workers(max_workers)
    name = _resolve_name(strategy)
    get_strategy(name)  # fail fast on unknown strategies, before forking
    result_cache = _result_cache(cache)
    batch = list(instances)
    reports: List[Optional[SolveReport]] = [None] * len(batch)

    pending: List[int] = []
    keys: List[Optional[Tuple[str, str, str]]] = [None] * len(batch)
    first_seen: Dict[Tuple[str, str, str], int] = {}
    duplicates: List[Tuple[int, int]] = []  # (index, index of first occurrence)
    if config.cache:
        for i, instance in enumerate(batch):
            key = _cache_key(name, instance, config)
            keys[i] = key
            if key is not None and key in first_seen:
                # In-batch duplicate of a pending solve; its hit is recorded
                # when the first occurrence's report is copied below.
                duplicates.append((i, first_seen[key]))
                continue
            cached = result_cache.get(key) if key is not None else None
            if cached is not None:
                reports[i] = _with_cache_metadata(cached, hit=True)
            else:
                if key is not None:
                    first_seen[key] = i
                pending.append(i)
    else:
        pending = list(range(len(batch)))
    # Whether each fresh report gets a cache record (none without a digest).
    keyed = [key is not None for key in keys]

    workers = max_workers
    if workers is None:
        workers = min(len(pending), os.cpu_count() or 1)
    if workers > 1 and len(pending) > 1:
        unsafe = _pool_unsafe_reason(name)
        if unsafe is not None:
            warnings.warn(
                f"solve_many: falling back to sequential in-process "
                f"execution; {unsafe}", RuntimeWarning, stacklevel=2)
            workers = 1
    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = pool.map(execute, [batch[i] for i in pending],
                              repeat(name), repeat(config),
                              [keyed[i] for i in pending])
            for i, report in zip(pending, solved):
                reports[i] = report
    else:
        # The scan above already recorded these lookups as misses, so
        # run the strategy directly instead of re-probing through
        # solve() (which would double-count).
        for i in pending:
            reports[i] = execute(batch[i], name, config, keyed[i])

    for i in pending:
        if keys[i] is not None:
            result_cache.put(keys[i], reports[i])

    for i, j in duplicates:
        # Structural duplicates inside the batch were solved once; each
        # duplicate gets its own copy of the first occurrence's report with
        # a hit=True cache record, exactly like a report served from the
        # cross-batch cache.
        result_cache.note(hits=1)
        reports[i] = _with_cache_metadata(reports[j], hit=True)
    missing = [i for i, report in enumerate(reports) if report is None]
    assert not missing, f"solve_many left unfilled slots: {missing}"
    return reports
