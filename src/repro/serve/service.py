"""`SolveService`: a coalescing, tier-cached front-end over the solvers.

The session layer (:mod:`repro.api.session`) is a blocking one-shot call
path; this module turns it into a *service*:

* :meth:`SolveService.submit` returns a :class:`concurrent.futures.Future`
  immediately.  Cache hits resolve synchronously; misses enter a **bounded
  request queue** (backpressure: a full queue raises
  :class:`~repro.exceptions.ServiceOverloadedError` instead of growing
  memory without limit).
* A dispatcher thread takes one request off the queue at a time and
  solves it at once through :func:`repro.api.session.execute`, the session
  layer's uncached executor, so a served report is the one
  :func:`repro.api.solve` returns for the same instance.  Parallel serving
  scales out through cluster workers (:mod:`repro.cluster`), one service
  per worker.
* Concurrent requests for the same ``(instance digest, strategy, config)``
  are **coalesced**: the first enters the queue, the rest attach their
  futures to the in-flight entry and are all resolved by the single solve.
* Results are written through a :class:`~repro.serve.cache.TieredCache`
  (tier-1 in-memory LRU, tier-2 on-disk artifact store), so a warm service
  answers repeated traffic without any solver work and a restarted one
  re-warms from disk.
* **Lifecycle**: :meth:`start` / :meth:`drain` / :meth:`shutdown`.  A solve
  that raises fails only its own request's futures; a dispatcher thread
  that dies is restarted on the next submit.  All of it is counted in
  :class:`ServiceStats`.

Every request falls in exactly one accounting bucket — tier-1 hit, tier-2
hit, coalesced, enqueued, rejected, or (transiently, while its tier-2 probe
runs outside the lock) probing — so :attr:`ServiceStats.consistent` holds
at any instant, under any interleaving.
"""

from __future__ import annotations

import logging
import numbers
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.config import SolveConfig, resolve_config
from repro.api.registry import get_strategy
from repro.api.report import SolveReport
from repro.api.session import execute, resolve_strategy_name
from repro.exceptions import (
    ModelError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.serialization import instance_digest
from repro.serve.cache import TieredCache
from repro.study.store import ArtifactStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector
    from repro.obs import Observability

__all__ = ["SolveService", "ServiceStats", "check_batching"]

logger = logging.getLogger(__name__)


def check_batching(max_queue: int) -> int:
    """Validated ``max_queue`` of a service.

    ``max_queue`` must be an int >= 0 (0 = unbounded); anything else
    raises :class:`ModelError`.  :func:`repro.cluster.start_cluster` runs
    it before it spawns a worker.
    """
    if (not isinstance(max_queue, numbers.Integral)
            or isinstance(max_queue, bool) or max_queue < 0):
        raise ModelError(f"max_queue must be an int >= 0, got {max_queue!r}")
    return int(max_queue)


@dataclass(frozen=True)
class ServiceStats:
    """Atomic snapshot of one :class:`SolveService`'s counters.

    ``requests`` partitions exactly into ``tier1_hits + tier2_hits +
    coalesced + enqueued + rejected + probing`` (:attr:`consistent`).
    ``cache`` nests the tiers' own probe counters
    (:meth:`~repro.serve.cache.TieredCache.stats`): on an idle service the
    LRU's ``hits`` equal ``tier1_hits``, and a private store's ``hits`` /
    ``misses`` equal ``tier2_hits`` / ``enqueued`` (for keyed requests).
    """

    #: Total ``submit`` calls (including rejected ones).
    requests: int = 0
    #: Served synchronously from the in-memory LRU (tier 1).
    tier1_hits: int = 0
    #: Served synchronously from the artifact store (tier 2, promoted).
    tier2_hits: int = 0
    #: Attached to an already in-flight solve for the same key.
    coalesced: int = 0
    #: Entered the request queue (reached, or will reach, the solver).
    enqueued: int = 0
    #: Refused: the bounded queue was full (backpressure), or an internal
    #: error aborted the request before it reached the queue.
    rejected: int = 0
    #: Mid-flight snapshot artefact: requests currently probing tier 2
    #: (their bucket — tier-2 hit, enqueued or rejected — is not decided
    #: yet).  Zero whenever no submit() call is executing.
    probing: int = 0
    #: Solves that raised; their futures carry the exception.
    solve_failures: int = 0
    #: Solved requests whose write-through cache insert failed (disk full,
    #: permissions); the reports were still served from the solve.
    cache_put_failures: int = 0
    #: Dispatcher crash recoveries (respawned threads or in-place retries).
    worker_restarts: int = 0
    #: Requests failed with :class:`~repro.exceptions.ServiceTimeoutError`
    #: because their end-to-end deadline expired (at submit or while
    #: queued).  A side counter, not a partition bucket: an expired
    #: submission lands in ``rejected``, an expired queued request stays
    #: in ``enqueued``.
    timeouts: int = 0
    #: Shutdowns whose dispatcher thread outlived its join timeout (a hung
    #: solve); logged as a warning and counted here.
    shutdown_timeouts: int = 0
    #: High-water mark of the request queue length.
    queue_peak: int = 0
    #: Requests submitted but not yet resolved at snapshot time.
    pending: int = 0
    #: The cache tiers' own counters: ``{"memory": ..., "store": ...}``.
    cache: Dict[str, Any] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        """Requests served from either cache tier without solver work."""
        return self.tier1_hits + self.tier2_hits

    @property
    def consistent(self) -> bool:
        """Exact bucket accounting: every request lands in one bucket.

        ``probing`` covers requests whose tier-2 probe is executing at
        snapshot time; it drains to zero once the submitting threads
        return.
        """
        return self.requests == (self.tier1_hits + self.tier2_hits
                                 + self.coalesced + self.enqueued
                                 + self.rejected + self.probing)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dictionary rendering (JSON-compatible)."""
        data = asdict(self)
        data["hits"] = self.hits
        data["consistent"] = self.consistent
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceStats":
        """Rebuild a snapshot from :meth:`to_dict` output.

        The derived fields (``hits``, ``consistent``) are recomputed, not
        trusted; any other unknown key raises
        :class:`~repro.exceptions.ModelError`.
        """
        known = {f.name for f in _STATS_FIELDS}
        unknown = set(data) - known - {"hits", "consistent"}
        if unknown:
            raise ModelError(
                f"unknown ServiceStats fields: {', '.join(sorted(unknown))}")
        return cls(**{key: value for key, value in data.items()
                      if key in known})

    def merge(self, *others: "ServiceStats") -> "ServiceStats":
        """Aggregate snapshots from several services into one.

        Additive counters sum — so the bucket partition ``requests ==
        tier1_hits + tier2_hits + coalesced + enqueued + rejected +
        probing`` survives aggregation exactly (each side satisfies it, so
        the sum does).  ``queue_peak`` takes the max (it is a high-water
        mark, not a flow), ``pending`` sums (in-flight work is additive),
        and the nested ``cache`` counters merge recursively: numeric
        leaves add, dicts recurse, mismatched shapes drop to ``None``.
        This is what the cluster gateway's aggregated ``/stats`` is built
        from.
        """
        merged: Dict[str, Any] = {
            f.name: getattr(self, f.name) for f in _STATS_FIELDS}
        for other in others:
            for f in _STATS_FIELDS:
                if f.name == "cache":
                    merged["cache"] = _merge_cache(merged["cache"],
                                                   other.cache)
                elif f.name == "queue_peak":
                    merged["queue_peak"] = max(merged["queue_peak"],
                                               other.queue_peak)
                else:
                    merged[f.name] += getattr(other, f.name)
        return ServiceStats(**merged)

    def since(self, before: "ServiceStats") -> "ServiceStats":
        """The counters accrued since the earlier snapshot ``before``.

        Additive fields are subtracted; ``queue_peak`` and ``pending`` are
        point-in-time values, taken from this snapshot; ``cache`` is empty
        (read the tiers' counters from a full snapshot).
        """
        diff = {f.name: getattr(self, f.name) - getattr(before, f.name)
                for f in _STATS_FIELDS
                if f.name not in ("queue_peak", "pending", "cache")}
        return ServiceStats(queue_peak=self.queue_peak, pending=self.pending,
                            **diff)


#: Declared fields of :class:`ServiceStats` (for from_dict/merge/since).
_STATS_FIELDS = tuple(ServiceStats.__dataclass_fields__.values())


def _merge_cache(left: Any, right: Any) -> Any:
    """Recursively merge two cache-counter trees (sum / recurse / drop)."""
    if isinstance(left, dict) and isinstance(right, dict):
        return {key: _merge_cache(left.get(key), right.get(key))
                for key in {*left, *right}}
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left + right
    if right is None:
        return left
    if left is None:
        return right
    return None


def _settle(future: Future, *, result=None, exception=None) -> None:
    """Resolve a future, tolerating one already settled elsewhere.

    A hard :meth:`SolveService.shutdown` can fail an in-flight future while
    its (stuck) solve eventually completes; the late resolution must then
    be a no-op, not a dispatcher crash.
    """
    try:
        if not future.set_running_or_notify_cancel():
            return
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
    except (InvalidStateError, RuntimeError):
        # set_running_or_notify_cancel raises RuntimeError (not
        # InvalidStateError) on a FINISHED future; both mean "someone else
        # settled it first", which is exactly the tolerated case.
        pass


class _Request:
    """One queued solve: its cache key (or ``None``) and its futures."""

    __slots__ = ("key", "digest", "instance", "strategy", "config", "future",
                 "deadline", "trace_id")

    def __init__(self, key, digest, instance, strategy, config, future,
                 deadline=None, trace_id=None):
        self.key = key
        self.digest = digest
        self.instance = instance
        self.strategy = strategy
        self.config = config
        self.future = future
        self.deadline = deadline
        self.trace_id = trace_id


class SolveService:
    """Coalescing, tier-cached, backpressured solve front-end.

    Parameters
    ----------
    store:
        Optional :class:`~repro.study.store.ArtifactStore` used as the
        tier-2 cache (shared with the study pipeline).
    cache:
        A prebuilt :class:`~repro.serve.cache.TieredCache`; overrides
        ``store`` / ``max_cache_entries``.
    max_queue:
        Bound of the request queue; ``0`` means unbounded.  A full queue
        rejects submissions with
        :class:`~repro.exceptions.ServiceOverloadedError`.
    solver:
        Injection point for tests and instrumentation: a callable
        ``solver(instance, strategy, config) -> SolveReport``.  ``None``
        (the default) runs :func:`repro.api.session.execute`.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector` drawn before every
        solve (``solver_delay`` / ``solver_crash``).  ``None`` (the
        default) costs one attribute check per solve.
    obs:
        Optional :class:`repro.obs.Observability` handle.  When set, each
        solve records a ``service.batch`` span (when the request is traced,
        under the trace id the cluster worker extracted from the wire)
        plus ``kernel.*`` spans from the solver's profiling phases, and a
        ``repro_service_batch_seconds`` latency histogram.  ``None`` (the
        default) follows the same zero-cost contract as
        ``fault_injector``: one ``is None`` check per solve, nothing on
        the submit path.
    """

    def __init__(self, *, store: Optional[ArtifactStore] = None,
                 cache: Optional[TieredCache] = None,
                 max_queue: int = 10_000,
                 solver=None,
                 fault_injector: "Optional[FaultInjector]" = None,
                 obs: "Optional[Observability]" = None) -> None:
        self.max_queue = check_batching(max_queue)
        self.cache = TieredCache(store=store) if cache is None else cache
        self._solver = solver
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=max_queue)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight: Dict[Tuple[str, str, str], List[Future]] = {}
        self._counters: Dict[str, int] = {
            "requests": 0, "tier1_hits": 0, "tier2_hits": 0, "coalesced": 0,
            "enqueued": 0, "rejected": 0, "probing": 0, "solve_failures": 0,
            "cache_put_failures": 0, "worker_restarts": 0, "timeouts": 0,
            "shutdown_timeouts": 0, "queue_peak": 0, "pending": 0}
        self._faults = fault_injector
        self._obs = obs
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SolveService":
        """Start the dispatcher thread (idempotent); returns ``self``."""
        with self._lock:
            if self._stop.is_set():
                raise ServiceClosedError("service has been shut down")
            self._spawn_dispatcher_locked(restart=False)
        return self

    def _spawn_dispatcher_locked(self, *, restart: bool) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        if restart and self._started:
            self._counters["worker_restarts"] += 1
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatcher",
            daemon=True)
        self._thread.start()
        self._started = True

    @property
    def running(self) -> bool:
        """Whether the dispatcher thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive() \
            and not self._stop.is_set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted request has resolved.

        Returns ``False`` when ``timeout`` (seconds) elapsed first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._counters["pending"] > 0:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        return True

    def shutdown(self, *, wait: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service.

        With ``wait=True`` (the default) the queue is drained first; with
        ``wait=False`` still-pending requests fail with
        :class:`~repro.exceptions.ServiceClosedError`.
        """
        if wait:
            self.drain(timeout=timeout)
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
            if thread.is_alive():
                # A hung solve is holding the dispatcher hostage.
                # The thread is a daemon, so the process can still exit —
                # but the condition must be visible, not silent.
                with self._lock:
                    self._counters["shutdown_timeouts"] += 1
                logger.warning(
                    "dispatcher thread still alive after shutdown join "
                    "timeout (5.0s); a solve is likely hung")
        # Fail whatever is still queued or in flight (no-op after a drain).
        # Keyed queued requests also appear in _inflight; dedup by identity.
        abandoned: Dict[int, Future] = {}
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            abandoned[id(request.future)] = request.future
        with self._lock:
            for waiters in self._inflight.values():
                for future in waiters:
                    abandoned[id(future)] = future
            self._inflight.clear()
        closed = ServiceClosedError(
            "service shut down before the request was solved")
        for future in abandoned.values():
            _settle(future, exception=closed)
        self._release_pending(len(abandoned))

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, instance, strategy: Optional[str] = None, *,
               config: Optional[SolveConfig] = None,
               digest: Optional[str] = None,
               deadline: Optional[float] = None,
               trace_id: Optional[str] = None) -> "Future[SolveReport]":
        """Request one solve; returns a future for its
        :class:`~repro.api.report.SolveReport`.

        Cache hits resolve before this method returns.  Misses are queued
        (or coalesced onto an identical in-flight request); a full queue
        raises :class:`~repro.exceptions.ServiceOverloadedError`.

        ``digest`` lets a trusted caller pass the instance digest it has
        already computed (the cluster worker reuses the one the gateway
        shipped for routing) and skip the canonical-serialization hash
        here; it must equal ``instance_digest(instance)`` or cache entries
        will land under the wrong key.

        ``deadline`` is an **absolute** :func:`time.monotonic` instant: a
        submission arriving past it raises
        :class:`~repro.exceptions.ServiceTimeoutError` immediately, and a
        queued request whose deadline expires before the dispatcher
        reaches it is failed fast with the same error instead of occupying
        the solver.  Cache hits ignore the deadline (the answer is
        already in hand).  A request that coalesces onto an in-flight key
        shares the *claiming* request's fate — its own deadline is not
        re-checked once attached.

        ``trace_id`` (optional) tags the request for distributed tracing:
        when the service carries an :class:`~repro.obs.Observability`
        handle, its solve records a ``service.batch`` span under this
        id.  Ignored (at zero cost) otherwise.
        """
        config = resolve_config(config)
        name = resolve_strategy_name(strategy)
        get_strategy(name)  # fail fast on unknown strategies
        if deadline is not None and time.monotonic() > deadline:
            with self._lock:
                if self._stop.is_set():
                    raise ServiceClosedError("service has been shut down")
                self._counters["requests"] += 1
                self._counters["rejected"] += 1
                self._counters["timeouts"] += 1
            raise ServiceTimeoutError(
                "deadline expired before the request was accepted",
                elapsed=time.monotonic() - deadline)
        if not config.cache:
            digest = None
        elif digest is None:
            try:
                digest = instance_digest(instance)
            except ModelError:
                digest = None
        key = None if digest is None \
            else self.cache.memory_key(digest, name, config)
        future: "Future[SolveReport]" = Future()

        # Phase 1, under the lock: pure in-memory work only — tier-1 probe,
        # coalescing onto an in-flight key, or claiming the key.  Disk I/O
        # (the tier-2 probe) must not serialize every submitter.
        hit_report: Optional[SolveReport] = None
        with self._lock:
            if self._stop.is_set():
                raise ServiceClosedError("service has been shut down")
            self._spawn_dispatcher_locked(restart=True)
            self._counters["requests"] += 1
            if key is not None:
                hit_report = self.cache.get_memory(digest, name, config)
                if hit_report is not None:
                    self._counters["tier1_hits"] += 1
                elif key in self._inflight:
                    self._inflight[key].append(future)
                    self._counters["coalesced"] += 1
                    self._counters["pending"] += 1
                    return future
                else:
                    # Claim the key before releasing the lock: concurrent
                    # identical submits coalesce onto this future, so no
                    # key is ever solved twice.  The request sits in the
                    # "probing" bucket until the tier-2 probe decides its
                    # fate (tier-2 hit, enqueued, or rejected).
                    self._inflight[key] = [future]
                    self._counters["probing"] += 1
                    self._counters["pending"] += 1
            else:
                try:
                    self._enqueue_locked(
                        _Request(None, None, instance, name, config, future,
                                 deadline, trace_id))
                except ServiceOverloadedError:
                    self._counters["rejected"] += 1
                    raise
                self._counters["pending"] += 1
                return future
        if hit_report is not None:
            _settle(future, result=hit_report)
            return future

        # Phase 2, outside the lock: tier-2 probe, then enqueue on a miss.
        try:
            stored = self.cache.get_store(digest, name, config)
        except BaseException as exc:
            self._abandon_claim(key, future, exc)
            raise
        if stored is not None:
            with self._lock:
                self._counters["probing"] -= 1
                self._counters["tier2_hits"] += 1
                waiters = self._inflight.pop(key, [])
            for waiter in waiters:
                _settle(waiter, result=stored)
            self._release_pending(len(waiters))
            return future
        request = _Request(key, digest, instance, name, config, future,
                           deadline, trace_id)
        overload: Optional[ServiceOverloadedError] = None
        with self._lock:
            self._counters["probing"] -= 1
            try:
                self._enqueue_locked(request)
            except ServiceOverloadedError as exc:
                overload = exc
                self._counters["rejected"] += 1
                rejected_waiters = self._inflight.pop(key, [])
        if overload is not None:
            for waiter in rejected_waiters:
                if waiter is not future:
                    _settle(waiter, exception=overload)
            self._release_pending(len(rejected_waiters))
            raise overload
        return future

    def _enqueue_locked(self, request: _Request) -> None:
        """Queue one request (lock held); raises on a full queue.

        Success counts the ``enqueued`` bucket; the caller owns the failure
        bucket (``rejected``) and the ``pending`` accounting.
        """
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            depth = self._queue.qsize()
            raise ServiceOverloadedError(
                f"request queue full ({depth} pending, bound "
                f"{self.max_queue}); retry later or raise max_queue",
                queue_depth=depth) from None
        self._counters["enqueued"] += 1
        self._counters["queue_peak"] = max(
            self._counters["queue_peak"], self._queue.qsize())

    def _release_pending(self, count: int) -> None:
        """Drop ``count`` settled requests from ``pending`` and wake drain.

        Always called *after* the corresponding futures were settled, so
        when :meth:`drain` observes ``pending == 0`` every accepted future
        is already resolved.
        """
        if count <= 0:
            return
        with self._lock:
            self._counters["pending"] = max(
                0, self._counters["pending"] - count)
            self._idle.notify_all()

    def _abandon_claim(self, key, future: Future,
                       exc: BaseException) -> None:
        """Fail a claimed key's waiters after an unexpected probe error.

        The claiming request moves to the ``rejected`` bucket (it never
        reached the queue); coalesced waiters were already counted and are
        failed with the same exception.
        """
        with self._lock:
            self._counters["probing"] -= 1
            self._counters["rejected"] += 1
            waiters = self._inflight.pop(key, [])
        for waiter in waiters:
            if waiter is not future:
                _settle(waiter, exception=exc)
        self._release_pending(len(waiters))

    def solve(self, instance, strategy: Optional[str] = None, *,
              config: Optional[SolveConfig] = None,
              timeout: Optional[float] = None,
              deadline: Optional[float] = None) -> SolveReport:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(instance, strategy, config=config,
                           deadline=deadline).result(timeout=timeout)

    def submit_many(self, instances: Sequence[object],
                    strategy: Optional[str] = None, *,
                    config: Optional[SolveConfig] = None,
                    ) -> List["Future[SolveReport]"]:
        """Submit a burst of requests; returns their futures in order."""
        return [self.submit(instance, strategy, config=config)
                for instance in instances]

    # ------------------------------------------------------------------ #
    # Dispatcher
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                try:
                    request = self._queue.get(timeout=0.05)
                except queue.Empty:
                    continue
                self._serve(request)
            except Exception:
                # A dispatcher-level crash must not kill the service; the
                # loop keeps serving.  Solve failures are handled in
                # _serve — this is strictly a belt for unexpected internal
                # errors.
                logger.exception("dispatcher error; continuing")
                with self._lock:
                    self._counters["worker_restarts"] += 1

    def _serve(self, request: _Request) -> None:
        """Solve one dequeued request at once and settle its futures.

        No exception may drop a request on the floor: whatever the solve
        raises fails the request's futures, so :meth:`drain` and
        :meth:`shutdown` never hang on a lost request.  A request whose
        end-to-end deadline has already expired is failed fast with
        :class:`~repro.exceptions.ServiceTimeoutError` before any solver
        work — an expired caller gains nothing from the result.
        """
        now = time.monotonic()
        if request.deadline is not None and now > request.deadline:
            # Coalesced waiters share the claiming request's deadline fate
            # (documented in submit()).
            expired = ServiceTimeoutError(
                "deadline expired while the request was queued",
                elapsed=now - request.deadline)
            self._finish(request, "timeouts", exception=expired)
            return
        try:
            report = self._solve(request)
        except BaseException as exc:  # noqa: BLE001 - to the futures
            self._finish(request, "solve_failures", exception=exc)
            return
        # Write-through BEFORE popping _inflight: the put is disk I/O (the
        # tiers are internally thread-safe), and the put-then-pop order
        # guarantees a submitter always either sees the cached report or
        # coalesces onto the still-registered key.  A failed put (disk
        # full, permissions) must not fail the request — the solve
        # succeeded; only persistence is degraded.
        counter = None
        if request.key is not None:
            try:
                self.cache.put(request.digest, request.strategy,
                               request.config, report)
            except Exception:  # noqa: BLE001 - degrade, keep serving
                counter = "cache_put_failures"
        self._finish(request, counter, result=report)

    def _solve(self, request: _Request) -> SolveReport:
        """One request's solve, traced when observability is on."""
        obs = self._obs
        if obs is None:
            return self._run_solver(request)
        # Run the solve under a profiling recorder so in-process kernels
        # (water_fill, Frank-Wolfe) report phases that become kernel.*
        # spans.
        from repro.obs.profiling import profiled
        start = obs.tracer.clock()
        error = None
        recorder = None
        try:
            with profiled() as recorder:
                return self._run_solver(request)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._record_spans(request, recorder, start, error)

    def _run_solver(self, request: _Request) -> SolveReport:
        if self._faults is not None:
            # Chaos hook: may sleep (solver_delay) or raise
            # FaultInjectedError (solver_crash), which the dispatcher turns
            # into failed futures.
            self._faults.raise_solver_faults()
        if self._solver is not None:
            return self._solver(request.instance, request.strategy,
                                request.config)
        return execute(request.instance, request.strategy, request.config,
                       request.key is not None)

    def _finish(self, request: _Request, counter: Optional[str], *,
                result: Optional[SolveReport] = None,
                exception: Optional[BaseException] = None) -> None:
        """Settle a dequeued request and its coalesced waiters.

        ``counter`` (when given) names the :class:`ServiceStats` counter
        the outcome adds one to.
        """
        with self._lock:
            if counter is not None:
                self._counters[counter] += 1
            waiters = [request.future] if request.key is None else \
                self._inflight.pop(request.key, [request.future])
        for future in waiters:
            _settle(future, result=result, exception=exception)
        self._release_pending(len(waiters))

    def _record_spans(self, request: _Request, recorder, start: float,
                      error: Optional[str]) -> None:
        """Emit one solve's spans and latency sample (obs enabled only).

        A traced request gets one ``service.batch`` span, plus one
        ``kernel.<phase>`` span per profiled kernel phase under the same
        trace id.
        """
        tracer = self._obs.tracer
        duration = tracer.clock() - start
        self._obs.latency_histogram(
            "repro_service_batch_seconds",
            "Wall time of one served solve").observe(duration)
        if request.trace_id is None:
            return
        annotations: Dict[str, Any] = {"strategy": request.strategy}
        if error is not None:
            annotations["error"] = error
        tracer.record_complete("service.batch", trace_id=request.trace_id,
                               start=start, duration=duration, **annotations)
        if recorder is not None:
            for name, entry in recorder.phases.items():
                tracer.record_complete(
                    f"kernel.{name}", trace_id=request.trace_id, start=start,
                    duration=entry["seconds"], calls=entry["calls"])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """An atomic :class:`ServiceStats` snapshot."""
        with self._lock:
            counters = dict(self._counters)
        return ServiceStats(cache=self.cache.stats(), **counters)
