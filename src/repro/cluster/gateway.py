"""`ClusterGateway`: digest-sharded routing over N worker endpoints.

The gateway is the cluster's single front door.  For every solve request
it:

1. **routes by instance digest** — rendezvous hashing
   (:mod:`repro.cluster.hashing`) over the *alive* workers, so one
   instance always lands on one shard.  That affinity is what lets each
   shard's coalescer and tier-1 LRU behave exactly as they do in the
   single-process service: a hot key is hot on one shard, not diluted
   over N;
2. **bounds per-worker in-flight** — an ``asyncio.Semaphore`` per endpoint
   caps how many requests the gateway holds open against one shard, so a
   slow worker backs traffic up at the gateway instead of ballooning its
   own queue;
3. **retries overload with backoff** — a worker's 503
   (:class:`~repro.exceptions.ServiceOverloadedError`, whose
   ``queue_depth`` the wire format preserves and the gateway logs) is
   retried against the *same* shard after an exponential backoff: the key
   must not migrate just because its shard is busy;
4. **re-routes on worker death** — a connection failure (or a run of
   consecutive remote errors) opens the endpoint's **circuit breaker**
   and re-runs rendezvous routing over the survivors.  Rendezvous
   guarantees only the dead shard's keys move; the shared artifact store
   means the adopting shard serves any previously solved key from disk
   without a solver call.  After a cooldown the breaker is half-opened
   with a ``/health`` probe, so a recovered (or supervisor-respawned)
   worker takes its keys back automatically;
5. **enforces end-to-end deadlines** — a caller deadline bounds the whole
   retry budget, ships to the worker as the remaining-milliseconds
   deadline header, and expires as a wire-transported
   :class:`~repro.exceptions.ServiceTimeoutError` (HTTP 504, never
   retried).

``stats()`` aggregates every shard's exact
:class:`~repro.serve.ServiceStats` via
:meth:`~repro.serve.ServiceStats.merge` (dead shards contribute their
last-known snapshot), so the merged buckets still partition the forwarded
requests exactly; the gateway's own counters (routed / retried / re-routed
/ failed) sit alongside.  The same surface is exposed over HTTP —
``/solve``, ``/stats``, ``/metrics`` (Prometheus exposition of the exact
same counters), ``/trace`` (aggregated Chrome ``trace_event`` view of the
gateway plus every worker ring), ``/health``, ``/drain`` — by
:meth:`ClusterGateway.start_http`, with body-blind forwarding: the
instance digest rides in the ``X-Repro-Digest`` header, so the gateway
never parses instance JSON on the hot path.
"""

from __future__ import annotations

import asyncio
import json
import logging
import random
import time
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SolveConfig
from repro.api.report import SolveReport
from repro.api.session import resolve_strategy_name
from repro.cluster import protocol
from repro.cluster.protocol import _CONNECTION_ERRORS
from repro.cluster.hashing import route
from repro.exceptions import (
    ClusterError,
    ServiceTimeoutError,
    WorkerUnavailableError,
)
from repro.obs import Observability, trace_id_for
from repro.obs.collect import (collect_cluster_stats, merged_snapshot,
                               render_merged)
from repro.serve.service import ServiceStats

__all__ = ["ClusterGateway", "WorkerEndpoint"]

logger = logging.getLogger("repro.cluster.gateway")



class WorkerEndpoint:
    """Gateway-side state of one worker: address, pool, health, counters.

    Liveness is a **circuit breaker**, not a tombstone: a connection-level
    failure (or ``breaker_threshold`` consecutive remote errors) opens the
    breaker — ``alive`` goes ``False`` and routing instantly fails over,
    exactly like the old hard ``_mark_dead``.  But after ``breaker_cooldown``
    seconds the gateway half-opens it with a ``/health`` probe; a healthy
    answer (a recovered worker, or a supervised respawn on the same port)
    closes the breaker and the shard takes its keys back.  A worker that
    stays dead keeps failing its probes and so stays not-alive.
    """

    def __init__(self, host: str, port: int, *, max_inflight: int = 8) -> None:
        if int(max_inflight) < 1:  # the semaphore would admit nothing
            raise ClusterError(
                f"max_inflight must be >= 1, got {max_inflight!r}")
        self.host = host
        self.port = int(port)
        #: Stable routing identity — survives gateway restarts (and
        #: supervised respawns on the same port), so two gateways in front
        #: of the same workers shard identically.
        self.node_id = f"{host}:{port}"
        self.alive = True
        self.semaphore = asyncio.Semaphore(max_inflight)
        self.pool: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        #: Requests this gateway handed to the worker (includes retries).
        self.forwarded = 0
        #: Last successfully fetched stats snapshot; kept after death so
        #: the aggregate never loses a shard's served history.
        self.last_stats: Optional[ServiceStats] = None
        #: Final snapshots of previous incarnations (archived when a
        #: supervised respawn resets the worker's own counters to zero);
        #: merged into the aggregate so served history survives respawns.
        self.retired_stats: List[ServiceStats] = []
        #: Consecutive remote failures since the last success.
        self.failures = 0
        #: ``time.monotonic()`` of the breaker opening (``None`` = closed).
        self.breaker_opened_at: Optional[float] = None
        #: Last half-open probe attempt (throttles probing to one per
        #: cooldown window).
        self.last_probe_at: float = 0.0

    @property
    def breaker_open(self) -> bool:
        return self.breaker_opened_at is not None

    async def request(self, method: str, path: str, body: bytes = b"", *,
                      headers: Optional[Dict[str, str]] = None,
                      ) -> Tuple[int, bytes]:
        """One keep-alive HTTP exchange with this worker."""
        conn = self.pool.pop() if self.pool else None
        if conn is None:
            conn = await asyncio.open_connection(self.host, self.port)
        reader, writer = conn
        try:
            await protocol.write_request(writer, method, path, body,
                                         headers=headers)
            status, resp_headers, payload = await protocol.read_response(
                reader)
        except BaseException:
            writer.close()
            raise
        if resp_headers.get("connection", "").lower() == "close":
            writer.close()
        else:
            self.pool.append((reader, writer))
        return status, payload

    def close(self) -> None:
        """Drop every pooled connection (on death or gateway shutdown)."""
        while self.pool:
            _, writer = self.pool.pop()
            writer.close()


class ClusterGateway:
    """Route solve traffic over a fixed set of worker endpoints.

    Parameters
    ----------
    endpoints:
        ``(host, port)`` pairs of the workers (see
        :func:`repro.cluster.launcher.start_cluster` for spawning them).
    max_inflight:
        Per-worker bound on requests the gateway holds open concurrently.
    max_retries:
        Backoff attempts against an overloaded shard before the overload
        error is surfaced to the caller.
    backoff_base_ms / backoff_cap_ms:
        Exponential backoff window for overload retries (jittered).
    breaker_threshold:
        Consecutive remote failures (non-200, non-overload answers) that
        open a worker's circuit breaker.  Connection-level failures open
        it immediately regardless.
    breaker_cooldown:
        Seconds an open breaker waits before a half-open ``/health`` probe
        may close it again.
    obs:
        Optional :class:`repro.obs.Observability`.  When set, every
        submission mints a deterministic trace id
        (:func:`repro.obs.trace_id_for` over the request digest and the
        gateway's sequence counter), ships it to the shard as
        ``x-repro-trace-id``, and records a ``gateway.request`` span
        annotated with ``retry``/``reroutes`` counts plus a
        ``repro_gateway_request_seconds`` observation.  When ``None`` the
        hot-path cost is one ``is None`` check.
    """

    def __init__(self, endpoints: Sequence[Tuple[str, int]], *,
                 max_inflight: int = 8, max_retries: int = 6,
                 backoff_base_ms: float = 5.0,
                 backoff_cap_ms: float = 200.0,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 0.25,
                 obs: Optional[Observability] = None) -> None:
        if not endpoints:
            raise ClusterError("a cluster needs at least one worker")
        if int(max_inflight) < 1:
            raise ClusterError(
                f"max_inflight must be >= 1, got {max_inflight!r}")
        self.workers: Dict[str, WorkerEndpoint] = {}
        for host, port in endpoints:
            endpoint = WorkerEndpoint(host, port, max_inflight=max_inflight)
            self.workers[endpoint.node_id] = endpoint
        self.max_retries = int(max_retries)
        self.backoff_base_ms = float(backoff_base_ms)
        self.backoff_cap_ms = float(backoff_cap_ms)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self._rng = random.Random(0xC1F5)
        self._obs = obs
        self._counters: Dict[str, int] = {
            "requests": 0, "completed": 0, "remote_errors": 0,
            "overload_retries": 0, "reroutes": 0, "failures": 0,
            "timeouts": 0, "breaker_opens": 0, "breaker_closes": 0,
            "unavailable_waits": 0, "worker_respawns": 0}
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def alive_ids(self) -> List[str]:
        return [node_id for node_id, worker in self.workers.items()
                if worker.alive]

    def route_digest(self, digest: str) -> WorkerEndpoint:
        """The alive shard owning ``digest`` (rendezvous over survivors)."""
        alive = self.alive_ids()
        if not alive:
            raise WorkerUnavailableError("no alive workers in the cluster")
        return self.workers[route(digest, alive)]

    def _mark_dead(self, worker: WorkerEndpoint, reason: str) -> None:
        """Open ``worker``'s circuit breaker (the historical entry point)."""
        self._open_breaker(worker, reason)

    def _open_breaker(self, worker: WorkerEndpoint, reason: str) -> None:
        if worker.alive:
            worker.alive = False
            worker.breaker_opened_at = time.monotonic()
            worker.last_probe_at = worker.breaker_opened_at
            worker.failures = 0
            worker.close()
            self._counters["breaker_opens"] += 1
            logger.warning(
                "worker %s breaker opened (%s); re-routing its keys",
                worker.node_id, reason)

    def _close_breaker(self, worker: WorkerEndpoint) -> None:
        if not worker.alive:
            worker.alive = True
            worker.breaker_opened_at = None
            worker.failures = 0
            self._counters["breaker_closes"] += 1
            logger.info("worker %s breaker closed; shard takes keys back",
                        worker.node_id)

    def _note_remote_failure(self, worker: WorkerEndpoint) -> None:
        """Count one non-connection remote failure toward the breaker."""
        worker.failures += 1
        if worker.failures >= self.breaker_threshold:
            self._open_breaker(
                worker, f"{worker.failures} consecutive remote failures")

    async def probe_open_breakers(self) -> None:
        """Half-open every cooled-down breaker with a ``/health`` probe.

        Called on the solve path (cheap when no breaker is open) and by
        :meth:`health`.  A worker that answers closes its breaker — a
        recovered process, or a supervised respawn listening on the same
        port; one that does not stays open until the next cooldown.
        """
        now = time.monotonic()
        candidates = [
            worker for worker in self.workers.values()
            if worker.breaker_open
            and now - worker.last_probe_at >= self.breaker_cooldown]
        if not candidates:
            return

        async def probe(worker: WorkerEndpoint) -> None:
            worker.last_probe_at = time.monotonic()
            try:
                status, _ = await worker.request("GET", "/health")
            except _CONNECTION_ERRORS:
                return  # still dead; breaker stays open
            if status == 200:
                self._close_breaker(worker)

        await asyncio.gather(*(probe(worker) for worker in candidates))

    # ------------------------------------------------------------------ #
    # Solve path
    # ------------------------------------------------------------------ #
    async def submit_encoded(self, body: bytes, digest: str, *,
                             deadline: Optional[float] = None,
                             trace_id: Optional[str] = None,
                             ) -> Tuple[int, bytes]:
        """Route one already-serialised solve request; returns the raw
        ``(status, payload)`` of the shard that answered.

        Connection failures fail over (re-route among survivors); 503
        overload responses back off and retry the same shard; a draining
        shard (``ServiceClosedError`` on the wire) trips the breaker like
        a dead connection.  ``deadline`` (absolute :func:`time.monotonic`)
        bounds the whole retry budget: the remaining budget ships to the
        worker in the deadline header, backoff sleeps never outlast it,
        and an expired deadline returns a 504 immediately instead of
        another attempt.  A worker's own 504 is final — retrying an
        already-expired request elsewhere cannot help.

        With observability on, the whole retry loop is one
        ``gateway.request`` span (annotated ``retry=<overload retries>``
        and ``reroutes=<failovers>``); ``trace_id`` lets a front-door
        client supply its own id, otherwise a deterministic one is minted
        from the digest and the gateway's sequence counter and shipped to
        the shard in the trace header.
        """
        self._counters["requests"] += 1
        obs = self._obs
        span = None
        if obs is not None:
            if trace_id is None:
                trace_id = trace_id_for(digest,
                                        obs.tracer.next_sequence())
            span = obs.tracer.span("gateway.request", trace_id=trace_id,
                                   digest=digest)
        overload_attempts = 0
        unavailable_waits = 0
        reroutes = 0
        try:
            while True:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._counters["timeouts"] += 1
                    self._counters["failures"] += 1
                    return protocol.error_response(ServiceTimeoutError(
                        "deadline expired in the gateway retry loop",
                        elapsed=-remaining))
                await self.probe_open_breakers()
                headers = {protocol.DIGEST_HEADER: digest}
                if span is not None:
                    headers[protocol.TRACE_HEADER] = trace_id
                if remaining is not None:
                    headers[protocol.DEADLINE_HEADER] = \
                        f"{remaining * 1e3:.3f}"
                try:
                    worker = self.route_digest(digest)
                except WorkerUnavailableError as exc:
                    # Every breaker is open at once (e.g. a connection-fault
                    # storm hit all shards within one cooldown).  The workers
                    # may be healthy — or a supervisor may be respawning them —
                    # so wait out up to max_retries cooldowns for a half-open
                    # probe to close a breaker before failing the caller.
                    unavailable_waits += 1
                    if unavailable_waits > self.max_retries:
                        self._counters["failures"] += 1
                        return protocol.error_response(exc)
                    self._counters["unavailable_waits"] += 1
                    delay = self.breaker_cooldown
                    if remaining is not None:
                        delay = min(delay, max(0.0, remaining))
                    await asyncio.sleep(delay)
                    continue
                async with worker.semaphore:
                    worker.forwarded += 1
                    try:
                        status, payload = await worker.request(
                            "POST", "/solve", body, headers=headers)
                    except _CONNECTION_ERRORS as exc:
                        self._counters["reroutes"] += 1
                        reroutes += 1
                        self._open_breaker(worker, repr(exc))
                        continue
                if status == 503:
                    retryable, queue_depth = _classify_503(payload)
                    if retryable == "closed":
                        # A draining/stopped shard cannot take the key back;
                        # fail over exactly like a dead connection.
                        self._counters["reroutes"] += 1
                        reroutes += 1
                        self._open_breaker(worker,
                                           "service closed (draining)")
                        continue
                    overload_attempts += 1
                    if overload_attempts > self.max_retries:
                        self._counters["failures"] += 1
                        return status, payload
                    delay = self._backoff_seconds(overload_attempts)
                    if remaining is not None:
                        # Never sleep past the caller's deadline; the expiry
                        # check at the top of the loop turns it into a 504.
                        delay = min(delay, max(0.0, remaining))
                    self._counters["overload_retries"] += 1
                    logger.info(
                        "worker %s overloaded (queue depth %s); backoff retry "
                        "%d/%d in %.1f ms", worker.node_id, queue_depth,
                        overload_attempts, self.max_retries, delay * 1e3)
                    await asyncio.sleep(delay)
                    continue
                if status == 200:
                    worker.failures = 0
                    self._counters["completed"] += 1
                elif status == 504:
                    self._counters["timeouts"] += 1
                    self._counters["remote_errors"] += 1
                else:
                    self._counters["remote_errors"] += 1
                    self._note_remote_failure(worker)
                if span is not None:
                    span.annotate("status", status)
                return status, payload
        finally:
            if span is not None:
                span.annotate("retry", overload_attempts)
                if reroutes:
                    span.annotate("reroutes", reroutes)
                span.finish()
                obs.latency_histogram(
                    "repro_gateway_request_seconds",
                    "End-to-end gateway request wall time, retries "
                    "included.").observe(span.duration)

    def _backoff_seconds(self, attempt: int) -> float:
        window = min(self.backoff_cap_ms,
                     self.backoff_base_ms * (2.0 ** (attempt - 1)))
        return (window * (0.5 + 0.5 * self._rng.random())) / 1000.0

    async def submit(self, instance, strategy: Optional[str] = None, *,
                     config: Optional[SolveConfig] = None,
                     deadline: Optional[float] = None) -> SolveReport:
        """Solve one instance through the cluster; raises remote errors.

        ``deadline`` (absolute :func:`time.monotonic`) propagates all the
        way to the shard's dispatcher; an expired request raises
        :class:`~repro.exceptions.ServiceTimeoutError`.
        """
        config = SolveConfig() if config is None else config
        name = resolve_strategy_name(strategy)
        body, digest = protocol.encode_solve_request(instance, name, config)
        status, payload = await self.submit_encoded(body, digest,
                                                    deadline=deadline)
        protocol.raise_for_response(status, payload)
        return protocol.decode_report(payload)

    # ------------------------------------------------------------------ #
    # Cluster-wide observability & lifecycle
    # ------------------------------------------------------------------ #
    async def refresh_worker_stats(self) -> None:
        """Fetch ``/stats`` from every alive shard (marks dead on failure)."""
        async def fetch(worker: WorkerEndpoint) -> None:
            try:
                status, payload = await worker.request("GET", "/stats")
            except _CONNECTION_ERRORS as exc:
                self._mark_dead(worker, repr(exc))
                return
            if status == 200:
                worker.last_stats = ServiceStats.from_dict(
                    json.loads(payload.decode("utf-8")))

        await asyncio.gather(*(fetch(worker)
                               for worker in self.workers.values()
                               if worker.alive))

    def note_worker_respawn(self, node_id: str) -> None:
        """Record that the worker at ``node_id`` was respawned in place.

        Called by the launcher's supervisor once the replacement process
        announced readiness on the *same* port.  The dead incarnation's
        last snapshot is archived into ``retired_stats`` (the replacement's
        counters restart from zero, and the aggregate must not lose the
        served history), the stale connection pool is dropped, and the
        breaker is closed so routing returns immediately — the replacement
        is warm via the shared store.
        """
        worker = self.workers.get(node_id)
        if worker is None:
            return
        if worker.last_stats is not None:
            worker.retired_stats.append(worker.last_stats)
            worker.last_stats = None
        worker.close()
        self._counters["worker_respawns"] += 1
        self._close_breaker(worker)

    async def stats(self, *, refresh: bool = True) -> Dict[str, object]:
        """The aggregated cluster picture.

        ``merged`` is the exact :meth:`~repro.serve.ServiceStats.merge` of
        every shard's snapshot — dead shards contribute their last-known
        one, respawned shards additionally contribute the archived
        snapshots of their previous incarnations — so its buckets
        partition the forwarded requests exactly; ``workers`` holds the
        per-shard snapshots, breaker state and routing counters;
        ``gateway`` the gateway's own accounting (including
        ``breaker_opens`` / ``breaker_closes`` / ``timeouts`` /
        ``worker_respawns``).
        """
        if refresh:
            await self.refresh_worker_stats()
        snapshots: List[ServiceStats] = []
        for worker in self.workers.values():
            snapshots.extend(worker.retired_stats)
            if worker.last_stats is not None:
                snapshots.append(worker.last_stats)
        merged = ServiceStats().merge(*snapshots)
        return {
            "gateway": dict(self._counters),
            "workers": {
                node_id: {
                    "alive": worker.alive,
                    "breaker_open": worker.breaker_open,
                    "forwarded": worker.forwarded,
                    "respawns": len(worker.retired_stats),
                    "stats": None if worker.last_stats is None
                    else worker.last_stats.to_dict(),
                }
                for node_id, worker in self.workers.items()},
            "merged": merged.to_dict(),
        }

    async def metrics_registries(self, *, refresh: bool = True) -> List:
        """The registries behind ``GET /metrics``: the cluster ``stats()``
        mapping projected through :func:`repro.obs.collect.collect_cluster_stats`
        (exact numeric equality with the legacy surface by construction),
        plus the gateway's own live registry when observability is on.
        """
        registries = [collect_cluster_stats(
            await self.stats(refresh=refresh))]
        if self._obs is not None:
            registries.append(self._obs.registry)
        return registries

    async def trace(self, *, last: Optional[int] = None,
                    aggregate: bool = True) -> Dict[str, object]:
        """Chrome ``trace_event`` view of the cluster.

        The gateway's own spans, plus — when ``aggregate`` — every alive
        worker's ``/trace`` ring, so one cross-process trace id groups
        the ``gateway.request`` span with the shard's ``worker.solve`` /
        ``service.batch`` / kernel spans.  Events are ordered
        deterministically (timestamp, then service, then span id).
        """
        events: List[Dict[str, object]] = [] if self._obs is None else \
            self._obs.tracer.chrome_trace(last=last)["traceEvents"]
        if aggregate:
            path = "/trace" if last is None else f"/trace?last={int(last)}"

            async def fetch(worker: WorkerEndpoint) -> List:
                try:
                    status, payload = await worker.request("GET", path)
                except _CONNECTION_ERRORS:
                    return []
                if status != 200:
                    return []
                try:
                    decoded = json.loads(payload.decode("utf-8"))
                except ValueError:
                    return []
                return decoded.get("traceEvents", [])

            chunks = await asyncio.gather(
                *(fetch(worker) for worker in self.workers.values()
                  if worker.alive))
            for chunk in chunks:
                events.extend(chunk)
        events.sort(key=lambda e: (float(e.get("ts", 0.0)),
                                   str(e.get("pid", "")),
                                   str(e.get("tid", ""))))
        return {"traceEvents": events}

    async def drain(self, *, timeout: float = 60.0) -> bool:
        """Drain every alive shard; ``True`` when all report drained."""
        body = json.dumps({"timeout": timeout}).encode("utf-8")

        async def drain_one(worker: WorkerEndpoint) -> bool:
            try:
                status, payload = await worker.request("POST", "/drain", body)
            except _CONNECTION_ERRORS as exc:
                self._mark_dead(worker, repr(exc))
                return False
            return status == 200 and json.loads(payload).get("drained", False)

        results = await asyncio.gather(
            *(drain_one(worker) for worker in self.workers.values()
              if worker.alive))
        return all(results) if results else True

    async def shutdown_workers(self) -> None:
        """Ask every alive shard to shut down (used by the launcher)."""
        async def stop_one(worker: WorkerEndpoint) -> None:
            try:
                await worker.request("POST", "/shutdown")
            except _CONNECTION_ERRORS:
                pass
            worker.alive = False
            worker.close()

        await asyncio.gather(*(stop_one(worker)
                               for worker in self.workers.values()
                               if worker.alive))

    async def health(self) -> Dict[str, object]:
        """Probe ``/health`` on every shard; returns the liveness map.

        Every worker is probed, breaker-open ones included — a health
        check exists to see past the gateway's own routing state — and
        cooled-down breakers get their half-open probe first, so a
        recovered shard shows up alive here, not only on the solve path.
        """
        await self.probe_open_breakers()

        async def probe(worker: WorkerEndpoint):
            try:
                status, payload = await worker.request("GET", "/health")
            except _CONNECTION_ERRORS:
                return worker.node_id, None
            if status != 200:
                return worker.node_id, None
            return worker.node_id, json.loads(payload.decode("utf-8"))

        results = dict(await asyncio.gather(
            *(probe(worker) for worker in self.workers.values())))
        return {
            "status": "ok" if any(value is not None
                                  for value in results.values()) else "down",
            "workers": {
                node_id: {"alive": worker.alive,
                          "health": results.get(node_id)}
                for node_id, worker in self.workers.items()},
        }

    def close(self) -> None:
        """Drop every pooled connection (the workers keep running)."""
        for worker in self.workers.values():
            worker.close()

    # ------------------------------------------------------------------ #
    # HTTP front door
    # ------------------------------------------------------------------ #
    async def start_http(self, *, host: str = "127.0.0.1",
                         port: int = 0) -> int:
        """Expose the gateway itself over HTTP; returns the bound port."""
        self._server = await asyncio.start_server(
            partial(protocol.serve_connection, dispatch=self._dispatch),
            host=host, port=port)
        return self._server.sockets[0].getsockname()[1]

    async def stop_http(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], body: bytes):
        route_key = (method, path.split("?", 1)[0])
        if route_key == ("POST", "/solve"):
            digest = headers.get(protocol.DIGEST_HEADER)
            if digest is None:
                # Slow path for header-less clients: the digest is in the
                # body (every encoder puts it there).
                try:
                    digest = json.loads(body.decode("utf-8"))["digest"]
                except Exception as exc:  # noqa: BLE001 - peer input
                    return protocol.error_response(ClusterError(
                        f"solve request carries no routable digest: {exc}"))
            deadline = None
            deadline_ms = headers.get(protocol.DEADLINE_HEADER)
            if deadline_ms is not None:
                try:
                    deadline = time.monotonic() \
                        + max(0.0, float(deadline_ms)) / 1e3
                except ValueError:
                    return protocol.error_response(ClusterError(
                        f"malformed deadline header {deadline_ms!r}"))
            try:
                return await self.submit_encoded(
                    body, digest, deadline=deadline,
                    trace_id=headers.get(protocol.TRACE_HEADER))
            except BaseException as exc:  # noqa: BLE001 - mapped to wire
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                return protocol.error_response(exc)
        if route_key == ("GET", "/stats"):
            return 200, json.dumps(await self.stats(),
                                   sort_keys=True).encode("utf-8")
        if route_key == ("GET", "/metrics"):
            registries = await self.metrics_registries()
            if "format=json" in path.partition("?")[2]:
                return 200, json.dumps(merged_snapshot(*registries),
                                       sort_keys=True).encode("utf-8")
            return (200, render_merged(*registries).encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8")
        if route_key == ("GET", "/trace"):
            query = path.partition("?")[2]
            last = None
            for part in query.split("&"):
                if part.startswith("last="):
                    try:
                        last = int(part[5:])
                    except ValueError:
                        return protocol.error_response(ClusterError(
                            f"malformed {part!r} query parameter"))
            aggregate = "local=1" not in query
            trace = await self.trace(last=last, aggregate=aggregate)
            return 200, json.dumps(trace, sort_keys=True).encode("utf-8")
        if route_key == ("GET", "/health"):
            return 200, json.dumps(await self.health(),
                                   sort_keys=True).encode("utf-8")
        if route_key == ("POST", "/drain"):
            drained = await self.drain()
            return 200, json.dumps({"drained": drained}).encode("utf-8")
        return 404, json.dumps({
            "error": "ClusterError",
            "message": f"no route {method} {path}"}).encode("utf-8")


def _classify_503(payload: bytes) -> Tuple[str, Optional[int]]:
    """Split a 503 into ``("overloaded", depth)`` vs ``("closed", None)``."""
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except Exception:  # noqa: BLE001 - non-JSON 503
        return "overloaded", None
    if decoded.get("error") == "ServiceClosedError":
        return "closed", None
    return "overloaded", decoded.get("queue_depth")
