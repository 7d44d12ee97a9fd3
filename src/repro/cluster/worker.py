"""`WorkerServer`: one cluster shard — a `SolveService` behind asyncio HTTP.

A worker owns exactly one :class:`~repro.serve.SolveService` (coalescing,
tiered cache, one solve per request) and exposes it on a localhost TCP port:

``POST /solve``
    One solve request (:mod:`repro.cluster.protocol` wire format).  The
    submission runs in the default executor — ``SolveService.submit`` may
    touch the disk for its tier-2 probe, which must not stall the event
    loop — and the resulting future is awaited without blocking, so one
    worker serves many concurrent connections while its dispatcher solves
    the misses one at a time.  Backpressure (``ServiceOverloadedError``)
    and a draining service map onto 503 responses the gateway knows how
    to retry.
``GET /stats``
    The exact :class:`~repro.serve.ServiceStats` snapshot as JSON — what
    the gateway aggregates with :meth:`~repro.serve.ServiceStats.merge`.
``GET /metrics``
    Prometheus text exposition: the service's legacy counters projected
    through :mod:`repro.obs.collect` at scrape time (so every number
    equals the ``/stats`` surface exactly), merged with the worker's live
    latency histograms when observability is on.  ``?format=json`` returns
    the same snapshot as JSON.
``GET /trace``
    The span ring buffer as Chrome ``trace_event`` JSON (empty when
    observability is off); ``?last=N`` keeps the newest N spans.
``GET /health``
    Liveness: pid, port, uptime and the request count so far.
``POST /drain``
    Blocks (in the executor) until every accepted request has resolved;
    the lifecycle hook the launcher calls before shutdown.
``POST /shutdown``
    Acknowledges, then stops the server and shuts the service down.

The worker's tier-2 cache is the *shared* artifact store of the cluster:
every shard points at one directory (``TieredCache(shared_store=True)``),
so a cold shard — just restarted, or newly owning keys after a peer died —
answers any key the cluster has ever solved from disk instead of
re-solving it.

Run one directly with ``python -m repro.cluster.worker_main --port 0
--store DIR``; it prints ``REPRO_WORKER_READY port=<p> pid=<pid>`` once it
accepts connections (the launcher parses that line).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import time
from functools import partial
from typing import Optional

from urllib.parse import parse_qs

from repro.cluster import protocol
from repro.exceptions import ModelError
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultPlan
from repro.obs import Observability
from repro.obs.collect import (collect_service_stats, merged_snapshot,
                               render_merged)
from repro.serve.cache import TieredCache
from repro.serve.service import SolveService
from repro.study.store import ArtifactStore

__all__ = ["WorkerServer", "build_worker_service", "main"]


def build_worker_service(*, store_dir: Optional[str] = None,
                         max_queue: int = 10_000,
                         max_cache_entries: int = 4096,
                         fault_injector: Optional[FaultInjector] = None,
                         obs: Optional[Observability] = None,
                         ) -> SolveService:
    """A shard's `SolveService`: tiered cache over the shared store.

    One ``fault_injector`` (when given) is shared by the artifact store
    and the service, so a single chaos plan scripts both layers.  The
    same sharing applies to ``obs``: the worker server and its service
    record onto one registry/tracer, so a worker's ``/trace`` ring holds
    the ``worker.solve`` span *and* the ``service.batch`` span of the
    same request.
    """
    store = None if store_dir is None else \
        ArtifactStore(store_dir, fault_injector=fault_injector)
    cache = TieredCache(store=store, max_entries=max_cache_entries,
                        shared_store=True)
    return SolveService(cache=cache, max_queue=max_queue,
                        fault_injector=fault_injector, obs=obs)


class WorkerServer:
    """Serve one `SolveService` over the cluster wire protocol.

    Parameters
    ----------
    service:
        The service to expose; built via :func:`build_worker_service` when
        omitted.
    host / port:
        Bind address; port ``0`` asks the OS for an ephemeral port (read
        the real one from :attr:`port` after :meth:`start`).
    store_dir / max_queue:
        Forwarded to :func:`build_worker_service` when no ``service`` is
        given.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector` drawn at the worker's
        own hook sites — ``worker_sigkill`` on the solve path,
        ``conn_drop`` / ``response_truncate`` on the response path — and
        (when no ``service`` is given) shared with the service and store.
    obs:
        Optional :class:`repro.obs.Observability`.  When set, every
        ``/solve`` records a ``worker.solve`` span under the request's
        ``x-repro-trace-id`` plus a ``repro_worker_request_seconds``
        observation, and (when no ``service`` is given) the service shares
        the same handle for its ``service.batch`` / kernel spans.  When
        ``None`` the cost is one ``is None`` check per request.
    """

    def __init__(self, service: Optional[SolveService] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 store_dir: Optional[str] = None, max_queue: int = 10_000,
                 fault_injector: Optional[FaultInjector] = None,
                 obs: Optional[Observability] = None) -> None:
        self._faults = fault_injector
        self._obs = obs
        self.service = service if service is not None else \
            build_worker_service(store_dir=store_dir, max_queue=max_queue,
                                 fault_injector=fault_injector, obs=obs)
        self.host = host
        self._requested_port = int(port)
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "WorkerServer":
        """Bind the socket and start the service; returns ``self``."""
        self.service.start()
        self._server = await asyncio.start_server(
            partial(protocol.serve_connection, dispatch=self._dispatch,
                    intercept=None if self._faults is None
                    else self._inject_response_fault),
            host=self.host, port=self._requested_port)
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`stop`) is requested."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener and shut the service down (drains first)."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, partial(self.service.shutdown, wait=True, timeout=60.0))

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _inject_response_fault(self, writer: asyncio.StreamWriter,
                                     status: int, payload: bytes) -> bool:
        """Chaos hook on the response path; ``True`` = connection is dead.

        ``conn_drop`` closes the connection without answering at all;
        ``response_truncate`` ships roughly half of the framed bytes and
        then closes.  Either way the gateway sees a connection-level
        failure and must fail over / retry — exactly the condition the
        faults exist to exercise.
        """
        if self._faults.draw("conn_drop") is not None:
            return True  # the finally block closes the writer unanswered
        if self._faults.draw("response_truncate") is not None:
            head = (f"HTTP/1.1 {status} X\r\n"
                    f"content-type: application/json\r\n"
                    f"content-length: {len(payload)}\r\n\r\n"
                    ).encode("latin-1")
            framed = head + payload
            writer.write(framed[:max(1, len(framed) // 2)])
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            return True
        return False

    async def _dispatch(self, method: str, path: str,
                        headers, body: bytes):
        route = (method, path.split("?", 1)[0])
        if route == ("POST", "/solve"):
            return await self._handle_solve(headers, body)
        if route == ("GET", "/stats"):
            return 200, json.dumps(
                self.service.stats().to_dict(), sort_keys=True).encode()
        if route == ("GET", "/metrics"):
            return self._handle_metrics(path)
        if route == ("GET", "/trace"):
            return self._handle_trace(path)
        if route == ("GET", "/health"):
            health = {
                "status": "ok",
                "pid": os.getpid(),
                "port": self.port,
                "uptime_seconds": time.monotonic() - self._started_at,
                "requests": self.service.stats().requests,
            }
            if self._faults is not None:
                health["faults_injected"] = self._faults.stats()
            return 200, json.dumps(health, sort_keys=True).encode()
        if route == ("POST", "/drain"):
            return await self._handle_drain(body)
        if route == ("POST", "/shutdown"):
            self._shutdown.set()
            return 200, b'{"status": "shutting down"}'
        return 404, json.dumps({
            "error": "ClusterError",
            "message": f"no route {method} {path}"}).encode()

    def _handle_metrics(self, path: str):
        """``GET /metrics``: legacy counters re-collected at scrape time.

        The registry is rebuilt from the live ``stats()`` snapshot on
        every scrape, so every series is numerically identical to the
        ``/stats`` answer of the same instant by construction; the live
        obs registry (latency histograms) is merged in when enabled.
        """
        query = parse_qs(path.partition("?")[2])
        registries = [collect_service_stats(self.service.stats())]
        if self._obs is not None:
            registries.append(self._obs.registry)
        if query.get("format", [""])[-1] == "json":
            return 200, json.dumps(merged_snapshot(*registries),
                                   sort_keys=True).encode()
        return (200, render_merged(*registries).encode(),
                "text/plain; version=0.0.4; charset=utf-8")

    def _handle_trace(self, path: str):
        """``GET /trace``: the span ring as Chrome ``trace_event`` JSON."""
        query = parse_qs(path.partition("?")[2])
        last = None
        raw = query.get("last", [None])[-1]
        if raw is not None:
            try:
                last = int(raw)
            except ValueError:
                return protocol.error_response(
                    ModelError(f"malformed last={raw!r} query parameter"))
        trace = {"traceEvents": []} if self._obs is None \
            else self._obs.tracer.chrome_trace(last=last)
        return 200, json.dumps(trace, sort_keys=True).encode()

    async def _handle_solve(self, headers, body: bytes):
        loop = asyncio.get_running_loop()
        obs = self._obs
        trace_id = None
        start = 0.0
        if obs is not None:
            trace_id = headers.get(protocol.TRACE_HEADER)
            start = obs.tracer.clock()
        try:
            if self._faults is not None \
                    and self._faults.draw("worker_sigkill") is not None:
                # The scripted hard crash: the process dies mid-request,
                # the gateway sees the dropped connection, the supervisor
                # (if enabled) respawns us on the same port.
                os.kill(os.getpid(), signal.SIGKILL)
            instance, strategy, config, digest = \
                protocol.decode_solve_request(body)
            # The wire carries the *remaining* deadline budget (monotonic
            # instants do not transfer across processes); rebuild a local
            # absolute deadline for the service.
            deadline = None
            deadline_ms = headers.get(protocol.DEADLINE_HEADER)
            if deadline_ms is not None:
                deadline = time.monotonic() + max(0.0,
                                                  float(deadline_ms)) / 1e3
            # submit() probes the disk tier synchronously on a tier-1 miss;
            # run it in the executor so the event loop keeps accepting.
            # The digest the gateway routed by is reused as the cache key,
            # skipping a canonical-serialization hash per request.
            future = await loop.run_in_executor(
                None, partial(self.service.submit, instance, strategy,
                              config=config, digest=digest,
                              deadline=deadline, trace_id=trace_id))
            report = await asyncio.wrap_future(future)
        except BaseException as exc:  # noqa: BLE001 - mapped to the wire
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            if obs is not None:
                self._record_solve(trace_id, start,
                                   error=type(exc).__name__)
            return protocol.error_response(exc)
        if obs is not None:
            self._record_solve(trace_id, start)
        return 200, protocol.encode_report(report)

    def _record_solve(self, trace_id: Optional[str], start: float,
                      error: Optional[str] = None) -> None:
        """One ``/solve`` finished: histogram observation + span."""
        obs = self._obs
        duration = obs.tracer.clock() - start
        obs.latency_histogram(
            "repro_worker_request_seconds",
            "Wall time of one worker /solve request.").observe(duration)
        if trace_id is None:
            return
        annotations = {} if error is None else {"error": error}
        obs.tracer.record_complete("worker.solve", trace_id=trace_id,
                                   start=start, duration=duration,
                                   **annotations)

    async def _handle_drain(self, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            timeout = payload.get("timeout", 60.0)
        except Exception as exc:  # noqa: BLE001 - malformed peer input
            return protocol.error_response(
                ModelError(f"malformed drain request: {exc}"))
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, partial(self.service.drain, timeout=timeout))
        return 200, json.dumps({"drained": bool(drained)}).encode()


async def _amain(args: argparse.Namespace) -> None:
    injector = None
    if getattr(args, "fault_plan", None):
        injector = FaultInjector.from_plan(FaultPlan.load(args.fault_plan))
    obs = Observability(service=f"worker-{os.getpid()}") \
        if getattr(args, "obs", False) else None
    worker = WorkerServer(
        host=args.host, port=args.port, store_dir=args.store,
        max_queue=args.max_queue, fault_injector=injector, obs=obs)
    await worker.start()
    # The launcher blocks on this exact line to learn the ephemeral port.
    print(f"REPRO_WORKER_READY port={worker.port} pid={os.getpid()}",
          flush=True)
    await worker.serve_until_shutdown()


def main(argv=None) -> int:
    """Entry point of ``python -m repro.cluster.worker``."""
    parser = argparse.ArgumentParser(
        prog="repro.cluster.worker",
        description="one cluster shard: a SolveService behind asyncio HTTP")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, announced on stdout)")
    parser.add_argument("--store", default=None,
                        help="shared artifact-store directory (tier 2/3)")
    parser.add_argument("--max-queue", type=int, default=10_000)
    parser.add_argument("--fault-plan", default=None,
                        help="fault plan: a built-in name (e.g. 'smoke') or "
                             "a JSON file path; chaos testing only")
    parser.add_argument("--obs", action="store_true",
                        help="enable observability: span tracing and live "
                             "latency histograms on /metrics and /trace")
    args = parser.parse_args(argv)
    try:
        asyncio.run(_amain(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
