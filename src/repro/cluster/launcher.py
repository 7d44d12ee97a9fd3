"""Cluster lifecycle: spawn workers, wire the gateway, drain, shut down.

:func:`start_cluster` is the one-call entry point::

    from repro.cluster import start_cluster

    with start_cluster(n_workers=2, store_dir="cluster-store") as cluster:
        report = cluster.solve(instance, "optop")
        stats = cluster.stats()          # aggregated, exact partition

It spawns ``n_workers`` worker *processes* (``python -m
repro.cluster.worker``) on ephemeral localhost ports — each announces
``REPRO_WORKER_READY port=...`` on stdout, which the launcher parses, so
there is no port-race window — all sharing one artifact-store directory,
then builds a :class:`~repro.cluster.gateway.ClusterGateway` over them
inside a dedicated event-loop thread.  The returned
:class:`ClusterHandle` is the synchronous facade: ``submit`` /``solve``/
``solve_many``/``stats``/``drain``/``shutdown`` all bridge into the
gateway loop via ``run_coroutine_threadsafe``.

Fault injection for tests rides along: :meth:`ClusterHandle.kill_worker`
SIGKILLs one shard mid-stream; the gateway re-routes its keys to the
survivors on the next connection failure.  With ``supervise=True`` a
:class:`WorkerSupervisor` thread additionally respawns dead worker
processes in place (same port, warm via the shared store) under a bounded
restart budget with exponential backoff, and ``fault_plan=`` arms every
worker's deterministic fault injector (:mod:`repro.faults`) for chaos
runs.
"""

from __future__ import annotations

import asyncio
import logging
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SolveConfig
from repro.api.report import SolveReport
from repro.cluster.gateway import ClusterGateway
from repro.exceptions import ClusterError
from repro.faults.spec import PROCESS_FATAL_KINDS, FaultPlan
from repro.obs import Observability
from repro.obs.collect import merged_snapshot, render_merged
from repro.serve.service import ServiceStats, check_batching

__all__ = ["ClusterHandle", "EventLoopThread", "WorkerProcess",
           "WorkerSupervisor", "start_cluster"]

logger = logging.getLogger("repro.cluster.launcher")

_READY_LINE = re.compile(r"REPRO_WORKER_READY port=(\d+) pid=(\d+)")


class EventLoopThread:
    """An asyncio loop running in a daemon thread, driven synchronously."""

    def __init__(self, name: str = "repro-cluster-loop") -> None:
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._ready.set)
        self.loop.run_forever()

    def start(self) -> "EventLoopThread":
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ClusterError("gateway event loop failed to start")
        return self

    def submit(self, coro) -> Future:
        """Schedule a coroutine; returns its ``concurrent.futures.Future``."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro, timeout: Optional[float] = None):
        """Run a coroutine to completion and return its result."""
        return self.submit(coro).result(timeout=timeout)

    def stop(self) -> None:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10.0)
        if not self.loop.is_closed():
            self.loop.close()


class WorkerProcess:
    """One spawned shard: the subprocess and its announced endpoint.

    The constructor arguments are kept, so :meth:`respawn` can relaunch a
    dead shard *on the same port* (its routing identity) — with the
    process-fatal fault kinds stripped from the plan, so a scripted
    SIGKILL cannot re-fire in every replacement and burn the supervisor's
    restart budget.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 store_dir: Optional[str] = None, max_batch: int = 64,
                 max_wait_ms: float = 2.0, max_queue: int = 10_000,
                 pool_workers: int = 0,
                 startup_timeout: float = 120.0,
                 fault_plan: Optional[FaultPlan] = None,
                 obs: bool = False) -> None:
        self.host = host
        self.store_dir = store_dir
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_queue = max_queue
        self.pool_workers = pool_workers
        self.startup_timeout = startup_timeout
        self.fault_plan = fault_plan
        self.obs = bool(obs)
        #: Times this shard was relaunched after dying.
        self.respawns = 0
        self.process = self._spawn(port=port, fault_plan=fault_plan)
        self.port = self._await_ready(startup_timeout)

    def _spawn(self, *, port: int,
               fault_plan: Optional[FaultPlan]) -> subprocess.Popen:
        command = [sys.executable, "-m", "repro.cluster.worker_main",
                   "--host", self.host, "--port", str(port),
                   "--max-batch", str(self.max_batch),
                   "--max-wait-ms", str(self.max_wait_ms),
                   "--max-queue", str(self.max_queue),
                   "--workers", str(self.pool_workers)]
        if self.store_dir is not None:
            command += ["--store", str(self.store_dir)]
        if fault_plan is not None and fault_plan.specs:
            command += ["--fault-plan", fault_plan.to_json()]
        if self.obs:
            command += ["--obs"]
        env = dict(os.environ)
        # The worker must import repro regardless of how the parent found
        # it (installed, or straight off src/ via PYTHONPATH).
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env)

    def respawn(self) -> None:
        """Relaunch a dead shard on its original port (same node id).

        The shared artifact store makes the replacement warm: any key the
        dead incarnation persisted is served from disk.  Raises
        :class:`~repro.exceptions.ClusterError` when the replacement fails
        to announce readiness (the caller owns the retry budget).
        """
        if self.alive:
            return
        plan = None if self.fault_plan is None \
            else self.fault_plan.without(PROCESS_FATAL_KINDS)
        self.process = self._spawn(port=self.port, fault_plan=plan)
        announced = self._await_ready(self.startup_timeout)
        if announced != self.port:
            self.process.kill()
            raise ClusterError(
                f"respawned worker announced port {announced}, expected "
                f"{self.port} (routing identity must not change)")
        self.respawns += 1

    def _await_ready(self, timeout: float) -> int:
        """Parse the READY line off stdout (in a thread, with a deadline)."""
        result: Dict[str, int] = {}
        ready = threading.Event()

        def pump() -> None:
            stream = self.process.stdout
            for line in iter(stream.readline, ""):
                match = _READY_LINE.search(line)
                if match and not ready.is_set():
                    result["port"] = int(match.group(1))
                    ready.set()
                # keep draining so the worker never blocks on a full pipe
            ready.set()

        threading.Thread(target=pump, daemon=True,
                         name="repro-worker-stdout").start()
        if not ready.wait(timeout=timeout) or "port" not in result:
            self.process.kill()
            raise ClusterError(
                f"worker failed to announce readiness within {timeout}s "
                f"(exit code {self.process.poll()})")
        return result["port"]

    @property
    def endpoint(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL the shard (fault injection; no drain, no goodbye)."""
        self.process.kill()
        self.process.wait(timeout=10.0)

    def terminate(self, timeout: float = 10.0) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)


class WorkerSupervisor(threading.Thread):
    """Monitor worker processes; respawn the dead under a bounded budget.

    Sweeps every ``check_interval`` seconds.  A dead worker (its process
    exited — SIGKILLed, OOM-killed, crashed) is relaunched on the same
    port via :meth:`WorkerProcess.respawn` after an exponential backoff
    (``backoff_base * 2**respawns_so_far``), at most ``max_respawns``
    times per worker; then the gateway is told via
    :meth:`~repro.cluster.gateway.ClusterGateway.note_worker_respawn` so
    the dead incarnation's stats are archived and its breaker closes.
    A worker past its budget stays dead (and its keys stay failed over).
    """

    def __init__(self, *, workers: List[WorkerProcess],
                 gateway: ClusterGateway, loop: EventLoopThread,
                 max_respawns: int = 3, check_interval: float = 0.1,
                 backoff_base: float = 0.05) -> None:
        super().__init__(name="repro-cluster-supervisor", daemon=True)
        self.workers = workers
        self.gateway = gateway
        self.loop = loop
        self.max_respawns = int(max_respawns)
        self.check_interval = float(check_interval)
        self.backoff_base = float(backoff_base)
        self.respawn_failures = 0
        # Not "_stop": threading.Thread uses that name internally.
        self._halt = threading.Event()

    def stop(self, timeout: float = 10.0) -> None:
        self._halt.set()
        if self.is_alive():
            self.join(timeout=timeout)

    @property
    def total_respawns(self) -> int:
        return sum(worker.respawns for worker in self.workers)

    def run(self) -> None:
        while not self._halt.wait(self.check_interval):
            for worker in self.workers:
                if worker.alive or worker.respawns >= self.max_respawns:
                    continue
                delay = self.backoff_base * (2.0 ** worker.respawns)
                if self._halt.wait(delay):
                    return
                node_id = f"{worker.host}:{worker.port}"
                try:
                    worker.respawn()
                except Exception as exc:  # noqa: BLE001 - keep supervising
                    self.respawn_failures += 1
                    logger.warning("respawn of worker %s failed: %r",
                                   node_id, exc)
                    continue
                logger.warning(
                    "worker %s died; respawned (pid %d, respawn %d/%d)",
                    node_id, worker.process.pid, worker.respawns,
                    self.max_respawns)
                self.loop.loop.call_soon_threadsafe(
                    self.gateway.note_worker_respawn, node_id)

    def stats(self) -> Dict[str, object]:
        return {
            "enabled": True,
            "max_respawns": self.max_respawns,
            "worker_respawns": self.total_respawns,
            "respawn_failures": self.respawn_failures,
        }


class ClusterHandle:
    """Synchronous facade over a running cluster (gateway + workers)."""

    def __init__(self, *, workers: List[WorkerProcess],
                 gateway: ClusterGateway, loop: EventLoopThread,
                 store_dir: str,
                 owned_tmp: Optional[tempfile.TemporaryDirectory] = None,
                 http_port: Optional[int] = None,
                 supervisor: Optional[WorkerSupervisor] = None) -> None:
        self.workers = workers
        self.gateway = gateway
        self.loop = loop
        self.store_dir = store_dir
        self.http_port = http_port
        self.supervisor = supervisor
        self._owned_tmp = owned_tmp
        self._closed = False

    # ------------------------------------------------------------------ #
    # Solve path
    # ------------------------------------------------------------------ #
    def submit(self, instance, strategy: Optional[str] = None, *,
               config: Optional[SolveConfig] = None,
               deadline: Optional[float] = None,
               ) -> "Future[SolveReport]":
        """Submit one solve; returns a ``concurrent.futures.Future``.

        ``deadline`` (absolute :func:`time.monotonic`) rides the whole
        pipeline — gateway retry budget, wire header, shard dispatcher —
        and expires as :class:`~repro.exceptions.ServiceTimeoutError`.
        """
        return self.loop.submit(
            self.gateway.submit(instance, strategy, config=config,
                                deadline=deadline))

    def solve(self, instance, strategy: Optional[str] = None, *,
              config: Optional[SolveConfig] = None,
              deadline: Optional[float] = None,
              timeout: Optional[float] = 300.0) -> SolveReport:
        """Blocking one-shot solve through the cluster."""
        return self.submit(instance, strategy, config=config,
                           deadline=deadline).result(timeout=timeout)

    def solve_many(self, instances: Sequence[object],
                   strategy: Optional[str] = None, *,
                   config: Optional[SolveConfig] = None,
                   timeout: Optional[float] = 300.0) -> List[SolveReport]:
        """Submit a burst and gather the reports in submission order."""
        futures = [self.submit(instance, strategy, config=config)
                   for instance in instances]
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------ #
    # Observability & lifecycle
    # ------------------------------------------------------------------ #
    def stats(self, *, refresh: bool = True) -> Dict[str, object]:
        """Aggregated cluster stats (see :meth:`ClusterGateway.stats`),
        plus a ``supervisor`` section when supervision is enabled."""
        stats = self.loop.run(self.gateway.stats(refresh=refresh),
                              timeout=60.0)
        stats["supervisor"] = {"enabled": False} if self.supervisor is None \
            else self.supervisor.stats()
        return stats

    def merged_stats(self, *, refresh: bool = True) -> ServiceStats:
        """The cross-shard :class:`~repro.serve.ServiceStats` aggregate."""
        return ServiceStats.from_dict(
            dict(self.stats(refresh=refresh)["merged"]))

    def metrics(self, *, fmt: str = "text",
                refresh: bool = True) -> Union[str, Dict[str, object]]:
        """The gateway's ``/metrics`` surface without the HTTP hop:
        the Prometheus exposition (``fmt="text"``) or the JSON snapshot
        (``fmt="json"``) of the aggregated cluster counters, merged with
        the gateway's live latency histograms when observability is on.
        """
        registries = self.loop.run(
            self.gateway.metrics_registries(refresh=refresh), timeout=60.0)
        if fmt == "json":
            return merged_snapshot(*registries)
        if fmt != "text":
            raise ClusterError(f"unknown metrics format {fmt!r}")
        return render_merged(*registries)

    def trace(self, *, last: Optional[int] = None,
              aggregate: bool = True) -> Dict[str, object]:
        """The aggregated Chrome ``trace_event`` view (gateway spans plus
        every alive worker's ring); empty when observability is off."""
        return self.loop.run(
            self.gateway.trace(last=last, aggregate=aggregate),
            timeout=60.0)

    def health(self) -> Dict[str, object]:
        return self.loop.run(self.gateway.health(), timeout=60.0)

    def drain(self, *, timeout: float = 60.0) -> bool:
        """Block until every shard has resolved its accepted requests."""
        return self.loop.run(self.gateway.drain(timeout=timeout),
                             timeout=timeout + 30.0)

    def kill_worker(self, index: int) -> str:
        """SIGKILL shard ``index``; returns its node id (fault injection)."""
        worker = self.workers[index]
        node_id = f"{worker.host}:{worker.port}"
        worker.kill()
        return node_id

    def shutdown(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        """Drain (optionally), stop every worker, stop the gateway loop."""
        if self._closed:
            return
        self._closed = True
        if self.supervisor is not None:
            # Stop supervising before killing workers, or the monitor
            # would dutifully resurrect everything we terminate.
            self.supervisor.stop()
        try:
            if drain and any(worker.alive for worker in self.workers):
                try:
                    self.loop.run(self.gateway.drain(timeout=timeout),
                                  timeout=timeout + 30.0)
                except Exception:  # noqa: BLE001 - shutdown must proceed
                    pass
            try:
                self.loop.run(self.gateway.shutdown_workers(), timeout=30.0)
            except Exception:  # noqa: BLE001 - fall back to SIGTERM below
                pass
            try:
                self.loop.run(self.gateway.stop_http(), timeout=10.0)
            except Exception:  # noqa: BLE001
                pass
            self.gateway.close()
        finally:
            for worker in self.workers:
                worker.terminate()
            self.loop.stop()
            if self._owned_tmp is not None:
                self._owned_tmp.cleanup()

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)


def start_cluster(n_workers: int = 2, *, store_dir: Optional[str] = None,
                  host: str = "127.0.0.1", max_inflight: int = 8,
                  max_retries: int = 6, max_batch: int = 64,
                  max_wait_ms: float = 2.0, max_queue: int = 10_000,
                  pool_workers: int = 0, http: bool = False,
                  http_port: int = 0,
                  startup_timeout: float = 120.0,
                  supervise: bool = False, max_respawns: int = 3,
                  fault_plan: Optional[Union[FaultPlan, str]] = None,
                  obs: bool = False,
                  ) -> ClusterHandle:
    """Spawn ``n_workers`` shard processes and a gateway over them.

    All shards share one artifact-store directory (a private temporary one
    when ``store_dir`` is omitted, cleaned up on shutdown), so any key the
    cluster has ever solved is served from disk by whichever shard owns it
    now.  With ``http=True`` the gateway additionally listens on
    ``http_port`` (0 = ephemeral; see ``handle.http_port``).

    ``supervise=True`` starts a :class:`WorkerSupervisor` that respawns
    dead worker processes in place (same port, warm via the shared store)
    up to ``max_respawns`` times each; the default leaves dead workers
    dead, which is what fault-tolerance *tests* usually want.
    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`, a built-in plan
    name, or a plan-JSON file path) arms every worker's fault injector —
    chaos runs only.

    ``obs=True`` arms observability end to end: the gateway mints
    deterministic trace ids and records ``gateway.request`` spans, every
    worker is spawned with ``--obs`` (so it records ``worker.solve`` /
    ``service.batch`` / kernel spans under the propagated id), and
    :meth:`ClusterHandle.metrics` / :meth:`ClusterHandle.trace` expose
    the cross-process view.  Off by default: the disabled cost is one
    ``is None`` check per request at each hop.
    """
    if int(n_workers) < 1:
        raise ClusterError(f"n_workers must be >= 1, got {n_workers!r}")
    if int(max_inflight) < 1:
        raise ClusterError(
            f"max_inflight must be >= 1, got {max_inflight!r}")
    # Each worker's SolveService would reject these only after its spawn.
    check_batching(max_batch, max_wait_ms, max_queue)
    if isinstance(fault_plan, str):
        fault_plan = FaultPlan.load(fault_plan)
    owned_tmp = None
    if store_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        store_dir = owned_tmp.name
    workers: List[WorkerProcess] = []
    loop: Optional[EventLoopThread] = None
    supervisor: Optional[WorkerSupervisor] = None
    try:
        for _ in range(int(n_workers)):
            workers.append(WorkerProcess(
                host=host, store_dir=store_dir, max_batch=max_batch,
                max_wait_ms=max_wait_ms, max_queue=max_queue,
                pool_workers=pool_workers,
                startup_timeout=startup_timeout,
                fault_plan=fault_plan, obs=obs))
        loop = EventLoopThread().start()
        gateway = ClusterGateway(
            [worker.endpoint for worker in workers],
            max_inflight=max_inflight, max_retries=max_retries,
            obs=Observability(service="gateway") if obs else None)
        deadline = time.monotonic() + startup_timeout
        while True:
            health = loop.run(gateway.health(), timeout=30.0)
            if health["status"] == "ok" and all(
                    entry["health"] is not None
                    for entry in health["workers"].values()):
                break
            if time.monotonic() > deadline:
                raise ClusterError("cluster failed its startup health check")
            time.sleep(0.05)
        bound_port = None
        if http:
            bound_port = loop.run(
                gateway.start_http(host=host, port=http_port), timeout=30.0)
        if supervise:
            supervisor = WorkerSupervisor(
                workers=workers, gateway=gateway, loop=loop,
                max_respawns=max_respawns)
            supervisor.start()
        return ClusterHandle(workers=workers, gateway=gateway, loop=loop,
                             store_dir=store_dir, owned_tmp=owned_tmp,
                             http_port=bound_port, supervisor=supervisor)
    except BaseException:
        if supervisor is not None:
            supervisor.stop()
        for worker in workers:
            worker.terminate()
        if loop is not None:
            loop.stop()
        if owned_tmp is not None:
            owned_tmp.cleanup()
        raise
