"""`repro.cluster` — the sharded multi-worker solve fabric.

Scales :class:`repro.serve.SolveService` horizontally: N worker processes
(each one shard — a full service with micro-batching, coalescing and the
tiered cache) behind an asyncio HTTP gateway that routes every request by
instance digest, so one instance always lands on one shard and the
worker-local coalescing and tier-1 hit rates survive the scale-out.  All
shards share one content-addressed artifact store, the cluster's
persistent tier: a cold or newly-adopting shard answers any key the
cluster has ever solved from disk, without a solver call.

>>> from repro.cluster import start_cluster        # doctest: +SKIP
>>> from repro import instances                    # doctest: +SKIP
>>> with start_cluster(n_workers=2) as cluster:    # doctest: +SKIP
...     report = cluster.solve(instances.pigou())
...     stats = cluster.merged_stats()             # exact partition

The pieces:

* :class:`WorkerServer` (:mod:`repro.cluster.worker`) — one shard:
  a ``SolveService`` behind ``/solve``, ``/stats``, ``/health``,
  ``/drain``;
* :class:`ClusterGateway` (:mod:`repro.cluster.gateway`) — rendezvous
  routing, per-worker in-flight bounds, overload backoff, failover;
* :func:`start_cluster` / :class:`ClusterHandle`
  (:mod:`repro.cluster.launcher`) — process lifecycle and the synchronous
  facade;
* :mod:`repro.cluster.protocol` / :mod:`repro.cluster.hashing` — the JSON
  wire format and the deterministic shard mapping.
"""

from repro.cluster.gateway import ClusterGateway, WorkerEndpoint
from repro.cluster.hashing import rank_nodes, rendezvous_weight, route, shard_map
from repro.cluster.launcher import (
    ClusterHandle,
    EventLoopThread,
    WorkerProcess,
    start_cluster,
)
from repro.cluster.worker import WorkerServer, build_worker_service

__all__ = [
    "WorkerServer",
    "build_worker_service",
    "ClusterGateway",
    "WorkerEndpoint",
    "ClusterHandle",
    "EventLoopThread",
    "WorkerProcess",
    "start_cluster",
    "rendezvous_weight",
    "rank_nodes",
    "route",
    "shard_map",
]
