"""`repro.serve` — the high-throughput serving layer.

Turns the blocking one-shot :mod:`repro.api` call path into a service fit
for heavy traffic:

>>> from repro.serve import SolveService
>>> from repro import instances
>>> with SolveService(max_batch=32, max_wait_ms=2.0) as service:
...     future = service.submit(instances.pigou())      # returns immediately
...     report = future.result()
>>> round(report.beta, 6)
0.5

The pieces:

* :class:`SolveService` — micro-batching request queue that coalesces
  concurrent submissions into :func:`repro.api.solve_many` batches, with
  bounded-queue backpressure and a start/drain/shutdown lifecycle;
* :class:`TieredCache` — write-through tier-1 in-memory LRU
  (:class:`repro.cache.LRUCache`) above the tier-2 on-disk
  :class:`repro.study.store.ArtifactStore`; it keeps no counters of its
  own — the two tiers count their probes;
* :class:`ServiceStats` — an atomic snapshot whose buckets partition the
  request count exactly (``requests == tier1_hits + tier2_hits + coalesced
  + enqueued + rejected + probing``, the last transiently covering
  requests whose tier-2 disk probe is executing at snapshot time);
* :func:`run_bench` / ``repro serve bench`` — a seed-deterministic
  synthetic request stream for measuring throughput and cache behaviour.
"""

from repro.serve.bench import BenchPass, BenchResult, build_workload, run_bench
from repro.serve.cache import TieredCache
from repro.serve.service import ServiceStats, SolveService

__all__ = [
    "SolveService",
    "ServiceStats",
    "TieredCache",
    "BenchPass",
    "BenchResult",
    "build_workload",
    "run_bench",
]
