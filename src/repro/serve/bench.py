"""Synthetic request-stream benchmark for :class:`~repro.serve.SolveService`.

Drives a seed-deterministic mixed workload — ``num_requests`` submissions
drawn (with a mild popularity skew) from ``num_distinct`` random
parallel-link instances — through a service, optionally for several passes
over the same stream, and reports throughput plus the full
:class:`~repro.serve.service.ServiceStats` per pass.  The CLI front-end is
``repro serve bench``; the load-test suite reuses :func:`build_workload`
so the benchmarked stream and the tested stream are the same code path.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import SolveConfig
from repro.exceptions import ModelError
from repro.instances.random_parallel import random_linear_parallel
from repro.serve.service import ServiceStats, SolveService
from repro.study.store import ArtifactStore

__all__ = ["BenchPass", "BenchResult", "build_workload", "run_bench"]


@dataclass(frozen=True)
class BenchPass:
    """One pass over the synthetic stream: wall time and the stats delta."""

    index: int
    seconds: float
    requests: int
    stats: ServiceStats

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    def _rate(self, count: int) -> float:
        """``count`` as a percentage of this pass's requests."""
        return 100.0 * count / self.requests if self.requests > 0 else 0.0

    @property
    def tier1_hit_rate(self) -> float:
        """Tier-1 (in-memory LRU) hits as a percentage of requests."""
        return self._rate(self.stats.tier1_hits)

    @property
    def tier2_hit_rate(self) -> float:
        """Tier-2 (artifact store) hits as a percentage of requests."""
        return self._rate(self.stats.tier2_hits)

    @property
    def hit_rate(self) -> float:
        """Combined cache-hit percentage of this pass."""
        return self._rate(self.stats.hits)


@dataclass
class BenchResult:
    """Outcome of :func:`run_bench`: per-pass records plus final stats."""

    passes: List[BenchPass] = field(default_factory=list)
    final_stats: Optional[ServiceStats] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "passes": [{
                "index": p.index,
                "seconds": p.seconds,
                "requests": p.requests,
                "requests_per_second": p.requests_per_second,
                "tier1_hit_rate": p.tier1_hit_rate,
                "tier2_hit_rate": p.tier2_hit_rate,
                "hit_rate": p.hit_rate,
                "stats": p.stats.to_dict(),
            } for p in self.passes],
            "final_stats": None if self.final_stats is None
            else self.final_stats.to_dict(),
        }


def build_workload(*, num_requests: int, num_distinct: int,
                   num_links: int = 4, seed: int = 0,
                   ) -> Tuple[List[object], List[int]]:
    """A deterministic mixed request stream.

    Returns ``(instances, schedule)``: the ``num_distinct`` instances and
    the per-request instance index.  The schedule first touches every
    instance once (so a single pass exercises every key), then samples with
    a popularity skew — a random 10% of the catalogue absorbs half the
    remaining traffic, mimicking hot-key production streams.
    """
    if num_distinct < 1:
        raise ModelError(f"num_distinct must be >= 1, got {num_distinct!r}")
    if num_requests < num_distinct:
        raise ModelError(
            f"num_requests ({num_requests}) must cover every distinct "
            f"instance at least once ({num_distinct})")
    rng = random.Random(seed)
    instances = [
        random_linear_parallel(num_links, demand=1.0 + 0.25 * (i % 8),
                               seed=seed * 100_003 + i)
        for i in range(num_distinct)]
    schedule = list(range(num_distinct))
    hot = max(1, num_distinct // 10)
    hot_keys = rng.sample(range(num_distinct), hot)
    for _ in range(num_requests - num_distinct):
        if rng.random() < 0.5:
            schedule.append(rng.choice(hot_keys))
        else:
            schedule.append(rng.randrange(num_distinct))
    rng.shuffle(schedule)
    return instances, schedule


def run_bench(*, num_requests: int = 5000, num_distinct: int = 200,
              num_links: int = 4, seed: int = 0, passes: int = 2,
              strategy: str = "optop",
              store: Optional[ArtifactStore] = None,
              max_queue: int = 0,
              service: Optional[SolveService] = None,
              trace=None) -> BenchResult:
    """Push the synthetic stream through a service ``passes`` times.

    The per-pass stats are deltas against the previous pass
    (:meth:`~repro.serve.ServiceStats.since`), so the second pass of a
    healthy service shows (almost) pure cache hits and zero new solves.
    The cache tiers' own counters are cumulative: read them from
    ``final_stats``.

    With a ``trace`` (a :class:`~repro.scenarios.trace.DemandTrace`) the
    stream becomes *time-varying*: request ``r`` of a pass is pinned to
    trace step ``r * len(trace) // num_requests`` and the submitted instance
    is the scheduled one re-scaled to that step's demand level — diurnal
    traffic instead of the fixed hot-key mix.  Repeated levels then repeat
    instance digests, which the tiered cache and the coalescer collapse.
    """
    if passes < 1:
        raise ModelError(f"passes must be >= 1, got {passes!r}")
    config = SolveConfig(compute_nash=False)
    instances, schedule = build_workload(
        num_requests=num_requests, num_distinct=num_distinct,
        num_links=num_links, seed=seed)
    if trace is not None:
        from repro.scenarios.trace import DemandTrace

        if not isinstance(trace, DemandTrace):
            raise ModelError(
                f"trace must be a DemandTrace, got {type(trace).__name__}")
        num_steps = len(trace)
        instances = [
            instances[i].with_demand(trace.levels[r * num_steps
                                                  // len(schedule)])
            for r, i in enumerate(schedule)]
        schedule = list(range(len(instances)))
    own_service = service is None
    if own_service:
        service = SolveService(store=store, max_queue=max_queue)
    result = BenchResult()
    previous = service.stats()
    try:
        service.start()
        for pass_index in range(passes):
            start = time.perf_counter()
            futures = [service.submit(instances[i], strategy, config=config)
                       for i in schedule]
            for future in futures:
                future.result(timeout=300.0)
            seconds = time.perf_counter() - start
            now = service.stats()
            result.passes.append(BenchPass(
                index=pass_index, seconds=seconds, requests=len(schedule),
                stats=now.since(previous)))
            previous = now
    finally:
        if own_service:
            service.shutdown(wait=True, timeout=60.0)
    result.final_stats = service.stats()
    return result

