"""Load test: 5,000+ mixed requests through one `SolveService`.

The acceptance contract of the serving layer:

* 5,000 mixed solve requests drawn from <= 200 distinct instances complete
  without an error;
* coalescing and the cache tiers bring the solver each distinct instance
  exactly once, one call per instance;
* a second identical pass is >= 95% tier-1/tier-2 cache hits with ZERO
  solver invocations;
* a store-backed cold restart also needs zero solver invocations (tier 2);
* every counter in :class:`~repro.serve.ServiceStats` stays exactly
  consistent (each request in exactly one bucket, per-tier hits+misses ==
  lookups).
"""

from __future__ import annotations

import threading

import pytest

from repro.api import SolveConfig, clear_cache, solve
from repro.cache import LRUCache
from repro.instances import random_linear_parallel
from repro.serve import SolveService, build_workload
from repro.study.store import ArtifactStore

NUM_REQUESTS = 5000
NUM_DISTINCT = 200
NUM_THREADS = 8

QUICK = SolveConfig(compute_nash=False)


class CountingSolver:
    """An injected solver counting its calls (one instance each)."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, instance, strategy, config):
        with self._lock:
            self.calls += 1
        return solve(instance, strategy, config=config, cache=LRUCache())


def _submit_stream(service, instances, schedule, *, threads=NUM_THREADS):
    """Submit the whole schedule from several threads; returns the reports."""
    futures = [None] * len(schedule)
    errors = []

    def worker(offset: int) -> None:
        try:
            for i in range(offset, len(schedule), threads):
                futures[i] = service.submit(instances[schedule[i]], "optop",
                                            config=QUICK)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(t,))
            for t in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, f"submission raised: {errors!r}"
    return [future.result(timeout=300) for future in futures]


@pytest.mark.slow
def test_five_thousand_mixed_requests_with_cache_and_coalescing(tmp_path):
    clear_cache()
    solver = CountingSolver()
    store = ArtifactStore(tmp_path / "artifacts")
    instances, schedule = build_workload(
        num_requests=NUM_REQUESTS, num_distinct=NUM_DISTINCT, num_links=3,
        seed=42)
    assert len(instances) == NUM_DISTINCT
    assert len(schedule) == NUM_REQUESTS

    service = SolveService(store=store, max_queue=0, solver=solver).start()
    try:
        # ---------------- pass 1: cold ---------------------------------- #
        reports = _submit_stream(service, instances, schedule)
        assert len(reports) == NUM_REQUESTS
        assert all(r.beta is not None for r in reports)

        stats1 = service.stats()
        assert stats1.consistent, stats1.to_dict()
        assert stats1.requests == NUM_REQUESTS
        # The solver saw each distinct instance exactly once.
        assert solver.calls == NUM_DISTINCT
        assert stats1.enqueued == NUM_DISTINCT
        assert (stats1.tier1_hits + stats1.tier2_hits + stats1.coalesced
                == NUM_REQUESTS - NUM_DISTINCT)

        # ---------------- pass 2: warm ----------------------------------- #
        calls_before = solver.calls
        reports2 = _submit_stream(service, instances, schedule)
        assert len(reports2) == NUM_REQUESTS

        stats2 = service.stats()
        assert solver.calls == calls_before, \
            "second pass must make zero solver invocations"
        pass2_hits = (stats2.tier1_hits + stats2.tier2_hits
                      - stats1.tier1_hits - stats1.tier2_hits)
        assert pass2_hits >= 0.95 * NUM_REQUESTS, (
            f"only {pass2_hits}/{NUM_REQUESTS} warm requests were cache "
            f"hits")
        assert stats2.consistent, stats2.to_dict()

        # The tiers count their probes, the service its buckets: every
        # keyed submission probes tier 1 exactly once, and only the
        # misses that were not coalesced reach tier 2.
        memory, store = stats2.cache["memory"], stats2.cache["store"]
        assert memory["hits"] + memory["misses"] == stats2.requests
        assert memory["hits"] == stats2.tier1_hits
        assert store["hits"] == stats2.tier2_hits
        assert store["misses"] == stats2.enqueued
        assert stats2.rejected == 0 and stats2.solve_failures == 0
    finally:
        service.shutdown(wait=True, timeout=120)

    # ---------------- pass 3: cold restart from the store ---------------- #
    clear_cache()  # the session-layer cache must not mask tier 2
    restart_solver = CountingSolver()
    with SolveService(store=ArtifactStore(tmp_path / "artifacts"),
                      solver=restart_solver) as restarted:
        sample = schedule[:1000]
        reports3 = _submit_stream(restarted, instances, sample, threads=4)
        assert len(reports3) == 1000
        stats3 = restarted.stats()
    assert restart_solver.calls == 0, \
        "a store-backed restart must re-warm without solver work"
    assert stats3.tier2_hits >= 1
    # Requests racing an in-progress tier-2 probe for their key coalesce
    # onto it instead of probing again; either way nothing is re-solved.
    assert stats3.hits + stats3.coalesced == 1000
    assert stats3.hits >= 0.95 * 1000
    assert stats3.consistent, stats3.to_dict()


@pytest.mark.slow
def test_sustained_backpressure_never_loses_accounting():
    """A tiny queue under a hot stream: rejections + hits still partition."""
    clear_cache()
    service = SolveService(max_queue=4).start()
    instances = [random_linear_parallel(3, demand=1.0, seed=s)
                 for s in range(50)]
    accepted, rejected = [], 0
    try:
        from repro.exceptions import ServiceOverloadedError

        for i in range(600):
            try:
                accepted.append(service.submit(instances[i % 50], "optop",
                                               config=QUICK))
            except ServiceOverloadedError:
                rejected += 1
        for future in accepted:
            future.result(timeout=120)
        stats = service.stats()
    finally:
        service.shutdown(wait=True, timeout=60)
    assert stats.requests == 600
    assert stats.rejected == rejected
    assert stats.consistent, stats.to_dict()
