"""Hammer test: the process-global result cache under concurrent solvers.

The session cache used to be a bare ``OrderedDict`` with unguarded counter
increments — safe only for single-threaded callers.  With the serving layer
submitting from many threads it must hold two properties under contention:

* no exceptions (no torn ``OrderedDict`` mutations), and
* exact accounting: ``hits + misses == cache-enabled solve calls``.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.api import SolveConfig, cache_stats, clear_cache, solve, solve_many
from repro.instances import random_linear_parallel

NUM_THREADS = 8
SOLVES_PER_THREAD = 200


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_hammer_mixed_solves_keeps_exact_counters():
    instances = [random_linear_parallel(3, demand=1.0 + 0.2 * i, seed=i)
                 for i in range(12)]
    config = SolveConfig(compute_nash=False)
    strategies = ("optop", "aloof", "scale")
    errors = []
    solved = []

    def worker(tid: int) -> None:
        rng = random.Random(1000 + tid)
        try:
            count = 0
            while count < SOLVES_PER_THREAD:
                if rng.random() < 0.1 and count + 4 <= SOLVES_PER_THREAD:
                    # A small batch (with an in-batch duplicate) in the mix:
                    # solve_many's duplicate path must count under the same
                    # lock as everything else.
                    batch = [rng.choice(instances) for _ in range(3)]
                    batch.append(batch[0])
                    solve_many(batch, rng.choice(strategies), config=config)
                    count += 4
                else:
                    solve(rng.choice(instances), rng.choice(strategies),
                          config=config)
                    count += 1
            solved.append(count)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(NUM_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, f"concurrent solves raised: {errors!r}"
    assert sum(solved) == NUM_THREADS * SOLVES_PER_THREAD
    stats = cache_stats()
    assert stats["hits"] + stats["misses"] == NUM_THREADS * SOLVES_PER_THREAD, (
        f"torn counters: {stats} for {NUM_THREADS * SOLVES_PER_THREAD} "
        f"requests")
    # The workload only has len(instances) x len(strategies) distinct keys,
    # far fewer than the request count: hits must dominate (racing first
    # solves can add at most a handful of extra misses per key).
    distinct_keys = len(instances) * len(strategies)
    assert stats["misses"] <= distinct_keys * NUM_THREADS
    assert stats["hits"] > stats["misses"]


def test_concurrent_same_key_solves_stay_consistent():
    """All threads racing on ONE key: counters still sum to requests."""
    instance = random_linear_parallel(3, demand=1.0, seed=0)
    config = SolveConfig(compute_nash=False)
    barrier = threading.Barrier(NUM_THREADS)
    errors = []

    def worker() -> None:
        try:
            barrier.wait(timeout=10)
            for _ in range(50):
                report = solve(instance, "optop", config=config)
                assert report.beta is not None
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(NUM_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    stats = cache_stats()
    assert stats["hits"] + stats["misses"] == NUM_THREADS * 50
    # At least one miss (the first solve); racing first solves may produce a
    # few more, but hits must dominate overwhelmingly.
    assert 1 <= stats["misses"] <= NUM_THREADS
