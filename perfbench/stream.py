"""cluster_stream: an open loop into a 2-worker cluster on default settings.

One driver thread sends requests on a fixed arrival schedule (Poisson
arrivals at :data:`RATE`, drawn from a fixed generator) whatever the
cluster's state, and times each request from its *scheduled* send time.
The request mix is fixed as well; ``--seed`` only changes the instance
parameters.  Three kinds of request:

* ``cold``  - first touch of a key: a solve plus an artifact write;
* ``tier2`` - first touch of a key pre-solved into the shared store during
  set-up: a disk read;
* ``hot``   - a repeat of a key first touched at least
  :data:`HOT_MIN_AGE_S` earlier: a tier-1 hit that costs only the wire.

Repeats follow the hot-key model of ``repro.serve.bench.build_workload``:
a random tenth of the keys takes half of the repeats, and the other half
picks uniformly among all keys.  The shares of first touches, strategies
and sizes below are assumptions of this benchmark, not measurements; see
``perfbench/README.md``.

Repeats are spaced so no request can coalesce onto an in-flight solve,
which makes the tier buckets exact counts that repeat run to run.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import SolveConfig, solve
from repro.cache import LRUCache
from repro.cluster import start_cluster
from repro.serialization import instance_digest
from repro.study.store import ArtifactStore, artifact_key

from checks import check_equal
from inproc import WARM_UP_SEED, instance_seed, make_parallel
from measure import (PROBE_REF_S, TIMED_PASSES, Fingerprint, HostProbe, median,
                     own_peak_rss_mb, process_cpu_s, process_peak_rss_mb,
                     to_reference)

#: Arrivals per second; well below the seed's capacity for this mix.  At
#: 50/s, requests queued behind cold solves often enough that p50 and p95
#: moved by up to 30% between runs of one seed.
RATE = 30.0
#: Request kind shares (assumed); the rest are hot repeats.  Repeats stay
#: well above half of all requests, so the median falls inside the hot
#: class rather than on its edge.
COLD_SHARE = 0.2
TIER2_SHARE = 0.1
#: A key is repeated only this long after its first touch.
HOT_MIN_AGE_S = 1.0
#: Hot-key model of ``repro.serve.bench.build_workload``.
HOT_KEY_SHARE = 0.1
HOT_REPEAT_SHARE = 0.5
#: Instance sizes and their weights (assumed).
SIZES = (20, 50, 200)
SIZE_WEIGHTS = (0.3, 0.3, 0.4)
FAMILIES = ("linear", "mixed")
#: Strategy shares (assumed): mostly the paper's algorithm, some null
#: strategy.
STRATEGY_WEIGHTS = (("optop", 0.8), ("aloof", 0.2))
#: The schedule and mix never depend on --seed.
SCHEDULE_SEED = 0
#: Cluster settings: the defaults of ``start_cluster``.
CLUSTER_SETTINGS = {"n_workers": 2}
#: Clusters started and shut down before the passes, for more setup_s
#: samples.
SPARE_STARTS = 3
#: Seconds to wait for the last replies after the schedule ends.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Key:
    family: str
    m: int
    strategy: str
    tier2: bool


@dataclass
class Plan:
    keys: List[Key]
    #: (scheduled offset in seconds, key index, kind)
    requests: List[Tuple[float, int, str]]


def make_plan(seconds: float) -> Plan:
    rng = random.Random(SCHEDULE_SEED)
    strategies = [name for name, _ in STRATEGY_WEIGHTS]
    weights = [w for _, w in STRATEGY_WEIGHTS]
    keys: List[Key] = []
    first_touch: List[float] = []
    is_hot: List[bool] = []
    requests = []
    t = 0.0
    eligible = 0  # keys[:eligible] are old enough to repeat
    hot_eligible: List[int] = []
    for _ in range(int(round(RATE * seconds))):
        t += rng.expovariate(RATE)
        u = rng.random()
        while eligible < len(keys) and t - first_touch[eligible] >= HOT_MIN_AGE_S:
            if is_hot[eligible]:
                hot_eligible.append(eligible)
            eligible += 1
        if u < COLD_SHARE + TIER2_SHARE or eligible == 0:
            tier2 = COLD_SHARE <= u < COLD_SHARE + TIER2_SHARE
            keys.append(Key(family=rng.choice(FAMILIES),
                            m=rng.choices(SIZES, SIZE_WEIGHTS)[0],
                            strategy=rng.choices(strategies, weights)[0],
                            tier2=tier2))
            first_touch.append(t)
            is_hot.append(rng.random() < HOT_KEY_SHARE)
            requests.append((t, len(keys) - 1, "tier2" if tier2 else "cold"))
        else:
            if hot_eligible and rng.random() < HOT_REPEAT_SHARE:
                index = rng.choice(hot_eligible)
            else:
                index = rng.randrange(eligible)
            requests.append((t, index, "hot"))
    return Plan(keys=keys, requests=requests)


@dataclass
class Catalogue:
    """The plan's instances with their in-process reference reports."""

    instances: List[object]
    digests: List[str]
    references: List[object]


def build_catalogue(plan: Plan, seed: int, store_dirs: List[Path]) -> Catalogue:
    """Solve every key in-process; pre-solve the tier-2 keys into stores."""
    cache = LRUCache(max_entries=len(plan.keys) + 1)
    catalogue = Catalogue([], [], [])
    stores = [ArtifactStore(path) for path in store_dirs]
    config = SolveConfig()
    for index, key in enumerate(plan.keys):
        instance = make_parallel(key.family, key.m, instance_seed(seed, 0, index))
        reference = solve(instance, key.strategy, config=config, cache=cache)
        digest = instance_digest(instance)
        if key.tier2:
            for artifacts in stores:
                artifacts.put(artifact_key(digest, key.strategy, config), reference)
        catalogue.instances.append(instance)
        catalogue.digests.append(digest)
        catalogue.references.append(reference)
    return catalogue


@dataclass
class StreamPass:
    #: Seconds from scheduled send to reply per request, at reference
    #: speed; None = failed.
    times: List[Optional[float]]
    failed: int
    check_failures: int
    errors: List[str]
    late: List[float]
    wall_s: float
    setup_s: float = 0.0
    buckets: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    rss_mb: float = 0.0
    #: CPU seconds the worker processes spent while the schedule ran, at
    #: reference speed.
    worker_cpu_s: float = 0.0
    #: Median host probe reading while the schedule ran.
    probe_s: float = PROBE_REF_S
    spans: Optional[List[dict]] = None
    start_ts: float = 0.0


def _bucket_counts(stats: dict) -> Dict[str, int]:
    merged = stats["merged"]
    gateway = stats["gateway"]
    out = {name: int(merged.get(name, 0))
           for name in ("requests", "tier1_hits", "tier2_hits", "coalesced",
                        "enqueued", "rejected")}
    out["retries"] = int(gateway.get("overload_retries", 0)) + int(
        gateway.get("reroutes", 0))
    return out


def _warm_up(handle) -> None:
    futures = []
    for family in FAMILIES:
        for m in SIZES:
            for strategy, _ in STRATEGY_WEIGHTS:
                instance = make_parallel(family, m, WARM_UP_SEED + m)
                futures.append(handle.submit(instance, strategy))
    for future in futures:
        future.result(timeout=DRAIN_TIMEOUT_S)


def start(store_dir: Path, obs: bool):
    """``(handle, seconds from start_cluster to healthy at reference speed)``."""
    with HostProbe() as host:
        began = time.perf_counter()
        handle = start_cluster(store_dir=str(store_dir), obs=obs, **CLUSTER_SETTINGS)
        ended = time.perf_counter()
    return handle, to_reference(ended - began, host.probe_s(began, ended))


def run_pass(plan: Plan, catalogue: Catalogue, store_dir: Path, *,
             obs: bool) -> StreamPass:
    """Drive the schedule once through a fresh cluster over ``store_dir``."""
    handle, setup_s = start(store_dir, obs)
    try:
        _warm_up(handle)
        pids = [worker.process.pid for worker in handle.workers]
        before = _bucket_counts(handle.stats())
        cpu_before = sum(process_cpu_s(pid) or 0.0 for pid in pids)
        result = _drive(handle, plan, catalogue)
        result.worker_cpu_s = to_reference(
            sum(process_cpu_s(pid) or 0.0 for pid in pids) - cpu_before,
            result.probe_s)
        after = _bucket_counts(handle.stats())
        result.setup_s = setup_s
        result.buckets = {name: after[name] - before[name]
                          for name in after if name != "retries"}
        result.retries = after["retries"] - before["retries"]
        worker_rss = [process_peak_rss_mb(worker.process.pid)
                      for worker in handle.workers]
        result.rss_mb = own_peak_rss_mb() + sum(r or 0.0 for r in worker_rss)
        if obs:
            result.spans = handle.trace()["traceEvents"]
    finally:
        handle.shutdown(drain=False)
    return result


def _drive(handle, plan: Plan, catalogue: Catalogue) -> StreamPass:
    n = len(plan.requests)
    done: List[Optional[float]] = [None] * n
    finished = threading.Event()
    remaining = [n]
    lock = threading.Lock()

    def on_done(i: int, _future) -> None:
        done[i] = time.perf_counter()
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                finished.set()

    futures = []
    late = []
    with HostProbe() as host:
        begin = time.perf_counter() + 0.05
        for i, (offset, index, _kind) in enumerate(plan.requests):
            due = begin + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(time.perf_counter() - due)
            key = plan.keys[index]
            future = handle.submit(catalogue.instances[index], key.strategy)
            future.add_done_callback(partial(on_done, i))
            futures.append(future)
        finished.wait(timeout=DRAIN_TIMEOUT_S)

    times: List[Optional[float]] = [None] * n
    errors = []
    failed = check_failures = 0
    last_done = begin
    for i, (offset, index, kind) in enumerate(plan.requests):
        future = futures[i]
        if done[i] is None or not future.done():
            failed += 1
            errors.append(f"request {i} ({kind}) timed out")
            continue
        last_done = max(last_done, done[i])
        exc = future.exception()
        if exc is not None:
            failed += 1
            errors.append(f"request {i} ({kind}): {type(exc).__name__}: {exc}")
            continue
        reason = check_equal(future.result(), catalogue.references[index])
        if reason is not None:
            failed += 1
            check_failures += 1
            errors.append(f"request {i} ({kind}): {reason}")
            continue
        due = begin + offset
        times[i] = to_reference(done[i] - due, host.probe_s(due, done[i]))
    return StreamPass(times=times, failed=failed, check_failures=check_failures,
                      errors=errors, late=late, wall_s=last_done - begin,
                      start_ts=begin, probe_s=host.median_s())


def kind_medians_ms(plan: Plan, times: List[Optional[float]]) -> Dict[str, float]:
    """Median latency of each request kind (cold, tier2, hot)."""
    by_kind: Dict[str, List[float]] = {}
    for (_, _, kind), t in zip(plan.requests, times):
        if t is not None:
            by_kind.setdefault(kind, []).append(t)
    return {kind: median(values) * 1e3 for kind, values in sorted(by_kind.items())}


def expected_buckets(plan: Plan) -> Dict[str, int]:
    """The tier buckets the schedule implies for one pass."""
    kinds = [kind for _, _, kind in plan.requests]
    return {"tier1_hits": kinds.count("hot"), "tier2_hits": kinds.count("tier2"),
            "enqueued": kinds.count("cold"), "coalesced": 0}


def span_layers(layers, result: StreamPass) -> None:
    """Cluster and serve figures from the spans of the traced pass.

    ``cluster.hop_ms`` is the gateway span minus the worker span of one
    request: the HTTP round trip plus the worker's report encode, which
    runs after its ``worker.solve`` span closes.
    """
    by_trace: Dict[str, Dict[str, float]] = {}
    for event in result.spans or []:
        if float(event.get("ts", 0.0)) < result.start_ts * 1e6:
            continue  # set-up and warm-up traffic
        name = event.get("name", "")
        args = event.get("args") or {}
        dur_ms = float(event.get("dur", 0.0)) / 1e3
        spans = by_trace.setdefault(args.get("trace_id", ""), {})
        if name in ("gateway.request", "worker.solve", "service.batch"):
            spans[name] = dur_ms
        if name == "service.batch":
            layers.add("serve.batch_size", float(args.get("batch_size", 1)))
    for spans in by_trace.values():
        gateway = spans.get("gateway.request")
        worker = spans.get("worker.solve")
        batch = spans.get("service.batch")
        if gateway is not None:
            layers.add("cluster.gateway_ms", gateway)
        if worker is not None:
            layers.add("cluster.worker_ms", worker)
        if gateway is not None and worker is not None:
            layers.add("cluster.hop_ms", gateway - worker)
        if batch is not None:
            layers.add("serve.batch_ms", batch)
            if worker is not None:
                layers.add("serve.queue_wait_ms", worker - batch)


def probe_catalogue(layers, plan: Plan, catalogue: Catalogue, seed: int,
                    root: Path, limit: int = 24) -> None:
    """Layer probes on the largest catalogue instances."""
    import probes

    largest = [i for i, key in enumerate(plan.keys) if key.m == max(SIZES)]
    for index in largest[:limit]:
        key = plan.keys[index]
        instance = make_parallel(key.family, key.m, instance_seed(seed, 0, index))
        probes.serialization(layers, catalogue.instances[index], key.strategy)
        probes.parallel_kernels(layers, instance)
        probes.parallel_strategy(layers, instance, key.strategy)
        report = catalogue.references[index]
        probes.report(layers, report)
        probes.wire(layers, catalogue.instances[index], key.strategy, report)
        probes.store(layers, root, catalogue.digests[index], key.strategy, report)


def fingerprint(plan: Plan, catalogue: Catalogue) -> str:
    fp = Fingerprint()
    for offset, index, kind in plan.requests:
        fp.add(round(offset, 9), kind, plan.keys[index].strategy,
               catalogue.digests[index])
    return fp.hexdigest()


def run(seed: int, seconds: float, *, trace: bool, layers, tmp: Path):
    """Two passes of one schedule, each through its own fresh cluster.

    Timed runs start :data:`SPARE_STARTS` extra clusters first, so
    ``setup_s`` has five samples.  With ``trace`` the second pass runs with
    ``obs=True``.
    Returns ``(passes, setup samples, fingerprint, plan)``.
    """
    plan = make_plan(seconds / TIMED_PASSES)
    stores = [tmp / f"store-{i}" for i in range(TIMED_PASSES)]
    catalogue = build_catalogue(plan, seed, stores)
    setup = []
    for _ in range(0 if trace else SPARE_STARTS):
        handle, setup_s = start(stores[0], obs=False)
        handle.shutdown(drain=False)
        setup.append(setup_s)
    passes = [run_pass(plan, catalogue, store, obs=trace and i > 0)
              for i, store in enumerate(stores)]
    setup += [p.setup_s for p in passes]
    if trace:
        probe_catalogue(layers, plan, catalogue, seed, tmp / "probe-store")
        span_layers(layers, passes[-1])
    return passes, setup, fingerprint(plan, catalogue), plan
