#!/usr/bin/env python
"""Performance trajectory of the vectorized kernel layer.

Times the hot paths — warm and cold ``water_fill``, warm and cold ``optop``
and ``frank_wolfe`` — with the vectorized kernels against the scalar
oracles ``water_fill_reference`` and ``all_or_nothing_reference`` on sized
instances.  The whole-algorithm rows (``optop``,
``frank_wolfe``) swap the oracles in with ``unittest.mock.patch`` on the
module attribute the solver calls; the Frank–Wolfe row also forces the
golden-section line search.  The serving-layer series follows:
warm-vs-cold ``trace_replay`` through the artifact store.  The cluster is
benchmarked by ``perfbench/run.py --workload cluster_stream``, not here.
The measurements (with speedup factors) go to ``BENCH_perf.json``.  CI
runs this per commit and uploads the JSON as an artifact; the run fails
(non-zero exit) when the kernels deviate from the oracles, the warm trace
replay makes a solver call, the warm mixed-family ``water_fill`` speedup
at ``m >= 1000`` drops below the 10x gate, a cold ``water_fill`` (a fresh
``LatencyBatch`` per call) is slower than the reference at any size, or a
cold ``optop`` (``optop_cold``, a fresh instance per call) canonicalises
its latencies more than once or builds a per-link latency object.  The
``solve_cold``
rows time whole cold ``solve`` calls (a fresh instance per call, cache on)
and split out the work around the kernels: the instance digest (which
canonicalises the links once), the ``LatencyBatch`` fill from those columns
and the ``SolveReport`` build.  A cold network solve
(``pathbased_cold``) that misses its path-cost residual raises
``ConvergenceError`` and so fails the run too.  The ``network_cold`` rows
time whole cold ``solve`` calls (``optop``, ``llf``) on fresh graphs, from
a 4x5 grid to a 20x20 one (760 edges; ``--quick`` stops at 7x7), with
the median and interquartile range of the calls, and count the rounds of
their Nash, optimum and induced path solves.  The ``shortest_path`` rows
time one ``ShortestPathEngine`` round (``reprice`` + ``run`` +
``path_edges``) in each branch, Python heap Dijkstra and ``csgraph``, on
grids from 4x4 to 20x20 and layered graphs from 3x3 to 12x12; the
``shortest_path_crossover`` row records where ``csgraph`` starts to win,
which sets ``repro.paths.dijkstra.HEAP_MAX_NODES``.

Usage::

    python scripts/bench_perf.py [--output BENCH_perf.json] [--quick]

``--quick`` shrinks the instance sizes and repeat counts (used by CI).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro.api.session  # noqa: E402
from repro.api import SolveReport, solve  # noqa: E402
from repro.cache import LRUCache  # noqa: E402
from repro.core.optop import optop  # noqa: E402
from repro.equilibrium.frank_wolfe import (  # noqa: E402
    FrankWolfeOptions,
    all_or_nothing_reference,
    frank_wolfe,
)
from repro.equilibrium.parallel import (  # noqa: E402
    parallel_nash,
    water_fill,
    water_fill_reference,
)
from repro.equilibrium.pathbased import path_based_flow  # noqa: E402
from repro.instances import (  # noqa: E402
    grid_network,
    layered_network,
    random_linear_parallel,
    random_mixed_parallel,
    random_multicommodity_instance,
)
from repro.latency import LatencyFunction, ShiftedLatency  # noqa: E402
from repro.latency import batch as batch_module  # noqa: E402
from repro.latency.batch import LatencyBatch  # noqa: E402
from repro.latency.columns import LatencyColumns  # noqa: E402
from repro.paths import dijkstra  # noqa: E402


def _reference_water_fill(latencies, demand, kind, *, tol=1e-12, batch=None):
    return water_fill_reference(latencies, demand, kind, tol=tol, batch=batch)


@contextlib.contextmanager
def reference_water_fill():
    """Run parallel-link solvers on the scalar water-filling oracle."""
    with mock.patch("repro.equilibrium.parallel.water_fill",
                    _reference_water_fill):
        yield


@contextlib.contextmanager
def reference_frank_wolfe():
    """Run Frank–Wolfe on the scalar all-or-nothing and golden section."""
    with mock.patch("repro.equilibrium.frank_wolfe.all_or_nothing",
                    all_or_nothing_reference), \
            mock.patch.object(LatencyBatch, "supports_newton", False):
        yield


def best_of(fn, *, repeats: int, budget: float = 5.0) -> float:
    """Best wall time of ``fn`` over up to ``repeats`` runs within ``budget`` s."""
    best = float("inf")
    spent = 0.0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        if spent > budget:
            break
    return best


def bench_water_fill(sizes, *, repeats: int):
    """Warm water_fill on all-linear and mixed-family parallel instances.

    The vectorized timing reuses the instance-cached latency batch, so it
    leaves out the batch build that every new instance pays
    (:func:`bench_water_fill_cold` times that).
    """
    rows = []
    for family, generator in (("linear", random_linear_parallel),
                              ("mixed", random_mixed_parallel)):
        for m in sizes:
            instance = generator(int(m), demand=0.2 * m, seed=int(m))
            batch = instance.latency_batch()  # built once, reused per solve
            vec = best_of(lambda: water_fill(instance.latencies, instance.demand,
                                             "nash", batch=batch),
                          repeats=repeats)
            ref = best_of(lambda: water_fill_reference(instance.latencies,
                                                       instance.demand, "nash"),
                          repeats=max(2, repeats // 2))
            flows_v, _ = water_fill(instance.latencies, instance.demand,
                                    "nash", batch=batch)
            flows_r, _ = water_fill_reference(instance.latencies,
                                              instance.demand, "nash")
            rows.append({
                "benchmark": "water_fill",
                "family": family,
                "size": int(m),
                "vectorized_seconds": vec,
                "reference_seconds": ref,
                "speedup": ref / vec,
                "max_flow_deviation": float(np.max(np.abs(flows_v - flows_r))),
            })
            print(f"water_fill[{family}] m={m}: {vec*1e3:8.3f} ms vs "
                  f"{ref*1e3:8.3f} ms -> {ref/vec:6.1f}x")
    return rows


def bench_water_fill_cold(sizes, *, repeats: int):
    """Cold water_fill on mixed-family instances: no ``batch=``.

    Every call builds a fresh ``LatencyBatch`` and level profile, as a solve
    on an instance the process has never seen does.  The gate requires the
    cold call to be no slower than the scalar reference at any size.
    """
    rows = []
    for m in sizes:
        instance = random_mixed_parallel(int(m), demand=0.2 * m, seed=int(m))
        cold = best_of(lambda: water_fill(instance.latencies, instance.demand,
                                          "nash"),
                       repeats=repeats)
        ref = best_of(lambda: water_fill_reference(instance.latencies,
                                                   instance.demand, "nash"),
                      repeats=max(2, repeats // 2))
        flows_v, _ = water_fill(instance.latencies, instance.demand, "nash")
        flows_r, _ = water_fill_reference(instance.latencies,
                                          instance.demand, "nash")
        rows.append({
            "benchmark": "water_fill_cold",
            "family": "mixed",
            "size": int(m),
            "vectorized_seconds": cold,
            "reference_seconds": ref,
            "speedup": ref / cold,
            "max_flow_deviation": float(np.max(np.abs(flows_v - flows_r))),
        })
        print(f"water_fill_cold[mixed] m={m}: {cold*1e3:8.3f} ms vs "
              f"{ref*1e3:8.3f} ms -> {ref/cold:6.1f}x")
    return rows


def bench_optop(sizes, *, repeats: int):
    """Full OpTop runs (optimum + Nash + per-round water filling)."""
    rows = []
    for m in sizes:
        instance = random_linear_parallel(int(m), demand=0.2 * m, seed=7 + int(m))
        vec = best_of(lambda: optop(instance), repeats=repeats)
        beta_v = optop(instance).beta
        with reference_water_fill():
            ref = best_of(lambda: optop(instance),
                          repeats=max(2, repeats // 2))
            beta_r = optop(instance).beta
        rows.append({
            "benchmark": "optop",
            "family": "linear",
            "size": int(m),
            "vectorized_seconds": vec,
            "reference_seconds": ref,
            "speedup": ref / vec,
            "beta_deviation": abs(beta_v - beta_r),
        })
        print(f"optop m={m}: {vec*1e3:8.3f} ms vs {ref*1e3:8.3f} ms "
              f"-> {ref/vec:6.1f}x")
    return rows


@contextlib.contextmanager
def counting_batch_builds():
    """Count latency canonicalisations (``LatencyColumns.__init__`` calls)."""
    calls = []
    original = LatencyColumns.__init__

    def counted(self, latencies):
        calls.append(None)
        original(self, latencies)

    with mock.patch.object(LatencyColumns, "__init__", counted):
        yield calls


@contextlib.contextmanager
def counting_latency_objects():
    """Count per-link latency objects: ``shifted`` calls and wrappers built.

    The counted ``shifted`` methods stay the stock shifts a batch derives
    with array operations, so the count does not change the code path.
    """
    calls = []

    def counting(original):
        def counted(self, *args):
            calls.append(None)
            return original(self, *args)
        return counted

    base_shifted = counting(LatencyFunction.shifted)
    wrapper_shifted = counting(ShiftedLatency.shifted)
    with mock.patch.object(LatencyFunction, "shifted", base_shifted), \
            mock.patch.object(ShiftedLatency, "shifted", wrapper_shifted), \
            mock.patch.object(ShiftedLatency, "__init__",
                              counting(ShiftedLatency.__init__)), \
            mock.patch.object(batch_module, "_STOCK_SHIFTS",
                              (base_shifted, wrapper_shifted)):
        yield calls


@contextlib.contextmanager
def timing(owner, name: str, into: list):
    """Append the seconds of every ``owner.name`` call to ``into``."""
    original = getattr(owner, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            into.append(time.perf_counter() - start)

    with mock.patch.object(owner, name, timed):
        yield


def bench_optop_cold(sizes, *, repeats: int):
    """OpTop on instances the process has never seen, one per call.

    Each call pays the one ``LatencyBatch`` canonicalisation of its
    instance; every round's sub-instance and the Followers' shifted
    instance are derived from that batch.  ``batch_builds`` is the largest
    number of canonicalisations any call made — the gate requires 1 — and
    ``latency_objects`` the most per-link latency objects (``shifted``
    calls and ``ShiftedLatency`` wrappers) any call built, counted on a
    separate untimed call per instance — the gate requires 0.
    """
    rows = []
    for family, generator in (("linear", random_linear_parallel),
                              ("mixed", random_mixed_parallel)):
        for m in sizes:
            times, builds, objects = [], 0, 0
            for k in range(max(2, repeats)):
                seed = 1000 * int(m) + k
                instance = generator(int(m), demand=0.2 * m, seed=seed)
                with counting_batch_builds() as calls:
                    start = time.perf_counter()
                    optop(instance)
                    times.append(time.perf_counter() - start)
                builds = max(builds, len(calls))
                with counting_latency_objects() as built:
                    optop(generator(int(m), demand=0.2 * m, seed=seed))
                objects = max(objects, len(built))
            rows.append({
                "benchmark": "optop_cold",
                "family": family,
                "size": int(m),
                "seconds": min(times),
                "median_seconds": float(np.median(times)),
                "batch_builds": builds,
                "latency_objects": objects,
            })
            print(f"optop_cold[{family}] m={m}: {min(times)*1e3:8.3f} ms "
                  f"(median {np.median(times)*1e3:8.3f} ms), "
                  f"{builds} batch build(s), {objects} latency object(s) "
                  f"per call")
    return rows


def bench_solve_cold(sizes, *, repeats: int, strategies=("aloof", "optop")):
    """Whole cold ``solve`` calls and the work around their kernels.

    One fresh instance per call, solved through ``solve`` with a fresh
    result cache, so each call digests its instance.  Per call it records
    the digest (including the one canonicalisation of the links), the
    ``LatencyBatch`` fill from those columns and the ``SolveReport`` build
    (``__post_init__`` plus the cache stamp); the rows report medians.
    """
    rows = []
    for family, generator in (("linear", random_linear_parallel),
                              ("mixed", random_mixed_parallel)):
        for m in sizes:
            for strategy in strategies:
                times, digest, batch, report = [], [], [], []
                for k in range(max(3, repeats)):
                    instance = generator(int(m), demand=0.2 * m,
                                         seed=2000 * int(m) + k)
                    parts = ([], [], [])
                    with timing(repro.api.session, "instance_digest",
                                parts[0]), \
                            timing(LatencyBatch, "_fill", parts[1]), \
                            timing(SolveReport, "__post_init__", parts[2]), \
                            timing(SolveReport, "stamped", parts[2]):
                        start = time.perf_counter()
                        solve(instance, strategy, cache=LRUCache())
                        times.append(time.perf_counter() - start)
                    for into, part in zip((digest, batch, report), parts):
                        into.append(sum(part))
                split = {"digest_ms": float(np.median(digest)) * 1e3,
                         "batch_ms": float(np.median(batch)) * 1e3,
                         "report_ms": float(np.median(report)) * 1e3}
                rows.append({
                    "benchmark": "solve_cold",
                    "family": family,
                    "size": int(m),
                    "strategy": strategy,
                    "seconds": min(times),
                    "median_seconds": float(np.median(times)),
                    **split,
                    "out_of_kernel_ms": sum(split.values()),
                })
                print(f"solve_cold[{family}, {strategy}] m={m}: "
                      f"{np.median(times)*1e3:8.3f} ms median; digest "
                      f"{split['digest_ms']:.3f}, batch "
                      f"{split['batch_ms']:.3f}, report "
                      f"{split['report_ms']:.3f} ms")
    return rows


def bench_network_cold(*, repeats: int, large: bool = True):
    """Whole cold network ``solve`` calls and their path solves by role.

    One fresh graph per call, solved through ``solve`` with a fresh result
    cache.  Every path-equilibration solve of the call is recorded with its
    role — the instance's ``nash`` or ``optimum``, or the Followers'
    ``induced`` equilibrium (a solve on another instance) — and the rows
    report the fastest and median call, the interquartile range of the
    calls and the mean rounds per role.  The 7x7 grid and the ``large``
    graphs run ``optop`` only; the 20x20 grid takes three calls, to bound
    the run time.
    """
    import repro.equilibrium.network as network_module

    original = network_module.path_based_flow
    calls = max(3, repeats)
    both = ("optop", "llf")
    cases = [
        ("grid 5x6", lambda seed: grid_network(5, 6, seed=seed), both, calls),
        ("grid 4x5", lambda seed: grid_network(4, 5, seed=seed), both, calls),
        ("layered 4x4", lambda seed: layered_network(4, 4, seed=seed), both,
         calls),
        ("grid 7x7", lambda seed: grid_network(7, 7, seed=seed), ("optop",),
         calls),
    ]
    if large:
        cases += [
            ("grid 10x10", lambda seed: grid_network(10, 10, seed=seed),
             ("optop",), calls),
            ("layered 12x12", lambda seed: layered_network(12, 12, seed=seed),
             ("optop",), calls),
            ("grid 20x20", lambda seed: grid_network(20, 20, seed=seed),
             ("optop",), 3),
        ]
    rows = []
    for name, make, strategies, count in cases:
        for strategy in strategies:
            times, rounds = [], {"nash": [], "optimum": [], "induced": []}
            for k in range(count):
                instance = make(3000 + k)
                solves = []

                def recorded(problem, kind, **kwargs):
                    result = original(problem, kind, **kwargs)
                    role = kind if problem is instance else "induced"
                    solves.append((role, result.iterations))
                    return result

                with mock.patch.object(network_module, "path_based_flow",
                                       recorded):
                    start = time.perf_counter()
                    solve(instance, strategy, cache=LRUCache())
                    times.append(time.perf_counter() - start)
                for role, solved in solves:
                    rounds[role].append(solved)
            q25, q75 = np.percentile(times, [25, 75])
            rows.append({
                "benchmark": "network_cold",
                "family": name,
                "strategy": strategy,
                "size": int(instance.network.num_edges),
                "calls": count,
                "seconds": min(times),
                "median_seconds": float(np.median(times)),
                "iqr_seconds": float(q75 - q25),
                **{f"rounds_{role}": float(np.mean(counts))
                   for role, counts in rounds.items()},
            })
            row = rows[-1]
            print(f"network_cold[{name}, {strategy}]: "
                  f"{row['median_seconds']*1e3:7.3f} ms median "
                  f"(IQR {row['iqr_seconds']*1e3:.3f} ms, {count} calls); "
                  f"rounds nash {row['rounds_nash']:.1f}, optimum "
                  f"{row['rounds_optimum']:.1f}, induced "
                  f"{row['rounds_induced']:.1f}")
    return rows


def bench_shortest_path(*, samples: int, quick: bool = False):
    """One engine round per call, in each branch, by network size.

    A call reprices the engine (cycling through four random cost vectors),
    runs the instance's source and walks the path to its sink, which is
    what a path-equilibration round asks of it.  The branches alternate
    sample by sample; each sample is the mean of a block of calls sized to
    about 5 ms.  The rows give the median and interquartile range of the
    samples, in microseconds per call, and the largest distance gap between
    the branches (which must be zero).  The crossover row names the largest
    network on which Python wins and the smallest on which ``csgraph``
    does, next to the engine's cut.
    """
    branches = {"python": 10**9, "csgraph": 0}
    grids = (4, 8, 10) if quick else (4, 5, 6, 7, 8, 9, 10, 12, 16, 20)
    layers = (3, 6) if quick else (3, 4, 5, 6, 7, 8, 10, 12)
    cases = ([(f"grid {k}x{k}", grid_network(k, k, seed=1)) for k in grids]
             + [(f"layered {k}x{k}", layered_network(k, k, seed=1))
                for k in layers])
    rng = np.random.default_rng(0)
    rows = []
    for name, instance in cases:
        network = instance.network
        source, sink = instance.source, instance.sink
        vectors = [rng.uniform(0.1, 2.0, network.num_edges) for _ in range(4)]
        engines = {}
        for branch, limit in branches.items():
            with mock.patch.object(dijkstra, "HEAP_MAX_NODES", limit):
                engines[branch] = dijkstra.ShortestPathEngine(network,
                                                              vectors[0])

        def rounds(engine, count):
            for i in range(count):
                engine.reprice(vectors[i & 3], validated=True)
                engine.run([source])
                engine.path_edges(source, sink)

        start = time.perf_counter()
        rounds(engines["python"], 20)
        block = max(1, int(0.005 / ((time.perf_counter() - start) / 20)))
        times = {branch: [] for branch in branches}
        for _ in range(samples):
            for branch, engine in engines.items():
                start = time.perf_counter()
                rounds(engine, block)
                times[branch].append((time.perf_counter() - start) / block)
        gap = 0.0
        for costs in vectors:
            distances = []
            for engine in engines.values():
                engine.reprice(costs)
                engine.run([source])
                distances.append(engine.distance(source, sink))
            gap = max(gap, abs(distances[0] - distances[1]))
        row = {"benchmark": "shortest_path", "family": name,
               "nodes": int(network.num_nodes),
               "size": int(network.num_edges), "calls_per_sample": block,
               "samples": samples, "max_distance_deviation": gap}
        for branch, values in times.items():
            q25, q50, q75 = np.percentile(values, [25, 50, 75])
            row[f"{branch}_median_us"] = float(q50 * 1e6)
            row[f"{branch}_iqr_us"] = float((q75 - q25) * 1e6)
        row["faster"] = min(branches, key=lambda b: row[f"{b}_median_us"])
        row["engine_branch"] = ("python" if network.num_nodes
                                <= dijkstra.HEAP_MAX_NODES else "csgraph")
        rows.append(row)
        print(f"shortest_path[{name}] n={row['nodes']} m={row['size']}: "
              f"python {row['python_median_us']:7.1f} us "
              f"(IQR {row['python_iqr_us']:.1f}), csgraph "
              f"{row['csgraph_median_us']:7.1f} us "
              f"(IQR {row['csgraph_iqr_us']:.1f}); engine runs "
              f"{row['engine_branch']}")
    python_wins = [r["nodes"] for r in rows if r["faster"] == "python"]
    csgraph_wins = [r["nodes"] for r in rows if r["faster"] == "csgraph"]
    rows.append({
        "benchmark": "shortest_path_crossover",
        "python_wins_up_to_nodes": max(python_wins, default=None),
        "csgraph_wins_from_nodes": min(csgraph_wins, default=None),
        "heap_max_nodes": dijkstra.HEAP_MAX_NODES,
    })
    print(f"shortest_path crossover: python wins up to "
          f"{rows[-1]['python_wins_up_to_nodes']} nodes, csgraph from "
          f"{rows[-1]['csgraph_wins_from_nodes']}; HEAP_MAX_NODES = "
          f"{dijkstra.HEAP_MAX_NODES}")
    return rows


def bench_frank_wolfe(*, repeats: int, iterations: int):
    """Frank–Wolfe on the E5 network families (grids and layered DAGs).

    Both kernels run the identical fixed iteration budget so the comparison
    is per-iteration work (CSR Dijkstra + Newton line search versus heapq
    Dijkstra + golden-section), not convergence luck.
    """
    rows = []
    cases = [
        ("grid 5x5", grid_network(5, 5, demand=3.0, seed=0)),
        ("grid 8x8", grid_network(8, 8, demand=5.0, seed=1)),
        ("layered 4x4", layered_network(4, 4, demand=2.0, seed=2)),
    ]
    options = FrankWolfeOptions(tolerance=0.0, max_iterations=iterations)
    for name, instance in cases:
        vec = best_of(lambda: frank_wolfe(instance, "nash", options),
                      repeats=repeats, budget=30.0)
        with reference_frank_wolfe():
            ref = best_of(lambda: frank_wolfe(instance, "nash", options),
                          repeats=max(1, repeats // 2), budget=30.0)
        rows.append({
            "benchmark": "frank_wolfe",
            "family": name,
            "size": int(instance.network.num_edges),
            "iterations": int(iterations),
            "vectorized_seconds": vec,
            "reference_seconds": ref,
            "speedup": ref / vec,
        })
        print(f"frank_wolfe[{name}] ({instance.network.num_edges} edges, "
              f"{iterations} iters): {vec:7.3f} s vs {ref:7.3f} s "
              f"-> {ref/vec:6.1f}x")
    return rows


def bench_pathbased_cold(*, repeats: int):
    """Path equilibration on networks the process has never seen.

    One fresh instance per call (the batch, CSR structure and engine are
    built inside the timing).  Each row keeps the fastest and median call
    and, over all calls, the most rounds, the largest working set (paths
    generated) and the worst final residual (at most ``tol = 1e-12``, or
    the solve raises ``ConvergenceError``).
    """
    cases = [
        ("grid 5x6", lambda seed: grid_network(5, 6, seed=seed)),
        ("grid 6x6", lambda seed: grid_network(6, 6, seed=seed)),
        ("layered 4x4", lambda seed: layered_network(4, 4, seed=seed)),
        ("E13 3-commodity 3x3", lambda seed: random_multicommodity_instance(
            3, 3, num_commodities=3, seed=seed)),
    ]
    rows = []
    for name, make in cases:
        for kind in ("optimum", "nash"):
            times, results = [], []
            for k in range(max(3, repeats)):
                instance = make(k)
                start = time.perf_counter()
                results.append(path_based_flow(instance, kind))
                times.append(time.perf_counter() - start)
            rows.append({
                "benchmark": "pathbased_cold",
                "family": name,
                "kind": kind,
                "size": int(instance.network.num_edges),
                "seconds": min(times),
                "median_seconds": float(np.median(times)),
                "rounds": max(r.iterations for r in results),
                "paths": max(r.num_paths for r in results),
                "residual": max(r.relative_gap for r in results),
            })
            row = rows[-1]
            print(f"pathbased_cold[{name}, {kind}]: "
                  f"{row['median_seconds']*1e3:7.3f} ms median, "
                  f"<= {row['rounds']} rounds, <= {row['paths']} paths, "
                  f"residual <= {row['residual']:.1e}")
    return rows


def bench_trace_replay(*, num_steps: int, num_links: int, repeats: int):
    """Warm vs cold trace replay through the serving layer.

    Replays a diurnal demand trace on a random parallel instance: the
    *cold* replay pays one solve per distinct level (repeats coalesce); the
    *warm* replay — same trace against the artifact store the cold run
    filled — must perform **zero** solver calls.  The warm/cold ratio is
    the serving-layer win on repeated demand levels, tracked per commit.
    """
    import tempfile

    from repro.api import clear_cache
    from repro.scenarios import DemandTrace, replay_trace
    from repro.study import ArtifactStore

    instance = random_linear_parallel(int(num_links), demand=2.0, seed=42)
    trace = DemandTrace.from_process(
        "diurnal", {"num_steps": int(num_steps), "base": 2.0,
                    "amplitude": 1.0})
    rows = []

    def one_cold():
        clear_cache()
        with tempfile.TemporaryDirectory() as tmp:
            replay_trace(instance, trace, store=ArtifactStore(tmp))

    cold = best_of(one_cold, repeats=repeats, budget=20.0)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        first = replay_trace(instance, trace, store=ArtifactStore(store_dir))

        def one_warm():
            clear_cache()
            replay_trace(instance, trace, store=ArtifactStore(store_dir))

        warm = best_of(one_warm, repeats=repeats, budget=20.0)
        clear_cache()
        check = replay_trace(instance, trace, store=ArtifactStore(store_dir))
    rows.append({
        "benchmark": "trace_replay",
        "family": "diurnal",
        "size": int(num_steps),
        "num_links": int(num_links),
        "distinct_levels": first.num_distinct_levels,
        "cold_seconds": cold,
        "warm_seconds": warm,
        "speedup": cold / warm if warm > 0 else float("inf"),
        "cold_solver_calls": first.solver_calls,
        "warm_solver_calls": check.solver_calls,
    })
    print(f"trace_replay[diurnal] {num_steps} steps "
          f"({first.num_distinct_levels} distinct): cold {cold*1e3:8.3f} ms "
          f"vs warm {warm*1e3:8.3f} ms -> {cold/warm:6.1f}x "
          f"(warm solver calls: {check.solver_calls})")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="where to write the JSON record")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes / fewer repeats (CI mode)")
    args = parser.parse_args(argv)

    if args.quick:
        wf_sizes, optop_sizes, repeats, fw_iters = (100, 1000), (100, 500), 3, 200
        trace_steps = 24
    else:
        wf_sizes, optop_sizes, repeats, fw_iters = ((100, 1000, 5000),
                                                    (100, 1000), 5, 500)
        trace_steps = 96

    cold_sizes = sorted(set(wf_sizes) | {4000})
    optop_cold_sizes = (1000,) if args.quick else (1000, 4000)

    # Warm up the kernels once so import/JIT-ish one-time costs stay out of
    # the measurements.
    parallel_nash(random_linear_parallel(50, demand=5.0, seed=0))

    results = []
    results += bench_water_fill(wf_sizes, repeats=repeats)
    results += bench_water_fill_cold(cold_sizes, repeats=repeats)
    results += bench_optop(optop_sizes, repeats=repeats)
    results += bench_optop_cold(optop_cold_sizes, repeats=repeats)
    results += bench_solve_cold(optop_cold_sizes, repeats=repeats)
    results += bench_frank_wolfe(repeats=repeats, iterations=fw_iters)
    results += bench_pathbased_cold(repeats=repeats)
    results += bench_network_cold(repeats=repeats, large=not args.quick)
    results += bench_shortest_path(samples=5 if args.quick else 15,
                                   quick=args.quick)
    results += bench_trace_replay(num_steps=trace_steps, num_links=16,
                                  repeats=repeats)

    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "quick": bool(args.quick),
        "results": results,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output} ({len(results)} measurements)")

    failures = [row for row in results
                if row.get("max_flow_deviation", 0.0) > 1e-9
                or row.get("max_distance_deviation", 0.0) > 0.0
                or row.get("beta_deviation", 0.0) > 1e-8
                or row.get("warm_solver_calls", 0) > 0
                or row.get("batch_builds", 1) > 1
                or row.get("latency_objects", 0) > 0
                or (row.get("benchmark") == "water_fill"
                    and row["family"] == "mixed" and row["size"] >= 1000
                    and row["speedup"] < 10.0)
                or (row.get("benchmark") == "water_fill_cold"
                    and row["speedup"] < 1.0)]
    if failures:
        print("WARNING: benchmark below gate or deviation above tolerance:",
              json.dumps(failures, indent=2))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
