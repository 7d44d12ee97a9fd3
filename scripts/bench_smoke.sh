#!/usr/bin/env bash
# Smoke test of the repro.api batch execution path.
#
# Runs one solve_many batch (16 random parallel-link instances, then a
# cached re-run) and fails loudly if the batch layer
# regresses: wrong report count, missing cache hits, or a strategy that no
# longer induces the optimum.
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - <<'PY'
import time
from dataclasses import replace

from repro.api import SolveConfig, cache_size, cache_stats, solve_many
from repro.instances import random_linear_parallel


def solver_content(report):
    """The report minus the per-call cache metadata (hit flag, counters)."""
    return replace(report, metadata={k: v for k, v in report.metadata.items()
                                     if k != "cache"})

instances = [random_linear_parallel(6, demand=2.0, seed=s) for s in range(16)]

start = time.perf_counter()
reports = solve_many(instances, "optop")
cold = time.perf_counter() - start
assert len(reports) == 16, f"expected 16 reports, got {len(reports)}"
assert cache_size() == 16, f"expected 16 cached reports, got {cache_size()}"
assert all(r.attains_optimum for r in reports), "OpTop failed to induce C(O)"
assert all(0.0 <= r.beta <= 1.0 for r in reports), "beta out of range"

start = time.perf_counter()
again = solve_many(instances, "optop")
warm = time.perf_counter() - start
assert [solver_content(r) for r in again] == \
    [solver_content(r) for r in reports], \
    "cached re-run returned different reports"
assert all(r.metadata["cache"]["hit"] for r in again), "expected cache hits"
assert cache_stats()["hits"] >= len(instances), "hit counter did not advance"
assert warm < cold, (
    f"cached re-run ({warm:.3f}s) not faster than cold run ({cold:.3f}s)")

mean_beta = sum(r.beta for r in reports) / len(reports)
print(f"bench_smoke OK: 16 instances, cold {cold:.3f}s, warm {warm:.4f}s, "
      f"mean beta {mean_beta:.4f}")
PY

# Resume smoke test of the declarative study pipeline: the same smoke study
# run twice against one artifact store must be 100% store hits the second
# time (zero solver calls), which is what `repro study resume` relies on.
STORE_DIR="$(mktemp -d)"
trap 'rm -rf "$STORE_DIR"' EXIT

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} STUDY_STORE="$STORE_DIR" python - <<'PY'
import os

from repro.api import cache_stats, clear_cache
from repro.study import ArtifactStore, get_named_study, run_study

store = ArtifactStore(os.environ["STUDY_STORE"])
spec = get_named_study("smoke")

clear_cache()
cold = run_study(spec, store=store)
assert len(cold) == spec.num_cells, (len(cold), spec.num_cells)
assert cold.store_hits == 0, cold.store_hits
assert cold.solver_calls == spec.num_cells, cold.solver_calls
assert all(r.report.attains_optimum for r in cold), "OpTop failed on a cell"

clear_cache()  # drop the in-process cache: only the artifacts may serve
warm = run_study(spec, store=store)
assert warm.fully_resumed, (
    f"expected zero solver calls on resume, got {warm.solver_calls}")
assert warm.store_hits == spec.num_cells, warm.store_hits
assert cache_stats()["misses"] == 0, cache_stats()
assert [r.report.beta for r in warm] == [r.report.beta for r in cold]

print(f"study_smoke OK: {spec.num_cells} cells, second run "
      f"{warm.store_hits}/{spec.num_cells} artifact hits, "
      f"{warm.solver_calls} solver calls")
PY

# Network smoke: one cold 5x6 grid through `solve` with optop (MOP) and llf,
# then one cold 7x7 grid with optop under `auto`, then one cold 5x5 grid
# whose shortest-path trees must all run in Python (no csgraph call).
# A path-equilibration solve that misses its path-cost residual (1e-12)
# raises ConvergenceError and fails the script; each must also finish within
# a round ceiling, and the solves of one strategy within a total that the
# Nash -> optimum warm start must not exceed.  Round counts repeat exactly.
# There is no wall-clock bound.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - <<'PY'
from repro.api import solve
from repro.cache import LRUCache
from repro.equilibrium import network as network_module
from repro.instances import grid_network

MAX_ROUNDS = 60
# Total rounds per strategy of the cold solves before warm starts:
# optop 17 + 1 + 15 (optimum, induced, Nash), llf 17 + 15 + 9 (optimum,
# Nash, induced).  With the optimum seeded by the Nash they take 25 and 33.
MAX_TOTAL_ROUNDS = {"optop": 33, "llf": 41}
solves = []
path_based_flow = network_module.path_based_flow


def recorded(*args, **kwargs):
    result = path_based_flow(*args, **kwargs)
    solves.append(result)
    return result


network_module.path_based_flow = recorded
for strategy in ("optop", "llf"):
    del solves[:]
    report = solve(grid_network(5, 6, seed=11), strategy, cache=LRUCache())
    assert solves, f"{strategy}: no path-equilibration solve ran"
    for result in solves:
        assert result.iterations <= MAX_ROUNDS, (
            f"{strategy}: {result.iterations} rounds > {MAX_ROUNDS}")
    total = sum(result.iterations for result in solves)
    assert total <= MAX_TOTAL_ROUNDS[strategy], (
        f"{strategy}: {total} rounds in all > {MAX_TOTAL_ROUNDS[strategy]}")
    if strategy == "optop":
        assert report.attains_optimum, "MOP failed to induce C(O)"
    print(f"network_smoke OK: {strategy} on a 5x6 grid, {len(solves)} solves, "
          f"<= {max(r.iterations for r in solves)} rounds ({total} in all), "
          f"residual <= "
          f"{max(r.relative_gap for r in solves):.1e}")

# One cold 7x7 grid (84 edges) through `auto`: path equilibration runs at
# every network size, so the solve is path-based and certified and never
# reaches Frank-Wolfe.
def refuse(*args, **kwargs):
    raise AssertionError("auto ran Frank-Wolfe on a 7x7 grid")


network_module.frank_wolfe = refuse
del solves[:]
instance = grid_network(7, 7, seed=11)
report = solve(instance, "optop", cache=LRUCache())
assert solves, "auto: no path-equilibration solve ran on a 7x7 grid"
for result in solves:
    assert result.solver == "path-based", result.solver
    assert result.relative_gap <= 1e-12, result.relative_gap
    assert result.iterations <= MAX_ROUNDS, (
        f"7x7: {result.iterations} rounds > {MAX_ROUNDS}")
assert report.attains_optimum, "MOP failed to induce C(O) on a 7x7 grid"
print(f"network_smoke OK: optop on a 7x7 grid ({instance.network.num_edges} "
      f"edges) under auto, {len(solves)} path solves, <= "
      f"{max(r.iterations for r in solves)} rounds, residual <= "
      f"{max(r.relative_gap for r in solves):.1e}")

# One cold 5x5 grid (25 nodes) through `auto`: below the engine's node cut,
# every shortest-path tree of its three path solves is a Python heap
# Dijkstra, so `csgraph.dijkstra` is never called.
from repro.paths import dijkstra

csgraph_calls = []
sparse_dijkstra = dijkstra._sparse_dijkstra


def counted(*args, **kwargs):
    csgraph_calls.append(1)
    return sparse_dijkstra(*args, **kwargs)


dijkstra._sparse_dijkstra = counted
del solves[:]
report = solve(grid_network(5, 5, seed=11), "optop", cache=LRUCache())
assert len(solves) == 3, f"5x5: expected 3 path solves, got {len(solves)}"
assert not csgraph_calls, (
    f"5x5: {len(csgraph_calls)} csgraph.dijkstra calls, expected 0")
assert report.attains_optimum, "MOP failed to induce C(O) on a 5x5 grid"
print(f"network_smoke OK: optop on a 5x5 grid under auto, {len(solves)} path "
      f"solves, {len(csgraph_calls)} csgraph.dijkstra calls")
PY
