"""The in-process workloads: closed loops of ``repro.api.solve`` calls.

Both workloads repeat a fixed *cycle* of operations.  The composition of a
cycle never changes; ``--seed`` only changes the parameters of the
instances, and every operation gets an instance no cache has seen, so each
``solve`` is cold.  A pass executes a whole number of cycles, chosen from
its share of ``--seconds`` and the cycle's nominal duration on the
reference machine, so a seed always produces the same operations and the
same counts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import instances
from repro.api import SolveConfig, clear_cache, solve

from measure import PROBE_REF_S, host_probe

STRATEGIES = ("optop", "aloof", "llf")

#: Repeats per (family, m, strategy) in one cycle; every other combination
#: runs once.  Solve times cluster by class with wide gaps between the
#: clusters, and a quantile that falls on a gap jumps from run to run.  The
#: weights put the median in the middle of the three m=1000 classes that
#: take 26-52 ms (69 of 100 operations), and p90 in the middle of the
#: 50-60 ms cluster of mixed m=1000 optop plus linear m=4000 llf, with the
#: five slower m=4000 classes above it.
PARALLEL_REPEATS = {
    ("linear", 1000, "llf"): 5,
    ("linear", 1000, "aloof"): 5,
    ("linear", 1000, "optop"): 23,
    ("mixed", 1000, "aloof"): 23,
    ("mixed", 1000, "llf"): 23,
    ("mixed", 1000, "optop"): 9,
}
PARALLEL_CYCLE: Tuple[Tuple[str, int, str], ...] = tuple(
    (family, m, strategy)
    for family in ("linear", "mixed")
    for m in (100, 1000, 4000)
    for strategy in STRATEGIES
    for _ in range(PARALLEL_REPEATS.get((family, m, strategy), 1)))
#: Nominal seconds of one parallel cycle on the reference machine.
PARALLEL_CYCLE_S = 5.0
#: Operations whose per-layer figures cold_parallel reports.
PARALLEL_PROBED = ("mixed", 4000)

#: Graph shapes of the network cycle with (optop, llf) repeat counts.  All
#: have at most 60 edges, so the ``auto`` switch sends them to the
#: path-based SLSQP solver.  Grids carry most of the cycle because their
#: solve times vary little between instances; random layered graphs vary
#: several-fold.  The 6x6 grid sits on the switch and runs optop only.
#: p95 falls in the middle of the 5x6 optop class, with the 5x6 llf and
#: 6x6 solves above it.
NETWORK_SHAPES: Tuple[Tuple[str, Tuple[int, int], int, int], ...] = (
    ("grid", (6, 6), 1, 0),
    ("grid", (5, 6), 10, 4),
    ("grid", (5, 5), 16, 16),
    ("grid", (4, 5), 20, 20),
    ("grid", (4, 4), 20, 20),
    ("grid", (3, 4), 20, 20),
    ("layered", (3, 3), 10, 10),
    ("layered", (4, 4), 5, 5),
    ("layered", (5, 3), 5, 5),
)
#: Nominal seconds of one network cycle on the reference machine.
NETWORK_CYCLE_S = 6.5
#: Past the 60-edge switch: 84 edges, so ``auto`` picks Frank-Wolfe, which
#: runs to its 20,000-iteration cap.  One such solve takes 11-18 s on a
#: 2-vCPU VM, so
#: the traced run times it as a layer probe instead of the timed loop
#: carrying it.
FRANK_WOLFE_GRID = (7, 7)

#: Seed namespace of warm-up instances, disjoint from the timed stream.
WARM_UP_SEED = 2**31 - 1


def _cycle(entries, shuffle_seed: int) -> List[tuple]:
    """The cycle in a fixed interleaved order (independent of ``--seed``)."""
    order = list(entries)
    random.Random(shuffle_seed).shuffle(order)
    return order


def _network_entries() -> List[tuple]:
    entries = []
    for kind, shape, optops, llfs in NETWORK_SHAPES:
        entries += [(kind, shape, "optop")] * optops
        entries += [(kind, shape, "llf")] * llfs
    return entries


def instance_seed(seed: int, cycle: int, slot: int) -> int:
    return int(np.random.SeedSequence([seed, cycle, slot]).generate_state(1)[0])


def make_parallel(family: str, m: int, seed: int):
    generator = (instances.random_linear_parallel if family == "linear"
                 else instances.random_mixed_parallel)
    return generator(m, demand=0.2 * m, seed=seed)


def make_network(kind: str, shape: Tuple[int, int], seed: int):
    if kind == "grid":
        return instances.grid_network(*shape, seed=seed)
    return instances.layered_network(*shape, seed=seed)


def cycles_for(seconds: float, nominal: float) -> int:
    return max(1, int(round(seconds / nominal)))


@dataclass(frozen=True)
class Op:
    """One operation: what to build and which strategy to run on it."""

    label: Tuple
    strategy: str
    make: Callable[[], object]
    probed: bool


def parallel_ops(seed: int, cycles: int) -> List[Op]:
    ops = []
    cycle = _cycle(PARALLEL_CYCLE, 1)
    for c in range(cycles):
        for slot, (family, m, strategy) in enumerate(cycle):
            s = instance_seed(seed, c, slot)
            ops.append(Op(label=("parallel", family, m, s), strategy=strategy,
                          make=lambda f=family, m=m, s=s: make_parallel(f, m, s),
                          probed=(family, m) == PARALLEL_PROBED))
    return ops


def network_ops(seed: int, cycles: int) -> List[Op]:
    ops = []
    cycle = _cycle(_network_entries(), 2)
    for c in range(cycles):
        for slot, (kind, shape, strategy) in enumerate(cycle):
            s = instance_seed(seed, c, slot)
            ops.append(Op(label=(kind, shape[0], shape[1], s), strategy=strategy,
                          make=lambda k=kind, sh=shape, s=s: make_network(k, sh, s),
                          probed=True))
    return ops


def warm_up(workload: str) -> None:
    """Touch every code path once so lazy imports and caches settle."""
    if workload == "cold_parallel":
        for family in ("linear", "mixed"):
            for strategy in STRATEGIES:
                solve(make_parallel(family, 100, WARM_UP_SEED), strategy)
    else:
        for kind, shape in (("layered", (3, 3)), ("grid", (5, 5))):
            for strategy in ("optop", "llf"):
                solve(make_network(kind, shape, WARM_UP_SEED), strategy)
    clear_cache()


@dataclass
class PassResult:
    #: Seconds inside each timed call, failed ones included.
    spent: List[float]
    #: Reference-machine seconds per measured second of each call, from the
    #: host probes on either side of it (:func:`measure.host_probe`).
    scale: List[float]
    #: Whether each operation returned a report that passed its check.
    ok: List[bool]
    failed: int
    check_failures: int
    errors: List[str]
    counts: Dict[str, float]
    #: Checked probe results outside the timed operations.
    probe_ops: int = 0

    @property
    def attempted(self) -> int:
        return len(self.ok) + self.probe_ops

    @property
    def reference_spent(self) -> List[float]:
        return [t * s for t, s in zip(self.spent, self.scale)]


def run_pass(ops: List[Op], check, *, config: SolveConfig, fingerprint=None,
             probe=None) -> PassResult:
    """Run ``ops`` in a closed loop; ``probe`` runs after each probed op."""
    from repro.serialization import instance_digest

    spent: List[float] = []
    scale: List[float] = []
    ok: List[bool] = []
    failed = check_failures = 0
    errors: List[str] = []
    rounds = 0
    before = host_probe()
    for op in ops:
        instance = op.make()
        start = time.perf_counter()
        try:
            report = solve(instance, op.strategy, config=config)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            report = None
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        spent.append(time.perf_counter() - start)
        after = host_probe()
        scale.append(2 * PROBE_REF_S / (before + after))
        before = after
        ok.append(False)
        if fingerprint is not None:
            fingerprint.add(op.strategy, instance_digest(instance))
        if report is None:
            failed += 1
            continue
        reason = check(instance, report)
        if reason is not None:
            failed += 1
            check_failures += 1
            errors.append(f"{op.label} {op.strategy}: {reason}")
            continue
        ok[-1] = True
        if op.strategy == "optop" and report.instance_kind == "parallel":
            rounds += int(report.metadata["num_rounds"])
        if probe is not None and op.probed:
            probe(op, report)
    clear_cache()
    return PassResult(spent=spent, scale=scale, ok=ok, failed=failed,
                      check_failures=check_failures, errors=errors,
                      counts={"operations": len(ops), "core.optop_rounds": rounds})


def _parallel_probe(layers):
    import probes

    def probe(op: Op, report) -> None:
        instance = op.make()  # fresh object: no batch or profile cached yet
        probes.serialization(layers, instance, op.strategy)
        probes.parallel_kernels(layers, instance)
        probes.parallel_strategy(layers, op.make(), op.strategy)
        probes.report(layers, report)
    return probe


def _network_probe(layers):
    import probes

    def probe(op: Op, report) -> None:
        instance = op.make()
        probes.serialization(layers, instance, op.strategy)
        probes.network_kernels(layers, instance)
        probes.network_strategy(layers, op.make(), op.strategy)
        probes.report(layers, report)
    return probe


def run(workload: str, seed: int, seconds: float, *, trace: bool, layers):
    """The timed passes, or with ``trace`` one untraced and one traced pass.

    Each pass runs the same operations on identical inputs, so the timed
    passes can be combined per operation.  Returns ``(passes, fingerprint)``.
    """
    from checks import check_network, check_network_nash, check_parallel
    from measure import TIMED_PASSES, Fingerprint

    per_pass = seconds / TIMED_PASSES
    if workload == "cold_parallel":
        ops = parallel_ops(seed, cycles_for(per_pass, PARALLEL_CYCLE_S))
        check, make_probe = check_parallel, _parallel_probe
    else:
        ops = network_ops(seed, cycles_for(per_pass, NETWORK_CYCLE_S))
        check, make_probe = check_network, _network_probe
    fingerprint = Fingerprint()
    base = SolveConfig()
    passes = [run_pass(ops, check, config=base, fingerprint=fingerprint)]
    if trace:
        passes.append(run_pass(ops, check, config=replace(base, profile=True),
                               probe=make_probe(layers)))
        if workload == "cold_network":
            import probes
            instance = make_network("grid", FRANK_WOLFE_GRID,
                                    instance_seed(seed, len(ops), 0))
            result = probes.frank_wolfe_solve(layers, instance)
            reason = check_network_nash(instance, result.edge_flows)
            traced = passes[-1]
            traced.probe_ops += 1
            if reason is not None:
                traced.failed += 1
                traced.check_failures += 1
                traced.errors.append(f"Frank-Wolfe probe: {reason}")
    else:
        passes += [run_pass(ops, check, config=base)
                   for _ in range(TIMED_PASSES - 1)]
    return passes, fingerprint.hexdigest()
