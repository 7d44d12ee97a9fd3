"""The chaos harness: replay a workload through a faulted cluster.

:func:`run_chaos` drives the serving bench's synthetic hot-key stream
(:func:`repro.serve.bench.build_workload`) through a real multi-process
cluster armed with a :class:`~repro.faults.spec.FaultPlan`, with worker
supervision on, and checks the **degradation contract** the rest of this
package exists to enforce:

1. *no lost requests* — every submitted request resolves (a hung future
   is a violation, not a wait);
2. *typed failures only* — whatever a request resolves to is either a
   correct :class:`~repro.api.report.SolveReport` or a
   :class:`~repro.exceptions.ServiceError` subclass; a raw
   ``ConnectionError``/``JSONDecodeError`` escaping the stack is a
   violation;
3. *correct results* — every report matches an independently solved
   reference for its instance (faults may fail a request; they may never
   corrupt an answer);
4. *exact accounting* — the cluster's merged
   :class:`~repro.serve.ServiceStats` buckets still partition its
   requests, fault storm or not.

The outcome is a :class:`ChaosReport`: pass/fail plus everything a CI log
wants (error histogram, faults injected, workers respawned, artifacts
quarantined, warm-sweep hits).  ``repro chaos run`` is the CLI face.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api import solve
from repro.config import SolveConfig
from repro.exceptions import ServiceError
from repro.faults.spec import FaultPlan

__all__ = ["ChaosReport", "run_chaos"]

#: Per-request result timeout: long enough for respawn storms on a busy
#: CI box, short enough that a genuinely lost future fails the run.
_RESULT_TIMEOUT = 180.0


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` run (JSON-compatible)."""

    plan: str
    seed: int
    steps: int
    seconds: float = 0.0
    #: Requests that resolved to a correct report.
    ok: int = 0
    #: Requests that resolved to a typed ServiceError.
    failed: int = 0
    #: Failure histogram by exception type name.
    errors: Dict[str, int] = field(default_factory=dict)
    #: ServiceTimeoutError failures (subset of ``failed``).
    timeouts: int = 0
    #: Worker processes respawned by the supervisor.
    respawns: int = 0
    #: Damaged artifacts quarantined by the shared store.
    quarantined: int = 0
    #: Faults the (surviving) workers report having injected, by kind.
    injected: Dict[str, int] = field(default_factory=dict)
    #: Cache hits served during the post-trace warm sweep.
    warm_sweep_hits: int = 0
    #: Hits served by respawned workers' current incarnations.
    respawned_worker_hits: int = 0
    #: Final merged cross-shard ServiceStats snapshot.
    merged: Dict[str, Any] = field(default_factory=dict)
    #: Final gateway counters.
    gateway: Dict[str, int] = field(default_factory=dict)
    #: Metrics-registry snapshot of the final cluster stats (the same
    #: numbers as ``merged``/``gateway``, projected through
    #: :mod:`repro.obs.collect` — what a ``/metrics`` scrape would show).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Broken invariants (empty = the degradation contract held).
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every invariant held for every request."""
        return not self.violations and self.ok + self.failed == self.steps

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan, "seed": self.seed, "steps": self.steps,
            "seconds": self.seconds, "ok": self.ok, "failed": self.failed,
            "errors": dict(self.errors), "timeouts": self.timeouts,
            "respawns": self.respawns, "quarantined": self.quarantined,
            "injected": dict(self.injected),
            "warm_sweep_hits": self.warm_sweep_hits,
            "respawned_worker_hits": self.respawned_worker_hits,
            "merged": dict(self.merged), "gateway": dict(self.gateway),
            "metrics": dict(self.metrics),
            "violations": list(self.violations), "passed": self.passed,
        }

    def summary(self) -> str:
        """A compact human-readable table for CLI / CI logs."""
        lines = [
            f"chaos run · plan {self.plan!r} · seed {self.seed} "
            f"· {self.steps} steps · {self.seconds:.2f}s",
            f"  resolved : {self.ok} ok, {self.failed} typed failures "
            f"({self.timeouts} deadline expiries)",
        ]
        for name in sorted(self.errors):
            lines.append(f"    {name}: {self.errors[name]}")
        injected = ", ".join(f"{kind}={count}" for kind, count
                             in sorted(self.injected.items())) or "none"
        lines += [
            f"  injected : {injected}",
            f"  recovery : {self.respawns} respawns, "
            f"{self.quarantined} quarantined artifacts, "
            f"{self.warm_sweep_hits} warm-sweep hits "
            f"({self.respawned_worker_hits} on respawned workers)",
            f"  verdict  : "
            + ("PASS — degradation contract held"
               if self.passed else
               "FAIL — " + "; ".join(self.violations)),
        ]
        return "\n".join(lines)


def _await_all_alive(cluster, timeout: float = 30.0) -> None:
    """Block until every worker answers ``/health`` (or ``timeout``).

    ``health()`` half-open-probes any cooled-down breaker, so a respawned
    worker flips back to alive here; a worker whose restart budget is
    exhausted never will — hence the bound, after which the caller just
    proceeds with whatever is up.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = cluster.health()
        if all(entry["alive"] for entry in health["workers"].values()):
            return
        time.sleep(0.1)


def run_chaos(plan: Union[FaultPlan, str], *, steps: int = 50,
              n_workers: int = 2, num_distinct: int = 16,
              num_links: int = 4, seed: int = 0,
              strategy: str = "optop",
              deadline_ms: Optional[float] = None,
              store_dir: Optional[str] = None,
              max_respawns: int = 3) -> ChaosReport:
    """Replay a ``steps``-request trace through a faulted cluster.

    ``plan`` is a :class:`~repro.faults.spec.FaultPlan`, a built-in plan
    name or a plan-JSON file path; every worker arms its injector with it
    and the supervisor (always on here — chaos without recovery is just
    vandalism) respawns killed workers up to ``max_respawns`` times each.
    ``deadline_ms`` (optional) attaches an end-to-end deadline to every
    request, exercising the 504 path.  Returns a :class:`ChaosReport`;
    see the module docstring for the invariants it checks.
    """
    # Imported here: the launcher (and its worker) imports repro.faults.spec,
    # so a module-level import would cycle through the package.
    from repro.cluster.launcher import start_cluster
    from repro.serve.bench import build_workload

    if isinstance(plan, str):
        plan = FaultPlan.load(plan)
    steps = int(steps)
    instances, schedule = build_workload(
        num_requests=steps, num_distinct=min(int(num_distinct), steps),
        num_links=num_links, seed=seed)
    config = SolveConfig(compute_nash=False)
    # Independent references: a fault may fail a request, never corrupt
    # its answer.  Solved locally, before any fault is armed.
    expected = {index: solve(instance, strategy, config=config)
                for index, instance in enumerate(instances)}

    report = ChaosReport(plan=plan.name, seed=seed, steps=steps)
    started = time.perf_counter()
    with start_cluster(n_workers=n_workers, store_dir=store_dir,
                       supervise=True,
                       max_respawns=max_respawns,
                       fault_plan=plan) as cluster:
        futures = []
        for index in schedule:
            deadline = None if deadline_ms is None \
                else time.monotonic() + deadline_ms / 1e3
            futures.append((index, cluster.submit(
                instances[index], strategy, config=config,
                deadline=deadline)))
        for index, future in futures:
            try:
                solved = future.result(timeout=_RESULT_TIMEOUT)
            except FutureTimeoutError:
                report.violations.append(
                    f"request for instance {index} hung past "
                    f"{_RESULT_TIMEOUT:.0f}s (lost request)")
                continue
            except ServiceError as exc:
                report.failed += 1
                name = type(exc).__name__
                report.errors[name] = report.errors.get(name, 0) + 1
                if name == "ServiceTimeoutError":
                    report.timeouts += 1
                continue
            except BaseException as exc:  # noqa: BLE001 - the violation
                report.violations.append(
                    f"untyped {type(exc).__name__} escaped the stack for "
                    f"instance {index}: {exc!r}")
                continue
            reference = expected[index]
            if solved.strategy != reference.strategy or not math.isclose(
                    solved.beta, reference.beta,
                    rel_tol=1e-9, abs_tol=1e-12):
                report.violations.append(
                    f"wrong answer for instance {index}: beta "
                    f"{solved.beta!r} != {reference.beta!r}")
                continue
            report.ok += 1

        # Warm sweep: every distinct key once more.  After any respawn the
        # replacement must serve previously solved keys from the shared
        # store (warm), not re-solve the world.  Let supervision settle
        # first: a SIGKILL landing on the trace's last calls can leave a
        # worker dead *here*, and sweeping before its replacement is up
        # (or snapshotting while its final counters are unreadable) makes
        # the hit delta racy.
        _await_all_alive(cluster)
        before_sweep = cluster.merged_stats()
        sweep = [(index, cluster.submit(instances[index], strategy,
                                        config=config))
                 for index in range(len(instances))]
        for index, future in sweep:
            try:
                future.result(timeout=_RESULT_TIMEOUT)
            except ServiceError:
                pass  # typed failures stay acceptable during the sweep
            except FutureTimeoutError:
                report.violations.append(
                    f"warm-sweep request {index} hung (lost request)")
            except BaseException as exc:  # noqa: BLE001 - the violation
                report.violations.append(
                    f"untyped {type(exc).__name__} in the warm sweep: "
                    f"{exc!r}")

        _await_all_alive(cluster)
        stats = cluster.stats()
        merged = cluster.merged_stats(refresh=False)
        report.warm_sweep_hits = max(0, merged.hits - before_sweep.hits)
        report.merged = merged.to_dict()
        report.gateway = dict(stats["gateway"])  # type: ignore[arg-type]
        from repro.obs.collect import collect_cluster_stats
        report.metrics = collect_cluster_stats(stats).snapshot()
        supervisor = stats.get("supervisor") or {}
        report.respawns = int(supervisor.get("worker_respawns", 0))
        for node_id, entry in stats["workers"].items():  # type: ignore[union-attr]
            if entry.get("respawns", 0) and entry.get("stats"):
                report.respawned_worker_hits += \
                    int(entry["stats"].get("hits", 0))
        health = cluster.health()
        for entry in health["workers"].values():  # type: ignore[union-attr]
            for kind, count in ((entry.get("health") or {}).get(
                    "faults_injected") or {}).items():
                report.injected[kind] = \
                    report.injected.get(kind, 0) + int(count)
        report.quarantined = sum(
            1 for _ in Path(cluster.store_dir).glob("??/*.json.corrupt.*"))
        if not merged.consistent:
            report.violations.append(
                "merged ServiceStats buckets no longer partition requests")
    report.seconds = time.perf_counter() - started
    return report
