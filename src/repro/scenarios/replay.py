"""Replay a demand trace through the serving layer, step by step.

:func:`replay_trace` streams the per-step solves of a
:class:`~repro.scenarios.trace.DemandTrace` through a
:class:`~repro.serve.SolveService`: each step re-scales the instance to the
step's demand level and submits it, so repeated levels coalesce onto one
in-flight solve within a replay, hit the tier-1 LRU across steps, and — when
an :class:`~repro.study.store.ArtifactStore` is attached — land as
content-addressed artifacts keyed by the step's instance digest.  A second
replay of the same trace against the same store therefore performs **zero**
solver calls: every step resolves from tier 2 (the
:attr:`TraceReport.fully_resumed` flag asserts exactly this).

The result is a :class:`TraceReport`: one :class:`TraceStep` per step
(demand, beta, price of anarchy, costs) plus the service-statistics delta of
the replay (tier hits, coalesced steps, solved steps) — the warm-start
accounting that shows how much of the trajectory was served from cache.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import SolveConfig
from repro.api.report import SolveReport
from repro.exceptions import ModelError
from repro.scenarios.elastic import with_total_demand
from repro.scenarios.trace import DemandTrace
from repro.serve.service import ServiceStats, SolveService
from repro.study.store import ArtifactStore
from repro.utils.tables import format_table

__all__ = ["TraceStep", "TraceReport", "replay_trace"]


@dataclass(frozen=True)
class TraceStep:
    """One solved step of a trace replay."""

    index: int
    demand: float
    beta: Optional[float]
    price_of_anarchy: Optional[float]
    induced_cost: float
    optimum_cost: float
    wall_time: float

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary (JSON-compatible)."""
        return {"index": self.index, "demand": self.demand,
                "beta": self.beta,
                "price_of_anarchy": self.price_of_anarchy,
                "induced_cost": self.induced_cost,
                "optimum_cost": self.optimum_cost,
                "wall_time": self.wall_time}

    @classmethod
    def from_report(cls, index: int, demand: float,
                    report: SolveReport) -> "TraceStep":
        """The step record of one solved report."""
        return cls(index=index, demand=float(demand), beta=report.beta,
                   price_of_anarchy=report.price_of_anarchy,
                   induced_cost=report.induced_cost,
                   optimum_cost=report.optimum_cost,
                   wall_time=report.wall_time)


@dataclass
class TraceReport:
    """Outcome of one trace replay.

    ``stats`` is the :class:`~repro.serve.ServiceStats` *delta* of this
    replay: ``tier1_hits`` / ``tier2_hits`` count steps served from memory /
    disk, ``coalesced`` counts steps that attached to an identical in-flight
    step, and ``enqueued`` counts the steps that reached the solver — zero
    on a fully resumed replay.
    """

    trace: Dict[str, Any]
    strategy: str
    steps: List[TraceStep] = field(default_factory=list)
    reports: List[SolveReport] = field(default_factory=list)
    stats: Optional[ServiceStats] = None
    seconds: float = 0.0

    @property
    def solver_calls(self) -> int:
        """Steps that reached a solver during this replay."""
        return 0 if self.stats is None else self.stats.enqueued

    @property
    def fully_resumed(self) -> bool:
        """Whether the whole replay was served without any solver work."""
        return self.solver_calls == 0

    @property
    def num_distinct_levels(self) -> int:
        """Distinct demand levels the trace visits."""
        return len(dict.fromkeys(step.demand for step in self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def summary(self) -> str:
        """One-line digest of the replay's warm-start accounting."""
        stats = self.stats
        hits = 0 if stats is None else stats.tier1_hits + stats.tier2_hits
        coalesced = 0 if stats is None else stats.coalesced
        return (f"replayed {len(self.steps)} steps "
                f"({self.num_distinct_levels} distinct levels) in "
                f"{self.seconds:.3f}s | {hits} cache hits, "
                f"{coalesced} coalesced, {self.solver_calls} solver calls"
                + (" (fully resumed)" if self.fully_resumed else ""))

    def to_table(self) -> str:
        """Human-readable per-step table."""
        rows = [(s.index, f"{s.demand:.6g}",
                 "-" if s.beta is None else f"{s.beta:.6f}",
                 "-" if s.price_of_anarchy is None
                 else f"{s.price_of_anarchy:.6f}",
                 f"{s.induced_cost:.6g}", f"{s.optimum_cost:.6g}")
                for s in self.steps]
        return format_table(
            ("step", "demand", "beta", "PoA", "C(S+T)", "C(O)"), rows,
            title=f"Trace replay ({self.strategy})")

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary (JSON-compatible)."""
        return {
            "trace": dict(self.trace),
            "strategy": self.strategy,
            "steps": [step.to_dict() for step in self.steps],
            "stats": None if self.stats is None else self.stats.to_dict(),
            "seconds": self.seconds,
            "solver_calls": self.solver_calls,
            "fully_resumed": self.fully_resumed,
            "num_distinct_levels": self.num_distinct_levels,
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialise to JSON."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def replay_trace(instance: Any, trace: DemandTrace,
                 strategy: Optional[str] = None, *,
                 config: Optional[SolveConfig] = None,
                 store: Optional[ArtifactStore] = None,
                 service: Optional[SolveService] = None,
                 timeout: float = 300.0) -> TraceReport:
    """Solve every step of ``trace`` on ``instance`` through a service.

    Parameters
    ----------
    instance:
        The base instance; each step runs on
        :func:`~repro.scenarios.elastic.with_total_demand` at the step's
        level.
    trace:
        The demand trajectory to replay.
    strategy / config:
        Forwarded to every step's solve (``None`` selects the
        Price-of-Optimum algorithm / the default config).
    store:
        Optional artifact store used as the service's tier-2 cache; a second
        replay against the same store resumes with zero solver calls.
    service:
        A running :class:`~repro.serve.SolveService` to share; when omitted
        a private one is built (with ``store``) and shut down afterwards.
    timeout:
        Per-step future timeout in seconds.
    """
    if not isinstance(trace, DemandTrace):
        raise ModelError(
            f"trace must be a DemandTrace, got {type(trace).__name__}")
    config = SolveConfig() if config is None else config
    own_service = service is None
    if own_service:
        # The replay submits a known, finite number of steps all at once;
        # an unbounded queue is correct here (backpressure would abort a
        # long trace mid-replay), unlike the serving default.
        service = SolveService(store=store, max_queue=0)
    report = TraceReport(trace=trace.to_dict(),
                         strategy="auto" if strategy is None else strategy)
    before = service.stats()
    start = time.perf_counter()
    try:
        service.start()
        futures = [
            service.submit(with_total_demand(instance, level), strategy,
                           config=config)
            for level in trace.levels]
        solved = [future.result(timeout=timeout) for future in futures]
    finally:
        if own_service:
            service.shutdown(wait=True, timeout=timeout)
    report.seconds = time.perf_counter() - start
    report.stats = service.stats().since(before)
    report.reports = solved
    report.steps = [
        TraceStep.from_report(i, level, step_report)
        for i, (level, step_report) in enumerate(zip(trace.levels, solved))]
    return report
