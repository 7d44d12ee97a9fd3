"""Execution of study plans through the solver session.

:func:`run_study` walks a :class:`~repro.study.spec.StudySpec` plan cell by
cell and serves whatever the artifact store already holds; it then solves
each missing cell in plan order with :func:`repro.api.solve`, whose
instance-digest result cache solves duplicate cells once.  Freshly solved
reports are written back to the store, so the next run of the same (or an
overlapping) spec resumes instead of recomputing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import SolveConfig
from repro.api.session import cache_stats, solve
from repro.exceptions import ModelError
from repro.obs.metrics import MetricsRegistry
from repro.serialization import instance_digest
from repro.study.report import CellResult, StudyReport
from repro.study.spec import StudyCell, StudySpec
from repro.study.store import ArtifactStore, artifact_key, storable_strategy

__all__ = ["run_study", "solve_cell"]

#: Kept under the historic private name for in-module readability; the rule
#: itself lives next to artifact_key so the serving layer shares it.
_storable = storable_strategy


def solve_cell(instance, strategy: str, config: SolveConfig, *,
               store: Optional[ArtifactStore] = None):
    """Solve one ad-hoc cell through the artifact store.

    The escape hatch for *dependent* cells — follow-up solves whose
    parameters derive from an earlier cell's result (e.g. "brute force just
    below the measured beta") and therefore cannot appear in a static plan.
    Store hit -> the stored report; miss -> :func:`repro.api.solve` (which
    still consults the in-process cache) followed by a store write, so even
    dependent cells resume across runs.
    """
    key: Optional[str] = None
    if store is not None and config.cache and _storable(strategy):
        try:
            key = artifact_key(instance_digest(instance), strategy, config)
        except ModelError:
            key = None
        if key is not None:
            cached = store.get(key)
            if cached is not None:
                return cached
    report = solve(instance, strategy, config=config)
    if store is not None and key is not None:
        store.put(key, report)
    return report


def run_study(spec: StudySpec, *, store: Optional[ArtifactStore] = None,
              registry: Optional[MetricsRegistry] = None) -> StudyReport:
    """Execute a study spec and aggregate the results.

    Parameters
    ----------
    spec:
        The declarative plan to execute.
    store:
        Optional :class:`~repro.study.store.ArtifactStore`.  When given,
        cells whose artifacts exist are *not* re-solved (resume), and every
        freshly solved cell is written back.
    registry:
        Optional :class:`repro.obs.MetricsRegistry`.  When given, the run
        increments ``repro_study_cells_total``,
        ``repro_study_resumed_total`` (cells served from the store) and
        ``repro_study_solved_total{strategy=...}`` — an accumulating view
        over many ``run_study`` calls that the per-run
        :class:`~repro.study.report.StudyReport` counters cannot give.

    Returns
    -------
    StudyReport
        Every cell's report in plan order, plus store/cache counters for
        this run (``report.fully_resumed`` asserts the zero-solver-call
        resume property).
    """
    spec.validate()
    before = cache_stats()
    store_stats_before = store.stats() if store is not None else None

    slots: List[Optional[CellResult]] = []
    pending: List[Tuple[int, StudyCell, object, str, str]] = []
    for cell in spec.expand():
        instance = cell.make_instance()
        digest = None
        key = None
        if store is not None and cell.config.cache:
            # The digest is only needed to address artifacts; without a
            # store, solve computes its own cache keys.  cache=False
            # means "never reuse results", and the artifact store honours
            # it like the in-process cache does — timing cells stay fresh.
            try:
                digest = instance_digest(instance)
            except ModelError:
                digest = None
            if digest is not None and _storable(cell.strategy):
                key = artifact_key(digest, cell.strategy, cell.config)
        stored = store.get(key) if (store is not None and key is not None) \
            else None
        if stored is not None:
            slots.append(CellResult(cell=cell, report=stored,
                                    instance_digest=digest,
                                    artifact_key=key, from_store=True))
            continue
        pending.append((len(slots), cell, instance, digest or "", key or ""))
        slots.append(None)

    uncached_calls = 0
    for i, cell, instance, digest, key in pending:
        if not cell.config.cache:
            # Cache-free cells never touch the session counters; count
            # their executions here so solver_calls stays truthful.
            uncached_calls += 1
        report = solve(instance, cell.strategy, config=cell.config)
        slots[i] = CellResult(cell=cell, report=report,
                              instance_digest=digest, artifact_key=key,
                              from_store=False)
        if key:
            store.put(key, report)

    after = cache_stats()
    result = StudyReport(
        spec=spec,
        results=[slot for slot in slots if slot is not None],
        cache_hits=after["hits"] - before["hits"],
        cache_misses=after["misses"] - before["misses"],
        uncached_calls=uncached_calls,
    )
    if store is not None and store_stats_before is not None:
        now = store.stats()
        result.store_hits = now["hits"] - store_stats_before["hits"]
        result.store_misses = now["misses"] - store_stats_before["misses"]
    if registry is not None:
        registry.counter("repro_study_cells_total",
                         "Study cells executed (all sources).").inc(
            len(result.results))
        resumed = sum(1 for slot in result.results if slot.from_store)
        if resumed:
            registry.counter("repro_study_resumed_total",
                             "Study cells served from the artifact "
                             "store.").inc(resumed)
        solved = registry.counter("repro_study_solved_total",
                                  "Study cells solved this run, by "
                                  "strategy.", labels=("strategy",))
        for slot in result.results:
            if not slot.from_store:
                solved.labels(strategy=slot.cell.strategy).inc()
    return result
