"""Aggregated results of one study run: tables, export, resume accounting.

:class:`StudyReport` collects every executed cell (its
:class:`~repro.study.spec.StudyCell` coordinates plus the
:class:`~repro.api.report.SolveReport` it produced) together with the
execution counters that make resume verifiable: how many cells were served
from the artifact store, how many from the in-process result cache, and how
many actually ran a solver.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.report import SolveReport
from repro.study.spec import StudyCell, StudySpec
from repro.utils.tables import format_table

__all__ = ["CellResult", "StudyReport"]

#: Default columns of :meth:`StudyReport.rows` / table / CSV export.
DEFAULT_FIELDS = ("index", "generator", "label", "seed", "strategy", "alpha",
                  "beta", "nash_cost", "optimum_cost", "induced_cost",
                  "cost_ratio", "price_of_anarchy", "wall_time", "source")


@dataclass(frozen=True)
class CellResult:
    """One solved cell: its plan coordinates, report and provenance."""

    cell: StudyCell
    report: SolveReport
    instance_digest: str
    artifact_key: str
    from_store: bool = False

    @property
    def source(self) -> str:
        """Where the report came from: ``"store"`` or ``"solver"``.

        ``"solver"`` covers both fresh solver calls and in-process cache
        hits of :func:`repro.api.solve` (the session counters distinguish
        those).
        """
        return "store" if self.from_store else "solver"

    def value(self, name: str) -> Any:
        """Extract a named column (cell coordinate or report attribute)."""
        if name == "index":
            return self.cell.index
        if name == "generator":
            return self.cell.generator
        if name == "label":
            return self.cell.label
        if name == "seed":
            return self.cell.seed
        if name == "strategy":
            return self.cell.strategy
        if name == "params":
            return self.cell.params_dict
        if name == "source":
            return self.source
        if name == "instance_digest":
            return self.instance_digest
        if name == "artifact_key":
            return self.artifact_key
        return getattr(self.report, name)


@dataclass
class StudyReport:
    """The outcome of :func:`repro.study.run_study` on one spec.

    Attributes
    ----------
    spec:
        The spec that was executed.
    results:
        One :class:`CellResult` per plan cell, in plan order.
    store_hits / store_misses:
        Artifact-store counters of this run (0/0 without a store).
    cache_hits / cache_misses:
        :func:`repro.api.cache_stats` deltas of this run; ``cache_misses``
        counts solver executions of cache-enabled cells.
    uncached_calls:
        Solver executions of cells whose config disables the result cache
        (those never touch the session counters).
    """

    spec: StudySpec
    results: List[CellResult] = field(default_factory=list)
    store_hits: int = 0
    store_misses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    uncached_calls: int = 0

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> CellResult:
        return self.results[index]

    @property
    def solver_calls(self) -> int:
        """Cells that actually executed a strategy in this run."""
        return self.cache_misses + self.uncached_calls

    @property
    def fully_resumed(self) -> bool:
        """Whether every cell was served without running a solver."""
        return self.solver_calls == 0

    def reports(self) -> List[SolveReport]:
        """The raw solve reports in plan order."""
        return [result.report for result in self.results]

    def select(self, **coordinates: Any) -> List[CellResult]:
        """Cells matching every given coordinate.

        >>> study.select(label="linear", strategy="optop")  # doctest: +SKIP
        """
        out = []
        for result in self.results:
            if all(result.value(key) == wanted
                   for key, wanted in coordinates.items()):
                out.append(result)
        return out

    def one(self, **coordinates: Any) -> CellResult:
        """The unique cell matching the coordinates (raises otherwise)."""
        matches = self.select(**coordinates)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one cell matching {coordinates!r}, "
                f"found {len(matches)}")
        return matches[0]

    # ------------------------------------------------------------------ #
    # Tabular views and export
    # ------------------------------------------------------------------ #
    def rows(self, fields: Sequence[str] = DEFAULT_FIELDS) -> List[tuple]:
        """The study as rows of the requested columns."""
        return [tuple(result.value(name) for name in fields)
                for result in self.results]

    def to_table(self, fields: Sequence[str] = DEFAULT_FIELDS, *,
                 float_fmt: str = ".6g") -> str:
        """Render the study as an ASCII table."""
        title = f"Study {self.spec.name!r}: {len(self.results)} cells " \
                f"({self.store_hits} from store, {self.solver_calls} solved)"
        return format_table(fields, self.rows(fields), float_fmt=float_fmt,
                            title=title)

    def to_csv(self, path: Optional[Union[str, Path]] = None,
               fields: Sequence[str] = DEFAULT_FIELDS) -> str:
        """Export the rows as CSV text (and write it to ``path`` if given)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fields)
        for row in self.rows(fields):
            writer.writerow(["" if value is None else value for value in row])
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_dict(self) -> Dict[str, Any]:
        """Serialise spec, counters and every cell (JSON-compatible)."""
        return {
            "spec": self.spec.to_dict(),
            "counters": {
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "uncached_calls": self.uncached_calls,
                "solver_calls": self.solver_calls,
            },
            "cells": [
                {
                    "cell": result.cell.to_dict(),
                    "instance_digest": result.instance_digest,
                    "artifact_key": result.artifact_key,
                    "from_store": result.from_store,
                    "report": result.report.to_dict(),
                }
                for result in self.results
            ],
        }

    def to_json(self, path: Optional[Union[str, Path]] = None, *,
                indent: Optional[int] = 2) -> str:
        """Export the full study as JSON (and write to ``path`` if given)."""
        text = json.dumps(self.to_dict(), sort_keys=True, indent=indent)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    def summary(self) -> str:
        """One-line digest of the run (cells, resume sources, timings)."""
        total_wall = sum(result.report.wall_time for result in self.results)
        return (f"study {self.spec.name!r}: {len(self.results)} cells, "
                f"{self.store_hits} store hits, {self.cache_hits} cache hits, "
                f"{self.solver_calls} solver calls, "
                f"total solver time {total_wall:.3f}s")
