"""Versioned adversarial benchmark suites with certified optimality gaps.

A :class:`SuiteSpec` pins a set of adversarial instances — each a
``(generator, params, seeds)`` triple from the generator registry — together
with the strategies to benchmark and the certification baseline (the
``exact`` MILP strategy by default).  :func:`run_suite` expands the spec
through the Study pipeline (so a ``--store`` run lands golden artifacts in
the :class:`~repro.study.store.ArtifactStore` and a second run resumes with
zero solver calls) and folds the per-cell reports into a
:class:`SuiteReport`: one gap row per ``(instance, strategy)`` comparing the
strategy's induced cost against the exact baseline's certified cost and
MILP lower bound.

:func:`verify_suite` gates a report against a pinned baseline file (see
``.github/suite-gap-baseline.json``): it fails when a regenerated instance's
digest drifts (the generator or its seeding changed) or when any strategy's
gap regresses beyond the pinned value plus the suite's ``gap_tolerance``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.config import SolveConfig
from repro.exceptions import ModelError
from repro.serialization import instance_digest as _instance_digest
from repro.study.generators import get_generator
from repro.study.report import StudyReport
from repro.study.runner import run_study
from repro.study.spec import GeneratorAxis, StudySpec
from repro.study.store import ArtifactStore
from repro.utils.tables import format_table

__all__ = [
    "SuiteEntry",
    "SuiteSpec",
    "GapRow",
    "SuiteReport",
    "run_suite",
    "verify_suite",
    "baseline_payload",
    "available_suites",
    "get_suite",
    "SUITES",
]

#: Denominator floor for relative gaps (guards against zero-cost baselines).
_GAP_FLOOR = 1e-12


def _canonical(value: Any) -> str:
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ModelError(
            f"suite params must be JSON values, got {value!r}: {exc}") from exc


@dataclass(frozen=True)
class SuiteEntry:
    """One pinned instance family of a suite.

    Attributes
    ----------
    label:
        Unique name of the entry inside the suite (keys the baseline file).
    generator:
        Name in the generator registry.
    params:
        Canonical-JSON generator params (construct with a mapping).
    seeds:
        Seeds to instantiate the entry with (unseeded generators use one).
    """

    label: str
    generator: str
    params: str = "{}"
    seeds: tuple = (0,)

    def __init__(self, label: str, generator: str,
                 params: Optional[Mapping[str, Any]] = None,
                 seeds: Sequence[int] = (0,)) -> None:
        if not label or not isinstance(label, str):
            raise ModelError(f"entry label must be a non-empty string, "
                             f"got {label!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "generator", str(generator))
        object.__setattr__(self, "params",
                           _canonical(dict(params) if params else {}))
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        if not self.seeds:
            raise ModelError(f"entry {label!r} needs at least one seed")

    @property
    def params_dict(self) -> Dict[str, Any]:
        return json.loads(self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "generator": self.generator,
                "params": self.params_dict, "seeds": list(self.seeds)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteEntry":
        if not isinstance(data, Mapping) or "label" not in data:
            raise ModelError(f"invalid SuiteEntry payload: {data!r}")
        return cls(data["label"], data.get("generator", ""),
                   data.get("params") or {}, data.get("seeds") or (0,))


@dataclass(frozen=True)
class SuiteSpec:
    """A versioned benchmark suite: entries x strategies at one budget.

    Attributes
    ----------
    name / version:
        Identity of the suite; ``verify`` refuses baselines recorded for a
        different name or version, so bumping ``version`` is the explicit
        act of re-pinning the goldens after an intentional change.
    entries:
        The pinned instance families.
    strategies:
        Strategies benchmarked on every instance; the baseline strategy is
        always included.
    baseline_strategy:
        The certification baseline (default ``"exact"``); its induced cost
        anchors ``gap`` and its ``metadata["certification"]["lower_bound"]``
        anchors ``certified_gap``.
    alpha:
        Leader budget every strategy runs with.
    gap_tolerance:
        Slack ``verify`` allows on top of a pinned gap before declaring a
        regression.
    """

    name: str
    version: int = 1
    entries: tuple = ()
    strategies: tuple = ("exact", "llf", "scale", "aloof")
    baseline_strategy: str = "exact"
    alpha: float = 0.5
    gap_tolerance: float = 1e-3
    description: str = ""

    def __init__(self, name: str, entries: Sequence[SuiteEntry] = (), *,
                 version: int = 1,
                 strategies: Sequence[str] = ("exact", "llf", "scale",
                                              "aloof"),
                 baseline_strategy: str = "exact",
                 alpha: float = 0.5,
                 gap_tolerance: float = 1e-3,
                 description: str = "") -> None:
        if not name or not isinstance(name, str):
            raise ModelError(f"suite name must be a non-empty string, "
                             f"got {name!r}")
        if int(version) < 1:
            raise ModelError(f"suite version must be >= 1, got {version!r}")
        if not 0.0 <= alpha <= 1.0:
            raise ModelError(f"alpha must lie in [0, 1], got {alpha!r}")
        if not gap_tolerance >= 0.0:
            raise ModelError(
                f"gap_tolerance must be >= 0, got {gap_tolerance!r}")
        entries = tuple(entries)
        labels = [entry.label for entry in entries]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ModelError(f"duplicate suite entry labels: {dupes}")
        strategies = tuple(dict.fromkeys(strategies))  # stable de-dup
        if baseline_strategy not in strategies:
            strategies = (baseline_strategy,) + strategies
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "version", int(version))
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "baseline_strategy", str(baseline_strategy))
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "gap_tolerance", float(gap_tolerance))
        object.__setattr__(self, "description", str(description))

    @property
    def num_instances(self) -> int:
        return sum(len(entry.seeds) for entry in self.entries)

    @property
    def num_cells(self) -> int:
        return self.num_instances * len(self.strategies)

    def to_study_spec(self) -> StudySpec:
        """The suite as a Study pipeline plan (one axis per entry)."""
        axes = [GeneratorAxis(entry.generator, entry.params_dict,
                              seeds=entry.seeds, label=entry.label)
                for entry in self.entries]
        return StudySpec(
            f"bench-{self.name}-v{self.version}", axes,
            strategies=self.strategies,
            configs=(SolveConfig(alpha=self.alpha),),
            description=self.description or f"benchmark suite {self.name!r}")

    def validate(self) -> None:
        """Fail fast: resolve every generator and strategy name."""
        self.to_study_spec().validate()

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "version": self.version,
            "entries": [entry.to_dict() for entry in self.entries],
            "strategies": list(self.strategies),
            "baseline_strategy": self.baseline_strategy,
            "alpha": self.alpha,
            "gap_tolerance": self.gap_tolerance,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteSpec":
        if not isinstance(data, Mapping) or "name" not in data:
            raise ModelError(f"invalid SuiteSpec payload: {data!r}")
        return cls(
            data["name"],
            [SuiteEntry.from_dict(e) for e in data.get("entries", [])],
            version=data.get("version", 1),
            strategies=data.get("strategies", ("exact", "llf", "scale",
                                               "aloof")),
            baseline_strategy=data.get("baseline_strategy", "exact"),
            alpha=data.get("alpha", 0.5),
            gap_tolerance=data.get("gap_tolerance", 1e-3),
            description=data.get("description", ""),
        )

    def digest(self) -> str:
        """SHA-256 of the canonical suite JSON (stable across processes)."""
        return hashlib.sha256(
            _canonical(self.to_dict()).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GapRow:
    """One ``(instance, strategy)`` line of the certified gap table.

    ``gap`` is the relative excess over the exact baseline's certified
    cost; ``certified_gap`` is the relative excess over the MILP *lower
    bound* — an unconditional certificate (it cannot blame the baseline
    heuristically failing, because the lower bound is proved).  ``gap`` may
    be negative for strategies that run a different budget than the
    baseline (``optop`` chooses its own ``beta``).
    """

    label: str
    generator: str
    params: str
    seed: int
    strategy: str
    instance_digest: str
    cost: float
    exact_cost: float
    lower_bound: float
    gap: float
    certified_gap: float

    @property
    def key(self) -> str:
        """The baseline-file key of this row."""
        return f"{self.label}/s{self.seed}/{self.strategy}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label, "generator": self.generator,
            "params": json.loads(self.params), "seed": self.seed,
            "strategy": self.strategy,
            "instance_digest": self.instance_digest,
            "cost": self.cost, "exact_cost": self.exact_cost,
            "lower_bound": self.lower_bound,
            "gap": self.gap, "certified_gap": self.certified_gap,
        }


@dataclass
class SuiteReport:
    """The outcome of :func:`run_suite`: gap rows plus resume counters."""

    suite: SuiteSpec
    rows: List[GapRow] = field(default_factory=list)
    store_hits: int = 0
    solver_calls: int = 0
    fully_resumed: bool = False

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[GapRow]:
        return iter(self.rows)

    def row(self, key: str) -> Optional[GapRow]:
        """The row with baseline key ``key`` (``label/s<seed>/<strategy>``)."""
        for row in self.rows:
            if row.key == key:
                return row
        return None

    def max_gap(self, strategy: str) -> float:
        """The worst certified gap of ``strategy`` across the suite."""
        gaps = [row.certified_gap for row in self.rows
                if row.strategy == strategy]
        if not gaps:
            raise ModelError(f"suite has no rows for strategy {strategy!r}")
        return max(gaps)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite.to_dict(),
            "suite_digest": self.suite.digest(),
            "rows": [row.to_dict() for row in self.rows],
            "store_hits": self.store_hits,
            "solver_calls": self.solver_calls,
            "fully_resumed": self.fully_resumed,
        }

    def to_json(self, path: Optional[Union[str, Path]] = None, *,
                indent: Optional[int] = 2) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=indent)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        import csv
        import io

        headers = ("label", "generator", "seed", "strategy",
                   "instance_digest", "cost", "exact_cost", "lower_bound",
                   "gap", "certified_gap")
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(headers)
        for row in self.rows:
            writer.writerow((row.label, row.generator, row.seed,
                             row.strategy, row.instance_digest,
                             repr(row.cost), repr(row.exact_cost),
                             repr(row.lower_bound), repr(row.gap),
                             repr(row.certified_gap)))
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_table(self) -> str:
        table_rows = []
        for row in self.rows:
            table_rows.append((row.label, row.seed, row.strategy,
                               f"{row.cost:.6f}", f"{row.exact_cost:.6f}",
                               f"{row.lower_bound:.6f}",
                               f"{row.gap:+.2e}", f"{row.certified_gap:.2e}"))
        return format_table(
            ("entry", "seed", "strategy", "cost", "exact cost",
             "lower bound", "gap", "certified gap"), table_rows,
            title=f"Suite {self.suite.name!r} v{self.suite.version} "
                  f"(alpha = {self.suite.alpha})")


def _relative(value: float, reference: float) -> float:
    return (value - reference) / max(abs(reference), _GAP_FLOOR)


def run_suite(spec: SuiteSpec, *, store: Optional[ArtifactStore] = None,
              study_report: Optional[StudyReport] = None) -> SuiteReport:
    """Execute a suite through the Study pipeline and build the gap table.

    With a ``store`` the run is resumable: cells already present are served
    from artifacts, and ``report.fully_resumed`` asserts the second pass
    made zero solver calls.  ``study_report`` lets callers that already ran
    the study (e.g. tests inspecting the raw cells) skip re-execution.
    """
    if not spec.entries:
        raise ModelError(f"suite {spec.name!r} has no entries")
    study = study_report if study_report is not None else run_study(
        spec.to_study_spec(), store=store)

    # Index the cells by instance coordinate; the baseline strategy anchors
    # every other strategy's row for the same (entry, seed).
    by_instance: Dict[tuple, Dict[str, Any]] = {}
    for result in study.results:
        coord = (result.cell.label, result.cell.params, result.cell.seed)
        by_instance.setdefault(coord, {})[result.cell.strategy] = result

    rows: List[GapRow] = []
    for coord in by_instance:
        label, params, seed = coord
        cells = by_instance[coord]
        baseline = cells.get(spec.baseline_strategy)
        if baseline is None:
            raise ModelError(
                f"suite {spec.name!r}: no {spec.baseline_strategy!r} cell "
                f"for entry {label!r} seed {seed}")
        certification = (baseline.report.metadata or {}).get("certification")
        if not isinstance(certification, Mapping):
            raise ModelError(
                f"baseline strategy {spec.baseline_strategy!r} reported no "
                f"certification metadata for entry {label!r} seed {seed}")
        exact_cost = float(baseline.report.induced_cost)
        lower_bound = float(certification["lower_bound"])
        # Store-less runs skip digest computation in the study runner; the
        # digest keys the baseline file, so recover it from the cell here.
        digest = baseline.instance_digest or _instance_digest(
            baseline.cell.make_instance())
        for strategy in spec.strategies:
            result = cells.get(strategy)
            if result is None:
                raise ModelError(
                    f"suite {spec.name!r}: missing {strategy!r} cell for "
                    f"entry {label!r} seed {seed}")
            cost = float(result.report.induced_cost)
            rows.append(GapRow(
                label=label, generator=result.cell.generator, params=params,
                seed=seed, strategy=strategy,
                instance_digest=result.instance_digest or digest,
                cost=cost, exact_cost=exact_cost, lower_bound=lower_bound,
                gap=_relative(cost, exact_cost),
                certified_gap=_relative(cost, lower_bound)))
    rows.sort(key=lambda row: (row.label, row.seed,
                               spec.strategies.index(row.strategy)))
    return SuiteReport(
        suite=spec, rows=rows, store_hits=study.store_hits,
        solver_calls=study.solver_calls, fully_resumed=study.fully_resumed)


# --------------------------------------------------------------------------- #
# Baseline pinning and verification
# --------------------------------------------------------------------------- #
def baseline_payload(report: SuiteReport) -> Dict[str, Any]:
    """The JSON payload ``verify_suite`` gates future runs against."""
    return {
        "suite": report.suite.name,
        "version": report.suite.version,
        "gap_tolerance": report.suite.gap_tolerance,
        "entries": {row.key: {"digest": row.instance_digest,
                              "gap": row.gap}
                    for row in report.rows},
    }


def verify_suite(report: SuiteReport,
                 baseline: Union[Mapping[str, Any], str, Path],
                 ) -> List[str]:
    """Check a suite report against a pinned baseline.

    Returns the list of violations (empty = pass):

    * suite name / version mismatch (the baseline was pinned for a
      different suite — re-pin explicitly instead of comparing),
    * **digest drift** — a regenerated instance no longer hashes to its
      pinned digest (the generator's construction or seeding changed),
    * **gap regression** — a strategy's gap exceeds the pinned gap by more
      than the baseline's ``gap_tolerance``,
    * rows the baseline pins but the report no longer produces.
    """
    if isinstance(baseline, (str, Path)):
        try:
            baseline = json.loads(Path(baseline).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelError(f"cannot load suite baseline: {exc}") from exc
    if not isinstance(baseline, Mapping) or "entries" not in baseline:
        raise ModelError(f"invalid suite baseline payload: {baseline!r}")

    violations: List[str] = []
    if baseline.get("suite") != report.suite.name:
        violations.append(
            f"baseline pins suite {baseline.get('suite')!r} but the report "
            f"is for {report.suite.name!r}")
    if int(baseline.get("version", 0)) != report.suite.version:
        violations.append(
            f"baseline pins version {baseline.get('version')!r} but the "
            f"suite is at version {report.suite.version}")
    if violations:
        return violations

    tolerance = float(baseline.get("gap_tolerance",
                                   report.suite.gap_tolerance))
    for key in sorted(baseline["entries"]):
        pinned = baseline["entries"][key]
        row = report.row(key)
        if row is None:
            violations.append(f"{key}: pinned by the baseline but missing "
                              f"from the report")
            continue
        if row.instance_digest != pinned.get("digest"):
            violations.append(
                f"{key}: instance digest drifted "
                f"({pinned.get('digest')!r} -> {row.instance_digest!r})")
        pinned_gap = float(pinned.get("gap", 0.0))
        if row.gap > pinned_gap + tolerance:
            violations.append(
                f"{key}: gap regressed from {pinned_gap:.6e} to "
                f"{row.gap:.6e} (tolerance {tolerance:.1e})")
    return violations


# --------------------------------------------------------------------------- #
# Built-in suites
# --------------------------------------------------------------------------- #
def _small_suite() -> SuiteSpec:
    return SuiteSpec(
        "small",
        [
            SuiteEntry("neardeg", "near_degenerate_breakpoints",
                       {"num_links": 3, "epsilon": 1e-6, "demand": 1.5},
                       seeds=(0, 1, 2)),
            SuiteEntry("heavytail", "heavy_tail_capacity",
                       {"num_links": 3, "demand_fraction": 0.9,
                        "tail_index": 1.5},
                       seeds=(0, 1, 2)),
            SuiteEntry("pigouchain", "pigou_chain",
                       {"num_blocks": 2, "degree": 2.0}, seeds=(0,)),
            SuiteEntry("soup", "mixed_family_soup",
                       {"num_links": 5, "demand": 1.0}, seeds=(0, 1, 2)),
        ],
        version=1,
        strategies=("exact", "llf", "scale", "aloof", "optop"),
        alpha=0.5,
        gap_tolerance=1e-3,
        description="Four adversarial families at alpha = 0.5, certified "
                    "against the MILP exact baseline.")


#: The built-in suite registry (name -> factory), mirroring named studies.
SUITES: Dict[str, Any] = {"small": _small_suite}


def available_suites() -> List[str]:
    """Names of the built-in benchmark suites."""
    return sorted(SUITES)


def get_suite(name: str) -> SuiteSpec:
    """Resolve a built-in suite by name."""
    try:
        factory = SUITES[name]
    except KeyError:
        known = ", ".join(available_suites()) or "<none>"
        raise ModelError(
            f"unknown suite {name!r}; available suites: {known}") from None
    spec = factory()
    # Touch every generator up front so a bad registration fails loudly at
    # resolution time, not in the middle of a run.
    for entry in spec.entries:
        get_generator(entry.generator)
    return spec
