"""`repro.study` — the declarative, resumable experiment pipeline.

Where :mod:`repro.api` answers "solve this instance with this strategy",
this package answers "produce all the evidence for this campaign":

* a **generator registry** (:data:`GENERATORS`, :func:`register_generator`,
  :func:`make_instance`) wrapping every instance factory behind one
  ``(params, seed) -> instance`` protocol with JSON-schema'd params;
* **declarative specs** (:class:`StudySpec`, :class:`GeneratorAxis`): a
  generator grid x strategy grid x config grid that lazily expands into a
  deterministic plan of :class:`StudyCell` work items;
* a **content-addressed artifact store** (:class:`ArtifactStore`): each
  cell's report lands under the digest of *what was solved*, so re-running
  a study resumes — only missing cells are solved;
* the **runner** (:func:`run_study`): solves each cell the store lacks
  through :func:`repro.api.solve` (inheriting its result cache) and
  aggregates a :class:`StudyReport` with tables and JSON/CSV export.

>>> from repro.study import GeneratorAxis, StudySpec, run_study
>>> spec = StudySpec("demo",
...                  [GeneratorAxis("random_linear_parallel",
...                                 {"num_links": 4, "demand": 2.0},
...                                 seeds=range(3))],
...                  strategies=("optop",))
>>> study = run_study(spec)
>>> len(study)
3
>>> all(r.report.attains_optimum for r in study)
True

The paper-reproduction experiments E1-E16 are defined on this pipeline in
:mod:`repro.analysis.studies`; ``repro study run/list/resume`` exposes both
layers on the command line.
"""

from repro.study.generators import (
    GENERATORS,
    GeneratorEntry,
    GeneratorRegistry,
    available_generators,
    generator_schema,
    get_generator,
    make_instance,
    register_generator,
    validate_params,
)
from repro.study.library import (
    get_named_study,
    named_studies,
    register_named_study,
)
from repro.study.report import CellResult, StudyReport
from repro.study.runner import run_study, solve_cell
from repro.study.spec import GeneratorAxis, StudyCell, StudySpec
from repro.study.store import ArtifactStore, artifact_key

__all__ = [
    "GENERATORS",
    "GeneratorEntry",
    "GeneratorRegistry",
    "register_generator",
    "get_generator",
    "available_generators",
    "generator_schema",
    "make_instance",
    "validate_params",
    "GeneratorAxis",
    "StudyCell",
    "StudySpec",
    "ArtifactStore",
    "artifact_key",
    "CellResult",
    "StudyReport",
    "run_study",
    "solve_cell",
    "named_studies",
    "get_named_study",
    "register_named_study",
]
