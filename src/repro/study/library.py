"""Named generic studies shipped with the package.

Small, self-contained :class:`~repro.study.spec.StudySpec` definitions that
are useful on their own and double as living documentation of the study API.
The paper-reproduction experiments (E1-E16) and the design ablations
(A1-A3) live in :mod:`repro.analysis.studies`, which builds on this layer.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.config import SolveConfig
from repro.exceptions import ModelError
from repro.study.spec import GeneratorAxis, StudySpec

__all__ = ["named_studies", "get_named_study", "register_named_study"]


def smoke_study(*, num_instances: int = 8, num_links: int = 6,
                demand: float = 2.0) -> StudySpec:
    """A small, fast study used by CI to verify the resume property.

    Random linear parallel links solved with OpTop; a second run over the
    same store must be 100% artifact hits (zero solver calls).
    """
    return StudySpec(
        "smoke",
        [GeneratorAxis("random_linear_parallel",
                       {"num_links": int(num_links), "demand": float(demand)},
                       seeds=range(int(num_instances)),
                       label="linear")],
        strategies=("optop",),
        configs=(SolveConfig(),),
        description="CI smoke study: OpTop on random linear parallel links.")


def baseline_comparison_study(*, num_instances: int = 4, num_links: int = 5,
                              demand: float = 2.0) -> StudySpec:
    """OpTop against the budgeted baselines at a half-demand budget."""
    return StudySpec(
        "baseline-comparison",
        [GeneratorAxis("random_linear_parallel",
                       {"num_links": int(num_links), "demand": float(demand)},
                       seeds=range(int(num_instances)),
                       label="linear")],
        strategies=("optop", "llf", "scale"),
        configs=(SolveConfig(alpha=0.5, compute_nash=False),),
        description="OpTop vs LLF vs SCALE on a random linear family.")


def backend_agreement_study(*, seeds: int = 2) -> StudySpec:
    """The same networks solved under each equilibrium backend."""
    return StudySpec(
        "backend-agreement",
        [GeneratorAxis("grid_network", {"rows": 3, "cols": 3, "demand": 2.0},
                       seeds=range(int(seeds)), label="grid")],
        strategies=("mop",),
        configs=(SolveConfig(backend="frank_wolfe", compute_nash=False),
                 SolveConfig(backend="auto", compute_nash=False)),
        description="MOP under the Frank-Wolfe and path-based backends.")


#: Builders of the named generic studies (name -> keyword-taking factory).
_NAMED: Dict[str, Callable[..., StudySpec]] = {
    "smoke": smoke_study,
    "baseline-comparison": baseline_comparison_study,
    "backend-agreement": backend_agreement_study,
}


def named_studies() -> List[str]:
    """Sorted names of the built-in generic studies."""
    return sorted(_NAMED)


def get_named_study(name: str, **kwargs) -> StudySpec:
    """Build a named generic study (keyword arguments parameterise it)."""
    try:
        builder = _NAMED[name]
    except KeyError:
        known = ", ".join(named_studies()) or "<none>"
        raise ModelError(
            f"unknown study {name!r}; named studies: {known}") from None
    return builder(**kwargs)


def register_named_study(name: str,
                         builder: Callable[..., StudySpec]) -> None:
    """Add a generic study builder under ``name`` (e.g. from user code)."""
    if name in _NAMED:
        raise ModelError(f"study {name!r} is already registered")
    if not callable(builder):
        raise ModelError(f"study builder for {name!r} must be callable")
    _NAMED[name] = builder
