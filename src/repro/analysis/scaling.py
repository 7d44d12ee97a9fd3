"""Empirical runtime scaling of OpTop and MOP (polynomial-time claims).

Both curves are defined as study specs (one axis per instance size) and run
through :func:`repro.study.run_study` with the result cache disabled, so
every repeat is a genuine solver execution; the measured seconds are the
``wall_time`` recorded in each cell's
:class:`~repro.api.report.SolveReport`.  Both accept a
:class:`repro.api.SolveConfig` for the solver settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.config import SolveConfig
from repro.study.runner import run_study
from repro.study.spec import GeneratorAxis, StudySpec

__all__ = ["ScalingPoint", "optop_scaling", "mop_scaling"]


@dataclass(frozen=True)
class ScalingPoint:
    """One measured point of a runtime-scaling curve."""

    size: int
    seconds: float
    beta: float


def _timing_config(config: Optional[SolveConfig], *,
                   compute_nash: bool) -> SolveConfig:
    """The run config for a timing curve: caching off, fresh solves only."""
    base = SolveConfig() if config is None else config
    return replace(base, cache=False, compute_nash=compute_nash)


def _run_curve(spec: StudySpec, sizes: Sequence[int],
               repeats: int) -> List[ScalingPoint]:
    """Execute a scaling spec ``repeats`` times and average the wall times."""
    repeats = max(1, int(repeats))
    runs = [run_study(spec) for _ in range(repeats)]
    points: List[ScalingPoint] = []
    for i, size in enumerate(sizes):
        seconds = sum(run.results[i].report.wall_time
                      for run in runs) / repeats
        points.append(ScalingPoint(size=int(size), seconds=seconds,
                                   beta=runs[-1].results[i].report.beta))
    return points


def optop_scaling(sizes: Sequence[int], *, demand: float = 5.0,
                  seed: int = 0, repeats: int = 1,
                  config: Optional[SolveConfig] = None) -> List[ScalingPoint]:
    """Wall-clock time of OpTop on random linear instances of growing size.

    ``config`` selects solver settings; ``None`` keeps the defaults.  Caching
    is disabled for the timing run regardless, so repeats measure real
    solves.
    """
    sizes = [int(m) for m in sizes]
    axes = [GeneratorAxis("random_linear_parallel",
                          {"num_links": m, "demand": float(demand)},
                          seeds=(int(seed) + m,), label=str(m))
            for m in sizes]
    spec = StudySpec(
        "optop-scaling", axes, strategies=("optop",),
        configs=(_timing_config(config, compute_nash=True),),
        description="Runtime of OpTop vs the number of links.")
    return _run_curve(spec, sizes, repeats)


def mop_scaling(grid_sizes: Sequence[int], *, demand: float = 2.0,
                seed: int = 0, repeats: int = 1,
                config: Optional[SolveConfig] = None) -> List[ScalingPoint]:
    """Wall-clock time of MOP on square grid networks of growing size.

    ``grid_sizes`` lists the grid side lengths; the number of edges grows
    quadratically with the side.  ``config`` selects solver settings
    (tolerance, backend) exactly as in :func:`optop_scaling`.  The
    measured seconds cover the full ``"mop"`` strategy call — including the
    induced equilibrium the uniform report always carries (the legacy curve
    skipped it with ``compute_induced=False``).
    """
    sides = [int(side) for side in grid_sizes]
    axes = [GeneratorAxis("grid_network",
                          {"rows": side, "cols": side,
                           "demand": float(demand)},
                          seeds=(int(seed) + side,), label=str(side))
            for side in sides]
    spec = StudySpec(
        "mop-scaling", axes, strategies=("mop",),
        configs=(_timing_config(config, compute_nash=False),),
        description="Runtime of MOP vs the grid side length.")
    return _run_curve(spec, sides, repeats)
