"""Parameter sweeps: a-posteriori cost versus alpha, beta statistics.

All sweeps are defined as declarative :class:`~repro.study.spec.StudySpec`
plans over the ``"literal"`` generator (the user-supplied instance serialised
into the cell params) and executed through :func:`repro.study.run_study` —
so every sweep inherits the study pipeline's result cache and, when a
``store`` is passed, resumable content-addressed artifacts.  A strategy name
in a sweep is a registry name, so externally registered strategies
participate in comparisons without touching this module.

:func:`alpha_sweep` accepts both parallel-link and network instances
(dispatch via :func:`repro.api.dispatch.resolve_instance_kind`); only the
Theorem 2.4 ``include_optimal_restricted`` option is restricted to
common-slope parallel links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SolveConfig
from repro.api.dispatch import PARALLEL, resolve_instance_kind
from repro.api.registry import REGISTRY
from repro.core.linear_optimal import optimal_restricted_strategy
from repro.equilibrium.network import network_optimum
from repro.equilibrium.parallel import parallel_optimum
from repro.exceptions import ModelError
from repro.network.parallel import ParallelLinkInstance
from repro.serialization import instance_to_dict
from repro.study.report import StudyReport
from repro.study.runner import run_study
from repro.study.spec import GeneratorAxis, StudySpec
from repro.study.store import ArtifactStore

__all__ = ["AlphaSweepRow", "alpha_sweep", "beta_statistics",
           "beta_demand_sweep"]


@dataclass(frozen=True)
class AlphaSweepRow:
    """Ratio ``C(S+T)/C(O)`` of each strategy at one value of alpha."""

    alpha: float
    ratios: Dict[str, float]


def _sweep_config(config: Optional[SolveConfig]) -> SolveConfig:
    return SolveConfig(compute_nash=False) if config is None else config


def _literal_axis(instance, label: str = "", **extra) -> GeneratorAxis:
    """A study axis holding the serialised ``instance`` itself."""
    return GeneratorAxis("literal", {"instance": instance_to_dict(instance)},
                         label=label, **extra)


def alpha_sweep(instance, alphas: Sequence[float],
                *, strategies: Sequence[str] = ("llf", "scale"),
                include_optimal_restricted: bool = False,
                config: Optional[SolveConfig] = None,
                store: Optional[ArtifactStore] = None) -> List[AlphaSweepRow]:
    """Sweep the Leader's share alpha and record each strategy's cost ratio.

    Accepts any parallel-link or network instance — dispatch is structural
    (:func:`repro.api.resolve_instance_kind`).  ``strategies`` selects
    registered :mod:`repro.api` strategies by name (the default compares the
    ``"llf"`` and ``"scale"`` baselines); ``include_optimal_restricted``
    additionally runs the Theorem 2.4 optimal strategy (only valid for
    common-slope linear *parallel-link* instances).  ``store`` makes the
    sweep resumable through the content-addressed artifact store.
    """
    kind = resolve_instance_kind(instance)
    for name in strategies:
        if name not in REGISTRY:
            raise ModelError(f"unknown strategy {name!r} in alpha_sweep; "
                             f"registered: {', '.join(REGISTRY.names())}")
    if include_optimal_restricted and kind != PARALLEL:
        raise ModelError("include_optimal_restricted needs a parallel-link "
                         "instance (Theorem 2.4 covers common-slope links)")
    base = _sweep_config(config)
    # Fail fast on degenerate instances before any sweep cell is solved.
    if kind == PARALLEL:
        optimum_cost = parallel_optimum(instance, config=base).cost
    else:
        optimum_cost = network_optimum(instance, config=base).cost
    if optimum_cost <= 0.0:
        raise ModelError("the instance has zero optimum cost; sweep is "
                         "meaningless")
    alphas = [float(alpha) for alpha in alphas]
    spec = StudySpec(
        "alpha-sweep",
        [_literal_axis(instance)],
        strategies=tuple(strategies),
        configs=tuple(base.with_alpha(alpha) for alpha in alphas),
        description="A-posteriori cost ratio of each strategy vs alpha.")
    study = run_study(spec, store=store)

    by_strategy = {name: study.select(strategy=name) for name in strategies}
    rows: List[AlphaSweepRow] = []
    for i, alpha in enumerate(alphas):
        ratios: Dict[str, float] = {}
        for name in strategies:
            ratios[name] = by_strategy[name][i].report.cost_ratio
        if include_optimal_restricted:
            restricted = optimal_restricted_strategy(instance, alpha)
            ratios["optimal"] = restricted.cost / optimum_cost
        rows.append(AlphaSweepRow(alpha=alpha, ratios=ratios))
    return rows


@dataclass(frozen=True)
class BetaStatistics:
    """Summary statistics of the Price of Optimum over an instance family."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    mean_poa: float

    @classmethod
    def from_samples(cls, betas: Sequence[float],
                     poas: Sequence[float]) -> "BetaStatistics":
        arr = np.asarray(betas, dtype=float)
        return cls(count=int(arr.size), mean=float(arr.mean()),
                   std=float(arr.std()), minimum=float(arr.min()),
                   maximum=float(arr.max()),
                   mean_poa=float(np.mean(np.asarray(poas, dtype=float))))


@dataclass(frozen=True)
class BetaDemandPoint:
    """The Price of Optimum and anarchy gap of one demand level."""

    demand: float
    beta: float
    price_of_anarchy: float
    nash_cost: float
    optimum_cost: float


def beta_demand_sweep(instance: ParallelLinkInstance,
                      demands: Sequence[float],
                      *, config: Optional[SolveConfig] = None,
                      store: Optional[ArtifactStore] = None,
                      ) -> List[BetaDemandPoint]:
    """How the Price of Optimum varies with the congestion level.

    Defined as a study over the ``"literal"`` generator with a ``demand``
    grid: the instance is re-solved with OpTop at each total flow in
    ``demands`` and beta is recorded together with the price of anarchy.
    Useful to see where Stackelberg control matters: at very low and very
    high congestion the Nash equilibrium often coincides with the optimum
    (beta ~ 0), with a worst case in between.
    """
    base = SolveConfig() if config is None else config
    demand_values = [float(d) for d in demands]
    for demand in demand_values:
        if demand <= 0.0:
            raise ModelError(f"demands must be > 0, got {demand!r}")
    spec = StudySpec(
        "beta-demand-sweep",
        [_literal_axis(instance, grid={"demand": demand_values})],
        strategies=("optop",), configs=(base,),
        description="The Price of Optimum across congestion levels.")
    study = run_study(spec, store=store)
    points: List[BetaDemandPoint] = []
    for demand, result in zip(demand_values, study.results):
        report = result.report
        points.append(BetaDemandPoint(
            demand=demand, beta=report.beta,
            price_of_anarchy=(report.price_of_anarchy
                              if report.price_of_anarchy is not None else 1.0),
            nash_cost=report.nash_cost, optimum_cost=report.optimum_cost))
    return points


def beta_statistics(instances: Iterable[ParallelLinkInstance],
                    *, config: Optional[SolveConfig] = None,
                    store: Optional[ArtifactStore] = None,
                    ) -> Tuple[BetaStatistics, List[float]]:
    """Run OpTop over an instance family and summarise the observed betas.

    The family becomes one study (one ``"literal"`` axis per instance) and
    executes through :func:`repro.study.run_study`; pass ``store`` to
    resume from the artifact store.  Returns ``(statistics, betas)``; the
    per-instance price of anarchy is also aggregated so benchmarks can
    relate "how bad selfishness is" to "how much control restores the
    optimum".
    """
    batch = list(instances)
    if not batch:
        raise ModelError("beta_statistics needs at least one instance")
    base = SolveConfig() if config is None else config
    spec = StudySpec(
        "beta-statistics",
        [_literal_axis(inst) for inst in batch],
        strategies=("optop",), configs=(base,),
        description="Beta statistics of OpTop over an instance family.")
    study: StudyReport = run_study(spec, store=store)
    reports = study.reports()
    betas = [report.beta for report in reports]
    poas = [report.price_of_anarchy if report.price_of_anarchy is not None
            else 1.0 for report in reports]
    return BetaStatistics.from_samples(betas, poas), betas
