"""Built-in strategy adapters: the paper's algorithms behind one protocol.

Each adapter wraps one of the solver functions — ``optop``, ``mop``,
``llf``, ``scale``, ``aloof``, ``exact``, ``brute_force`` — behind the uniform
``(instance, config) -> SolveReport`` protocol and registers it in the
default :data:`~repro.api.registry.REGISTRY`.  Adapters are responsible for

* dispatching on the instance kind (every strategy accepts both parallel-link
  and network instances; ``optop`` delegates to MOP on networks and ``mop``
  embeds parallel links into the graph model),
* passing the :class:`~repro.config.SolveConfig` to every solve they run,
* solving a baseline report's optimum and Nash flow once
  (:func:`_reference_flows`) and handing them to the baseline, so the
  strategy and the report share one ``C(O)``,
* assembling the flat, JSON-serialisable :class:`~repro.api.report.SolveReport`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.config import SolveConfig
from repro.api.dispatch import NETWORK, PARALLEL, resolve_instance_kind
from repro.api.registry import register_strategy
from repro.api.report import SolveReport
from repro.core.mop import mop
from repro.core.optop import optop
from repro.baselines.aloof import aloof
from repro.baselines.brute_force import brute_force_strategy
from repro.baselines.exact import exact_strategy
from repro.baselines.llf import llf
from repro.baselines.network_ext import network_brute_force, network_llf
from repro.baselines.scale import scale
from repro.equilibrium.network import network_nash, network_optimum
from repro.equilibrium.parallel import parallel_nash, parallel_optimum
from repro.network.builders import parallel_network_as_graph

__all__ = [
    "solve_optop",
    "solve_mop",
    "solve_llf",
    "solve_scale",
    "solve_aloof",
    "solve_brute_force",
    "solve_exact",
]


# --------------------------------------------------------------------------- #
# Report assembly helpers
# --------------------------------------------------------------------------- #
def _flows_of(result) -> Any:
    """The flow vector of a parallel or network flow result."""
    return result.flows if hasattr(result, "flows") else result.edge_flows


def _build_report(*, name: str, kind: str, config: SolveConfig,
                  alpha: float, beta: Optional[float], leader_flows,
                  induced_flows, induced_cost: float, optimum, nash,
                  metadata: Dict[str, Any]) -> SolveReport:
    nash_flows = None
    nash_cost = None
    poa = None
    if nash is not None:
        nash_flows = _flows_of(nash)
        nash_cost = float(nash.cost)
        poa = nash_cost / optimum.cost if optimum.cost > 0.0 else 1.0
    return SolveReport(
        strategy=name,
        instance_kind=kind,
        alpha=alpha,
        beta=beta,
        leader_flows=leader_flows,
        induced_flows=induced_flows,
        optimum_flows=_flows_of(optimum),
        nash_flows=nash_flows,
        induced_cost=induced_cost,
        optimum_cost=float(optimum.cost),
        nash_cost=nash_cost,
        price_of_anarchy=poa,
        config=config,
        metadata=metadata,
    )


def _reference_flows(instance, kind: str, config: SolveConfig, *,
                     need_nash: bool = False):
    """The optimum and Nash flow of a baseline report, each solved once.

    The strategy is built from the same optimum the report shows.  The Nash
    flow is solved when the report shows it (``config.compute_nash``) or the
    strategy needs it (``need_nash``); on networks it is solved first and
    its path flows seed the optimum.
    """
    solve_nash = need_nash or config.compute_nash
    if kind == PARALLEL:
        optimum = parallel_optimum(instance, config=config)
        return optimum, (parallel_nash(instance, config=config)
                         if solve_nash else None)
    nash = network_nash(instance, config=config) if solve_nash else None
    optimum = network_optimum(instance, config=config,
                              start=None if nash is None else nash.path_flows)
    return optimum, nash


def _baseline_report(name: str, kind: str, config: SolveConfig, strategy,
                     metadata: Dict[str, Any], *, optimum, nash,
                     outcome=None) -> SolveReport:
    """Report for a budgeted/null strategy from the flows its adapter solved.

    ``outcome`` is the Stackelberg outcome the strategy induces.  The null
    strategy passes none: its Followers route the whole demand on the plain
    instance, so its induced outcome is the Nash flow itself.
    """
    if outcome is None:
        induced_flows, induced_cost = _flows_of(nash), nash.cost
    else:
        induced_flows, induced_cost = outcome.combined_flows, outcome.cost
    return _build_report(
        name=name, kind=kind, config=config, alpha=strategy.alpha,
        beta=None, leader_flows=_flows_of(strategy),
        induced_flows=induced_flows, induced_cost=float(induced_cost),
        optimum=optimum, nash=nash if config.compute_nash else None,
        metadata=metadata)


# --------------------------------------------------------------------------- #
# The Price-of-Optimum strategies (Theorem 2.1)
# --------------------------------------------------------------------------- #
def _mop_report(name: str, instance, config: SolveConfig, *,
                kind: str = NETWORK,
                extra_metadata: Optional[Dict[str, Any]] = None) -> SolveReport:
    result = mop(instance, compute_nash=config.compute_nash, config=config)
    metadata = {
        "algorithm": "mop",
        "backend": config.backend,
        "free_flows": list(result.free_flows),
        "num_shortest_path_edges": [len(s) for s in result.shortest_edge_sets],
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return _build_report(
        name=name, kind=kind, config=config, alpha=result.strategy.alpha,
        beta=result.beta, leader_flows=result.strategy.edge_flows,
        induced_flows=result.outcome.combined_flows,
        induced_cost=result.induced_cost,
        optimum=result.optimum, nash=result.nash, metadata=metadata)


@register_strategy("optop")
def solve_optop(instance, config: SolveConfig) -> SolveReport:
    """Algorithm OpTop (Corollary 2.2): the exact Price of Optimum.

    On parallel links runs the freezing iteration of the paper; on network
    instances delegates to algorithm MOP (the paper's own generalisation).
    """
    kind = resolve_instance_kind(instance)
    if kind == PARALLEL:
        result = optop(instance, config=config)
        metadata = {
            "algorithm": "optop",
            "backend": "parallel",
            "num_rounds": result.num_rounds,
            "frozen_links": [sorted(r.frozen_links) for r in result.rounds],
        }
        return _build_report(
            name="optop", kind=PARALLEL, config=config,
            alpha=result.strategy.alpha, beta=result.beta,
            leader_flows=result.strategy.flows,
            induced_flows=result.outcome.combined_flows,
            induced_cost=result.induced_cost,
            optimum=result.optimum, nash=result.initial_nash, metadata=metadata)
    return _mop_report("optop", instance, config,
                       extra_metadata={"dispatched_from": "optop"})


@register_strategy("mop")
def solve_mop(instance, config: SolveConfig) -> SolveReport:
    """Algorithm MOP (Corollary 2.3 / Theorem 2.1) on arbitrary networks.

    Parallel-link instances are embedded into the graph model (one s–t edge
    per link, in link order), so the reported flow vectors stay aligned with
    the original links.
    """
    kind = resolve_instance_kind(instance)
    if kind == NETWORK:
        return _mop_report("mop", instance, config)
    embedded = parallel_network_as_graph(instance)
    return _mop_report("mop", embedded, config, kind=PARALLEL,
                       extra_metadata={"embedded_parallel_links": True})


# --------------------------------------------------------------------------- #
# Baseline strategies
# --------------------------------------------------------------------------- #
@register_strategy("llf")
def solve_llf(instance, config: SolveConfig) -> SolveReport:
    """Roughgarden's Largest-Latency-First with budget ``config.budget()``."""
    alpha = config.budget()
    kind = resolve_instance_kind(instance)
    optimum, nash = _reference_flows(instance, kind, config)
    metadata = {"algorithm": "llf", "requested_alpha": alpha}
    if kind == PARALLEL:
        strategy = llf(instance, alpha, optimum=optimum)
    else:
        strategy = network_llf(instance, alpha, optimum=optimum)
        metadata["path_generalisation"] = True
    return _baseline_report("llf", kind, config, strategy, metadata,
                            optimum=optimum, nash=nash,
                            outcome=strategy.induce(instance, config=config))


@register_strategy("scale")
def solve_scale(instance, config: SolveConfig) -> SolveReport:
    """The SCALE strategy ``S = alpha * O`` with budget ``config.budget()``."""
    alpha = config.budget()
    kind = resolve_instance_kind(instance)
    optimum, nash = _reference_flows(instance, kind, config)
    strategy = scale(instance, alpha, optimum=optimum)
    return _baseline_report("scale", kind, config, strategy,
                            {"algorithm": "scale", "requested_alpha": alpha},
                            optimum=optimum, nash=nash,
                            outcome=strategy.induce(instance, config=config))


@register_strategy("aloof")
def solve_aloof(instance, config: SolveConfig) -> SolveReport:
    """The null strategy: the Leader routes nothing, Followers reach Nash."""
    kind = resolve_instance_kind(instance)
    optimum, nash = _reference_flows(instance, kind, config, need_nash=True)
    return _baseline_report("aloof", kind, config, aloof(instance),
                            {"algorithm": "aloof"}, optimum=optimum, nash=nash)


@register_strategy("exact")
def solve_exact(instance, config: SolveConfig) -> SolveReport:
    """MILP-certified exact baseline with budget ``config.budget()``.

    On parallel links solves the piecewise-linearised mixed-integer leader
    problem (:func:`repro.baselines.exact.exact_strategy`), polishes the
    best candidate on the true induced cost, and reports the certified
    lower bound / optimality gap in ``metadata["certification"]``.  On
    network instances it falls back to the exhaustive path-support search,
    certified against the social optimum (a valid lower bound on any
    induced cost, though looser than the parallel-link MILP bound).
    """
    alpha = config.budget()
    kind = resolve_instance_kind(instance)
    metadata = {"algorithm": "exact", "requested_alpha": alpha}
    optimum, nash = _reference_flows(instance, kind, config,
                                     need_nash=kind == PARALLEL)
    if kind == PARALLEL:
        result = exact_strategy(instance, alpha, optimum=optimum, nash=nash,
                                config=config)
        metadata["certification"] = result.certification
    else:
        result = network_brute_force(
            instance, alpha, resolution=config.brute_force_resolution,
            optimum=optimum, config=config)
        cost = float(result.outcome.cost)
        metadata["certification"] = {
            "method": "network_brute_force",
            "lower_bound": float(optimum.cost),
            "certified_cost": cost,
            "optimality_gap": float(max(0.0, cost - float(optimum.cost))),
            "resolution": config.brute_force_resolution,
            "evaluated": result.evaluated,
            "alpha": float(alpha),
        }
    return _baseline_report("exact", kind, config, result.strategy, metadata,
                            optimum=optimum, nash=nash,
                            outcome=result.outcome)


@register_strategy("brute_force")
def solve_brute_force(instance, config: SolveConfig) -> SolveReport:
    """Grid search for the best strategy with budget ``config.budget()``.

    On parallel links the grid covers the Leader's whole flow simplex; on
    (single-commodity) networks it covers the path support of the optimum.
    """
    alpha = config.budget()
    resolution = config.brute_force_resolution
    kind = resolve_instance_kind(instance)
    optimum, nash = _reference_flows(instance, kind, config)
    if kind == PARALLEL:
        result = brute_force_strategy(instance, alpha, resolution=resolution,
                                      config=config)
    else:
        result = network_brute_force(instance, alpha, resolution=resolution,
                                     optimum=optimum, config=config)
    metadata = {"algorithm": "brute_force", "requested_alpha": alpha,
                "evaluated": result.evaluated, "resolution": resolution}
    if kind == NETWORK:
        metadata["path_generalisation"] = True
    return _baseline_report("brute_force", kind, config, result.strategy,
                            metadata, optimum=optimum, nash=nash,
                            outcome=result.outcome)
