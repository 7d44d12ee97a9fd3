"""Network generalisations of the parallel-link baseline strategies.

The unified :mod:`repro.api` surface promises that every registered strategy
accepts both instance families.  LLF and the brute-force search were defined
on parallel links only; the generalisations here lift them to networks by
treating the *paths used by the optimum flow* as the analogue of links:

* :func:`network_llf` saturates optimum paths in order of decreasing path
  latency (at optimal loads) until the Leader budget runs out — exactly
  Roughgarden's Largest-Latency-First rule with paths in place of links;
* :func:`network_brute_force` grid-searches Leader assignments over the
  optimum path set (restricting to paths the optimum uses is the natural
  network analogue of the per-link grid: flow the Leader parks outside the
  optimum's support can only increase the induced cost it is trying to
  minimise).

Both are heuristic baselines, not algorithms of the paper; they exist so that
comparison sweeps run uniformly across instance kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import SolveConfig
from repro.exceptions import StrategyError
from repro.network.instance import NetworkInstance
from repro.core.strategy import NetworkStackelbergStrategy
from repro.equilibrium.network import network_optimum
from repro.equilibrium.result import NetworkFlowResult, StackelbergOutcome
from repro.paths.decomposition import decompose_flow
from repro.baselines.brute_force import _compositions

__all__ = ["network_llf", "network_brute_force", "NetworkBruteForceResult",
           "MAX_GRID_CANDIDATES"]

#: Largest grid :func:`network_brute_force` searches.  Each candidate costs
#: one induced network equilibrium, so a larger grid runs for minutes.
MAX_GRID_CANDIDATES = 10_000


def network_llf(instance: NetworkInstance, alpha: float, *,
                solver: str = "auto", tolerance: float = 1e-9,
                optimum: NetworkFlowResult | None = None,
                ) -> NetworkStackelbergStrategy:
    """Largest-Latency-First on a network: saturate costly optimum paths first.

    Per commodity, the optimum flow is decomposed into paths; the Leader
    claims whole paths in order of decreasing path latency (under optimal
    loads) until her budget ``alpha * demand_i`` is exhausted, taking the last
    path partially.  With every edge a distinct s–t path this reduces to the
    parallel-link LLF.  ``optimum`` is the instance's system optimum when the
    caller already solved it; otherwise it is solved here under
    ``SolveConfig(backend=solver, tolerance=tolerance)``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    if optimum is None:
        optimum = network_optimum(
            instance, config=SolveConfig(backend=solver, tolerance=tolerance))
    costs = instance.latencies_at(optimum.edge_flows)

    remaining = optimum.edge_flows.copy()
    strategy_flows = np.zeros(instance.network.num_edges, dtype=float)
    controlled = []
    for commodity in instance.commodities:
        budget = alpha * commodity.demand
        taken = 0.0
        paths = decompose_flow(instance.network, remaining,
                               commodity.source, commodity.sink)
        # Decreasing path latency; ties broken by path edges for determinism.
        ordered = sorted(paths,
                         key=lambda pv: (-float(sum(costs[i] for i in pv[0])),
                                         pv[0]))
        for path, value in ordered:
            if budget - taken <= 1e-15:
                break
            take = min(float(value), budget - taken)
            for idx in path:
                strategy_flows[idx] += take
                remaining[idx] = max(0.0, remaining[idx] - take)
            taken += take
        controlled.append(taken)
    return NetworkStackelbergStrategy(
        edge_flows=strategy_flows,
        controlled_demands=tuple(controlled),
        total_demand=instance.total_demand,
    )


@dataclass(frozen=True)
class NetworkBruteForceResult:
    """Best grid strategy found by :func:`network_brute_force`."""

    strategy: NetworkStackelbergStrategy
    outcome: StackelbergOutcome
    cost: float
    evaluated: int


def network_brute_force(instance: NetworkInstance, alpha: float, *,
                        resolution: int = 8,
                        optimum: NetworkFlowResult | None = None,
                        config: SolveConfig = SolveConfig(),
                        ) -> NetworkBruteForceResult:
    """Grid search over Leader assignments on the optimum's path support.

    The budget ``alpha * r`` is split into ``resolution`` quanta distributed
    over the paths of an optimum flow decomposition in every possible way;
    each candidate strategy is evaluated by its induced equilibrium cost.
    Candidates that load an edge up to its capacity (``domain_upper``) are
    skipped; :class:`StrategyError` is raised when no candidate is left, and
    before any induced solve when the grid holds more than
    :data:`MAX_GRID_CANDIDATES` candidates.
    Single-commodity instances only (the grid over per-commodity splits would
    explode combinatorially).  ``optimum`` is the instance's system optimum
    when the caller already solved it; otherwise it is solved here.  Every
    flow solve runs under ``config``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    if resolution < 1:
        raise StrategyError(f"resolution must be >= 1, got {resolution!r}")
    if not instance.is_single_commodity:
        raise StrategyError(
            "network_brute_force supports single-commodity instances only")
    if optimum is None:
        optimum = network_optimum(instance, config=config)
    paths = decompose_flow(instance.network, optimum.edge_flows,
                           instance.source, instance.sink)
    if not paths:
        raise StrategyError("the optimum flow decomposes into no s-t paths")

    demand = instance.total_demand
    budget = alpha * demand
    num_edges = instance.network.num_edges
    if budget <= 0.0:
        strategy = NetworkStackelbergStrategy(
            edge_flows=np.zeros(num_edges), controlled_demands=(0.0,),
            total_demand=demand)
        outcome = strategy.induce(instance, config=config)
        return NetworkBruteForceResult(strategy=strategy, outcome=outcome,
                                       cost=float(outcome.cost), evaluated=1)
    candidates = math.comb(resolution + len(paths) - 1, len(paths) - 1)
    if candidates > MAX_GRID_CANDIDATES:
        raise StrategyError(
            f"network brute force would evaluate {candidates:,} candidates "
            f"({len(paths)} optimum paths at resolution {resolution}), more "
            f"than {MAX_GRID_CANDIDATES:,}; use a lower "
            f"brute_force_resolution")
    quantum = budget / resolution
    uppers = instance.network.latency_batch().domain_upper

    best: NetworkBruteForceResult | None = None
    count = 0
    for combo in _compositions(resolution, len(paths)):
        flows = np.zeros(num_edges, dtype=float)
        for (path, _), units in zip(paths, combo):
            if units == 0:
                continue
            amount = units * quantum
            for idx in path:
                flows[idx] += amount
        if np.any(flows >= uppers):
            continue
        strategy = NetworkStackelbergStrategy(
            edge_flows=flows,
            controlled_demands=(budget,),
            total_demand=demand,
        )
        outcome = strategy.induce(instance, config=config)
        count += 1
        if best is None or outcome.cost < best.cost:
            best = NetworkBruteForceResult(strategy=strategy, outcome=outcome,
                                           cost=float(outcome.cost),
                                           evaluated=count)
    if best is None:
        raise StrategyError(
            f"no grid strategy at resolution {resolution} keeps every edge "
            f"below its capacity")
    return NetworkBruteForceResult(strategy=best.strategy, outcome=best.outcome,
                                   cost=best.cost, evaluated=count)
