"""Algorithm MOP: the Price of Optimum on arbitrary networks (Cor. 2.3 / Thm 2.1).

MOP generalises OpTop to single and multi commodity networks:

1. compute the optimum flow ``O`` and fix the edge costs ``l_e(o_e)``;
2. per commodity, compute the subgraph of edges lying on shortest
   ``s_i -> t_i`` paths with respect to those costs (footnote 5);
3. the *free* (uncontrolled) flow of the commodity is the largest amount of
   ``O`` routable entirely inside that subgraph (a max-flow with capacities
   ``o_e``); everything else — the optimum flow on non-shortest paths — must
   be controlled by the Leader (Section 5.1);
4. the Leader's strategy is ``s_e = o_e - (free routing)_e`` and the Price of
   Optimum is ``beta_G = (r - free flow) / r``.

The induced equilibrium of the Followers then completes ``S`` exactly to the
optimum: inside the shortest-path subgraph every path has the common latency
``dist(s_i, t_i)`` and no alternative path is shorter, so the free routing is
a Wardrop equilibrium of the shifted instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import SolveConfig
from repro.network.instance import NetworkInstance
from repro.paths.dijkstra import shortest_path_edge_set
from repro.paths.maxflow import max_flow
from repro.equilibrium.network import network_optimum, network_nash
from repro.equilibrium.result import NetworkFlowResult, StackelbergOutcome
from repro.core.strategy import NetworkStackelbergStrategy

__all__ = ["MOPResult", "mop"]


@dataclass(frozen=True)
class MOPResult:
    """Result of :func:`mop`.

    ``beta`` is the Price of Optimum of the network instance; ``strategy`` the
    Leader's optimal strategy (edge flows plus controlled demand per
    commodity); ``shortest_edge_sets`` the per-commodity shortest-path
    subgraphs under optimal latencies; ``free_flows`` the uncontrolled demand
    per commodity; ``outcome`` the induced Stackelberg equilibrium (``None``
    when ``compute_induced=False``).
    """

    instance: NetworkInstance
    beta: float
    strategy: NetworkStackelbergStrategy
    optimum: NetworkFlowResult
    nash: Optional[NetworkFlowResult]
    shortest_edge_sets: Tuple[frozenset, ...]
    free_flows: Tuple[float, ...]
    outcome: Optional[StackelbergOutcome]

    @property
    def controlled_flow(self) -> float:
        """Total flow the Leader controls (``beta * r``)."""
        return self.strategy.controlled_flow

    @property
    def optimum_cost(self) -> float:
        return self.optimum.cost

    @property
    def induced_cost(self) -> float:
        if self.outcome is None:
            raise ValueError("induced equilibrium was not computed")
        return self.outcome.cost


def mop(instance: NetworkInstance, *, compute_induced: bool = True,
        compute_nash: bool = False,
        config: SolveConfig = SolveConfig()) -> MOPResult:
    """Run algorithm MOP on a network instance.

    Parameters
    ----------
    instance:
        Single- or multi-commodity routing instance ``(G, r)``.
    compute_induced:
        Whether to also compute the induced Stackelberg equilibrium (costs a
        Nash solve on the shifted network).
    compute_nash:
        Whether to also compute the uncontrolled Nash equilibrium of the
        instance (used by reporting code to show the anarchy gap MOP closes).
        It is solved first, and its path flows seed the optimum solve.
    config:
        Supplies the equilibrium backend and its settings for every flow
        solve, and ``shortest_path_atol``, the slack used when classifying
        an edge as lying on a shortest path; it absorbs the numerical error
        of the optimum flow (the default 1e-5 is comfortably above the
        path-based/Frank-Wolfe flow accuracy while far below any genuine
        latency difference in the benchmark instances).
    """
    # The Nash flow, when wanted, is solved first: its certified path flows
    # seed the optimum.
    nash = None
    if compute_nash:
        nash = network_nash(instance, config=config)
    optimum = network_optimum(instance, config=config,
                              start=None if nash is None else nash.path_flows)
    opt_flows = optimum.edge_flows
    costs = instance.latencies_at(opt_flows)

    remaining_capacity = opt_flows.copy()
    free_routing = np.zeros_like(opt_flows)
    shortest_sets = []
    free_flows = []
    for commodity in instance.commodities:
        edge_set = shortest_path_edge_set(
            instance.network, commodity.source, commodity.sink, costs,
            atol=config.shortest_path_atol)
        shortest_sets.append(frozenset(edge_set))
        value, routing = max_flow(instance.network, commodity.source,
                                  commodity.sink, remaining_capacity,
                                  allowed_edges=edge_set)
        free = min(commodity.demand, value)
        if value > commodity.demand and value > 0.0:
            routing = routing * (commodity.demand / value)
        remaining_capacity = np.clip(remaining_capacity - routing, 0.0, None)
        free_routing += routing
        free_flows.append(float(free))

    strategy_flows = np.clip(opt_flows - free_routing, 0.0, None)
    controlled = tuple(max(0.0, com.demand - free)
                       for com, free in zip(instance.commodities, free_flows))
    strategy = NetworkStackelbergStrategy(
        edge_flows=strategy_flows,
        controlled_demands=controlled,
        total_demand=instance.total_demand,
    )
    beta = strategy.controlled_flow / instance.total_demand

    outcome = None
    if compute_induced:
        outcome = strategy.induce(instance, config=config)

    return MOPResult(
        instance=instance,
        beta=float(beta),
        strategy=strategy,
        optimum=optimum,
        nash=nash,
        shortest_edge_sets=tuple(shortest_sets),
        free_flows=tuple(free_flows),
        outcome=outcome,
    )
