"""Induced Nash equilibria under a Stackelberg strategy.

Given a Leader strategy ``S`` (flows pre-assigned per link or edge), the
Followers selfishly route the remaining flow facing the a-posteriori latencies
``l~(x) = l(x + s)`` (Section 4).  Their reaction ``T`` is the Nash/Wardrop
equilibrium of the shifted instance, and ``S + T`` is the Stackelberg
equilibrium whose cost the paper's guarantees speak about.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SolveConfig
from repro.exceptions import StrategyError
from repro.network.instance import NetworkInstance
from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.network import network_nash
from repro.equilibrium.parallel import parallel_nash
from repro.equilibrium.result import StackelbergOutcome

__all__ = ["induced_parallel_equilibrium", "induced_network_equilibrium"]


def _validate_parallel_strategy(instance: ParallelLinkInstance,
                                strategy_flows: Sequence[float]) -> np.ndarray:
    strategy = np.asarray(strategy_flows, dtype=float)
    if strategy.shape != (instance.num_links,):
        raise StrategyError(
            f"strategy must assign a flow to each of the {instance.num_links} links, "
            f"got shape {strategy.shape}")
    if np.any(strategy < -1e-9):
        raise StrategyError(f"strategy flows must be non-negative, got {strategy!r}")
    strategy = np.clip(strategy, 0.0, None)
    total = float(strategy.sum())
    if total > instance.demand * (1.0 + 1e-9) + 1e-12:
        raise StrategyError(
            f"strategy routes {total!r} flow but the instance only has "
            f"{instance.demand!r}")
    return strategy


def induced_parallel_equilibrium(instance: ParallelLinkInstance,
                                 strategy_flows: Sequence[float], *,
                                 config: SolveConfig = SolveConfig(),
                                 ) -> StackelbergOutcome:
    """The Followers' reaction ``T`` to a Leader strategy on parallel links.

    Returns the full Stackelberg equilibrium ``S + T`` with its cost.  The
    Followers' common latency (Remark 4.2) is reported when they route a
    positive amount of flow.  The Followers' instance shares the Leader's
    canonicalisation: :meth:`ParallelLinkInstance.shifted` derives its
    latency batch from ``instance``'s instead of rebuilding it.
    """
    strategy = _validate_parallel_strategy(instance, strategy_flows)
    followers_instance = instance.shifted(strategy)
    follower_result = parallel_nash(followers_instance, config=config)
    follower_flows = follower_result.flows
    combined = strategy + follower_flows
    cost = instance.cost(combined)
    common = follower_result.common_value if follower_result.demand > 0.0 else None
    return StackelbergOutcome(
        leader_flows=strategy,
        follower_flows=follower_flows,
        combined_flows=combined,
        cost=cost,
        follower_common_latency=common,
        follower_result=follower_result,
    )


def induced_network_equilibrium(instance: NetworkInstance,
                                strategy_edge_flows: Sequence[float],
                                remaining_demands: Sequence[float], *,
                                config: SolveConfig = SolveConfig(),
                                ) -> StackelbergOutcome:
    """The Followers' reaction to a Leader edge pre-load on a network instance.

    ``strategy_edge_flows`` is the Leader's edge-flow vector (it must itself be
    a feasible routing of the controlled portion of every commodity);
    ``remaining_demands`` lists the uncontrolled demand per commodity.
    """
    strategy = instance.network.validate_edge_flows(strategy_edge_flows)
    if len(remaining_demands) != instance.num_commodities:
        raise StrategyError(
            f"expected {instance.num_commodities} remaining demands, "
            f"got {len(remaining_demands)}")
    for commodity, remaining in zip(instance.commodities, remaining_demands):
        if remaining < -1e-9 or remaining > commodity.demand * (1.0 + 1e-9) + 1e-12:
            raise StrategyError(
                f"remaining demand {remaining!r} is outside [0, {commodity.demand!r}] "
                f"for commodity ({commodity.source!r} -> {commodity.sink!r})")

    followers_instance = instance.shifted(strategy, remaining_demands)
    follower_result = network_nash(followers_instance, config=config)
    follower_flows = follower_result.edge_flows
    combined = strategy + follower_flows
    cost = instance.cost(combined)
    return StackelbergOutcome(
        leader_flows=strategy,
        follower_flows=follower_flows,
        combined_flows=combined,
        cost=cost,
        follower_common_latency=None,
        follower_result=follower_result,
    )
