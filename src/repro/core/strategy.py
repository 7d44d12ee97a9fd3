"""Stackelberg strategy objects.

A strategy records *what the Leader routes where*.  Two flavours mirror the
two instance families: per-link flows on parallel links, per-edge flows (plus
per-commodity controlled amounts) on networks.  Both know how to compute the
equilibrium they induce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.config import SolveConfig
from repro.exceptions import StrategyError
from repro.network.instance import NetworkInstance
from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.induced import (
    induced_network_equilibrium,
    induced_parallel_equilibrium,
)
from repro.equilibrium.result import StackelbergOutcome

__all__ = ["ParallelStackelbergStrategy", "NetworkStackelbergStrategy"]


@dataclass(frozen=True)
class ParallelStackelbergStrategy:
    """A Leader assignment ``S = <s_1, ..., s_m>`` on parallel links.

    Attributes
    ----------
    flows:
        Per-link Leader flows (non-negative).
    total_demand:
        The instance demand ``r``; together with ``flows`` it determines the
        controlled portion ``alpha``.
    """

    flows: np.ndarray
    total_demand: float

    def __post_init__(self) -> None:
        flows = np.asarray(self.flows, dtype=float)
        if np.any(flows < -1e-12):
            raise StrategyError("strategy flows must be non-negative")
        if self.total_demand <= 0.0:
            raise StrategyError(
                f"total demand must be > 0, got {self.total_demand!r}")
        if float(flows.sum()) > self.total_demand * (1.0 + 1e-9) + 1e-12:
            raise StrategyError(
                f"strategy routes {float(flows.sum())!r} > demand {self.total_demand!r}")
        object.__setattr__(self, "flows", np.clip(flows, 0.0, None))

    @property
    def controlled_flow(self) -> float:
        """Total flow routed by the Leader."""
        return float(self.flows.sum())

    @property
    def alpha(self) -> float:
        """Fraction of the total demand controlled by the Leader."""
        return self.controlled_flow / self.total_demand

    @property
    def num_links(self) -> int:
        return int(self.flows.shape[0])

    def induce(self, instance: ParallelLinkInstance, *,
               config: SolveConfig = SolveConfig()) -> StackelbergOutcome:
        """Compute the equilibrium the Followers reach against this strategy."""
        if instance.num_links != self.num_links:
            raise StrategyError(
                f"strategy has {self.num_links} links but the instance has "
                f"{instance.num_links}")
        return induced_parallel_equilibrium(instance, self.flows,
                                            config=config)


@dataclass(frozen=True)
class NetworkStackelbergStrategy:
    """A Leader assignment on a network instance.

    Attributes
    ----------
    edge_flows:
        The Leader's edge-flow vector (a feasible routing of the controlled
        demand of every commodity).
    controlled_demands:
        Amount of each commodity's demand routed by the Leader.
    total_demand:
        Total instance demand ``r``.
    """

    edge_flows: np.ndarray
    controlled_demands: Tuple[float, ...]
    total_demand: float

    def __post_init__(self) -> None:
        flows = np.asarray(self.edge_flows, dtype=float)
        if np.any(flows < -1e-9):
            raise StrategyError("strategy edge flows must be non-negative")
        controlled = tuple(float(c) for c in self.controlled_demands)
        if any(c < -1e-9 for c in controlled):
            raise StrategyError("controlled demands must be non-negative")
        if self.total_demand <= 0.0:
            raise StrategyError(
                f"total demand must be > 0, got {self.total_demand!r}")
        object.__setattr__(self, "edge_flows", np.clip(flows, 0.0, None))
        object.__setattr__(self, "controlled_demands",
                           tuple(max(0.0, c) for c in controlled))

    @property
    def controlled_flow(self) -> float:
        """Total flow routed by the Leader across all commodities."""
        return float(sum(self.controlled_demands))

    @property
    def alpha(self) -> float:
        """Fraction of the total demand controlled by the Leader."""
        return self.controlled_flow / self.total_demand

    def remaining_demands(self, instance: NetworkInstance) -> Tuple[float, ...]:
        """Uncontrolled demand per commodity."""
        if len(self.controlled_demands) != instance.num_commodities:
            raise StrategyError(
                f"strategy has {len(self.controlled_demands)} commodities but the "
                f"instance has {instance.num_commodities}")
        return tuple(max(0.0, com.demand - c)
                     for com, c in zip(instance.commodities, self.controlled_demands))

    def induce(self, instance: NetworkInstance, *,
               config: SolveConfig = SolveConfig()) -> StackelbergOutcome:
        """Compute the equilibrium the Followers reach against this strategy."""
        return induced_network_equilibrium(
            instance, self.edge_flows, self.remaining_demands(instance),
            config=config)
