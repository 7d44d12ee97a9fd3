"""Result containers for equilibrium computations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = ["ParallelFlowResult", "NetworkFlowResult", "StackelbergOutcome",
           "PathFlows"]

#: Path flows per commodity: pairs ``(path, flow)`` of a path's edge
#: indices and the flow on it, one tuple per commodity in instance order.
PathFlows = Tuple[Tuple[Tuple[Tuple[int, ...], float], ...], ...]


@dataclass(frozen=True)
class ParallelFlowResult:
    """Outcome of a parallel-link Nash or optimum computation.

    Attributes
    ----------
    flows:
        Per-link flow vector (sums to the instance demand).
    common_value:
        The equalised level: the common latency ``L_N`` of used links for a
        Nash equilibrium (Remark 4.1), or the common marginal cost for the
        system optimum.
    cost:
        Total cost ``C(X) = sum_i x_i l_i(x_i)``.
    beckmann:
        Beckmann potential of the flow (the quantity a Nash flow minimises).
    kind:
        ``"nash"`` or ``"optimum"``.
    """

    flows: np.ndarray
    common_value: float
    cost: float
    beckmann: float
    kind: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", np.asarray(self.flows, dtype=float))

    @property
    def demand(self) -> float:
        """Total routed flow."""
        return float(self.flows.sum())

    def flow_on(self, index: int) -> float:
        """Flow on link ``index``."""
        return float(self.flows[index])


@dataclass(frozen=True)
class NetworkFlowResult:
    """Outcome of a network Nash or optimum computation.

    ``relative_gap`` is the solver's stopping residual: the Frank–Wolfe
    relative gap, or the relative path-cost residual of path equilibration;
    ``iterations`` counts solver iterations (rounds); ``num_paths`` is the
    total size of path equilibration's working sets (0 for Frank–Wolfe),
    ``commodity_flows`` its edge flows per commodity (commodities by edges)
    and ``path_flows`` its used paths with their flows (:data:`PathFlows`,
    the ``start`` format of the network solvers); both are ``None`` for
    Frank–Wolfe, which tracks only the summed edge flows.
    """

    edge_flows: np.ndarray
    cost: float
    beckmann: float
    kind: str
    relative_gap: float = 0.0
    iterations: int = 0
    converged: bool = True
    solver: str = "frank-wolfe"
    num_paths: int = 0
    commodity_flows: Optional[np.ndarray] = None
    path_flows: Optional[PathFlows] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_flows",
                           np.asarray(self.edge_flows, dtype=float))

    def flow_on(self, index: int) -> float:
        """Flow on edge ``index``."""
        return float(self.edge_flows[index])


@dataclass(frozen=True)
class StackelbergOutcome:
    """A Stackelberg equilibrium ``S + T`` and its cost.

    Attributes
    ----------
    leader_flows:
        The Leader's strategy ``S`` (per link / edge).
    follower_flows:
        The induced Nash assignment ``T`` of the Followers.
    combined_flows:
        ``S + T``.
    cost:
        ``C(S + T)``.
    follower_common_latency:
        The common a-posteriori latency of links/paths used by the Followers
        (``L_S`` of Remark 4.2); ``None`` when the Followers route no flow.
    """

    leader_flows: np.ndarray
    follower_flows: np.ndarray
    combined_flows: np.ndarray
    cost: float
    follower_common_latency: Optional[float] = None
    follower_result: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "leader_flows",
                           np.asarray(self.leader_flows, dtype=float))
        object.__setattr__(self, "follower_flows",
                           np.asarray(self.follower_flows, dtype=float))
        object.__setattr__(self, "combined_flows",
                           np.asarray(self.combined_flows, dtype=float))

    @property
    def leader_share(self) -> float:
        """Fraction of the total flow controlled by the Leader."""
        total = float(self.combined_flows.sum())
        if total <= 0.0:
            return 0.0
        return float(self.leader_flows.sum()) / total
