"""Routing instances on directed networks (single and multi commodity)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

import numpy as np

from repro.exceptions import InfeasibleFlowError, ModelError
from repro.network.graph import Network
from repro.utils.numeric import finite_real

__all__ = ["Commodity", "NetworkInstance"]

Node = Hashable


@dataclass(frozen=True)
class Commodity:
    """A source/destination pair ``(s_i, t_i)`` with demand ``r_i > 0``."""

    source: Node
    sink: Node
    demand: float

    def __post_init__(self) -> None:
        if self.source == self.sink:
            raise ModelError(
                f"commodity source and sink must differ, both are {self.source!r}")
        if finite_real(self.demand, "commodity demand") <= 0.0:
            raise ModelError(f"commodity demand must be > 0, got {self.demand!r}")


class NetworkInstance:
    """A routing instance ``(G, r)``: a network plus one or more commodities.

    The single-commodity (s–t) instances of Corollary 2.3 use exactly one
    commodity; Theorem 2.1's k-commodity instances use several.  All flow
    vectors are edge-indexed NumPy arrays following the network's canonical
    edge ordering.
    """

    def __init__(self, network: Network, commodities: Sequence[Commodity]) -> None:
        commodities = tuple(commodities)
        if not commodities:
            raise ModelError("a network instance needs at least one commodity")
        for com in commodities:
            if not network.has_node(com.source):
                raise ModelError(f"source node {com.source!r} is not in the network")
            if not network.has_node(com.sink):
                raise ModelError(f"sink node {com.sink!r} is not in the network")
        self.network = network
        self.commodities = commodities

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def single_commodity(cls, network: Network, source: Node, sink: Node,
                         demand: float) -> "NetworkInstance":
        """Convenience constructor for an s–t instance."""
        return cls(network, [Commodity(source, sink, demand)])

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    @property
    def is_single_commodity(self) -> bool:
        return self.num_commodities == 1

    @property
    def total_demand(self) -> float:
        """Total flow ``r = sum_i r_i``."""
        return float(sum(c.demand for c in self.commodities))

    @property
    def source(self) -> Node:
        """Source node (single-commodity instances only)."""
        self._require_single()
        return self.commodities[0].source

    @property
    def sink(self) -> Node:
        """Sink node (single-commodity instances only)."""
        self._require_single()
        return self.commodities[0].sink

    def _require_single(self) -> None:
        if not self.is_single_commodity:
            raise ModelError(
                "this operation is only defined for single-commodity instances")

    def __repr__(self) -> str:
        return (f"NetworkInstance(num_nodes={self.network.num_nodes}, "
                f"num_edges={self.network.num_edges}, "
                f"num_commodities={self.num_commodities}, "
                f"total_demand={self.total_demand!r})")

    # ------------------------------------------------------------------ #
    # Functionals (delegate to the network)
    # ------------------------------------------------------------------ #
    def cost(self, edge_flows: np.ndarray) -> float:
        """Total cost ``C(f) = sum_e f_e l_e(f_e)``."""
        return self.network.cost(edge_flows)

    def beckmann(self, edge_flows: np.ndarray) -> float:
        """Beckmann potential of the edge flows."""
        return self.network.beckmann(edge_flows)

    def latencies_at(self, edge_flows: np.ndarray) -> np.ndarray:
        return self.network.latencies_at(edge_flows)

    def marginal_costs_at(self, edge_flows: np.ndarray) -> np.ndarray:
        return self.network.marginal_costs_at(edge_flows)

    # ------------------------------------------------------------------ #
    # Feasibility
    # ------------------------------------------------------------------ #
    def check_flow_conservation(self, edge_flows: np.ndarray,
                                commodity_flows: Sequence[np.ndarray] | None = None,
                                *, atol: float = 1e-5) -> None:
        """Verify flow conservation of an aggregated edge-flow vector.

        When ``commodity_flows`` (one edge-flow array per commodity) is given,
        each commodity is checked individually and their sum is checked against
        ``edge_flows``; otherwise only the aggregate is checked, which for
        multi-commodity instances requires the per-node net divergence to match
        the summed demands of commodities sourced/sunk there.
        """
        flows = self.network.validate_edge_flows(edge_flows)
        scale = max(1.0, self.total_demand)
        if commodity_flows is not None:
            if len(commodity_flows) != self.num_commodities:
                raise InfeasibleFlowError(
                    f"expected {self.num_commodities} commodity flow vectors, "
                    f"got {len(commodity_flows)}")
            total = np.zeros(self.network.num_edges)
            for com, com_flows in zip(self.commodities, commodity_flows):
                self._check_single_conservation(com, com_flows, atol=atol)
                total += np.asarray(com_flows, dtype=float)
            if np.max(np.abs(total - flows)) > atol * scale:
                raise InfeasibleFlowError(
                    "commodity flows do not sum to the aggregate edge flows")
            return

        divergence = {node: 0.0 for node in self.network.nodes}
        for i, edge in enumerate(self.network.edges):
            divergence[edge.tail] += flows[i]
            divergence[edge.head] -= flows[i]
        expected = {node: 0.0 for node in self.network.nodes}
        for com in self.commodities:
            expected[com.source] += com.demand
            expected[com.sink] -= com.demand
        for node in self.network.nodes:
            if abs(divergence[node] - expected[node]) > atol * scale:
                raise InfeasibleFlowError(
                    f"flow conservation violated at node {node!r}: "
                    f"divergence {divergence[node]!r}, expected {expected[node]!r}")

    def _check_single_conservation(self, commodity: Commodity,
                                   edge_flows: np.ndarray, *, atol: float) -> None:
        flows = self.network.validate_edge_flows(edge_flows)
        scale = max(1.0, commodity.demand)
        for node in self.network.nodes:
            out_flow = sum(flows[i] for i in self.network.out_edges(node))
            in_flow = sum(flows[i] for i in self.network.in_edges(node))
            net = out_flow - in_flow
            if node == commodity.source:
                target = commodity.demand
            elif node == commodity.sink:
                target = -commodity.demand
            else:
                target = 0.0
            if abs(net - target) > atol * scale:
                raise InfeasibleFlowError(
                    f"commodity ({commodity.source!r}->{commodity.sink!r}): "
                    f"conservation violated at node {node!r}")

    # ------------------------------------------------------------------ #
    # Derived instances
    # ------------------------------------------------------------------ #
    def with_demands(self, demands: Sequence[float]) -> "NetworkInstance":
        """A copy with per-commodity demands replaced by ``demands``.

        Commodities whose new demand is zero (or negative within rounding) are
        dropped; at least one commodity must remain.
        """
        if len(demands) != self.num_commodities:
            raise ModelError(
                f"expected {self.num_commodities} demands, got {len(demands)}")
        new_commodities = []
        for com, demand in zip(self.commodities, demands):
            if demand > 1e-12:
                new_commodities.append(Commodity(com.source, com.sink, float(demand)))
        if not new_commodities:
            raise ModelError("all commodity demands would be zero")
        return NetworkInstance(self.network, new_commodities)

    def shifted(self, strategy_flows: np.ndarray,
                remaining_demands: Sequence[float]) -> "NetworkInstance":
        """The Followers' instance under a Stackelberg edge pre-load.

        ``strategy_flows`` is the Leader's edge-flow vector; every latency is
        shifted accordingly and the commodity demands are replaced by the
        uncontrolled ``remaining_demands``.
        """
        shifted_network = self.network.shifted(strategy_flows)
        if len(remaining_demands) != self.num_commodities:
            raise ModelError(
                f"expected {self.num_commodities} remaining demands, "
                f"got {len(remaining_demands)}")
        new_commodities = []
        for com, demand in zip(self.commodities, remaining_demands):
            if demand > 1e-12:
                new_commodities.append(Commodity(com.source, com.sink, float(demand)))
        if not new_commodities:
            # All flow is controlled by the Leader; keep a vanishing commodity so
            # downstream code can still compute (trivial) equilibria.
            com = self.commodities[0]
            new_commodities = [Commodity(com.source, com.sink, 1e-12)]
        return NetworkInstance(shifted_network, new_commodities)
