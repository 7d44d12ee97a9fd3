"""Verification of equilibrium and optimality conditions.

The tests and the experiment harness use these residuals to certify that the
flows produced by the solvers really satisfy the defining conditions of the
paper's model rather than merely being fixed points of our own iterations:

* Wardrop condition (Remark 4.1 / Section 4): every used link/path has
  latency no larger than any alternative.
* Optimality condition: every used link has marginal cost no larger than any
  alternative (KKT conditions of the convex cost minimisation).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.network.instance import NetworkInstance
from repro.network.parallel import ParallelLinkInstance
from repro.paths.dijkstra import shortest_distances

__all__ = [
    "parallel_wardrop_gap",
    "parallel_optimality_gap",
    "network_wardrop_gap",
    "network_optimality_gap",
    "network_commodity_gap",
]


def _support_violation(levels: np.ndarray, flows: np.ndarray,
                       *, flow_atol: float) -> float:
    """Largest amount by which a *used* entry exceeds the smallest level."""
    used = flows > flow_atol
    if not np.any(used):
        return 0.0
    return float(np.max(levels[used]) - np.min(levels))


def parallel_wardrop_gap(instance: ParallelLinkInstance, flows: Sequence[float],
                         *, flow_atol: float = 1e-9) -> float:
    """How far ``flows`` is from a Wardrop equilibrium.

    Returns the largest excess latency of a used link over the minimum latency
    across all links; a true Nash equilibrium has gap ~0.
    """
    arr = np.asarray(flows, dtype=float)
    latencies = instance.latencies_at(arr)
    return _support_violation(latencies, arr, flow_atol=flow_atol)


def parallel_optimality_gap(instance: ParallelLinkInstance, flows: Sequence[float],
                            *, flow_atol: float = 1e-9) -> float:
    """How far ``flows`` is from satisfying the optimum's KKT conditions.

    Returns the largest excess marginal cost of a used link over the minimum
    marginal cost across all links.
    """
    arr = np.asarray(flows, dtype=float)
    marginals = instance.marginal_costs_at(arr)
    return _support_violation(marginals, arr, flow_atol=flow_atol)


def _dag_overshoot(instance: NetworkInstance, costs: np.ndarray,
                   commodity_flows: Sequence[np.ndarray],
                   flow_atol: float) -> float:
    """Largest overshoot ``dist(tail) + cost(e) - dist(head)`` of a used edge.

    For each commodity, labels come from the pure-Python
    :func:`shortest_distances` tree of its source, and an edge counts as
    used when the commodity's entry of ``commodity_flows`` exceeds
    ``flow_atol`` on it.
    """
    worst = 0.0
    for commodity, flows in zip(instance.commodities, commodity_flows):
        dist, _ = shortest_distances(instance.network, commodity.source, costs)
        for idx, edge in enumerate(instance.network.edges):
            if flows[idx] <= flow_atol:
                continue
            du = dist.get(edge.tail, math.inf)
            dv = dist.get(edge.head, math.inf)
            if math.isinf(du) or math.isinf(dv):
                continue
            slack = du + costs[idx] - dv
            worst = max(worst, slack)
    return float(worst)


def network_wardrop_gap(instance: NetworkInstance, edge_flows: Sequence[float],
                        *, flow_atol: float = 1e-7) -> float:
    """Wardrop residual of a network flow.

    For each commodity the gap compares the latency of used paths against the
    shortest-path latency under the flow-induced edge costs.  Because path
    flows are not stored, the per-commodity residual is measured edge-wise on
    the shortest-path DAG: it is the largest violation of
    ``dist(tail) + l_e(f_e) >= dist(head)`` complementarity over edges carrying
    flow, i.e. how much a used edge "overshoots" the label of its head node.
    A Wardrop equilibrium has residual ~0; the converse holds for
    single-commodity instances (every used path then has minimal latency).
    """
    flows = np.asarray(edge_flows, dtype=float)
    return _dag_overshoot(instance, instance.latencies_at(flows),
                          [flows] * len(instance.commodities), flow_atol)


def network_optimality_gap(instance: NetworkInstance,
                           edge_flows: Sequence[float],
                           *, flow_atol: float = 1e-7) -> float:
    """KKT residual of a system-optimum network flow.

    The marginal-cost twin of :func:`network_wardrop_gap`: the same
    edge-wise overshoot over each commodity's shortest-path DAG, with every
    edge priced at its marginal cost ``l_e(f_e) + f_e l_e'(f_e)``.  A
    residual ~0 certifies the optimum (every used path has minimal marginal
    cost).  With a single commodity the converse holds too.  With several
    commodities the aggregate flow does not say whose flow an edge carries,
    so every used edge is checked against every commodity's DAG, and an
    exact optimum can read positive; certify it with
    :func:`network_commodity_gap` instead.
    """
    flows = np.asarray(edge_flows, dtype=float)
    return _dag_overshoot(instance, instance.marginal_costs_at(flows),
                          [flows] * len(instance.commodities), flow_atol)


def network_commodity_gap(instance: NetworkInstance,
                          commodity_flows: Sequence[Sequence[float]],
                          kind: str, *, flow_atol: float = 1e-7) -> float:
    """Wardrop (``kind="nash"``) or KKT (``kind="optimum"``) residual of a
    flow given per commodity.

    ``commodity_flows`` holds one edge-flow row per commodity, such as
    :attr:`NetworkFlowResult.commodity_flows`.  Edges are priced at the
    summed flow (latencies or marginal costs), and each commodity's own
    used edges are measured against its own shortest-path DAG.  The
    residual is ~0 exactly when every commodity uses only paths of minimal
    price, for any number of commodities.
    """
    if kind not in ("nash", "optimum"):
        raise ModelError(f"unknown kind {kind!r}")
    rows = np.asarray(commodity_flows, dtype=float)
    if rows.shape != (len(instance.commodities), instance.network.num_edges):
        raise ModelError(
            f"commodity_flows must have shape "
            f"({len(instance.commodities)}, {instance.network.num_edges}), "
            f"got {rows.shape}")
    flows = rows.sum(axis=0)
    costs = instance.latencies_at(flows) if kind == "nash" \
        else instance.marginal_costs_at(flows)
    return _dag_overshoot(instance, costs, rows, flow_atol)
