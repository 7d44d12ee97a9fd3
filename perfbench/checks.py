"""Correctness checks on every report, independent of the solvers.

Conservation residuals are computed here from the raw flow vectors; the
equilibrium and optimality conditions use :mod:`repro.equilibrium.verify`,
which re-evaluates the latencies at the reported flows rather than trusting
any solver state.  Each check returns ``None`` when the report passes and a
short reason when it does not.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Optional

import numpy as np

from repro.equilibrium.verify import (
    network_wardrop_gap,
    parallel_optimality_gap,
    parallel_wardrop_gap,
)
from repro.paths.dijkstra import shortest_distances

#: Conservation residual allowed, relative to the demand.
CONSERVATION_RTOL = 1e-6
#: Wardrop / KKT gap allowed on parallel links, relative to the level.
PARALLEL_GAP_RTOL = 1e-6
#: Graphs with at most this many edges go to the path-based solver under
#: ``solver="auto"``; larger ones go to Frank-Wolfe.
PATH_EDGE_LIMIT = 60
#: Edge-wise Wardrop gap allowed on networks, relative to the s-t path
#: latency, by the solver that ran.  Path-based solves measured 1e-7 or
#: less.  A Frank-Wolfe solve stopped at its iteration cap measured
#: 0.8-2.4% on 7x7 grids.
NETWORK_GAP_RTOL = {"path": 1e-4, "frank-wolfe": 1e-1}
#: Cluster reports must equal the in-process reference to this tolerance.
EQUALITY_RTOL = 1e-9

TOLERANCES = {
    "conservation_rtol": CONSERVATION_RTOL,
    "parallel_gap_rtol": PARALLEL_GAP_RTOL,
    "network_gap_rtol": NETWORK_GAP_RTOL,
    "cluster_equality_rtol": EQUALITY_RTOL,
}


def _sum_residual(flows, expected: float) -> float:
    return abs(float(np.sum(flows)) - expected) / max(1.0, abs(expected))


def check_parallel(instance, report) -> Optional[str]:
    demand = float(instance.demand)
    vectors = {"induced": report.induced_flows, "optimum": report.optimum_flows}
    if report.nash_flows is not None:
        vectors["nash"] = report.nash_flows
    for name, flows in vectors.items():
        if len(flows) != instance.num_links:
            return f"{name} flows have {len(flows)} entries"
        if min(flows) < -CONSERVATION_RTOL * max(1.0, demand):
            return f"{name} flows are negative"
        residual = _sum_residual(flows, demand)
        if residual > CONSERVATION_RTOL:
            return f"{name} conservation residual {residual:.3g}"
    leader = _sum_residual(report.leader_flows, report.alpha * demand)
    if leader > CONSERVATION_RTOL:
        return f"leader flow misses alpha*demand by {leader:.3g}"
    optimum = np.asarray(report.optimum_flows)
    scale = max(1.0, float(np.max(instance.marginal_costs_at(optimum))))
    gap = parallel_optimality_gap(instance, optimum)
    if gap > PARALLEL_GAP_RTOL * scale:
        return f"optimum KKT gap {gap:.3g}"
    if report.nash_flows is not None:
        nash = np.asarray(report.nash_flows)
        scale = max(1.0, float(np.max(instance.latencies_at(nash))))
        gap = parallel_wardrop_gap(instance, nash)
        if gap > PARALLEL_GAP_RTOL * scale:
            return f"Nash Wardrop gap {gap:.3g}"
    return None


def _node_residual(instance, flows) -> float:
    """Largest violation of flow conservation over all nodes."""
    net = defaultdict(float)
    for flow, edge in zip(flows, instance.network.edges):
        net[edge.tail] += flow
        net[edge.head] -= flow
    for commodity in instance.commodities:
        net[commodity.source] -= commodity.demand
        net[commodity.sink] += commodity.demand
    return max(abs(value) for value in net.values())


def network_solver(instance) -> str:
    """The solver ``solver="auto"`` picks for ``instance``."""
    edges = instance.network.num_edges
    return "path" if edges <= PATH_EDGE_LIMIT else "frank-wolfe"


def _network_vector(instance, name: str, flows) -> Optional[str]:
    demand = float(instance.total_demand)
    if len(flows) != instance.network.num_edges:
        return f"{name} flows have {len(flows)} entries"
    if min(flows) < -CONSERVATION_RTOL * max(1.0, demand):
        return f"{name} flows are negative"
    residual = _node_residual(instance, flows) / max(1.0, demand)
    if residual > CONSERVATION_RTOL:
        return f"{name} conservation residual {residual:.3g}"
    return None


def check_network_nash(instance, flows) -> Optional[str]:
    """Conservation plus ``network_wardrop_gap`` of a Nash flow, within the
    tolerance of the solver ``auto`` picks for the instance."""
    reason = _network_vector(instance, "nash", flows)
    if reason is not None:
        return reason
    nash = np.asarray(flows, dtype=float)
    dist, _ = shortest_distances(instance.network, instance.source,
                                 instance.latencies_at(nash))
    path = dist.get(instance.sink, math.inf)
    gap = network_wardrop_gap(instance, nash)
    rtol = NETWORK_GAP_RTOL[network_solver(instance)]
    if not math.isfinite(path) or gap > rtol * max(1.0, path):
        return f"Nash Wardrop gap {gap:.3g} on path latency {path:.3g}"
    return None


def check_network(instance, report) -> Optional[str]:
    vectors = {"induced": report.induced_flows, "optimum": report.optimum_flows}
    for name, flows in vectors.items():
        reason = _network_vector(instance, name, flows)
        if reason is not None:
            return reason
    if report.nash_flows is not None:
        return check_network_nash(instance, report.nash_flows)
    return None


def _close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= EQUALITY_RTOL * max(1.0, abs(b))


def check_equal(report, reference) -> Optional[str]:
    """Whether a served report equals the in-process reference solve."""
    for name in ("alpha", "beta", "induced_cost", "optimum_cost", "nash_cost"):
        if not _close(getattr(report, name), getattr(reference, name)):
            return f"{name} differs: {getattr(report, name)!r}"
    for name in ("leader_flows", "induced_flows", "optimum_flows", "nash_flows"):
        got, want = getattr(report, name), getattr(reference, name)
        if got is None or want is None:
            if got is not want:
                return f"{name} presence differs"
            continue
        if len(got) != len(want) or not np.allclose(
                got, want, rtol=EQUALITY_RTOL, atol=EQUALITY_RTOL):
            return f"{name} differs"
    return None
