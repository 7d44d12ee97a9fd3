"""Path-level substrate: shortest paths, decomposition, max-flow.

These utilities power both the Frank–Wolfe equilibrium solver (shortest-path /
all-or-nothing steps) and the MOP algorithm (shortest-path subgraph w.r.t.
optimal latencies, flow decomposition into shortest and non-shortest paths,
max-flow computation of the *free* uncontrolled flow).
"""

from repro.paths.dijkstra import (
    shortest_distances,
    shortest_path_edges,
    shortest_path_edge_set,
)
from repro.paths.decomposition import decompose_flow, remove_flow_cycles
from repro.paths.maxflow import max_flow

__all__ = [
    "shortest_distances",
    "shortest_path_edges",
    "shortest_path_edge_set",
    "decompose_flow",
    "remove_flow_cycles",
    "max_flow",
]
