"""Dijkstra shortest paths over edge-indexed cost vectors.

The implementation follows the paper's footnote 5: shortest paths are computed
with respect to *fixed* edge costs (typically the latencies ``l_e(o_e)``
induced by the optimum flow), and the union of all edges lying on some
shortest s–t path forms the subgraph the free Followers are allowed to use.

Two engines are provided: the pure-Python binary-heap implementation
(:func:`shortest_distances`, the reference and the oracle of the
certificates in :mod:`repro.equilibrium.verify`), and
:class:`ShortestPathEngine`, which the solvers use over the network's cached
CSR adjacency.  On networks of at most :data:`HEAP_MAX_NODES` nodes it runs
a binary-heap Dijkstra per source over cached adjacency lists, which costs
less there than scipy's argument checks; larger networks answer *all*
requested sources with one `scipy.sparse.csgraph.dijkstra` call.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix as _csr_matrix
from scipy.sparse.csgraph import dijkstra as _sparse_dijkstra

from repro.exceptions import ModelError
from repro.network.graph import Network

__all__ = [
    "HEAP_MAX_NODES",
    "shortest_distances",
    "shortest_path_edges",
    "shortest_path_edge_set",
    "walk_tree_path",
    "validate_edge_costs",
    "ShortestPathEngine",
]

Node = Hashable

#: :class:`ShortestPathEngine` runs Dijkstra in Python on networks with at
#: most this many nodes and one ``csgraph.dijkstra`` call above.  Set from
#: the ``shortest_path`` rows of ``scripts/bench_perf.py`` (``reprice`` +
#: ``run`` + ``path_edges`` per call): Python is ahead up to an 8x8 grid
#: (64 nodes), csgraph from a 9x9 grid (81 nodes) and a layered 8x8 graph
#: (66 nodes).  Denser graphs cross earlier: on a layered 7x7 graph (51
#: nodes, 189 edges) the two are level.
HEAP_MAX_NODES = 64


def validate_edge_costs(network: Network,
                        edge_costs: Sequence[float]) -> np.ndarray:
    """Check shape, NaN and non-negativity; return the clipped cost array.

    A ``+inf`` cost marks an unusable edge; a NaN cost raises
    :class:`ModelError`.

    Callers that evaluate the same latency functions every iteration (the
    Frank–Wolfe loop) validate once per solve and then pass
    ``validated=True`` to the shortest-path routines.
    """
    costs = np.asarray(edge_costs, dtype=float)
    if costs.shape != (network.num_edges,):
        raise ModelError(
            f"expected {network.num_edges} edge costs, got shape {costs.shape}")
    _reject_nan(costs)
    if np.any(costs < -1e-12):
        raise ModelError("Dijkstra requires non-negative edge costs")
    return np.clip(costs, 0.0, None)


def _reject_nan(costs: np.ndarray) -> None:
    if np.isnan(costs).any():
        raise ModelError(
            f"edge cost of edge {int(np.isnan(costs).argmax())} is NaN")


def shortest_distances(network: Network, source: Node,
                       edge_costs: Sequence[float],
                       *, reverse: bool = False,
                       validated: bool = False) -> Tuple[Dict[Node, float],
                                                         Dict[Node, Optional[int]]]:
    """Single-source shortest distances with non-negative edge costs.

    Returns ``(dist, pred_edge)`` where ``dist[v]`` is the cost of the
    cheapest path from ``source`` to ``v`` (``inf`` when unreachable) and
    ``pred_edge[v]`` is the index of the final edge of one such path.

    With ``reverse=True`` the edges are traversed backwards, yielding
    distances *to* ``source`` — used to classify edges by
    ``dist_s(tail) + cost(e) + dist_t(head) == dist_s(t)``.  With
    ``validated=True`` the costs are trusted as already checked by
    :func:`validate_edge_costs` (per-iteration solver calls).
    """
    costs = np.asarray(edge_costs, dtype=float) if validated \
        else validate_edge_costs(network, edge_costs)
    dist: Dict[Node, float] = {node: math.inf for node in network.nodes}
    pred: Dict[Node, Optional[int]] = {node: None for node in network.nodes}
    if source not in dist:
        raise ModelError(f"source node {source!r} is not in the network")
    dist[source] = 0.0
    counter = 0
    heap: List[Tuple[float, int, Node]] = [(0.0, counter, source)]
    visited: Set[Node] = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        edge_indices = network.in_edges(node) if reverse else network.out_edges(node)
        for idx in edge_indices:
            edge = network.edge(idx)
            neighbor = edge.tail if reverse else edge.head
            candidate = d + costs[idx]
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                pred[neighbor] = idx
                counter += 1
                heapq.heappush(heap, (candidate, counter, neighbor))
    return dist, pred


def walk_tree_path(network: Network, dist: Dict[Node, float],
                   pred: Dict[Node, Optional[int]], source: Node,
                   sink: Node) -> List[int]:
    """Edge indices of the ``source -> sink`` path recorded in a Dijkstra tree.

    ``(dist, pred)`` come from :func:`shortest_distances`; reusing one tree
    for every commodity that shares a source avoids re-running Dijkstra per
    commodity.  Raises :class:`ModelError` when the sink is unreachable.
    """
    if math.isinf(dist.get(sink, math.inf)):
        raise ModelError(f"node {sink!r} is unreachable from {source!r}")
    path: List[int] = []
    node = sink
    while node != source:
        idx = pred[node]
        if idx is None:
            raise ModelError(f"no predecessor recorded for node {node!r}")
        path.append(idx)
        node = network.edge(idx).tail
    path.reverse()
    return path


def shortest_path_edges(network: Network, source: Node, sink: Node,
                        edge_costs: Sequence[float]) -> List[int]:
    """Edge indices of one shortest ``source -> sink`` path.

    Raises :class:`ModelError` when the sink is unreachable.
    """
    dist, pred = shortest_distances(network, source, edge_costs)
    return walk_tree_path(network, dist, pred, source, sink)


def shortest_path_edge_set(network: Network, source: Node, sink: Node,
                           edge_costs: Sequence[float],
                           *, atol: float = 1e-9) -> Set[int]:
    """Indices of all edges lying on *some* shortest ``source -> sink`` path.

    An edge ``e = (u, v)`` qualifies iff
    ``dist_source(u) + cost(e) + dist_sink(v) <= dist_source(sink) + atol``.
    This is the subgraph ``G^`` of the paper's footnote 5.
    """
    costs = validate_edge_costs(network, edge_costs)
    dist_from_source, _ = shortest_distances(network, source, costs)
    dist_to_sink, _ = shortest_distances(network, sink, costs, reverse=True)
    target = dist_from_source.get(sink, math.inf)
    if math.isinf(target):
        raise ModelError(f"node {sink!r} is unreachable from {source!r}")
    scale = max(1.0, abs(target))
    result: Set[int] = set()
    for idx, edge in enumerate(network.edges):
        du = dist_from_source.get(edge.tail, math.inf)
        dv = dist_to_sink.get(edge.head, math.inf)
        if math.isinf(du) or math.isinf(dv):
            continue
        if du + costs[idx] + dv <= target + atol * scale:
            result.add(idx)
    return result


class ShortestPathEngine:
    """Batched shortest paths over a network's cached CSR adjacency.

    One engine wraps a network and its current edge costs.  The topology
    (node pairs in CSR order, per-node adjacency lists) is cached on the
    network; :meth:`reprice` reduces the edge costs to one cost per node
    pair, parallel edges to their cheapest representative (shortest paths
    never take a costlier parallel copy).  :meth:`run` then answers the
    requested sources: one binary-heap Dijkstra in Python per source on a
    network of at most :data:`HEAP_MAX_NODES` nodes, one
    `scipy.sparse.csgraph.dijkstra` call for all of them on a larger one
    (whose ``csr_matrix`` only this branch builds).  Both fill the same
    distance and predecessor rows, which :meth:`path_edges` walks back into
    canonical edge indices.

    Zero-cost edges are genuine zero-weight edges in both branches (explicit
    entries of the sparse matrix), so free-flow links route exactly like in
    the reference implementation; a ``+inf`` cost leaves its edge unusable
    and a NaN cost raises :class:`ModelError`.
    """

    def __init__(self, network: Network, edge_costs: Sequence[float],
                 *, validated: bool = False) -> None:
        self.network = network
        self._structure = structure = network.csr_structure()
        self._graph = None
        #: Per-pair costs; the sparse matrix's ``data`` in the csgraph branch.
        self._pair_costs = np.zeros(len(structure["pair_tail"]))
        if network.num_nodes > HEAP_MAX_NODES:
            n = network.num_nodes
            self._graph = _csr_matrix(
                (self._pair_costs, structure["pair_head"].astype(np.int32),
                 structure["indptr"]), shape=(n, n))
            self._pair_costs = self._graph.data
        # Per pair, the edge that stands for it; on a simple graph this is
        # topology, on a multigraph :meth:`reprice` picks per pair.
        self._representatives = structure["pair_edge"]
        if structure["has_parallel"]:
            self._representatives = self._representatives.copy()
        #: The per-pair costs as a list, which the Python branch reads.
        self._weights: List[float] = []
        #: Per-source results: node index -> (distance row, predecessor row).
        self._trees: Dict[int, Tuple[Sequence[float], Sequence[int]]] = {}
        self.reprice(edge_costs, validated=validated)

    def reprice(self, edge_costs: Sequence[float], *,
                validated: bool = False) -> None:
        """Replace the edge costs and forget every solved source.

        Where several edges join the same node pair the cheapest one (ties:
        lowest index) stands for the pair.  ``validated=True`` skips the
        shape and sign checks of :func:`validate_edge_costs`; NaN costs are
        rejected either way.
        """
        if validated:
            costs = np.asarray(edge_costs, dtype=float)
            _reject_nan(costs)
        else:
            costs = validate_edge_costs(self.network, edge_costs)
        structure = self._structure
        weights = self._pair_costs
        if structure["has_parallel"]:
            pair_id = structure["pair_id"]
            weights.fill(math.inf)
            np.minimum.at(weights, pair_id, costs)
            # Representative edge per pair: scatter in descending cost order
            # so the cheapest edge (ties: lowest index) wins the final write.
            order = np.lexsort((np.arange(len(costs)), costs))[::-1]
            self._representatives[pair_id[order]] = order
        else:
            np.take(costs, self._representatives, out=weights)
        if self._graph is None:
            self._weights = weights.tolist()
        self._trees.clear()

    def _node_index(self, node: Node) -> int:
        try:
            return self._structure["node_index"][node]
        except KeyError:
            raise ModelError(f"node {node!r} is not in the network") from None

    def run(self, sources: Sequence[Node]) -> None:
        """Solve single-source shortest paths from every distinct source.

        Results accumulate on the engine (repeated calls only compute the
        new sources) for :meth:`distance` / :meth:`path_edges` lookups.
        """
        pending: List[int] = []
        for source in sources:
            idx = self._node_index(source)
            if idx not in self._trees and idx not in pending:
                pending.append(idx)
        if not pending:
            return
        if self._graph is None:
            out_pairs = self._structure["out_pairs"]
            for idx in pending:
                self._trees[idx] = _heap_tree(out_pairs, self._weights, idx)
            return
        dist, pred = _sparse_dijkstra(self._graph, directed=True,
                                      indices=pending,
                                      return_predecessors=True)
        dist = np.atleast_2d(dist)
        pred = np.atleast_2d(pred)
        for row, idx in enumerate(pending):
            self._trees[idx] = (dist[row], pred[row])

    def _tree(self, source: Node) -> Tuple[Sequence[float], Sequence[int]]:
        idx = self._node_index(source)
        try:
            return self._trees[idx]
        except KeyError:
            raise ModelError(
                f"source {source!r} was not part of any run()") from None

    def distance(self, source: Node, sink: Node) -> float:
        """Shortest-path cost from ``source`` to ``sink`` (``inf`` if none)."""
        dist, _ = self._tree(source)
        return float(dist[self._node_index(sink)])

    def path_edges(self, source: Node, sink: Node) -> List[int]:
        """Canonical edge indices of one shortest ``source -> sink`` path."""
        dist, pred_row = self._tree(source)
        source_idx = self._node_index(source)
        sink_idx = self._node_index(sink)
        if math.isinf(dist[sink_idx]):
            raise ModelError(f"node {sink!r} is unreachable from {source!r}")
        pair_lookup = self._structure["pair_lookup"]
        representatives = self._representatives
        path: List[int] = []
        node = sink_idx
        while node != source_idx:
            prev = int(pred_row[node])
            if prev < 0:
                raise ModelError(
                    f"no predecessor recorded for node {sink!r}")
            path.append(int(representatives[pair_lookup[(prev, node)]]))
            node = prev
        path.reverse()
        return path


def _heap_tree(out_pairs: List[List[Tuple[int, int]]], weights: List[float],
               source: int) -> Tuple[List[float], List[int]]:
    """One binary-heap Dijkstra tree over per-node ``(head, pair)`` lists.

    Returns the distance and predecessor rows in ``csgraph``'s layout: node
    indices, ``inf`` and ``-9999`` where a node is unreachable.  A stale
    heap entry is recognised by its distance; a node's distance only ever
    drops strictly, so a settled node is never pushed again.
    """
    dist = [math.inf] * len(out_pairs)
    pred = [-9999] * len(out_pairs)
    dist[source] = 0.0
    heap = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        for head, pair in out_pairs[node]:
            candidate = d + weights[pair]
            if candidate < dist[head]:
                dist[head] = candidate
                pred[head] = node
                push(heap, (candidate, head))
    return dist, pred
