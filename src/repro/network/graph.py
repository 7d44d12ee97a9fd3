"""Directed networks with latency-endowed edges."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import ModelError
from repro.latency.base import LatencyFunction
from repro.latency.batch import LatencyBatch
from repro.latency.columns import LatencyColumns

__all__ = ["Edge", "Network"]

Node = Hashable


@dataclass(frozen=True)
class Edge:
    """A directed edge with its latency function.

    ``key`` distinguishes parallel edges between the same pair of nodes (the
    paper's parallel-link systems embed into the network model as ``m``
    parallel s–t edges).
    """

    tail: Node
    head: Node
    latency: LatencyFunction
    key: int = 0

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise ModelError(f"self loops are not allowed (node {self.tail!r})")
        if not isinstance(self.latency, LatencyFunction):
            raise ModelError(
                f"edge ({self.tail!r}, {self.head!r}): expected a LatencyFunction, "
                f"got {type(self.latency).__name__}")

    @property
    def endpoints(self) -> Tuple[Node, Node]:
        return (self.tail, self.head)


class Network:
    """A directed multigraph whose edges carry latency functions.

    Edges are stored in a fixed order so that flows can be represented as
    dense NumPy vectors indexed by edge id; this is what the Frank–Wolfe
    solver, the Stackelberg strategies and the benchmarks operate on.
    """

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        self._edges: List[Edge] = []
        self._out: Dict[Node, List[int]] = {}
        self._in: Dict[Node, List[int]] = {}
        self._nodes: List[Node] = []
        #: Edges added so far per ``(tail, head)`` pair: the next parallel
        #: edge's key.
        self._keys: Dict[Tuple[Node, Node], int] = {}
        #: Derived views (latency columns and batch, CSR adjacency) built
        #: lazily and invalidated whenever the graph is mutated.
        self._derived: Dict[str, Any] = {}
        if edges is not None:
            for edge in edges:
                self.add_edge(edge.tail, edge.head, edge.latency)

    # The derived caches are rebuildable; drop them when pickling (a copy
    # recreates the views on demand).
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_derived"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> None:
        """Register ``node`` (no-op if already present)."""
        if node not in self._out:
            self._out[node] = []
            self._in[node] = []
            self._nodes.append(node)
            self._derived.clear()

    def add_edge(self, tail: Node, head: Node, latency: LatencyFunction) -> int:
        """Add a directed edge and return its index.

        Parallel edges between the same node pair are allowed; each call adds
        a new edge with a fresh key.
        """
        self.add_node(tail)
        self.add_node(head)
        key = self._keys.get((tail, head), 0)
        edge = Edge(tail, head, latency, key=key)
        self._keys[(tail, head)] = key + 1
        index = len(self._edges)
        self._edges.append(edge)
        self._out[tail].append(index)
        self._in[head].append(index)
        self._derived.clear()
        return index

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges in insertion order (the canonical edge indexing)."""
        return tuple(self._edges)

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes in first-seen order."""
        return tuple(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def edge(self, index: int) -> Edge:
        """The edge with the given index."""
        return self._edges[index]

    def out_edges(self, node: Node) -> Tuple[int, ...]:
        """Indices of edges leaving ``node``."""
        return tuple(self._out.get(node, ()))

    def in_edges(self, node: Node) -> Tuple[int, ...]:
        """Indices of edges entering ``node``."""
        return tuple(self._in.get(node, ()))

    def has_node(self, node: Node) -> bool:
        return node in self._out

    def __repr__(self) -> str:
        return f"Network(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Derived vectorized views (cached; invalidated on mutation)
    # ------------------------------------------------------------------ #
    def latency_columns(self) -> LatencyColumns:
        """The per-class parameter columns of the edge latencies (cached).

        The instance digest reads them and :meth:`latency_batch` fills its
        buckets from them, so a network canonicalises its latencies once.
        """
        columns = self._derived.get("columns")
        if columns is None:
            columns = LatencyColumns(tuple(e.latency for e in self._edges))
            self._derived["columns"] = columns
        return columns

    def latency_batch(self) -> LatencyBatch:
        """The vectorized family-grouped view of the edge latencies (cached)."""
        batch = self._derived.get("batch")
        if batch is None:
            batch = LatencyBatch.from_columns(self.latency_columns())
            self._derived["batch"] = batch
        return batch

    def csr_structure(self) -> Dict[str, Any]:
        """Cached CSR-ready adjacency arrays in node-index space.

        Returns a dict with:

        * ``node_index`` — map from node to dense index (insertion order);
        * ``tail_idx`` / ``head_idx`` — per-edge endpoint indices;
        * ``pair_id`` — per-edge id of its ``(tail, head)`` node pair (so
          parallel edges share an id and can be reduced to the cheapest
          representative before a shortest-path run);
        * ``pair_tail`` / ``pair_head`` — per-pair endpoint indices;
        * ``pair_lookup`` — ``(tail_idx, head_idx) -> pair id``;
        * ``pair_edge`` — per pair, one of its edges (on a simple graph,
          its only edge);
        * ``indptr`` — CSR row pointers of the pairs, sorted by
          ``(tail, head)``;
        * ``out_pairs`` — per node, its ``(head_idx, pair id)`` list (the
          adjacency of the Python Dijkstra);
        * ``has_parallel`` — whether any node pair carries multiple edges.

        The structure depends only on the topology, never on costs, so one
        cache serves every shortest-path call on this network and on its
        :meth:`shifted` Followers' network.
        """
        structure = self._derived.get("csr")
        if structure is None:
            node_index = {node: i for i, node in enumerate(self._nodes)}
            tail_idx = np.array([node_index[e.tail] for e in self._edges],
                                dtype=np.int64)
            head_idx = np.array([node_index[e.head] for e in self._edges],
                                dtype=np.int64)
            if len(self._edges):
                keys = tail_idx * len(self._nodes) + head_idx
                unique_keys, pair_id = np.unique(keys, return_inverse=True)
                pair_tail = unique_keys // len(self._nodes)
                pair_head = unique_keys % len(self._nodes)
            else:
                pair_id = np.zeros(0, dtype=np.int64)
                pair_tail = pair_head = np.zeros(0, dtype=np.int64)
            pair_edge = np.empty(len(pair_tail), dtype=np.int64)
            pair_edge[pair_id] = np.arange(len(self._edges), dtype=np.int64)
            indptr = np.zeros(len(self._nodes) + 1, dtype=np.int32)
            np.cumsum(np.bincount(pair_tail, minlength=len(self._nodes)),
                      out=indptr[1:])
            heads = pair_head.tolist()
            bounds = indptr.tolist()
            structure = {
                "node_index": node_index,
                "tail_idx": tail_idx,
                "head_idx": head_idx,
                "pair_id": pair_id,
                "pair_tail": pair_tail,
                "pair_head": pair_head,
                "pair_lookup": {(int(t), int(h)): int(p)
                                for p, (t, h) in enumerate(zip(pair_tail,
                                                               pair_head))},
                "pair_edge": pair_edge,
                "indptr": indptr,
                "out_pairs": [[(heads[k], k) for k in range(lo, hi)]
                              for lo, hi in zip(bounds, bounds[1:])],
                "has_parallel": len(pair_tail) != len(self._edges),
            }
            self._derived["csr"] = structure
        return structure

    # ------------------------------------------------------------------ #
    # Flow functionals
    # ------------------------------------------------------------------ #
    def validate_edge_flows(self, edge_flows: Sequence[float]) -> np.ndarray:
        """Return ``edge_flows`` as a clipped non-negative array of the right length."""
        arr = np.asarray(edge_flows, dtype=float)
        if arr.shape != (self.num_edges,):
            raise ModelError(
                f"expected {self.num_edges} edge flows, got shape {arr.shape}")
        if np.any(arr < -1e-7):
            raise ModelError(f"negative edge flow: {arr.min()!r}")
        return np.clip(arr, 0.0, None)

    def latencies_at(self, edge_flows: np.ndarray) -> np.ndarray:
        """Per-edge latencies ``l_e(f_e)``."""
        return self.latency_batch().values(np.asarray(edge_flows, dtype=float))

    def marginal_costs_at(self, edge_flows: np.ndarray) -> np.ndarray:
        """Per-edge marginal costs ``l_e(f_e) + f_e l_e'(f_e)``."""
        return self.latency_batch().marginals(np.asarray(edge_flows, dtype=float))

    def cost(self, edge_flows: np.ndarray) -> float:
        """Total cost ``C(f) = sum_e f_e l_e(f_e)``."""
        return self.latency_batch().total_cost(np.asarray(edge_flows, dtype=float))

    def beckmann(self, edge_flows: np.ndarray) -> float:
        """Beckmann potential ``sum_e int_0^{f_e} l_e(t) dt``."""
        return self.latency_batch().beckmann(np.asarray(edge_flows, dtype=float))

    def path_latency(self, path_edges: Sequence[int], edge_flows: np.ndarray) -> float:
        """Latency of a path (list of edge indices) under ``edge_flows``."""
        flows = np.asarray(edge_flows, dtype=float)
        return float(sum(float(self._edges[i].latency.value(flows[i]))
                         for i in path_edges))

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def shifted(self, strategy_flows: np.ndarray) -> "Network":
        """The Followers' network: every latency shifted by the Leader's edge flow.

        Equal to a rebuild through :meth:`add_edge` with the latencies
        ``edge.latency.shifted(s_e)``, but derived: the node order,
        adjacency, edge keys and CSR structure are the Leader's (copied
        containers, so either network may still be mutated), an edge with a
        zero pre-load is the Leader's own :class:`Edge`, and the latency
        batch comes from :meth:`LatencyBatch.shifted` instead of a fresh
        canonicalisation.
        """
        strategy = self.validate_edge_flows(strategy_flows)
        batch = self.latency_batch().shifted(strategy)
        shifted_net = Network()
        shifted_net._nodes = list(self._nodes)
        shifted_net._out = {node: list(out) for node, out in self._out.items()}
        shifted_net._in = {node: list(into) for node, into in self._in.items()}
        shifted_net._keys = dict(self._keys)
        shifted_net._edges = [
            edge if lat is edge.latency
            else Edge(edge.tail, edge.head, lat, key=edge.key)
            for edge, lat in zip(self._edges, batch.latencies)]
        shifted_net._derived.update(batch=batch, csr=self.csr_structure())
        return shifted_net

    def to_networkx(self, edge_flows: np.ndarray | None = None,
                    capacities: np.ndarray | None = None) -> nx.MultiDiGraph:
        """Export to a :class:`networkx.MultiDiGraph`.

        Edge attributes: ``index`` (canonical edge id), optionally ``flow`` and
        ``capacity``.  Used by the max-flow free-flow computation and by the
        examples for visual inspection.
        """
        graph = nx.MultiDiGraph()
        graph.add_nodes_from(self._nodes)
        for i, edge in enumerate(self._edges):
            attrs = {"index": i, "key": edge.key}
            if edge_flows is not None:
                attrs["flow"] = float(edge_flows[i])
            if capacities is not None:
                attrs["capacity"] = float(capacities[i])
            graph.add_edge(edge.tail, edge.head, **attrs)
        return graph
