"""Random s–t and multicommodity network generators."""

from __future__ import annotations

import numbers
from typing import List

import numpy as np

from repro.exceptions import InstanceError
from repro.instances.rng import SeedLike, resolve_rng
from repro.latency.base import LatencyFunction
from repro.latency.linear import LinearLatency
from repro.latency.polynomial import BPRLatency
from repro.network.graph import Network
from repro.network.instance import Commodity, NetworkInstance

__all__ = ["grid_network", "layered_network", "random_multicommodity_instance"]


def _random_latency(rng: np.random.Generator, family: str) -> LatencyFunction:
    if family == "linear":
        return LinearLatency(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 1.0)))
    if family == "bpr":
        return BPRLatency(free_flow_time=float(rng.uniform(0.5, 2.0)),
                          capacity=float(rng.uniform(0.5, 2.0)),
                          alpha=0.15, beta=4.0)
    raise InstanceError(f"unknown latency family {family!r}")


def _check_size(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``; :class:`InstanceError` (a
    :class:`~repro.exceptions.ModelError`) unless it is an integer of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InstanceError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InstanceError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def grid_network(rows: int, cols: int, demand: float = 1.0, *, seed: SeedLike = 0,
                 latency_family: str = "linear") -> NetworkInstance:
    """A directed grid routed from the top-left to the bottom-right corner.

    Every node has edges to its right and down neighbours (a DAG, so the
    number of s–t paths is ``C(rows+cols-2, rows-1)``); edge latencies are
    drawn from the requested family.  A standard stand-in for "city grid"
    traffic instances.
    """
    rows = _check_size("rows", rows, 2)
    cols = _check_size("cols", cols, 2)
    rng = resolve_rng(seed)
    network = Network()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_edge((r, c), (r, c + 1), _random_latency(rng, latency_family))
            if r + 1 < rows:
                network.add_edge((r, c), (r + 1, c), _random_latency(rng, latency_family))
    return NetworkInstance.single_commodity(network, (0, 0), (rows - 1, cols - 1),
                                            demand)


def layered_network(num_layers: int, width: int, demand: float = 1.0, *,
                    seed: SeedLike = 0, latency_family: str = "linear",
                    extra_edge_probability: float = 0.5) -> NetworkInstance:
    """A layered DAG from a single source to a single sink.

    ``num_layers`` internal layers of ``width`` nodes each; consecutive layers
    are connected with a perfect matching plus random extra edges, and the
    source/sink connect to every node of the first/last layer.  Produces
    s–t networks with many short paths, a good stress test for MOP's
    shortest-path classification.
    """
    num_layers = _check_size("num_layers", num_layers, 1)
    width = _check_size("width", width, 1)
    rng = resolve_rng(seed)
    network = Network()
    source, sink = "s", "t"
    layers: List[List[tuple]] = [[(layer, i) for i in range(width)]
                                 for layer in range(num_layers)]
    for node in layers[0]:
        network.add_edge(source, node, _random_latency(rng, latency_family))
    for layer in range(num_layers - 1):
        for i in range(width):
            network.add_edge(layers[layer][i], layers[layer + 1][i],
                             _random_latency(rng, latency_family))
            for j in range(width):
                if j != i and rng.uniform() < extra_edge_probability:
                    network.add_edge(layers[layer][i], layers[layer + 1][j],
                                     _random_latency(rng, latency_family))
    for node in layers[-1]:
        network.add_edge(node, sink, _random_latency(rng, latency_family))
    return NetworkInstance.single_commodity(network, source, sink, demand)


def random_multicommodity_instance(rows: int = 3, cols: int = 3, *,
                                   num_commodities: int = 2, seed: SeedLike = 0,
                                   demand_range: tuple[float, float] = (0.5, 1.5),
                                   latency_family: str = "linear",
                                   ) -> NetworkInstance:
    """A k-commodity instance on a bidirected grid.

    The grid is bidirected (edges in both directions) so that arbitrary
    corner-to-corner commodities are routable; commodity endpoints are drawn
    from the grid's border nodes.
    """
    rows = _check_size("rows", rows, 2)
    cols = _check_size("cols", cols, 2)
    num_commodities = _check_size("num_commodities", num_commodities, 1)
    rng = resolve_rng(seed)
    network = Network()
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    network.add_edge((r, c), (rr, cc),
                                     _random_latency(rng, latency_family))
    border = [(r, c) for r in range(rows) for c in range(cols)
              if r in (0, rows - 1) or c in (0, cols - 1)]
    commodities = []
    for _ in range(num_commodities):
        source, sink = rng.choice(len(border), size=2, replace=False)
        commodities.append(Commodity(border[int(source)], border[int(sink)],
                                     float(rng.uniform(*demand_range))))
    return NetworkInstance(network, commodities)
