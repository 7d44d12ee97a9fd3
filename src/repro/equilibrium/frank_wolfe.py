"""Frank–Wolfe (conditional gradient) solver for network flows.

Both the Wardrop equilibrium (minimise the Beckmann potential) and the system
optimum (minimise the total cost) of a multicommodity instance are convex
programs over the polytope of feasible edge flows.  Frank–Wolfe alternates:

1. linearise the objective at the current flow (per-edge costs: latencies for
   the Beckmann objective, marginal costs for the total-cost objective),
2. solve the linearised problem — an all-or-nothing assignment that routes
   each commodity along its shortest path under those costs,
3. move towards the all-or-nothing flow with the step that minimises the true
   objective along the segment (the restriction of a convex function to a
   segment is unimodal).

The *relative gap* ``costs . (f - y) / costs . f`` upper-bounds the relative
sub-optimality and is the stopping criterion.

The hot loop is vectorized end to end:

* the all-or-nothing step groups commodities by source and answers all
  distinct sources over the network's cached CSR adjacency
  (:class:`repro.paths.dijkstra.ShortestPathEngine`: a heap Dijkstra in
  Python per source on small networks, one `scipy.sparse.csgraph.dijkstra`
  call for all of them on large ones);
* edge costs are validated once per solve, not once per iteration;
* the line search solves ``g'(s) = 0`` by safeguarded Newton on the batched
  analytic derivatives whenever every edge family provides them
  (:attr:`repro.latency.batch.LatencyBatch.supports_newton`), falling back to
  golden-section on the batched objective otherwise.

:func:`all_or_nothing_reference` is the scalar heap-Dijkstra assignment.
Nothing in the solver stack calls it; it is the oracle the kernel
equivalence tests and ``scripts/bench_perf.py`` compare against.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import ConvergenceError, ModelError
from repro.latency.batch import LatencyBatch
from repro.network.instance import NetworkInstance
from repro.obs.profiling import active as _profiling_active
from repro.paths.dijkstra import (
    ShortestPathEngine,
    shortest_distances,
    validate_edge_costs,
    walk_tree_path,
)
from repro.equilibrium.result import NetworkFlowResult
from repro.utils.optimize import golden_section_minimize

__all__ = ["FrankWolfeOptions", "all_or_nothing", "all_or_nothing_reference",
           "frank_wolfe"]


@dataclass(frozen=True)
class FrankWolfeOptions:
    """Tuning knobs for :func:`frank_wolfe`.

    Attributes
    ----------
    tolerance:
        Target relative gap.
    max_iterations:
        Iteration budget; exceeding it raises :class:`ConvergenceError` when
        ``raise_on_failure`` is set, otherwise the best iterate is returned
        with ``converged=False``.
    line_search_tol:
        Step tolerance of the line search (bracket width for golden-section,
        step increment for Newton).
    raise_on_failure:
        Whether a missed tolerance is an error or a soft warning flag.
    """

    tolerance: float = 1e-8
    max_iterations: int = 20_000
    line_search_tol: float = 1e-12
    raise_on_failure: bool = False


def _commodities_by_source(instance: NetworkInstance,
                           ) -> "OrderedDict[object, List[Tuple[object, float]]]":
    """Group ``(sink, demand)`` pairs by source, preserving first-seen order."""
    groups: "OrderedDict[object, List[Tuple[object, float]]]" = OrderedDict()
    for commodity in instance.commodities:
        groups.setdefault(commodity.source, []).append(
            (commodity.sink, commodity.demand))
    return groups


def all_or_nothing(instance: NetworkInstance, edge_costs: np.ndarray,
                   *, validated: bool = False) -> np.ndarray:
    """Route every commodity entirely along its shortest path under ``edge_costs``.

    Commodities sharing a source reuse one shortest-path tree, and all
    distinct sources are answered by one
    :class:`~repro.paths.dijkstra.ShortestPathEngine` run.  A NaN cost raises
    :class:`ModelError`.  ``validated=True`` marks the costs
    as already checked by :func:`repro.paths.dijkstra.validate_edge_costs`
    (the Frank–Wolfe loop validates once per solve, not per iteration).
    """
    network = instance.network
    costs = np.asarray(edge_costs, dtype=float) if validated \
        else validate_edge_costs(network, edge_costs)
    groups = _commodities_by_source(instance)
    flows = np.zeros(network.num_edges, dtype=float)
    engine = ShortestPathEngine(network, costs, validated=True)
    engine.run(list(groups))
    for source, pairs in groups.items():
        for sink, demand in pairs:
            for idx in engine.path_edges(source, sink):
                flows[idx] += demand
    return flows


def all_or_nothing_reference(instance: NetworkInstance,
                             edge_costs: np.ndarray,
                             *, validated: bool = False) -> np.ndarray:
    """:func:`all_or_nothing` on the scalar heap Dijkstra, one tree per source.

    A test and benchmark oracle: same arguments, same routed cost.
    """
    network = instance.network
    costs = np.asarray(edge_costs, dtype=float) if validated \
        else validate_edge_costs(network, edge_costs)
    flows = np.zeros(network.num_edges, dtype=float)
    for source, pairs in _commodities_by_source(instance).items():
        dist, pred = shortest_distances(network, source, costs,
                                        validated=True)
        for sink, demand in pairs:
            for idx in walk_tree_path(network, dist, pred, source, sink):
                flows[idx] += demand
    return flows


def _newton_line_search(batch: LatencyBatch, flows: np.ndarray,
                        direction: np.ndarray, kind: str,
                        *, tol: float, max_iter: int = 100) -> float:
    """Minimise the convex restriction ``g(s) = objective(flows + s*direction)``.

    Solves the stationarity condition ``g'(s) = 0`` on ``[0, s_max]`` with
    Newton steps on the batched analytic derivatives, safeguarded by the
    bisection bracket (``g'`` is non-decreasing).  ``s_max`` stays strictly
    inside every finite latency domain (M/M/1 capacities) along the segment.
    """
    d = direction

    if kind == "nash":
        # g(s) is the Beckmann potential: g' = d . l(x), g'' = d^2 . l'(x).
        def gprime(s: float) -> float:
            return float(np.dot(d, batch.values(flows + s * d)))

        def gsecond(s: float) -> float:
            return float(np.dot(d * d, batch.derivs(flows + s * d)))
    else:
        # g(s) is the total cost: g' = d . mc(x), g'' = d^2 . mc'(x) with
        # mc'(x) = 2 l'(x) + x l''(x).
        def gprime(s: float) -> float:
            return float(np.dot(d, batch.marginals(flows + s * d)))

        def gsecond(s: float) -> float:
            x = flows + s * d
            return float(np.dot(d * d,
                                2.0 * batch.derivs(x) + x * batch.second_derivs(x)))

    hi = 1.0
    domain = batch.domain_upper
    capped = np.isfinite(domain) & (d > 0.0)
    if np.any(capped):
        headroom = (domain[capped] - flows[capped]) / d[capped]
        hi = min(hi, float(np.min(headroom)) * (1.0 - 1e-12))
        if hi <= 0.0:
            return 0.0

    lo = 0.0
    if gprime(lo) >= 0.0:
        return 0.0
    if gprime(hi) <= 0.0:
        return hi
    s = 0.5 * (lo + hi)
    for _ in range(max_iter):
        g = gprime(s)
        if g > 0.0:
            hi = s
        else:
            lo = s
        if hi - lo <= tol:
            break
        curvature = gsecond(s)
        step = s - g / curvature if curvature > 0.0 else 0.5 * (lo + hi)
        # Keep Newton inside the shrinking bracket; bisect when it escapes.
        s = step if lo < step < hi else 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def frank_wolfe(instance: NetworkInstance, kind: str,
                options: FrankWolfeOptions | None = None) -> NetworkFlowResult:
    """Compute the Nash equilibrium or system optimum of ``instance``.

    ``kind`` is ``"nash"`` (minimise the Beckmann potential; direction costs
    are the latencies) or ``"optimum"`` (minimise the total cost; direction
    costs are the marginal costs).

    When profiling is active (``SolveConfig(profile=True)`` or a tracing
    service batch) each call reports a ``frank_wolfe[<kind>]`` phase; the
    disabled cost is one ``is None`` check on the recorder lookup.
    """
    recorder = _profiling_active()
    if recorder is None:
        return _frank_wolfe(instance, kind, options)
    start = time.perf_counter()
    try:
        return _frank_wolfe(instance, kind, options)
    finally:
        recorder.note(f"frank_wolfe[{kind}]", time.perf_counter() - start)


def _frank_wolfe(instance: NetworkInstance, kind: str,
                 options: FrankWolfeOptions | None = None,
                 ) -> NetworkFlowResult:
    options = options or FrankWolfeOptions()
    if kind == "nash":
        direction_costs = instance.latencies_at
        objective = instance.beckmann
    elif kind == "optimum":
        direction_costs = instance.marginal_costs_at
        objective = instance.cost
    else:
        raise ModelError(f"unknown Frank-Wolfe kind {kind!r}")
    batch = instance.network.latency_batch()

    zero = np.zeros(instance.network.num_edges, dtype=float)
    # Validate the cost vector once per solve; the per-iteration costs come
    # from the same latency batch over clipped flows, so shape and sign are
    # invariants of the loop, not per-iteration properties.
    initial_costs = validate_edge_costs(instance.network, direction_costs(zero))
    flows = all_or_nothing(instance, initial_costs, validated=True)
    gap = float("inf")
    iteration = 0
    for iteration in range(1, options.max_iterations + 1):
        costs = direction_costs(flows)
        target = all_or_nothing(instance, costs, validated=True)
        current_value = float(np.dot(costs, flows))
        target_value = float(np.dot(costs, target))
        gap = (current_value - target_value) / max(current_value, 1e-30)
        if gap <= options.tolerance:
            break
        direction = target - flows

        if batch.supports_newton:
            step = _newton_line_search(batch, flows, direction, kind,
                                       tol=options.line_search_tol)
        else:
            def objective_along(step: float) -> float:
                return objective(flows + step * direction)

            step, _ = golden_section_minimize(objective_along, 0.0, 1.0,
                                              tol=options.line_search_tol)
        if step <= 0.0:
            # Numerical stagnation: fall back to the classical 2/(k+2) step so
            # the method keeps its guaranteed O(1/k) convergence.
            step = 2.0 / (iteration + 2.0)
        flows = flows + step * direction
        np.clip(flows, 0.0, None, out=flows)

    converged = gap <= options.tolerance
    if not converged and options.raise_on_failure:
        raise ConvergenceError(
            f"Frank-Wolfe did not reach gap {options.tolerance!r} "
            f"within {options.max_iterations} iterations (gap={gap!r})",
            iterations=iteration, residual=gap)
    return NetworkFlowResult(
        edge_flows=flows,
        cost=instance.cost(flows),
        beckmann=instance.beckmann(flows),
        kind=kind,
        relative_gap=float(gap),
        iterations=iteration,
        converged=converged,
        solver="frank-wolfe",
    )
