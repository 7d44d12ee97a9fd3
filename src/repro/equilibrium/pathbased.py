"""Certified path equilibration: the network solver behind ``auto``.

Both the Nash equilibrium (minimise the Beckmann potential) and the system
optimum (minimise the total cost) are solved over path flows, without
enumerating any paths:

* **Start.** Every commodity routes its demand on its free-flow shortest
  path.  Where that would overload an M/M/1 edge, the path takes half of
  its headroom instead and the rest follows on the next shortest path at
  the new flows, so the start lies inside every latency domain.  A caller
  holding certified path flows of a neighbouring problem (the Nash flow
  before the optimum) passes them as ``start`` instead: the working
  sets begin with those paths and flows (the warm start of path-based
  assignment, Jayakrishnan et al. 1994).
* **Round.** The edges are priced with their latencies (Nash) or marginal
  costs (optimum); prices that are not finite raise ``ModelError``.  One
  :class:`~repro.paths.dijkstra.ShortestPathEngine`, repriced in place,
  grows one shortest-path tree per commodity source (a heap Dijkstra in
  Python on small networks, one ``csgraph`` call for all sources on large
  ones); a shortest path cheaper than every path of its commodity's working
  set joins that set (column generation).  One Newton step then re-balances
  the restricted master problem, each commodity's used paths plus its
  cheapest one: flow moves from costly to cheap paths (Dafermos & Sparrow
  1969) with the step scaled by the path Hessian (the projected Newton
  method of Jayakrishnan et al. 1994), in reduced-gradient form (Bertsekas
  & Gafni 1983): each commodity's cheapest member, its basic path, absorbs
  the shifts of the others, and the reduced Hessian is factored by
  Cholesky.  Grids make path columns linearly dependent, so a singular one
  takes the minimum-norm solution instead.  A ratio test keeps path flows
  non-negative, a derivative test along the step guards against
  overshooting, and a degenerate step falls back to one pairwise shift per
  commodity, from its costliest used path to its cheapest one.
* **Stop.** The solve is certified when the relative path-cost residual
  ``max over used paths (c_p - d) / d`` is at most ``tol`` for every
  commodity, where ``c_p`` is a path's price and ``d`` the commodity's
  shortest-path distance over the whole graph (the absolute residual when
  ``d`` is zero).  A residual that small also means no shortest path is
  missing from a working set.  The residual is reported as
  ``relative_gap``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg.blas import dsyrk as _rank_k_update
from scipy.linalg.lapack import dgelss as _min_norm_solve
from scipy.linalg.lapack import dpotrf as _cholesky
from scipy.linalg.lapack import dpotrs as _cholesky_solve

from repro.exceptions import ConvergenceError, ModelError
from repro.network.graph import Network
from repro.network.instance import NetworkInstance
from repro.paths.dijkstra import ShortestPathEngine
from repro.equilibrium.result import NetworkFlowResult, PathFlows

__all__ = ["path_based_flow"]

#: A step is accepted when the objective's slope at its end is at most this
#: fraction of the (negative) slope at its start.
_SLOPE_ACCEPT = 1e-3
#: Secant refinements of an overshooting step.
_LINE_SEARCH_STEPS = 30
#: A bracket whose upper slope exceeds the lower one's magnitude by this
#: factor (a step that ran into the end of an M/M/1 domain) is bisected:
#: a secant step would barely leave the lower end.
_SECANT_SLOPE_RATIO = 1e6
#: Singular values below this fraction of the largest are dropped by the
#: minimum-norm Newton solve, which also replaces a Cholesky factor whose
#: smallest squared pivot is below this fraction of the largest diagonal.
_RCOND = 1e-12
#: Shortest-path steps the start may take per commodity before it gives up
#: on fitting the demand inside the latency domains.
_START_STEPS = 1000
#: Relative tolerance of a ``start``'s per-commodity flow sum.
_START_RTOL = 1e-9


class _WorkingSet:
    """The generated paths of one commodity and the flow on each.

    ``incidence`` (paths by edges) and ``flows`` are views into buffers
    that double when full.
    """

    def __init__(self, source, sink, demand: float, num_edges: int) -> None:
        self.source = source
        self.sink = sink
        self.demand = demand
        self.keys: Dict[Tuple[int, ...], int] = {}
        self._rows = np.zeros((4, num_edges))
        self._flows = np.zeros(4)
        self.incidence = self._rows[:0]
        self.flows = self._flows[:0]

    def add(self, path: List[int], max_paths: int) -> int:
        """Add ``path`` unless it is a member already; return its index."""
        key = tuple(path)
        if key in self.keys:
            return self.keys[key]
        size = len(self.keys)
        if size >= max_paths:
            raise ModelError(
                f"commodity ({self.source!r} -> {self.sink!r}) needs more "
                f"than {max_paths} paths; use Frank-Wolfe for this network")
        if size == len(self._flows):
            self._rows = np.concatenate([self._rows, np.zeros_like(self._rows)])
            self._flows = np.concatenate([self._flows, np.zeros(size)])
        self.keys[key] = size
        self._rows[size, path] = 1.0
        self.incidence = self._rows[:size + 1]
        self.flows = self._flows[:size + 1]
        return size


class _Prices:
    """Edge prices of one solve kind and their derivatives.

    Nash prices are the latencies ``l_e``; optimum prices are the marginal
    costs ``l_e + x l_e'``, whose derivative is ``2 l_e' + x l_e''``.
    """

    def __init__(self, instance: NetworkInstance, kind: str) -> None:
        self.batch = batch = instance.network.latency_batch()
        self.nash = kind == "nash"
        # Generic latencies expose no second derivative; their optimum
        # curvature drops the ``x l_e''`` term (the line search still
        # guards every step).
        self.second_order = not batch.has_generic
        domain = batch.domain_upper
        self.capped = np.flatnonzero(np.isfinite(domain))
        self.caps = domain[self.capped]

    def at(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(prices, price derivatives)`` at edge flows ``x``."""
        values = self.batch.values(x)
        derivs = self.batch.derivs(x)
        if self.nash:
            curvature = derivs
            prices = values
        else:
            prices = values + x * derivs
            curvature = 2.0 * derivs
            if self.second_order:
                used = x > 0.0
                # Powers below two have an infinite l'' at zero load.
                with np.errstate(divide="ignore", invalid="ignore"):
                    second = self.batch.second_derivs(x)
                curvature[used] += x[used] * second[used]
        curvature[~np.isfinite(curvature)] = 0.0
        return prices, curvature

    def headroom(self, flows: np.ndarray, direction: np.ndarray,
                 t_max: float) -> float:
        """``t_max`` shortened to stay strictly inside every latency domain
        (M/M/1 capacities) along ``direction``."""
        if len(self.capped):
            d = direction[self.capped]
            rising = d > 0.0
            if np.any(rising):
                room = (self.caps[rising] - flows[self.capped][rising]) / d[rising]
                t_max = min(t_max, float(np.min(room)) * (1.0 - 1e-12))
        return t_max


def path_based_flow(instance: NetworkInstance, kind: str,
                    *, max_paths: int = 5000, tol: float = 1e-12,
                    max_iterations: int = 800,
                    start: Optional[PathFlows] = None) -> NetworkFlowResult:
    """Solve the Nash or optimum flow by certified path equilibration.

    ``kind`` is ``"nash"`` or ``"optimum"``.  ``max_paths`` bounds every
    commodity's working set and ``max_iterations`` the number of rounds.
    ``start`` seeds the solve: per commodity (in instance order), pairs
    ``(path, flow)`` of a simple source-to-sink path given by its edge
    indices and its non-negative flow, summing to the commodity's demand
    within a relative ``1e-9`` (the flows are rescaled to the exact
    demand; a repeated path adds up); the edge prices at the start must be
    finite.  A seeded solve stops on the same residual test as a cold one.
    Raises :class:`ModelError` for a malformed ``start``, when a working set
    would exceed ``max_paths`` (use Frank–Wolfe for such instances), a sink
    is unreachable or the edge prices at the start or at an accepted
    iterate are not finite, and :class:`ConvergenceError` when the residual is
    still above ``tol`` after ``max_iterations`` rounds.
    """
    if kind not in ("nash", "optimum"):
        raise ModelError(f"unknown path-based kind {kind!r}")
    network = instance.network
    prices = _Prices(instance, kind)
    sets = [_WorkingSet(c.source, c.sink, c.demand, network.num_edges)
            for c in instance.commodities]
    sources = list(dict.fromkeys(c.source for c in instance.commodities))
    flows = np.zeros(network.num_edges) if start is None \
        else _load_seed(sets, start, network, max_paths)
    # A load past an M/M/1 capacity raises LatencyDomainError here.
    costs, curvature = prices.at(flows)
    engine = ShortestPathEngine(network, _finite(costs, 0))
    if start is None:
        engine.run(sources)
        for ws in sets:
            _load_start(ws, engine, flows, prices, max_paths)
        costs, curvature = prices.at(flows)

    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        engine.reprice(_finite(costs, iteration), validated=True)
        engine.run(sources)
        residual = 0.0
        blocks = []
        for ws in sets:
            dist = engine.distance(ws.source, ws.sink)
            scale = dist if dist > 0.0 else 1.0
            path_costs = ws.incidence @ costs
            active = ws.flows > 0.0
            residual = max(residual, (path_costs[active].max() - dist) / scale)
            if path_costs.min() - dist > tol * scale:
                ws.add(engine.path_edges(ws.source, ws.sink), max_paths)
                path_costs = ws.incidence @ costs
                active = ws.flows > 0.0
            active[path_costs.argmin()] = True
            members = active.nonzero()[0]
            if len(members) > 1:
                blocks.append((ws, members, path_costs))
        if residual <= tol:
            break
        flows, costs, curvature = _rebalance(blocks, (flows, costs, curvature),
                                             prices)
    else:
        raise ConvergenceError(
            f"path-based {kind} solve did not reach residual {tol!r} "
            f"within {max_iterations} rounds (residual={residual!r})",
            iterations=max_iterations, residual=float(residual))
    return NetworkFlowResult(
        edge_flows=flows,
        cost=instance.cost(flows),
        beckmann=instance.beckmann(flows),
        kind=kind,
        relative_gap=float(max(residual, 0.0)),
        iterations=iteration,
        converged=True,
        solver="path-based",
        num_paths=sum(len(ws.keys) for ws in sets),
        commodity_flows=np.array([ws.flows @ ws.incidence for ws in sets]),
        path_flows=tuple(
            tuple((path, flow) for path, flow in zip(ws.keys, ws.flows.tolist())
                  if flow > 0.0)
            for ws in sets),
    )


def _finite(costs: np.ndarray, iteration: int) -> np.ndarray:
    """``costs``, unless a price is NaN or infinite: such a price would drop
    out of the residual and of the column test, and certify a flow nobody
    priced."""
    if not np.isfinite(costs).all():
        where = "start" if iteration <= 1 else f"round {iteration}"
        raise ModelError(f"the edge prices at the {where} are not finite")
    return costs


def _load_seed(sets: List[_WorkingSet], start: PathFlows, network: Network,
               max_paths: int) -> np.ndarray:
    """Load a validated ``start`` into the working sets; return the edge
    flows."""
    try:
        start = tuple(start)
    except TypeError as exc:
        raise ModelError("start must hold one entry per commodity") from exc
    if len(start) != len(sets):
        raise ModelError(f"start has {len(start)} entries for "
                         f"{len(sets)} commodities")
    flows = np.zeros(network.num_edges)
    for ws, entry in zip(sets, start):
        label = f"start of commodity ({ws.source!r} -> {ws.sink!r})"
        try:
            pairs = [(np.asarray(path), float(flow)) for path, flow in entry]
        except (TypeError, ValueError) as exc:
            raise ModelError(f"{label}: expected (path, flow) pairs") from exc
        for _, flow in pairs:
            if not (math.isfinite(flow) and flow >= 0.0):
                raise ModelError(f"{label}: path flow {flow!r} is not a "
                                 f"finite non-negative number")
        total = math.fsum(flow for _, flow in pairs)
        if not abs(total - ws.demand) <= _START_RTOL * ws.demand:
            raise ModelError(f"{label}: path flows sum to {total!r}, not to "
                             f"the demand {ws.demand!r}")
        paths = [edges for edges, _ in pairs]
        _check_paths(paths, ws, network, label)
        indices = [ws.add(edges.tolist(), max_paths) for edges in paths]
        scale = ws.demand / total
        np.add.at(ws.flows, indices, [flow * scale for _, flow in pairs])
        flows += ws.flows @ ws.incidence
    return flows


def _check_paths(paths: List[np.ndarray], ws: _WorkingSet, network: Network,
                 label: str) -> None:
    """Raise :class:`ModelError` unless every one of ``paths`` is a simple
    path from ``ws``'s source to its sink, given by its edge indices.

    The paths are checked together, on their concatenated edges: each
    starts at the source, each edge's head is the next edge's tail (the
    sink after its path's last edge), and no head is the source or repeats
    in its path (one sort of the keys ``(path, head)``).
    """
    for edges in paths:
        if edges.ndim != 1 or not edges.size or edges.dtype.kind not in "iu":
            raise ModelError(f"{label}: {edges.tolist()!r} is not a sequence "
                             f"of edge indices")
    lengths = [len(edges) for edges in paths]
    owner = np.repeat(np.arange(len(paths)), lengths)
    # Indices past the int64 range wrap to negative ones.
    edges = np.concatenate(paths, dtype=np.intp, casting="same_kind")
    outside = (edges < 0) | (edges >= network.num_edges)
    if outside.any():
        raise ModelError(f"{label}: {paths[owner[outside.argmax()]].tolist()!r}"
                         f" is not a sequence of edge indices")
    structure = network.csr_structure()
    source, sink = (structure["node_index"][n] for n in (ws.source, ws.sink))
    tails = structure["tail_idx"][edges]
    heads = structure["head_idx"][edges]
    lasts = np.cumsum(lengths) - 1
    firsts = lasts + 1 - lengths
    following = np.append(tails[1:], sink)
    following[lasts] = sink
    wrong = (heads != following) | (heads == source)
    wrong[firsts] |= tails[firsts] != source
    keys = np.sort(owner * network.num_nodes + heads)
    bad = np.concatenate((owner[wrong], keys[1:][keys[1:] == keys[:-1]]
                          // network.num_nodes))
    if len(bad):
        raise ModelError(f"{label}: {paths[bad.min()].tolist()!r} is not a "
                         f"simple source-sink path")


def _load_start(ws: _WorkingSet, engine: ShortestPathEngine,
                flows: np.ndarray, prices: _Prices, max_paths: int) -> None:
    """Route ``ws``'s demand on successive shortest paths, adding to
    ``flows`` in place.

    A path takes all the remaining demand unless that would fill one of its
    edges past half of the edge's headroom (M/M/1 capacities); then it takes
    half the headroom and the engine is repriced at the new flows.
    """
    remaining = ws.demand
    for _ in range(_START_STEPS):
        engine.run([ws.source])
        index = ws.add(engine.path_edges(ws.source, ws.sink), max_paths)
        row = ws.incidence[index]
        amount = min(remaining, 0.5 * prices.headroom(flows, row, np.inf))
        ws.flows[index] += amount
        flows += amount * row
        remaining -= amount
        if remaining <= 0.0:
            return
        engine.reprice(prices.at(flows)[0], validated=True)
    raise ModelError(
        f"commodity ({ws.source!r} -> {ws.sink!r}) could not be routed inside "
        f"the latency domains in {_START_STEPS} shortest-path steps")


_Point = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _rebalance(blocks: List[Tuple[_WorkingSet, np.ndarray, np.ndarray]],
               point: _Point, prices: _Prices) -> _Point:
    """One Newton flow shift over the restricted master problem.

    ``blocks`` holds, per commodity with a choice, its working set, the
    member paths of the problem (its used paths plus its cheapest one) and
    the prices of all its paths.  Returns the new ``(flows, costs,
    curvature)``; the path flows are updated in place.
    """
    problem = blocks
    while problem:
        problem, delta, direction, slope = _newton_step(problem, point[2])
        member_flows = np.concatenate([ws.flows[m] for ws, m, _ in problem])
        # An empty path the step would drain leaves the problem.
        blocked = (member_flows <= 0.0) & (delta < 0.0)
        if blocked.any():
            kept = ((ws, m[~blocked[start:stop]], c) for (ws, m, c), start, stop
                    in _spans(problem))
            problem = [block for block in kept if len(block[1]) > 1]
            continue
        shrinking = delta < 0.0
        limits = member_flows[shrinking] / -delta[shrinking]
        t_max = min(1.0, limits.min()) if len(limits) else 1.0
        if not (slope < 0.0 and t_max > 0.0):
            break
        step, moved = _line_step(point, direction, slope, t_max, prices)
        if step <= 0.0:
            break
        member_flows += step * delta
        if step == t_max:
            # The blocking paths empty exactly.
            member_flows[shrinking] = np.where(
                limits <= t_max, 0.0, member_flows[shrinking])
        np.maximum(member_flows, 0.0, out=member_flows)
        for (ws, members, _), start, stop in _spans(problem):
            ws.flows[members] = member_flows[start:stop]
        return moved
    # A degenerate Newton step: one pairwise shift per commodity.
    for ws, _, _ in blocks:
        point = _pairwise_shift(ws, point, ws.incidence @ point[1], prices)
    return point


def _newton_step(problem: List[Tuple[_WorkingSet, np.ndarray, np.ndarray]],
                 curvature: np.ndarray):
    """The reduced-gradient Newton step of the restricted master problem.

    With each block's cheapest member as its basic path, the shifts ``s``
    of the other members solve ``D diag(g') D^T s = -(c_j - c_basic)`` over
    the reduced rows ``D = a_j - a_basic``; the basic path takes minus the
    sum of its block's shifts.  Returns the blocks with their basic paths
    moved first, the shifts of all members in that order, the edge
    direction ``s . D`` and the objective's slope along it.
    """
    blocks, rows, gradient = [], [], []
    for ws, members, costs in problem:
        order = members.copy()
        cheapest = costs[order].argmin()
        order[0], order[cheapest] = order[cheapest], order[0]
        blocks.append((ws, order, costs))
        paths, path_costs = ws.incidence[order], costs[order]
        rows.append(paths[1:] - paths[0])
        gradient.append(path_costs[1:] - path_costs[0])
    if len(blocks) == 1:
        rows, gradient = rows[0], gradient[0]
    else:
        # Where each block's shifts start among all the shifts.
        cuts = np.cumsum([0] + [len(g) for g in gradient[:-1]])
        rows, gradient = np.concatenate(rows), np.concatenate(gradient)
    # The upper triangle of ``W W^T``, ``W = D diag(sqrt(g'))``, which is all
    # ``dpotrf`` reads.  It runs on scipy's BLAS, as the factorisation does:
    # numpy and scipy can link separate BLAS builds, whose thread pools
    # contend when their calls alternate.
    hessian = _rank_k_update(1.0, (rows * np.sqrt(curvature)).T, trans=1)
    factor, info = _cholesky(hessian)
    # A singular Hessian can also factor with a pivot at rounding level,
    # which would blow the step up along its null space.
    if info == 0 and (factor.diagonal().min() ** 2
                      > _RCOND * hessian.diagonal().max()):
        shifts = _cholesky_solve(factor, -gradient)[0]
    else:
        shifts = _min_norm_solve(hessian + np.triu(hessian, 1).T, -gradient,
                                 cond=_RCOND)[1]
    if len(blocks) == 1:
        delta = np.concatenate(([-shifts.sum()], shifts))
    else:
        delta = np.insert(shifts, cuts, -np.add.reduceat(shifts, cuts))
    return blocks, delta, shifts @ rows, float(gradient @ shifts)


def _spans(problem):
    """``(block, start, stop)``: each block's slice of the stacked members."""
    start = 0
    for block in problem:
        stop = start + len(block[1])
        yield block, start, stop
        start = stop


def _pairwise_shift(ws: _WorkingSet, point: _Point, path_costs: np.ndarray,
                    prices: _Prices) -> _Point:
    """Move flow from the costliest used path to the cheapest path."""
    used = (ws.flows > 0.0).nonzero()[0]
    costliest = int(used[np.argmax(path_costs[used])])
    cheapest = int(np.argmin(path_costs))
    gain = float(path_costs[costliest] - path_costs[cheapest])
    if gain <= 0.0:
        return point
    direction = ws.incidence[cheapest] - ws.incidence[costliest]
    available = float(ws.flows[costliest])
    curvature = float(point[2] @ (direction * direction))
    amount = min(gain / curvature, available) if curvature > 0.0 else available
    step, moved = _line_step(point, direction, -gain, amount, prices)
    if step <= 0.0:
        return point
    ws.flows[costliest] = 0.0 if step >= available else available - step
    ws.flows[cheapest] += step
    return moved


def _line_step(point: _Point, direction: np.ndarray, slope: float,
               t_max: float, prices: _Prices) -> Tuple[float, _Point]:
    """A step in ``[0, t_max]`` along ``direction`` that does not overshoot.

    ``slope`` is the objective's (negative) slope at the current flows.  The
    objective is convex along the segment and its slope there is
    ``direction . prices``, so the full step is taken unless the slope at
    its end is clearly positive; then secant steps on the slope (Illinois
    variant, bisecting a bracket whose slopes differ by orders of
    magnitude) locate the minimiser inside the bracket.  Steps stay strictly
    inside the latency domains.  Returns the step and the point it reaches
    (``(0.0, point)`` when no step is possible).
    """
    flows = point[0]
    hi = prices.headroom(flows, direction, t_max)
    if hi <= 0.0:
        return 0.0, point
    accept = _SLOPE_ACCEPT * -slope
    lo, g_lo = 0.0, slope
    best = (0.0, point)
    s = hi
    side = 0
    for _ in range(_LINE_SEARCH_STEPS):
        trial = np.maximum(flows + s * direction, 0.0)
        costs, curvature = prices.at(trial)
        g_s = float(direction @ costs)
        if g_s <= accept and (g_s >= -accept or s == hi):
            return s, (trial, costs, curvature)
        if g_s < 0.0:
            lo, g_lo = s, g_s
            best = (s, (trial, costs, curvature))
            if side == -1:
                g_hi *= 0.5
            side = -1
        else:
            hi, g_hi = s, g_s
            if side == 1:
                g_lo *= 0.5
            side = 1
        s = lo + g_lo * (lo - hi) / (g_hi - g_lo)
        if not lo < s < hi or g_hi > _SECANT_SLOPE_RATIO * -g_lo:
            s = 0.5 * (lo + hi)
    return best
