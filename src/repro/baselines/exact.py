"""Exact Stackelberg baseline: MILP certification of the leader problem.

The budgeted heuristics (``llf``, ``scale``, ``brute_force``) come with
worst-case guarantees but no per-instance certificate.  This module closes
that gap on parallel links with a mixed-integer linear program solved by
:func:`scipy.optimize.milp`:

**Formulation.**  For leader budget ``alpha`` on demand ``r``, decision
variables are the combined link flows ``x_i`` (written as piecewise-linear
segment fills ``delta_{i,k}``), the follower flows ``t_i``, usage binaries
``z_i`` and the followers' common latency level ``L``:

* ``x_i = sum_k delta_{i,k}``, ``sum_i x_i = r``, ``sum_i t_i = (1-alpha) r``,
  ``0 <= t_i <= x_i`` (the leader routes ``s_i = x_i - t_i``);
* Wardrop complementarity via big-M: ``t_i <= (1-alpha) r z_i``,
  ``lambda_i >= L - eps`` for every link and
  ``lambda_i <= L + eps + M_i (1 - z_i)`` for used links, where
  ``lambda_i = l_i(0) + sum_k gamma_{i,k} delta_{i,k}`` is the
  piecewise-linear latency;
* objective ``min sum_{i,k} sigma_{i,k} delta_{i,k}``, the piecewise-linear
  total cost ``sum_i x_i l_i(x_i)``.

**Linearisation error bound.**  Each link is linearised on ``K`` uniform
segments up to a per-link cap ``u_i`` chosen from a *cost argument*: any
strategy at least as good as mimicking Nash has total cost at most the Nash
cost ``C_N``, hence every link satisfies ``x_i l_i(x_i) <= C_N`` and
``u_i = min(r, (x l)^{-1}(C_N))`` cannot cut the true optimum off.  For a
convex function ``f`` the secant interpolant overestimates ``f``, and the
gap ``g = secant - f`` is concave with zeros at the segment endpoints, so
``max g <= 2 g(midpoint)`` — a computable certificate.  Applying it to the
latencies gives the Wardrop relaxation ``eps`` (the true optimum stays
MILP-feasible) and to the link costs the objective slack ``eps_cost``; the
reported lower bound is ``milp_objective - eps_cost``.  All built-in latency
families (linear, constant, monomial, polynomial with non-negative
coefficients, M/M/1) are convex with convex ``x l(x)``, so the bound is
exact; for exotic user latencies it degrades to a sampled estimate.

**Certified strategy.**  The returned strategy is the best of: the MILP
flow split ``s = x - t``, ``llf(alpha)``, ``scale(alpha)``,
``alpha``-scaled Nash mimicry (whose induced outcome is exactly the Nash
assignment, so ``exact`` never loses to ``aloof``), optionally polished by
SLSQP on the true induced cost over the leader simplex.  Because the
candidate set contains the heuristics themselves, the certified cost is by
construction no worse than any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy import optimize as sciopt

from repro.baselines.llf import llf
from repro.baselines.scale import scale
from repro.config import SolveConfig
from repro.core.strategy import ParallelStackelbergStrategy
from repro.equilibrium.parallel import parallel_nash, parallel_optimum
from repro.equilibrium.result import ParallelFlowResult, StackelbergOutcome
from repro.exceptions import ReproError, StrategyError
from repro.network.parallel import ParallelLinkInstance

__all__ = ["ExactResult", "exact_strategy"]

#: Default number of piecewise-linear segments per link.
DEFAULT_SEGMENTS = 64


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact baseline on one ``(instance, alpha)`` pair.

    Attributes
    ----------
    strategy:
        The best certified leader strategy found.
    outcome:
        Its induced Stackelberg equilibrium (true, not linearised, costs).
    certification:
        JSON-serialisable certificate: the MILP objective, the linearisation
        error budget, the implied lower bound on the optimal induced cost,
        the certified cost and optimality gap of the returned strategy, the
        MILP status and the per-candidate cost table.
    """

    strategy: ParallelStackelbergStrategy
    outcome: StackelbergOutcome
    certification: Dict[str, Any]


# --------------------------------------------------------------------------- #
# Piecewise linearisation with certified error bounds
# --------------------------------------------------------------------------- #
def _link_cap(latency, cost_ref: float, demand: float) -> float:
    """Largest flow a link can carry in any candidate optimal solution.

    Solves ``x l(x) = cost_ref`` by bisection (``x l(x)`` is increasing);
    any solution with total cost below ``cost_ref`` keeps every link below
    this cap, so truncating the linearisation there cannot exclude the true
    optimum.  Bounded-domain latencies (M/M/1) bisect inside their pole.
    """
    upper = latency.domain_upper
    hi = demand if not np.isfinite(upper) else min(demand, upper * (1.0 - 1e-9))
    if float(latency.link_cost(hi)) <= cost_ref:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(latency.link_cost(mid)) <= cost_ref:
            lo = mid
        else:
            hi = mid
    return lo


def _secant_gap(fn, a: float, b: float) -> float:
    """Certified max deviation of the secant of ``fn`` on ``[a, b]``.

    For convex ``fn`` the gap ``secant - fn`` is concave and vanishes at the
    endpoints, so its maximum is at most twice its midpoint value.  A coarse
    interior sample is folded in as a safety net for non-convex inputs.
    """
    fa, fb = float(fn(a)), float(fn(b))
    width = b - a
    if width <= 0.0:
        return 0.0
    gap = 0.0
    for frac in (0.25, 0.5, 0.75):
        x = a + frac * width
        secant = fa + (fb - fa) * frac
        gap = max(gap, abs(secant - float(fn(x))))
    return 2.0 * gap


@dataclass(frozen=True)
class _LinkPWL:
    """Piecewise linearisation of one link up to its cap."""

    cap: float
    widths: np.ndarray          # segment widths (K,)
    latency_slopes: np.ndarray  # gamma_{i,k}
    cost_slopes: np.ndarray     # sigma_{i,k}
    latency_error: float        # max |secant - l| over the segments
    cost_error: float           # max |secant - x l(x)| over the segments
    latency_at_zero: float
    latency_at_cap: float


def _adaptive_grid(latency, cap: float, num_segments: int) -> np.ndarray:
    """Breakpoint grid that equidistributes the secant error.

    Greedy refinement: starting from the single segment ``[0, cap]``,
    repeatedly split (at the midpoint) the segment whose combined
    latency/cost secant gap is largest.  Families with localised curvature —
    M/M/1 latencies exploding toward their pole — get their resolution
    concentrated where the error lives, shrinking the certified budget by
    orders of magnitude relative to a uniform grid.
    """
    import heapq

    def score(a: float, b: float) -> float:
        return max(_secant_gap(latency.value, a, b),
                   _secant_gap(latency.link_cost, a, b))

    heap = [(-score(0.0, cap), 0.0, cap)]
    while len(heap) < num_segments:
        neg, a, b = heapq.heappop(heap)
        if neg == 0.0:  # everything already exact (e.g. affine latencies)
            heapq.heappush(heap, (neg, a, b))
            break
        mid = 0.5 * (a + b)
        heapq.heappush(heap, (-score(a, mid), a, mid))
        heapq.heappush(heap, (-score(mid, b), mid, b))
    edges = sorted({0.0, cap} | {a for _, a, _ in heap})
    return np.array(edges)


def _linearise(latency, cap: float, num_segments: int) -> _LinkPWL:
    grid = _adaptive_grid(latency, cap, num_segments)
    lat = np.array([float(latency.value(x)) for x in grid])
    cost = np.array([float(latency.link_cost(x)) for x in grid])
    widths = np.diff(grid)
    safe = np.where(widths > 0.0, widths, 1.0)
    latency_slopes = np.diff(lat) / safe
    cost_slopes = np.diff(cost) / safe
    lat_err = max((_secant_gap(latency.value, float(a), float(b))
                   for a, b in zip(grid[:-1], grid[1:])), default=0.0)
    cost_err = max((_secant_gap(latency.link_cost, float(a), float(b))
                    for a, b in zip(grid[:-1], grid[1:])), default=0.0)
    return _LinkPWL(cap=float(cap), widths=widths,
                    latency_slopes=latency_slopes, cost_slopes=cost_slopes,
                    latency_error=float(lat_err), cost_error=float(cost_err),
                    latency_at_zero=float(lat[0]), latency_at_cap=float(lat[-1]))


# --------------------------------------------------------------------------- #
# The MILP
# --------------------------------------------------------------------------- #
def _solve_milp(instance: ParallelLinkInstance, alpha: float,
                pwl: List[_LinkPWL],
                ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray],
                           Dict[str, Any]]:
    """Solve the piecewise-linearised leader problem.

    Returns ``(combined_flows, follower_flows, info)``; the flow arrays are
    ``None`` when the solver fails.  ``info`` carries the raw objective, the
    error budget and the solver status for the certificate.
    """
    n = instance.num_links
    r = instance.demand
    follower_demand = (1.0 - alpha) * r
    segments = [len(p.widths) for p in pwl]
    eps_wardrop = max(p.latency_error for p in pwl)
    eps_cost = float(sum(p.cost_error for p in pwl))
    big_m = [p.latency_at_cap + eps_wardrop + 1.0 for p in pwl]
    level_max = max(p.latency_at_cap for p in pwl) + 1.0

    # Variable layout: [delta_{0,*}, ..., delta_{n-1,*}, t_0..t_{n-1},
    #                   z_0..z_{n-1}, L]; links may have different segment
    #                   counts (the adaptive grid leaves affine links with
    #                   a single exact segment).
    offsets = np.concatenate(([0], np.cumsum(segments)))
    num_delta = int(offsets[-1])
    num_vars = num_delta + 2 * n + 1
    t0 = num_delta
    z0 = num_delta + n
    level_idx = num_vars - 1

    def delta_slice(i: int) -> slice:
        return slice(int(offsets[i]), int(offsets[i + 1]))

    objective = np.zeros(num_vars)
    for i, p in enumerate(pwl):
        objective[delta_slice(i)] = p.cost_slopes

    lower = np.zeros(num_vars)
    upper = np.empty(num_vars)
    for i, p in enumerate(pwl):
        upper[delta_slice(i)] = p.widths
    upper[t0:t0 + n] = follower_demand
    upper[z0:z0 + n] = 1.0
    upper[level_idx] = level_max
    integrality = np.zeros(num_vars)
    integrality[z0:z0 + n] = 1.0

    rows: List[np.ndarray] = []
    lbs: List[float] = []
    ubs: List[float] = []

    def add(row: np.ndarray, lb: float, ub: float) -> None:
        rows.append(row)
        lbs.append(lb)
        ubs.append(ub)

    # (1) total combined flow equals the demand
    row = np.zeros(num_vars)
    row[:num_delta] = 1.0
    add(row, r, r)
    # (2) followers route exactly (1 - alpha) r
    row = np.zeros(num_vars)
    row[t0:t0 + n] = 1.0
    add(row, follower_demand, follower_demand)
    for i, p in enumerate(pwl):
        # (3) t_i <= x_i  (the leader share s_i = x_i - t_i is non-negative)
        row = np.zeros(num_vars)
        row[t0 + i] = 1.0
        row[delta_slice(i)] = -1.0
        add(row, -np.inf, 0.0)
        # (4) t_i <= (1 - alpha) r z_i
        row = np.zeros(num_vars)
        row[t0 + i] = 1.0
        row[z0 + i] = -follower_demand
        add(row, -np.inf, 0.0)
        # (5) lambda_i >= L (every link's latency at least the level)
        row = np.zeros(num_vars)
        row[delta_slice(i)] = p.latency_slopes
        row[level_idx] = -1.0
        add(row, -p.latency_at_zero - 1e-9, np.inf)
        # (6) lambda_i <= L + eps + M_i (1 - z_i) (used links pinned to L)
        row = np.zeros(num_vars)
        row[delta_slice(i)] = p.latency_slopes
        row[level_idx] = -1.0
        row[z0 + i] = big_m[i]
        add(row, -np.inf, eps_wardrop - p.latency_at_zero + big_m[i])

    result = sciopt.milp(
        c=objective,
        constraints=sciopt.LinearConstraint(np.vstack(rows),
                                            np.array(lbs), np.array(ubs)),
        integrality=integrality,
        bounds=sciopt.Bounds(lower, upper),
    )
    info: Dict[str, Any] = {
        "milp_status": int(result.status),
        "milp_message": str(result.message),
        "milp_success": bool(result.success),
        "wardrop_relaxation": float(eps_wardrop),
        "linearisation_error": eps_cost,
        "num_segments": segments,
        "link_caps": [p.cap for p in pwl],
    }
    if not result.success:
        info["milp_objective"] = None
        return None, None, info
    info["milp_objective"] = float(result.fun)
    solution = np.asarray(result.x)
    combined = np.array([float(solution[delta_slice(i)].sum())
                         for i in range(n)])
    followers = np.clip(solution[t0:t0 + n], 0.0, None)
    return combined, followers, info


# --------------------------------------------------------------------------- #
# Candidate evaluation + SLSQP polish of the true induced cost
# --------------------------------------------------------------------------- #
def _project_leader(flows: np.ndarray, budget: float,
                    caps: np.ndarray) -> np.ndarray:
    """Clip a tentative leader assignment into the feasible simplex slice."""
    s = np.clip(np.asarray(flows, dtype=float), 0.0, caps)
    total = float(s.sum())
    if total > budget > 0.0:
        s = s * (budget / total)
    return s


def _induced_cost(instance: ParallelLinkInstance, s: np.ndarray,
                  config: SolveConfig,
                  ) -> Tuple[float, Optional[StackelbergOutcome]]:
    try:
        strategy = ParallelStackelbergStrategy(s, instance.demand)
        outcome = strategy.induce(instance, config=config)
        return float(outcome.cost), outcome
    except ReproError:
        return float("inf"), None


def exact_strategy(instance: ParallelLinkInstance, alpha: float, *,
                   num_segments: int = DEFAULT_SEGMENTS, polish: bool = True,
                   polish_maxiter: int = 40,
                   optimum: Optional[ParallelFlowResult] = None,
                   nash: Optional[ParallelFlowResult] = None,
                   config: SolveConfig = SolveConfig()) -> ExactResult:
    """Certified (near-)exact leader strategy with budget ``alpha``.

    Solves the piecewise-linearised MILP for a certified lower bound, then
    returns the best of the MILP split, the budgeted heuristics and an
    optional SLSQP polish of the true induced cost — so the certified cost
    is never worse than ``llf`` / ``scale`` / ``aloof`` at the same budget.
    ``optimum`` and ``nash`` are the instance's system optimum and Nash
    flow when the caller already solved them; the optimum feeds the
    ``llf`` and ``scale`` candidates.  Every equilibrium, optimum and
    induced solve runs under ``config``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    if num_segments < 1:
        raise StrategyError(
            f"num_segments must be >= 1, got {num_segments!r}")
    n = instance.num_links
    r = instance.demand
    budget = alpha * r

    if optimum is None:
        optimum = parallel_optimum(instance, config=config)
    if nash is None:
        nash = parallel_nash(instance, config=config)
    cost_ref = float(nash.cost) * (1.0 + 1e-9) + 1e-9
    pwl = [_linearise(lat, _link_cap(lat, cost_ref, r), num_segments)
           for lat in instance.latencies]
    combined, followers, info = _solve_milp(instance, alpha, pwl)
    caps = np.array([p.cap for p in pwl])

    candidates: Dict[str, np.ndarray] = {
        "mimic_nash": alpha * np.asarray(nash.flows, dtype=float),
        "llf": llf(instance, alpha, optimum=optimum).flows,
        "scale": scale(instance, alpha, optimum=optimum).flows,
    }
    if combined is not None:
        candidates["milp"] = combined - followers

    evaluated: Dict[str, float] = {}
    best_name, best_cost, best_s, best_outcome = "", float("inf"), None, None
    for name, raw in candidates.items():
        s = _project_leader(raw, budget, caps)
        cost, outcome = _induced_cost(instance, s, config)
        evaluated[name] = cost
        if cost < best_cost:
            best_name, best_cost, best_s, best_outcome = name, cost, s, outcome
    if best_outcome is None:  # pragma: no cover - mimic_nash always induces
        raise StrategyError("no candidate leader strategy could be induced")

    if polish and budget > 0.0 and n > 1:
        def objective(s: np.ndarray) -> float:
            return _induced_cost(instance, _project_leader(s, budget, caps),
                                 config)[0]

        bounds = [(0.0, float(min(budget, cap))) for cap in caps]
        res = sciopt.minimize(
            objective, best_s, method="SLSQP", bounds=bounds,
            constraints=[{"type": "eq",
                          "fun": lambda s: float(s.sum()) - budget}],
            options={"maxiter": polish_maxiter, "ftol": 1e-12})
        s = _project_leader(res.x, budget, caps)
        cost, outcome = _induced_cost(instance, s, config)
        evaluated["polish"] = cost
        if cost < best_cost - 1e-15:
            best_name, best_cost, best_s, best_outcome = ("polish", cost, s,
                                                          outcome)

    eps_cost = info["linearisation_error"]
    milp_objective = info.get("milp_objective")
    lower_bound = (milp_objective - eps_cost if milp_objective is not None
                   else 0.0)
    certification = dict(info)
    certification.update({
        "lower_bound": float(lower_bound),
        "certified_cost": float(best_cost),
        "optimality_gap": float(max(0.0, best_cost - lower_bound)),
        "selected_candidate": best_name,
        "candidate_costs": {k: (v if np.isfinite(v) else None)
                            for k, v in evaluated.items()},
        "alpha": float(alpha),
    })
    strategy = ParallelStackelbergStrategy(best_s, r)
    return ExactResult(strategy=strategy, outcome=best_outcome,
                       certification=certification)
