"""Theorem 2.4: optimal strategy on hard instances with common-slope linear latencies.

For instances ``(M, r, alpha < beta_M)`` — where the Leader cannot force the
optimum — computing the optimal strategy is weakly NP-hard in general
(Roughgarden).  Theorem 2.4 shows the problem is polynomial when every link
has latency ``l_i(x) = a x + b_i`` with a *common* slope ``a >= 0``:

* Lemma 6.1: some optimal strategy partitions the links (sorted by their
  constant term ``b_i``) into a prefix ``M^{>0}`` that receives induced
  selfish flow and a suffix ``M^{=0}`` that does not.
* For a fixed split the only freedom is how much extra flow ``eps`` of the
  Leader joins the Followers on ``M^{>0}``: the combined flow on ``M^{>0}``
  behaves like a Nash assignment of ``(1-alpha) r + eps``, while the remaining
  ``alpha r - eps`` Leader flow is assigned *optimally* on ``M^{=0}``.
* The assignment is admissible only when every link of ``M^{>0}`` is loaded
  and its common latency does not exceed the latency of any link of
  ``M^{=0}`` (otherwise Followers would deviate).

The solver scans every split point and minimises over ``eps`` with a dense
grid plus golden-section refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import SolveConfig
from repro.exceptions import ModelError, StrategyError
from repro.latency.linear import LinearLatency
from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.parallel import water_fill
from repro.equilibrium.result import StackelbergOutcome
from repro.core.strategy import ParallelStackelbergStrategy
from repro.utils.optimize import grid_refine_minimize

__all__ = ["RestrictedStrategyResult", "optimal_restricted_strategy"]

_INFEASIBLE = float("inf")


@dataclass(frozen=True)
class RestrictedStrategyResult:
    """Result of :func:`optimal_restricted_strategy`.

    Attributes
    ----------
    strategy:
        The computed optimal Leader strategy for the given ``alpha``.
    predicted_cost:
        The cost the Theorem 6.1 decomposition predicts for ``S + T``.
    outcome:
        The induced equilibrium actually computed against the strategy
        (its cost matches ``predicted_cost`` up to solver tolerance).
    split_index:
        Number of links (in increasing ``b_i`` order) placed in ``M^{>0}``;
        equal to ``m`` when the best choice is the useless strategy that keeps
        the initial Nash equilibrium.
    epsilon:
        The Leader flow that joins the Followers on ``M^{>0}``.
    order:
        Link indices sorted by constant term — the order the split refers to.
    """

    strategy: ParallelStackelbergStrategy
    predicted_cost: float
    outcome: StackelbergOutcome
    split_index: int
    epsilon: float
    order: Tuple[int, ...]

    @property
    def cost(self) -> float:
        """Cost of the induced Stackelberg equilibrium."""
        return self.outcome.cost


def _require_common_slope(instance: ParallelLinkInstance) -> Tuple[float, np.ndarray]:
    """Validate the Theorem 2.4 hypothesis and return ``(slope, intercepts)``."""
    slopes = []
    intercepts = []
    for i, lat in enumerate(instance.latencies):
        if not isinstance(lat, LinearLatency):
            raise ModelError(
                f"Theorem 2.4 requires linear latencies; link {i} has "
                f"{type(lat).__name__}")
        slopes.append(lat.slope)
        intercepts.append(lat.intercept)
    slopes_arr = np.asarray(slopes, dtype=float)
    if slopes_arr.size and not np.allclose(slopes_arr, slopes_arr[0], atol=1e-12):
        raise ModelError(
            "Theorem 2.4 requires a common slope a for all latencies "
            f"l_i(x) = a x + b_i; got slopes {slopes!r}")
    slope = float(slopes_arr[0]) if slopes_arr.size else 0.0
    if slope <= 0.0:
        raise ModelError(
            "Theorem 2.4 with slope a = 0 makes every latency constant; "
            "use strictly positive a")
    return slope, np.asarray(intercepts, dtype=float)


def _nash_cost_on(latencies, flow: float,
                  tol: float) -> Tuple[float, float, np.ndarray]:
    """Nash cost of routing ``flow`` on a sub-collection of links.

    Returns ``(cost, common_latency, flows)``; for ``flow == 0`` the cost is 0
    and the common latency is the smallest free-flow latency.
    """
    flows, level = water_fill(list(latencies), flow, "nash", tol=tol)
    cost = float(sum(x * float(lat.value(x)) for lat, x in zip(latencies, flows)))
    return cost, level, flows


def _optimum_cost_on(latencies, flow: float,
                     tol: float) -> Tuple[float, np.ndarray]:
    """Optimum cost of routing ``flow`` on a sub-collection of links."""
    flows, _ = water_fill(list(latencies), flow, "optimum", tol=tol)
    cost = float(sum(x * float(lat.value(x)) for lat, x in zip(latencies, flows)))
    return cost, flows


def optimal_restricted_strategy(instance: ParallelLinkInstance, alpha: float,
                                *, grid_points: int = 257,
                                config: SolveConfig = SolveConfig(),
                                ) -> RestrictedStrategyResult:
    """Optimal Stackelberg strategy controlling an ``alpha`` portion of the flow.

    Implements the Theorem 2.4 / Section 6.1 algorithm for parallel links with
    common-slope linear latencies.  Works for any ``alpha`` in ``[0, 1]`` (for
    ``alpha >= beta_M`` it recovers a strategy inducing the optimum cost, so it
    can also be used as an independent cross-check of OpTop).
    """
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    _require_common_slope(instance)
    demand = instance.demand
    leader_budget = alpha * demand
    follower_flow = demand - leader_budget

    order = tuple(sorted(range(instance.num_links),
                         key=lambda i: (instance.latencies[i].intercept,  # type: ignore[attr-defined]
                                        i)))
    latencies_sorted = [instance.latencies[i] for i in order]
    m = instance.num_links
    tol = config.water_fill_tol

    best: Optional[Tuple[float, int, float]] = None  # (cost, split, eps)

    for split in range(1, m + 1):
        appealing = latencies_sorted[:split]
        reserved = latencies_sorted[split:]

        def total_cost(eps: float, appealing=appealing, reserved=reserved) -> float:
            if eps < -1e-12 or eps > leader_budget + 1e-12:
                return _INFEASIBLE
            eps = min(max(eps, 0.0), leader_budget)
            nash_cost, common_latency, nash_flows = _nash_cost_on(
                appealing, follower_flow + eps, tol)
            # Admissibility: every appealing link is loaded ...
            if np.any(nash_flows <= 1e-12) and follower_flow + eps > 1e-12:
                return _INFEASIBLE
            reserved_flow = leader_budget - eps
            if reserved:
                opt_cost, reserved_flows = _optimum_cost_on(reserved,
                                                            reserved_flow, tol)
                # ... and no reserved link undercuts the common latency,
                # otherwise Followers would deviate onto it.
                reserved_latencies = [float(lat.value(x))
                                      for lat, x in zip(reserved, reserved_flows)]
                if reserved_latencies and min(reserved_latencies) < common_latency - 1e-9:
                    return _INFEASIBLE
            else:
                if reserved_flow > 1e-9:
                    return _INFEASIBLE
                opt_cost = 0.0
            return nash_cost + opt_cost

        if split == m:
            # No reserved links: the Leader's flow simply joins the Followers,
            # which is only feasible when it is all absorbed (eps = budget).
            eps_best, cost_best = leader_budget, total_cost(leader_budget)
        else:
            eps_best, cost_best = grid_refine_minimize(
                total_cost, 0.0, leader_budget, grid_points=grid_points)
        if cost_best == _INFEASIBLE:
            continue
        if best is None or cost_best < best[0] - 1e-12:
            best = (cost_best, split, eps_best)

    if best is None:
        raise StrategyError(
            "no admissible split found; this should not happen for alpha in [0, 1]")
    cost_best, split, eps = best

    # Reconstruct the Leader strategy: optimum loads on the reserved suffix,
    # and a share of the appealing links' Nash flow worth eps (any split with
    # s_i <= combined Nash flow works; we use a proportional share).
    appealing = latencies_sorted[:split]
    reserved = latencies_sorted[split:]
    _, _, appealing_flows = _nash_cost_on(appealing, follower_flow + eps, tol)
    strategy_flows = np.zeros(instance.num_links, dtype=float)
    if eps > 0.0 and float(appealing_flows.sum()) > 0.0:
        share = eps / float(appealing_flows.sum())
        for pos, orig in enumerate(order[:split]):
            strategy_flows[orig] = share * float(appealing_flows[pos])
    if reserved:
        _, reserved_flows = _optimum_cost_on(reserved, leader_budget - eps,
                                             tol)
        for pos, orig in enumerate(order[split:]):
            strategy_flows[orig] = float(reserved_flows[pos])

    strategy = ParallelStackelbergStrategy(flows=strategy_flows, total_demand=demand)
    outcome = strategy.induce(instance, config=config)
    return RestrictedStrategyResult(
        strategy=strategy,
        predicted_cost=float(cost_best),
        outcome=outcome,
        split_index=split,
        epsilon=float(eps),
        order=order,
    )
