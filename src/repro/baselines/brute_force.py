"""Brute-force Stackelberg strategies on small parallel-link instances.

Computing the optimal Leader strategy is weakly NP-hard in general
(Roughgarden 2004), so no polynomial algorithm is expected; on *small*
instances, however, a grid search over the Leader's flow simplex approximates
the optimum arbitrarily well.  The tests use it to certify that

* OpTop's ``beta_M`` is minimal (no grid strategy with a smaller budget
  reaches the optimum cost), and
* the Theorem 2.4 strategy is optimal for its ``alpha`` (no grid strategy
  does better, up to grid resolution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.config import SolveConfig
from repro.exceptions import StrategyError
from repro.network.parallel import ParallelLinkInstance
from repro.core.strategy import ParallelStackelbergStrategy
from repro.equilibrium.result import StackelbergOutcome

__all__ = ["enumerate_strategies", "brute_force_strategy", "BruteForceResult"]


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_strategies(instance: ParallelLinkInstance, alpha: float,
                         resolution: int) -> Iterator[np.ndarray]:
    """Yield every grid strategy routing exactly ``alpha * r`` flow.

    The Leader budget is split into ``resolution`` equal quanta distributed
    over the links in all possible ways (``C(resolution + m - 1, m - 1)``
    strategies).
    """
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    if resolution < 1:
        raise StrategyError(f"resolution must be >= 1, got {resolution!r}")
    budget = alpha * instance.demand
    quantum = budget / resolution
    for combo in _compositions(resolution, instance.num_links):
        yield quantum * np.asarray(combo, dtype=float)


@dataclass(frozen=True)
class BruteForceResult:
    """Best grid strategy found by :func:`brute_force_strategy`."""

    strategy: ParallelStackelbergStrategy
    outcome: StackelbergOutcome
    cost: float
    evaluated: int


def brute_force_strategy(instance: ParallelLinkInstance, alpha: float,
                         *, resolution: int = 24,
                         config: SolveConfig = SolveConfig(),
                         ) -> BruteForceResult:
    """Exhaustive grid search for the best strategy controlling ``alpha * r``.

    Intended for instances with at most ~5 links; the number of evaluated
    strategies grows as ``O(resolution^(m-1))``.  Candidates that load a
    link up to its capacity (``domain_upper``, e.g. an M/M/1 link) are
    skipped; :class:`StrategyError` is raised when no candidate is left.
    Every induced solve runs under ``config``.
    """
    uppers = instance.latency_batch().domain_upper
    best_cost = float("inf")
    best_flows: np.ndarray | None = None
    best_outcome: StackelbergOutcome | None = None
    count = 0
    for flows in enumerate_strategies(instance, alpha, resolution):
        if np.any(flows >= uppers):
            continue
        strategy = ParallelStackelbergStrategy(flows=flows,
                                               total_demand=instance.demand)
        outcome = strategy.induce(instance, config=config)
        count += 1
        if outcome.cost < best_cost:
            best_cost = outcome.cost
            best_flows = flows
            best_outcome = outcome
    if best_outcome is None:
        raise StrategyError(
            f"no grid strategy at resolution {resolution} keeps every link "
            f"below its capacity")
    return BruteForceResult(
        strategy=ParallelStackelbergStrategy(flows=best_flows,
                                             total_demand=instance.demand),
        outcome=best_outcome,
        cost=float(best_cost),
        evaluated=count,
    )
