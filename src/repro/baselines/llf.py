"""LLF — Largest Latency First (Roughgarden, STOC 2001).

Given a Stackelberg scheduling instance ``(M, r, alpha)``, LLF computes the
optimum assignment ``O`` and lets the Leader saturate links at their optimum
flow in order of *decreasing* optimal latency ``l_i(o_i)`` until her budget
``alpha * r`` runs out (the last link may be filled partially).  Roughgarden
proved the induced cost satisfies ``C(S+T) <= (1/alpha) * C(O)`` for arbitrary
latencies, and ``C(S+T) <= (4 / (3 + alpha)) * C(O)`` for linear latencies —
the bounds benchmark E7 verifies empirically.
"""

from __future__ import annotations

import numpy as np

from repro.config import SolveConfig
from repro.exceptions import StrategyError
from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.parallel import parallel_optimum
from repro.equilibrium.result import ParallelFlowResult
from repro.core.strategy import ParallelStackelbergStrategy

__all__ = ["llf"]


def llf(instance: ParallelLinkInstance, alpha: float, *,
        optimum: ParallelFlowResult | None = None,
        config: SolveConfig = SolveConfig()) -> ParallelStackelbergStrategy:
    """The Largest-Latency-First strategy controlling an ``alpha`` portion.

    ``optimum`` is the instance's system optimum when the caller already
    solved it; otherwise it is solved here under ``config``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    if optimum is None:
        optimum = parallel_optimum(instance, config=config)
    opt_flows = optimum.flows
    latencies = instance.latencies_at(opt_flows)

    strategy = np.zeros(instance.num_links, dtype=float)
    # Saturate links by decreasing optimal latency; ties broken by index for
    # determinism.
    order = np.argsort(-latencies, kind="stable")
    caps = opt_flows[order]
    # The budget left before each link when all earlier ones are full,
    # rounded as a running ``budget -= cap``.  The first link it cannot fill
    # takes what is left, unless nothing is.
    left = np.subtract.accumulate(
        np.concatenate(([alpha * instance.demand], caps)))[:-1]
    full = (left > 0.0) & (caps < left)
    stop = len(caps) if full.all() else int(full.argmin())
    strategy[order[:stop]] = caps[:stop]
    if stop < len(caps) and left[stop] > 0.0:
        strategy[order[stop]] = left[stop]
    return ParallelStackelbergStrategy(flows=strategy, total_demand=instance.demand)
