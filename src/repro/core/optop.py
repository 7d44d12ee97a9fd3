"""Algorithm OpTop: the Price of Optimum on parallel links (Corollary 2.2).

OpTop computes the minimum portion ``beta_M`` of the total flow ``r`` a Leader
must control to induce the optimum cost ``C(O)`` on a parallel-link instance,
together with the optimal strategy:

1. compute the optimum ``O`` of the full instance once;
2. compute the Nash equilibrium ``N`` of the *current* subsystem and flow;
3. every currently *under-loaded* link (``n_i < o_i``, Definition 4.3) is
   frozen at its optimum flow (``s_i = o_i``) and removed together with that
   flow;
4. repeat on the simplified subsystem until no link is under-loaded;
5. the controlled portion is ``beta_M = (r_0 - r_final) / r_0``.

The correctness argument (Section 7.4) combines Theorem 7.2 (a useful strategy
must freeze some link), Theorem 7.4 / Lemma 7.5 (frozen links receive no
induced flow, so a non-optimally frozen link would pin a sub-optimal flow) and
Proposition 7.1 (monotonicity), which force exactly the assignments OpTop
makes — hence the portion it returns is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.config import SolveConfig
from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.parallel import parallel_nash, parallel_optimum
from repro.equilibrium.result import ParallelFlowResult, StackelbergOutcome
from repro.core.strategy import ParallelStackelbergStrategy

__all__ = ["OpTopRound", "OpTopResult", "optop"]


@dataclass(frozen=True)
class OpTopRound:
    """Trace of one OpTop iteration.

    Attributes
    ----------
    active_links:
        Original link indices still in play at the start of the round.
    remaining_flow:
        Selfish flow routed on those links at the start of the round.
    nash_flows:
        Nash assignment of that flow on the active links (aligned with
        ``active_links``).
    frozen_links:
        Links detected as under-loaded in this round and frozen at their
        optimum flow.
    """

    active_links: Tuple[int, ...]
    remaining_flow: float
    nash_flows: np.ndarray
    frozen_links: Tuple[int, ...]


@dataclass(frozen=True)
class OpTopResult:
    """Result of :func:`optop`.

    ``beta`` is the Price of Optimum; ``strategy`` the optimal Leader strategy
    (optimum flow on every frozen link); ``outcome`` the induced Stackelberg
    equilibrium ``S + T`` (which matches the optimum up to solver tolerance).
    """

    instance: ParallelLinkInstance
    beta: float
    strategy: ParallelStackelbergStrategy
    optimum: ParallelFlowResult
    initial_nash: ParallelFlowResult
    rounds: Tuple[OpTopRound, ...]
    outcome: StackelbergOutcome

    @property
    def controlled_flow(self) -> float:
        """Flow controlled by the Leader (``beta * r``)."""
        return self.strategy.controlled_flow

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def optimum_cost(self) -> float:
        return self.optimum.cost

    @property
    def induced_cost(self) -> float:
        return self.outcome.cost

    @property
    def nash_cost(self) -> float:
        return self.initial_nash.cost


def optop(instance: ParallelLinkInstance, *,
          config: SolveConfig = SolveConfig()) -> OpTopResult:
    """Run algorithm OpTop on a parallel-link instance.

    Parameters
    ----------
    instance:
        The scheduling instance ``(M, r)``.
    config:
        Supplies ``underload_atol``, the absolute tolerance used to decide
        whether a link is under-loaded (``n_i < o_i - atol``; needed because
        Nash and optimum flows are computed numerically), and
        ``water_fill_tol``, the tolerance of every water-filling solve.

    Returns
    -------
    OpTopResult
        With the Price of Optimum ``beta``, the optimal strategy, the round
        trace and the induced equilibrium.
    """
    optimum = parallel_optimum(instance, config=config)
    initial_nash = parallel_nash(instance, config=config)
    opt_flows = optimum.flows

    demand = instance.demand
    threshold = config.underload_atol * max(1.0, demand)
    active = np.arange(instance.num_links)
    remaining = demand
    strategy_flows = np.zeros(instance.num_links, dtype=float)
    rounds: List[OpTopRound] = []

    while active.size and remaining > -threshold:
        if active.size == instance.num_links and remaining == demand:
            # Round 1 is the full instance at full demand — the Nash already
            # computed above; skip the redundant solve (and sub-instance).
            nash = initial_nash
        else:
            sub = instance.sub_instance(active, max(0.0, remaining))
            nash = parallel_nash(sub, config=config)
        under_mask = nash.flows < opt_flows[active] - threshold
        under = active[under_mask]
        rounds.append(OpTopRound(
            active_links=tuple(active.tolist()),
            remaining_flow=max(0.0, remaining),
            nash_flows=nash.flows.copy(),
            frozen_links=tuple(under.tolist()),
        ))
        if not under.size:
            break
        strategy_flows[under] = opt_flows[under]
        # ``cumsum`` adds left to right; numpy's pairwise ``sum`` would round
        # differently and move beta in its last bits.
        remaining -= float(np.cumsum(opt_flows[under])[-1])
        active = active[~under_mask]

    remaining = max(0.0, remaining)
    beta = (demand - remaining) / demand if demand > 0.0 else 0.0
    strategy = ParallelStackelbergStrategy(flows=strategy_flows, total_demand=demand)
    outcome = strategy.induce(instance, config=config)
    return OpTopResult(
        instance=instance,
        beta=float(beta),
        strategy=strategy,
        optimum=optimum,
        initial_nash=initial_nash,
        rounds=tuple(rounds),
        outcome=outcome,
    )
