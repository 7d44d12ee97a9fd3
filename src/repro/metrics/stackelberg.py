"""A-posteriori anarchy cost and the theoretical Stackelberg bounds.

Expression (2) of the paper defines the *a-posteriori anarchy cost*
``eps(M, r, alpha)``: the factor ``C(S+T) / C(O)`` achieved by a Leader
strategy controlling an ``alpha`` portion.  Roughgarden's bounds
([41, Thm 6.4.4/6.4.5]) state that a suitable strategy (LLF) guarantees

* ``C(S+T) <= (1/alpha) C(O)`` for arbitrary latencies, and
* ``C(S+T) <= (4 / (3 + alpha)) C(O)`` for linear latencies,

while Corollary 2.2 of the paper shows the ratio is exactly 1 whenever
``alpha >= beta_M``.
"""

from __future__ import annotations

from typing import Union

from repro.config import SolveConfig
from repro.exceptions import ModelError, StrategyError
from repro.network.instance import NetworkInstance
from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.network import network_optimum
from repro.equilibrium.parallel import parallel_optimum
from repro.core.strategy import NetworkStackelbergStrategy, ParallelStackelbergStrategy

__all__ = [
    "a_posteriori_ratio",
    "general_latency_bound",
    "linear_latency_bound",
    "linear_price_of_anarchy_bound",
]


def a_posteriori_ratio(instance: Union[ParallelLinkInstance, NetworkInstance],
                       strategy: Union[ParallelStackelbergStrategy,
                                       NetworkStackelbergStrategy],
                       *, config: SolveConfig = SolveConfig()) -> float:
    """The factor ``C(S+T) / C(O)`` induced by ``strategy`` on ``instance``.

    The induced equilibrium and the optimum are both solved under ``config``.
    """
    if isinstance(instance, ParallelLinkInstance):
        if not isinstance(strategy, ParallelStackelbergStrategy):
            raise StrategyError("parallel-link instances need a parallel strategy")
        outcome = strategy.induce(instance, config=config)
        optimum_cost = parallel_optimum(instance, config=config).cost
    elif isinstance(instance, NetworkInstance):
        if not isinstance(strategy, NetworkStackelbergStrategy):
            raise StrategyError("network instances need a network strategy")
        outcome = strategy.induce(instance, config=config)
        optimum_cost = network_optimum(instance, config=config).cost
    else:
        raise ModelError(
            f"a_posteriori_ratio expects a ParallelLinkInstance or NetworkInstance, "
            f"got {type(instance).__name__}")
    if optimum_cost <= 0.0:
        return 1.0
    return outcome.cost / optimum_cost


def general_latency_bound(alpha: float) -> float:
    """Roughgarden's ``1/alpha`` guarantee for arbitrary latencies.

    Returns ``inf`` for ``alpha == 0`` (no control, no guarantee).
    """
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    if alpha == 0.0:
        return float("inf")
    return 1.0 / alpha


def linear_latency_bound(alpha: float) -> float:
    """Roughgarden's ``4 / (3 + alpha)`` guarantee for linear latencies."""
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    return 4.0 / (3.0 + alpha)


def linear_price_of_anarchy_bound() -> float:
    """The Roughgarden–Tardos 4/3 price-of-anarchy bound for linear latencies."""
    return 4.0 / 3.0
