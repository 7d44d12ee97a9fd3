"""Price of anarchy / coordination ratio.

The coordination ratio (Koutsoupias & Papadimitriou) of an instance is
``C(N) / C(O)``, the factor by which selfish routing degrades the system cost
(Expression (1) of the paper).  It equals 4/3 at worst for linear latencies
(Roughgarden & Tardos) and is unbounded for general latencies — the very
motivation for Stackelberg control.
"""

from __future__ import annotations

from typing import Union

from repro.config import SolveConfig
from repro.exceptions import ModelError
from repro.network.instance import NetworkInstance
from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.network import network_nash, network_optimum
from repro.equilibrium.parallel import parallel_nash, parallel_optimum

__all__ = ["price_of_anarchy", "coordination_ratio"]


def price_of_anarchy(instance: Union[ParallelLinkInstance, NetworkInstance],
                     *, config: SolveConfig = SolveConfig()) -> float:
    """The ratio ``C(N) / C(O)`` of the instance, both solved under ``config``.

    Returns 1.0 when the optimum cost is zero (which only happens for zero
    demand).
    """
    if isinstance(instance, ParallelLinkInstance):
        nash_cost = parallel_nash(instance, config=config).cost
        optimum_cost = parallel_optimum(instance, config=config).cost
    elif isinstance(instance, NetworkInstance):
        nash_cost = network_nash(instance, config=config).cost
        optimum_cost = network_optimum(instance, config=config).cost
    else:
        raise ModelError(
            f"price_of_anarchy expects a ParallelLinkInstance or NetworkInstance, "
            f"got {type(instance).__name__}")
    if optimum_cost <= 0.0:
        return 1.0
    return nash_cost / optimum_cost


def coordination_ratio(instance: Union[ParallelLinkInstance, NetworkInstance],
                       *, config: SolveConfig = SolveConfig()) -> float:
    """Alias of :func:`price_of_anarchy` (the paper uses both terms)."""
    return price_of_anarchy(instance, config=config)
