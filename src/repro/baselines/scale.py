"""SCALE — the scaled-optimum Stackelberg strategy ``S = alpha * O``.

SCALE routes an ``alpha`` fraction of the optimum flow on every link or edge.
It is well defined on arbitrary networks (unlike LLF, whose natural habitat is
parallel links) and is the strategy whose general-network guarantees were
subsequently studied by Karakostas–Kolliopoulos and Swamy — the follow-up work
the paper's related-work section discusses.
"""

from __future__ import annotations

from typing import Union

from repro.config import SolveConfig
from repro.exceptions import StrategyError
from repro.network.instance import NetworkInstance
from repro.network.parallel import ParallelLinkInstance
from repro.equilibrium.network import network_optimum
from repro.equilibrium.parallel import parallel_optimum
from repro.equilibrium.result import NetworkFlowResult, ParallelFlowResult
from repro.core.strategy import NetworkStackelbergStrategy, ParallelStackelbergStrategy

__all__ = ["scale"]


def scale(instance: Union[ParallelLinkInstance, NetworkInstance], alpha: float,
          *, optimum: Union[ParallelFlowResult, NetworkFlowResult, None] = None,
          config: SolveConfig = SolveConfig(),
          ) -> Union[ParallelStackelbergStrategy, NetworkStackelbergStrategy]:
    """The SCALE strategy controlling an ``alpha`` portion of the flow.

    ``optimum`` is the instance's system optimum when the caller already
    solved it; otherwise it is solved here under ``config``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise StrategyError(f"alpha must lie in [0, 1], got {alpha!r}")
    if isinstance(instance, ParallelLinkInstance):
        if optimum is None:
            optimum = parallel_optimum(instance, config=config)
        return ParallelStackelbergStrategy(
            flows=alpha * optimum.flows, total_demand=instance.demand)
    if isinstance(instance, NetworkInstance):
        if optimum is None:
            optimum = network_optimum(instance, config=config)
        controlled = tuple(alpha * com.demand for com in instance.commodities)
        return NetworkStackelbergStrategy(
            edge_flows=alpha * optimum.edge_flows,
            controlled_demands=controlled,
            total_demand=instance.total_demand)
    raise StrategyError(
        f"scale expects a ParallelLinkInstance or NetworkInstance, "
        f"got {type(instance).__name__}")
