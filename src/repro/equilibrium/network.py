"""High-level entry points for network Nash and optimum flows.

The solver is ``config.backend``: ``"auto"`` runs the certified
path-equilibration solver at every network size, ``"frank_wolfe"`` runs
Frank–Wolfe with ``config.tolerance`` and ``config.max_iterations``.  The
path solver stops on its own certified residual (``1e-12``).  A ``start``
(the ``path_flows`` of an earlier path-based result) seeds path
equilibration only; Frank–Wolfe takes none.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SolveConfig
from repro.exceptions import ModelError
from repro.network.instance import NetworkInstance
from repro.equilibrium.frank_wolfe import FrankWolfeOptions, frank_wolfe
from repro.equilibrium.pathbased import path_based_flow
from repro.equilibrium.result import NetworkFlowResult, PathFlows

__all__ = ["network_nash", "network_optimum"]


def _solve(instance: NetworkInstance, kind: str, config: SolveConfig,
           start: Optional[PathFlows]) -> NetworkFlowResult:
    if config.backend != "frank_wolfe":
        return path_based_flow(instance, kind, start=start)
    if start is not None:
        raise ModelError("a start seeds path equilibration only; this solve "
                         "runs Frank-Wolfe")
    options = FrankWolfeOptions(tolerance=config.tolerance,
                                max_iterations=config.max_iterations)
    return frank_wolfe(instance, kind, options)


def network_nash(instance: NetworkInstance, *,
                 config: SolveConfig = SolveConfig(),
                 start: Optional[PathFlows] = None) -> NetworkFlowResult:
    """Wardrop/Nash equilibrium edge flows of a network instance.

    The equilibrium minimises the Beckmann potential; for strictly increasing
    latencies the edge flows are unique ([41, Cor 2.6.4], Remark 2.5).
    ``start`` seeds path equilibration (see
    :func:`~repro.equilibrium.pathbased.path_based_flow`); it raises
    :class:`ModelError` under ``config.backend == "frank_wolfe"``.
    """
    return _solve(instance, "nash", config, start)


def network_optimum(instance: NetworkInstance, *,
                    config: SolveConfig = SolveConfig(),
                    start: Optional[PathFlows] = None) -> NetworkFlowResult:
    """System-optimum edge flows of a network instance (minimum total cost).

    Settings come from ``config``; ``start`` seeds path equilibration as in
    :func:`network_nash`.
    """
    return _solve(instance, "optimum", config, start)
