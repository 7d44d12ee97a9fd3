"""High-level entry points for network Nash and optimum flows.

``"auto"`` and ``"path"`` run the certified path-equilibration solver at
every network size; Frank–Wolfe runs only when asked for by name
(``"frank-wolfe"``).  A ``start`` (the ``path_flows`` of an earlier
path-based result) seeds path equilibration only; Frank–Wolfe takes none.
``tolerance`` and ``max_iterations`` are Frank–Wolfe settings: the path
solver stops on its own certified residual (``1e-12``).
"""

from __future__ import annotations

from typing import Literal, Optional, TYPE_CHECKING, Tuple

from repro.exceptions import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import SolveConfig
from repro.network.instance import NetworkInstance
from repro.equilibrium.frank_wolfe import FrankWolfeOptions, frank_wolfe
from repro.equilibrium.pathbased import path_based_flow
from repro.equilibrium.result import NetworkFlowResult, PathFlows

__all__ = ["network_nash", "network_optimum"]

Solver = Literal["auto", "frank-wolfe", "path"]


def _solve(instance: NetworkInstance, kind: str, solver: Solver,
           tolerance: float, max_iterations: int,
           start: Optional[PathFlows]) -> NetworkFlowResult:
    if solver not in ("auto", "frank-wolfe", "path"):
        raise ModelError(f"unknown solver {solver!r}")
    if solver != "frank-wolfe":
        return path_based_flow(instance, kind, start=start)
    if start is not None:
        raise ModelError("a start seeds path equilibration only; this solve "
                         "runs Frank-Wolfe")
    options = FrankWolfeOptions(tolerance=tolerance,
                                max_iterations=max_iterations)
    return frank_wolfe(instance, kind, options)


def _resolve_settings(solver: Optional[Solver], tolerance: Optional[float],
                      max_iterations: Optional[int],
                      config: "SolveConfig | None",
                      ) -> Tuple[Solver, float, int]:
    """Resolve solver settings: explicit kwargs win, then config, then defaults."""
    if config is not None:
        solver = config.network_solver() if solver is None else solver
        tolerance = config.tolerance if tolerance is None else tolerance
        max_iterations = (config.max_iterations if max_iterations is None
                          else max_iterations)
    return (solver if solver is not None else "auto",
            tolerance if tolerance is not None else 1e-9,
            max_iterations if max_iterations is not None else 20_000)


def network_nash(instance: NetworkInstance, *, solver: Optional[Solver] = None,
                 tolerance: Optional[float] = None,
                 max_iterations: Optional[int] = None,
                 config: "SolveConfig | None" = None,
                 start: Optional[PathFlows] = None) -> NetworkFlowResult:
    """Wardrop/Nash equilibrium edge flows of a network instance.

    The equilibrium minimises the Beckmann potential; for strictly increasing
    latencies the edge flows are unique ([41, Cor 2.6.4], Remark 2.5).
    Settings may come from explicit keywords or a
    :class:`repro.api.SolveConfig`.  ``start`` seeds path equilibration
    (see :func:`~repro.equilibrium.pathbased.path_based_flow`); it raises
    :class:`ModelError` under ``solver="frank-wolfe"``.
    """
    solver, tolerance, max_iterations = _resolve_settings(
        solver, tolerance, max_iterations, config)
    return _solve(instance, "nash", solver, tolerance, max_iterations, start)


def network_optimum(instance: NetworkInstance, *, solver: Optional[Solver] = None,
                    tolerance: Optional[float] = None,
                    max_iterations: Optional[int] = None,
                    config: "SolveConfig | None" = None,
                    start: Optional[PathFlows] = None) -> NetworkFlowResult:
    """System-optimum edge flows of a network instance (minimum total cost).

    Settings may come from explicit keywords or a
    :class:`repro.api.SolveConfig`; ``start`` seeds path equilibration as
    in :func:`network_nash`.
    """
    solver, tolerance, max_iterations = _resolve_settings(
        solver, tolerance, max_iterations, config)
    return _solve(instance, "optimum", solver, tolerance, max_iterations,
                  start)
