"""Elastic-demand fixed-point driver: the realised rate of an open system.

With *fixed* demand the routing game takes the total rate ``r`` as given.
Under **elastic demand** the rate itself is endogenous: an inverse-demand
curve ``D(q)`` (:mod:`repro.scenarios.demand`) states the marginal
willingness to pay for the ``q``-th unit of flow, and flow enters the system
until that willingness meets the per-unit cost the entrants experience — the
Wardrop level of the selfish followers.  Because the level is non-decreasing
in the total rate (the water-filling structure stays convex) and ``D`` is
non-increasing, the equilibrium condition ``D(q) = level(q)`` is a monotone
scalar root problem; :func:`solve_elastic` brackets and bisects it.

On parallel links each bisection step is one vectorised
:func:`~repro.equilibrium.parallel.water_fill` call over the instance's
cached :class:`~repro.latency.batch.LatencyBatch` — no strategy solve
happens until the rate has converged.  On (single-commodity) networks the
level is the common path latency of the Nash flow, obtained as
``C(N)/q`` from one equilibrium solve per step.

Once the realised rate ``q*`` is found, the requested *strategy* (OpTop by
default) runs once on the instance re-scaled to ``q*`` through the standard
:func:`repro.api.solve` path — or through
:func:`repro.study.solve_cell` when an artifact store is supplied, so
elastic sweeps resume like every other study.  The result is an
:class:`ElasticReport`: the inner :class:`~repro.api.SolveReport` plus the
realised rate, the market price (equilibrium level) and the consumer
surplus under the curve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

from repro.config import SolveConfig
from repro.api.dispatch import PARALLEL, resolve_instance_kind
from repro.api.report import SolveReport
from repro.equilibrium.network import network_nash
from repro.equilibrium.parallel import water_fill
from repro.exceptions import ConvergenceError, ModelError
from repro.scenarios.demand import DemandCurve, demand_curve_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.study.store import ArtifactStore

__all__ = ["ElasticReport", "solve_elastic", "wardrop_level", "with_total_demand"]


def with_total_demand(instance: Any, demand: float) -> Any:
    """A copy of ``instance`` whose *total* demand is ``demand``.

    Parallel-link instances are rebuilt through
    :meth:`~repro.network.parallel.ParallelLinkInstance.with_demand`;
    network instances have every commodity scaled proportionally through
    :meth:`~repro.network.instance.NetworkInstance.with_demands`.
    """
    demand = float(demand)
    if hasattr(instance, "with_demand"):
        return instance.with_demand(demand)
    if hasattr(instance, "with_demands"):
        total = float(instance.total_demand)
        if total <= 0.0:
            raise ModelError(
                "cannot re-scale a network instance with zero total demand")
        scale = demand / total
        return instance.with_demands(
            [commodity.demand * scale for commodity in instance.commodities])
    raise ModelError(
        f"cannot set the demand of {type(instance).__name__}; expected a "
        f"with_demand or with_demands method")


def _capacity(instance: Any) -> float:
    """Total routable flow of the instance (``inf`` when unbounded)."""
    if resolve_instance_kind(instance) == PARALLEL:
        return float(sum(lat.domain_upper for lat in instance.latencies))
    return math.inf


def wardrop_level(instance: Any, demand: float, *,
                  config: Optional[SolveConfig] = None) -> float:
    """Per-unit equilibrium cost the followers experience at rate ``demand``.

    Parallel links: the common latency of the Nash water-filling solve (one
    vectorised :func:`~repro.equilibrium.parallel.water_fill` call over the
    instance's cached batch).  Single-commodity networks: the common path
    latency of the Nash flow, ``C(N) / demand`` (at zero demand, the
    free-flow shortest-path distance).
    """
    config = SolveConfig() if config is None else config
    demand = float(demand)
    if demand < 0.0:
        raise ModelError(f"demand must be >= 0, got {demand!r}")
    if resolve_instance_kind(instance) == PARALLEL:
        _, level = water_fill(None, demand, "nash",
                              tol=config.water_fill_tol,
                              batch=instance.latency_batch())
        return float(level)
    if not instance.is_single_commodity:
        raise ModelError(
            "elastic demand needs a single-commodity network (the level is "
            "the common path latency of the one commodity)")
    if demand == 0.0:
        import numpy as np

        from repro.paths.dijkstra import shortest_distances

        free_flow = instance.latencies_at(
            np.zeros(instance.network.num_edges))
        distances, _ = shortest_distances(instance.network, instance.source,
                                          free_flow)
        return float(distances[instance.sink])
    result = network_nash(with_total_demand(instance, demand), config=config)
    return float(result.cost) / demand


@dataclass(frozen=True)
class ElasticReport:
    """Outcome of one elastic-demand solve.

    Attributes
    ----------
    report:
        The inner :class:`~repro.api.SolveReport` of the requested strategy
        at the realised rate.
    curve:
        The inverse-demand curve, serialised (``demand_curve_from_dict``
        inverts it).
    realised_rate:
        The equilibrium total rate ``q*`` with ``D(q*) = level(q*)``.
    price:
        The market-clearing per-unit cost (the Wardrop level at ``q*``).
    consumer_surplus:
        ``int_0^{q*} D(t) dt - q* * price``: the net benefit the routed
        flow derives under the curve.
    iterations:
        Bisection steps the fixed point took.
    metadata:
        Driver details (bracket, residual, instance kind).
    """

    report: SolveReport
    curve: Dict[str, Any]
    realised_rate: float
    price: float
    consumer_surplus: float
    iterations: int
    metadata: Dict[str, Any] = field(default_factory=dict)

    # Delegated conveniences -------------------------------------------- #
    @property
    def beta(self) -> Optional[float]:
        """The Price of Optimum at the realised rate (strategy-dependent)."""
        return self.report.beta

    @property
    def price_of_anarchy(self) -> Optional[float]:
        """The price of anarchy at the realised rate."""
        return self.report.price_of_anarchy

    @property
    def demand_curve(self) -> DemandCurve:
        """The curve as a live object."""
        return demand_curve_from_dict(self.curve)

    # Serialisation ----------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary (JSON-compatible)."""
        return {
            "report": self.report.to_dict(),
            "curve": dict(self.curve),
            "realised_rate": self.realised_rate,
            "price": self.price,
            "consumer_surplus": self.consumer_surplus,
            "iterations": self.iterations,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ElasticReport":
        """Reconstruct a report serialised by :meth:`to_dict`."""
        if not isinstance(data, Mapping) or "report" not in data:
            raise ModelError(f"invalid ElasticReport payload: {data!r}")
        return cls(
            report=SolveReport.from_dict(data["report"]),
            curve=dict(data["curve"]),
            realised_rate=float(data["realised_rate"]),
            price=float(data["price"]),
            consumer_surplus=float(data["consumer_surplus"]),
            iterations=int(data["iterations"]),
            metadata=dict(data.get("metadata", {})),
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialise to JSON; :meth:`from_json` inverts this losslessly."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ElasticReport":
        """Reconstruct a report serialised by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid ElasticReport JSON: {exc}") from exc
        return cls.from_dict(data)

    def summary(self) -> str:
        """One-line human-readable digest."""
        beta = "-" if self.beta is None else f"{self.beta:.4f}"
        return (f"elastic[{self.report.strategy}] rate={self.realised_rate:.6g} "
                f"price={self.price:.6g} surplus={self.consumer_surplus:.6g} "
                f"beta={beta}")


def solve_elastic(instance: Any, curve: DemandCurve,
                  strategy: Optional[str] = None, *,
                  config: Optional[SolveConfig] = None,
                  rate_tol: float = 1e-9, max_iterations: int = 200,
                  store: "Optional[ArtifactStore]" = None) -> ElasticReport:
    """Solve the elastic-demand equilibrium and run a strategy at its rate.

    Parameters
    ----------
    instance:
        A parallel-link or single-commodity network instance; its built-in
        demand is ignored (the curve decides the rate).
    curve:
        The inverse-demand curve ``D(q)``.
    strategy:
        Registry name run at the realised rate (``None``/``"auto"`` selects
        the Price-of-Optimum algorithm), exactly as in
        :func:`repro.api.solve`.
    config:
        Solver settings shared by the level evaluations and the final solve.
    rate_tol:
        Absolute tolerance on the realised rate.
    max_iterations:
        Bisection-step cap for the fixed point.
    store:
        Optional artifact store; the final static solve then runs through
        :func:`repro.study.solve_cell` and resumes across runs.

    Raises
    ------
    ModelError
        When the market does not open: ``D(0)`` does not exceed the
        equilibrium cost at zero flow, so no flow wants to enter.
    """
    if not isinstance(curve, DemandCurve):
        raise ModelError(
            f"curve must be a DemandCurve, got {type(curve).__name__}")
    config = SolveConfig() if config is None else config

    def gap(rate: float) -> float:
        return curve.price_at(rate) - wardrop_level(instance, rate,
                                                    config=config)

    zero_level = wardrop_level(instance, 0.0, config=config)
    if curve.price_at(0.0) <= zero_level + rate_tol:
        raise ModelError(
            f"the demand curve admits no positive rate: D(0) = "
            f"{curve.price_at(0.0)!r} does not exceed the zero-flow "
            f"equilibrium cost {zero_level!r}")

    capacity = _capacity(instance)
    cap = capacity * (1.0 - 1e-9) if math.isfinite(capacity) else math.inf
    hi = min(curve.max_rate, cap)
    iterations = 0
    if not math.isfinite(hi):
        # Expand a doubling bracket until the willingness to pay falls
        # below the level (both monotone, so this terminates).
        hi = 1.0
        while gap(hi) > 0.0:
            hi *= 2.0
            iterations += 1
            if iterations > max_iterations:
                raise ConvergenceError(
                    f"could not bracket the elastic rate within "
                    f"{max_iterations} doublings (reached rate {hi!r})")
    lo = 0.0
    while hi - lo > rate_tol and iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    rate = 0.5 * (lo + hi)

    level = wardrop_level(instance, rate, config=config)
    scaled = with_total_demand(instance, rate)
    from repro.api.session import resolve_strategy_name, solve
    from repro.study.runner import solve_cell

    name = resolve_strategy_name(strategy)
    if store is not None:
        report = solve_cell(scaled, name, config, store=store)
    else:
        report = solve(scaled, name, config=config)
    return ElasticReport(
        report=report,
        curve=curve.to_dict(),
        realised_rate=float(rate),
        price=float(level),
        consumer_surplus=float(curve.consumer_surplus(rate, level)),
        iterations=iterations,
        metadata={
            "instance_kind": resolve_instance_kind(instance),
            "residual": curve.price_at(rate) - level,
            "rate_tol": rate_tol,
            "zero_level": zero_level,
        },
    )
