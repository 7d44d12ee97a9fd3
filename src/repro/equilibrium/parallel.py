"""Exact water-filling solvers for parallel-link instances.

A Nash (Wardrop) equilibrium on parallel links equalises *latencies* on used
links (Remark 4.1); a system optimum equalises *marginal costs* (the KKT
condition of minimising the convex cost ``sum_i x_i l_i(x_i)`` over the
simplex).  In both cases the flow on every strictly increasing link is a
non-decreasing function of the common level, so the level solves a monotone
scalar equation.

The level is computed on a :class:`~repro.latency.batch.LatencyBatch`.
All-linear instances are solved *exactly* in O(m log m) by the
sorted-breakpoint closed form
(:func:`repro.utils.vectorized.piecewise_linear_level`) — no bisection at
all.  Mixed closed-form families (linear, M/M/1, power, monomial-like
polynomial) go through the generic *sorted-breakpoint level engine*
(:func:`repro.utils.vectorized.sorted_breakpoint_level`): a segment locator
narrows the active segment over the sorted activation breakpoints in a few
vectorized flow evaluations, and a few safeguarded Newton steps finish
inside it.  Rows without a closed-form inverse (multi-term
polynomials; shifted powers under marginal-cost equalisation) join the solve
as a scalar ``extra`` term, and only instances with strictly increasing
*generic*-bucket links fall back to a bracket + bisection level solve.

:func:`water_fill_reference` is the original scalar implementation (per-link
Python calls inside the bisection).  Nothing in the solver stack calls it; it
is the oracle the kernel equivalence tests and ``scripts/bench_perf.py``
compare against.

Constant-latency links (the documented extension; Pigou's example uses one)
act as flow sinks: once the common level of the increasing links would exceed
the smallest constant, the corresponding links absorb the excess flow at that
fixed latency.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SolveConfig
from repro.exceptions import ConvergenceError, ModelError
from repro.latency.base import LatencyFunction
from repro.latency.batch import LatencyBatch
from repro.network.parallel import ParallelLinkInstance
from repro.obs.profiling import active as _profiling_active
from repro.equilibrium.result import ParallelFlowResult
from repro.utils.rootfind import bisect_root, expand_upper_bracket
from repro.utils.vectorized import piecewise_linear_level, sorted_breakpoint_level

__all__ = ["parallel_nash", "parallel_optimum", "water_fill",
           "water_fill_reference"]


def _link_level_and_inverse(kind: str) -> Tuple[Callable[[LatencyFunction, float], float],
                                                Callable[[LatencyFunction, float], float]]:
    """Per-link level function and its inverse for the requested solve kind."""
    if kind == "nash":
        return (lambda lat, x: float(lat.value(x)),
                lambda lat, y: float(lat.inverse_value(y)))
    if kind == "optimum":
        return (lambda lat, x: float(lat.marginal_cost(x)),
                lambda lat, y: float(lat.inverse_marginal(y)))
    raise ModelError(f"unknown water-filling kind {kind!r}")


def water_fill(latencies: Optional[Sequence[LatencyFunction]], demand: float,
               kind: str, *, tol: float = 1e-12,
               batch: Optional[LatencyBatch] = None) -> Tuple[np.ndarray, float]:
    """Distribute ``demand`` across ``latencies`` equalising the chosen level.

    ``kind`` is ``"nash"`` (equalise latencies) or ``"optimum"`` (equalise
    marginal costs).  A prebuilt ``batch`` over the same latencies avoids
    re-grouping on repeated solves; with one, ``latencies`` may be ``None``
    (the solve reads the batch's columns only).
    Returns ``(flows, common_level)`` where ``common_level`` is the equalised
    value on loaded links; unloaded links have a level at least as large.

    When profiling is active (``SolveConfig(profile=True)`` or a tracing
    service batch) each call reports a ``water_fill[<kind>]`` phase; when
    it is not — the default — the overhead is the one ``is None`` check
    on the recorder lookup.
    """
    recorder = _profiling_active()
    if recorder is None:
        return _water_fill(latencies, demand, kind, tol=tol, batch=batch)
    start = time.perf_counter()
    try:
        return _water_fill(latencies, demand, kind, tol=tol, batch=batch)
    finally:
        recorder.note(f"water_fill[{kind}]", time.perf_counter() - start)


def _water_fill(latencies: Optional[Sequence[LatencyFunction]], demand: float,
                kind: str, *, tol: float = 1e-12,
                batch: Optional[LatencyBatch] = None,
                ) -> Tuple[np.ndarray, float]:
    _link_level_and_inverse(kind)  # validate ``kind`` before any work
    if batch is None:
        batch = LatencyBatch(latencies)
    m = batch.size
    if m == 0:
        raise ModelError("water_fill needs at least one link")
    if demand < 0.0:
        raise ModelError(f"demand must be >= 0, got {demand!r}")

    inc_mask = ~batch.is_constant
    level_star = float("inf")
    if demand > 0.0 and inc_mask.any():
        linear = batch.linear_increasing_params()
        if linear is not None:
            # Pure linear/affine instance: exact sorted-breakpoint solve.
            slopes, intercepts, _ = linear
            weights = 1.0 / slopes if kind == "nash" else 1.0 / (2.0 * slopes)
            level_star = piecewise_linear_level(weights, intercepts, demand)
        else:
            profile = batch.level_profile(kind)
            if profile is not None:
                # Mixed closed-form families: sorted-breakpoint engine —
                # the segment locator narrows the active segment over the
                # sorted breakpoints, then a few safeguarded Newton steps
                # finish inside it.
                try:
                    level_star = sorted_breakpoint_level(
                        profile.breakpoints, demand, profile.flow_grid,
                        extra=profile.extra if profile.has_numeric else None,
                        flow_dflow=profile.flow_dflow, tol=tol)
                except (ModelError, ConvergenceError):
                    pass
            else:
                # Strictly increasing generic-bucket links: no closed form
                # at all, so bracket + bisect the level; each evaluation
                # still inverts every increasing link in one batched call.
                inverse = batch.inverse_values if kind == "nash" \
                    else batch.inverse_marginals
                lo = float(batch.values_at_zero[inc_mask].min())

                def gap(level: float) -> float:
                    return float(inverse(level)[inc_mask].sum()) - demand

                try:
                    hi = expand_upper_bracket(gap, lo,
                                              initial=max(1.0, abs(lo)))
                    level_star = bisect_root(gap, lo, hi, tol=tol)
                except (ModelError, ConvergenceError):
                    pass
    return _route(batch, kind, demand, level_star)


def _route(batch: LatencyBatch, kind: str, demand: float,
           level_star: float) -> Tuple[np.ndarray, float]:
    """Flows and common level, given the increasing links' solved level.

    ``level_star`` is the level at which the strictly increasing links
    alone absorb ``demand`` (``inf`` when they cannot); constant links
    absorb whatever is left at the cheapest constant latency.
    """
    level_at_zero = batch.values_at_zero  # marginal cost at 0 equals l(0)
    flows = np.zeros(batch.size, dtype=float)
    if demand == 0.0:
        return flows, float(level_at_zero.min())
    const_mask = batch.is_constant
    inc_mask = ~const_mask
    inverse = batch.inverse_values if kind == "nash" else batch.inverse_marginals
    constant_floor = float(level_at_zero[const_mask].min()) if const_mask.any() \
        else float("inf")
    if level_star <= constant_floor and level_star < np.inf:
        # The strictly increasing links absorb everything below the cheapest
        # constant link; constants stay empty.
        flows[inc_mask] = inverse(level_star)[inc_mask]
        level = level_star
    else:
        # Constants at the floor latency absorb the excess flow.
        if not const_mask.any():
            raise ModelError(
                "demand cannot be routed: no constant links and the increasing "
                "links cannot absorb the demand")
        level = constant_floor
        if inc_mask.any():
            flows[inc_mask] = inverse(level)[inc_mask]
        leftover = max(0.0, demand - float(flows.sum()))
        sinks = const_mask & (level_at_zero <= constant_floor + 1e-12)
        flows[sinks] = leftover / int(np.count_nonzero(sinks))
    return _normalise_total(flows, demand), float(level)


def _normalise_total(flows: np.ndarray, demand: float) -> np.ndarray:
    """Spread tiny rounding over loaded links so flows sum exactly to demand."""
    total = float(flows.sum())
    if total > 0.0 and abs(total - demand) > 0.0:
        correction = demand - total
        loaded = flows > 0.0
        if np.any(loaded):
            flows[loaded] += correction * flows[loaded] / flows[loaded].sum()
    return np.clip(flows, 0.0, None)


def water_fill_reference(latencies: Optional[Sequence[LatencyFunction]],
                         demand: float, kind: str, *, tol: float = 1e-12,
                         batch: Optional[LatencyBatch] = None,
                         ) -> Tuple[np.ndarray, float]:
    """The scalar water-filling solver: per-link Python calls in a bisection.

    A test and benchmark oracle for :func:`water_fill`: same arguments,
    same result to solver tolerance.  It reads the latency objects, from
    ``batch.latencies`` when ``latencies`` is ``None``.
    """
    latencies = list(batch.latencies if latencies is None else latencies)
    m = len(latencies)
    if m == 0:
        raise ModelError("water_fill needs at least one link")
    if demand < 0.0:
        raise ModelError(f"demand must be >= 0, got {demand!r}")
    level_of, inverse_of = _link_level_and_inverse(kind)

    flows = np.zeros(m, dtype=float)
    if demand == 0.0:
        level = min(level_of(lat, 0.0) for lat in latencies)
        return flows, level

    increasing: List[int] = [i for i, lat in enumerate(latencies)
                             if not lat.is_constant]
    constants: List[int] = [i for i, lat in enumerate(latencies) if lat.is_constant]

    def filled_at(level: float) -> float:
        return sum(inverse_of(latencies[i], level) for i in increasing)

    constant_floor = min((level_of(latencies[i], 0.0) for i in constants),
                         default=float("inf"))

    if increasing:
        lo = min(level_of(latencies[i], 0.0) for i in increasing)
        # Bracket the level at which the increasing links alone absorb the demand.
        try:
            hi = expand_upper_bracket(lambda lv: filled_at(lv) - demand, lo,
                                      initial=max(1.0, abs(lo)))
            level_star = bisect_root(lambda lv: filled_at(lv) - demand, lo, hi, tol=tol)
        except (ModelError, ConvergenceError):
            level_star = float("inf")
    else:
        level_star = float("inf")

    if level_star <= constant_floor and level_star < np.inf:
        # The strictly increasing links absorb everything below the cheapest
        # constant link; constants stay empty.
        for i in increasing:
            flows[i] = inverse_of(latencies[i], level_star)
        level = level_star
    else:
        # Constants at the floor latency absorb the excess flow.
        if not constants:
            raise ModelError(
                "demand cannot be routed: no constant links and the increasing "
                "links cannot absorb the demand")
        level = constant_floor
        for i in increasing:
            flows[i] = inverse_of(latencies[i], level)
        leftover = demand - float(flows.sum())
        if leftover < 0.0:
            leftover = 0.0
        sinks = [i for i in constants
                 if level_of(latencies[i], 0.0) <= constant_floor + 1e-12]
        share = leftover / len(sinks)
        for i in sinks:
            flows[i] = share

    return _normalise_total(flows, demand), float(level)


def parallel_nash(instance: ParallelLinkInstance, *,
                  config: SolveConfig = SolveConfig()) -> ParallelFlowResult:
    """The Nash (Wardrop) equilibrium ``N`` of a parallel-link instance.

    All loaded links share the common latency ``L_N`` returned in
    ``common_value``; empty links have latency at least ``L_N`` (Remark 4.1).
    The flow is unique on strictly increasing links.  Water filling runs at
    ``config.water_fill_tol``.
    """
    flows, level = water_fill(None, instance.demand, "nash",
                              tol=config.water_fill_tol,
                              batch=instance.latency_batch())
    return ParallelFlowResult(
        flows=flows,
        common_value=level,
        cost=instance.cost(flows),
        beckmann=instance.beckmann(flows),
        kind="nash",
    )


def parallel_optimum(instance: ParallelLinkInstance, *,
                     config: SolveConfig = SolveConfig()) -> ParallelFlowResult:
    """The system optimum ``O`` of a parallel-link instance.

    All loaded links share the common marginal cost returned in
    ``common_value``; empty links have marginal cost at least that value.
    Water filling runs at ``config.water_fill_tol``.
    """
    flows, level = water_fill(None, instance.demand, "optimum",
                              tol=config.water_fill_tol,
                              batch=instance.latency_batch())
    return ParallelFlowResult(
        flows=flows,
        common_value=level,
        cost=instance.cost(flows),
        beckmann=instance.beckmann(flows),
        kind="optimum",
    )
