"""Array-level numeric kernels backing the vectorized solver layer.

These helpers are the NumPy counterparts of :mod:`repro.utils.rootfind`: the
same monotone-root problems, solved for *every component of an array at once*
instead of one scalar at a time.  They carry the vectorized water-filling
solver (:func:`repro.equilibrium.parallel.water_fill`) and the batched latency
inverses of :class:`repro.latency.batch.LatencyBatch`.

* :func:`piecewise_linear_level` — the exact O(m log m) sorted-breakpoint
  solve for the common level of an all-linear water-filling problem (no
  bisection at all);
* :func:`sorted_breakpoint_level` — the generic sorted-breakpoint *level
  engine*: the same segment-location idea for any monotone "total filled
  flow at level L" function built from closed-form family inverses.  A
  segment locator narrows an index range over the sorted breakpoints in a
  few vectorized flow evaluations (O(m log m), never the O(m^2) grid of
  every link at every breakpoint), and a few safeguarded Newton steps
  finish inside the active segment instead of 40+ full-array bisection
  passes;
* :func:`vectorized_bisect` — guarded bisection on arrays of brackets, one
  array op per step for all components simultaneously;
* :func:`expand_upper_brackets` — geometric bracket expansion, masked so that
  already-bracketed components stop evaluating.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from repro.exceptions import ConvergenceError, ModelError

__all__ = [
    "piecewise_linear_level",
    "sorted_breakpoint_level",
    "vectorized_bisect",
    "expand_upper_brackets",
]


def piecewise_linear_level(weights: np.ndarray, breakpoints: np.ndarray,
                           demand: float) -> float:
    """Exact level ``L`` with ``sum_i w_i * max(0, L - b_i) = demand``.

    This is the closed form of water filling over links whose level functions
    are affine: link ``i`` absorbs ``w_i * (L - b_i)`` once the common level
    ``L`` exceeds its breakpoint ``b_i`` (for a latency ``a x + b`` the weight
    is ``1/a`` when equalising latencies and ``1/(2a)`` when equalising
    marginal costs).  Sorting the breakpoints makes the total filled flow a
    piecewise-linear increasing function of ``L``; a prefix-sum scan plus one
    ``searchsorted`` finds the segment containing ``demand`` exactly — no
    bisection, no per-link Python calls.

    ``weights`` must be positive and ``demand`` non-negative.
    """
    if demand < 0.0:
        raise ModelError(f"demand must be >= 0, got {demand!r}")
    weights = np.asarray(weights, dtype=float)
    breakpoints = np.asarray(breakpoints, dtype=float)
    if weights.shape != breakpoints.shape or weights.ndim != 1 or weights.size == 0:
        raise ModelError(
            "piecewise_linear_level needs matching 1-d weights/breakpoints")
    if np.any(weights <= 0.0):
        raise ModelError("piecewise_linear_level weights must be > 0")
    order = np.argsort(breakpoints, kind="stable")
    b = breakpoints[order]
    w = weights[order]
    cum_w = np.cumsum(w)
    cum_wb = np.cumsum(w * b)
    # Total filled flow evaluated at each breakpoint (0 at the smallest one).
    # Note filled_at_breaks[j] uses the prefix sums *including* link j, whose
    # own contribution at its breakpoint is zero, so the formula is exact.
    filled_at_breaks = cum_w * b - cum_wb
    k = int(np.searchsorted(filled_at_breaks, demand, side="right")) - 1
    k = max(k, 0)
    return float((demand + cum_wb[k]) / cum_w[k])


#: Cap on probe levels x breakpoints evaluated per segment-locator round.
_LOCATE_ELEMENTS = 8192


def _locate_segment(bp: np.ndarray, demand: float,
                    total: Callable[[np.ndarray], np.ndarray], budget: int,
                    ) -> Tuple[int, float, float]:
    """Active breakpoint segment of ``demand``.

    ``bp`` holds sorted unique breakpoints and ``total`` maps an array of
    levels to the total filled flow at each.  Returns ``(k, f_lo, f_hi)``:
    ``k`` is the largest index with ``total(bp[k]) <= demand`` (0 when even
    ``bp[0]`` overfills), ``f_lo`` the flow at ``bp[k]`` and ``f_hi`` the
    flow at ``bp[k + 1]`` (NaN when unknown: ``k`` is the last index, or
    ``bp[0]`` already overfills).

    Every round narrows the open index range ``(lo, hi)``, which starts as
    the whole index line, by probing ``budget // bp.size`` evenly spaced
    interior breakpoints (at least one) in one ``total`` call.  The cost is
    O(m log m) instead of the O(m^2) grid of every link at every breakpoint.
    """
    n = bp.size
    per_round = max(1, budget // n)
    lo, hi, f_lo, f_hi = -1, n, math.nan, math.nan
    while hi - lo > 1:
        width = hi - lo
        probes = min(per_round, width - 1)
        # lo, the probes, hi; with probes < width the evenly spaced probes
        # are strictly increasing and inside the open range.
        at = lo + np.arange(probes + 2) * width // (probes + 1)
        flows = np.concatenate(
            ([f_lo], np.asarray(total(bp[at[1:-1]]), dtype=float), [f_hi]))
        # Probes at or below the demand (NaN flows count as above).
        below = int((flows[1:-1] <= demand).sum())
        lo, hi = int(at[below]), int(at[below + 1])
        f_lo, f_hi = float(flows[below]), float(flows[below + 1])
    if lo < 0:
        return 0, f_hi, math.nan
    return lo, f_lo, f_hi


def sorted_breakpoint_level(breakpoints: np.ndarray, demand: float,
                            flow_grid: Callable[[np.ndarray], np.ndarray], *,
                            extra: Optional[Callable[[float], float]] = None,
                            flow_dflow: Optional[
                                Callable[[float], Tuple[float, float]]] = None,
                            tol: float = 1e-12, max_expansions: int = 200,
                            max_iter: int = 200) -> float:
    """The level ``L`` with ``flow_grid(L) + extra(L) = demand``.

    The generic sorted-breakpoint water-filling engine.  ``breakpoints`` are
    the free-flow activation levels of the links (duplicates are fine — they
    are deduplicated here); ``flow_grid(levels)`` maps an array of candidate
    levels to the total closed-form filled flow at each of them, and must be
    non-decreasing.  ``extra`` optionally adds the (scalar, typically
    bisected) contribution of links without a closed-form inverse.
    ``flow_dflow``, when given, returns ``(total flow including extra,
    d(total flow)/dL)`` at a scalar level in one fused evaluation, enabling
    safeguarded Newton finishing inside the active segment.

    The solve is: locate the segment containing ``demand`` by narrowing an
    index range over the sorted breakpoints (a few vectorized flow
    evaluations, one interior breakpoint per round when ``extra`` is
    present), then run safeguarded Newton from the secant of the segment's
    endpoints — each step either a Newton update (when it stays inside the
    bracket) or a bisection fallback — until the bracket width drops below
    ``tol * scale``, the same stopping rule as
    :func:`repro.utils.rootfind.bisect_root`.

    Raises :class:`ConvergenceError` when no finite level absorbs ``demand``
    (e.g. M/M/1 links saturating below it) or when the flow evaluates to NaN.
    """
    if demand < 0.0:
        raise ModelError(f"demand must be >= 0, got {demand!r}")
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    if bp.size == 0:
        raise ModelError("the breakpoint engine needs at least one breakpoint")
    if not (math.isfinite(bp[0]) and math.isfinite(bp[-1])):  # NaN sorts last
        raise ModelError("activation breakpoints must be finite")

    def totals(levels: np.ndarray) -> np.ndarray:
        flows = np.asarray(flow_grid(levels), dtype=float)
        if extra is not None:
            flows = flows + np.array([float(extra(lv)) for lv in levels])
        return flows

    def total(level: float) -> float:
        return float(totals(np.array([level]))[0])

    # Each ``extra`` level costs a scalar bisected inverse, so the locator
    # then probes a single breakpoint per round.
    k, f_lo, f_hi = _locate_segment(
        bp, demand, totals, _LOCATE_ELEMENTS if extra is None else 0)
    lo = float(bp[k])
    g_lo = f_lo - demand
    if g_lo >= 0.0:
        # Only possible through rounding at the smallest breakpoint: the
        # filled flow there is already (numerically) the demand.
        return lo

    g_hi = f_hi - demand
    if k + 1 < bp.size:
        hi = float(bp[k + 1])
    else:
        # Above the top breakpoint: geometric expansion, exactly like the
        # scalar expand_upper_bracket used by the bisection path.
        hi = lo + max(1.0, abs(lo))
        for _ in range(max_expansions):
            g_hi = total(hi) - demand
            if g_hi >= 0.0:
                break
            hi = lo + (hi - lo) * 2.0
        else:
            raise ConvergenceError(
                f"could not bracket the water-filling level after "
                f"{max_expansions} expansions", iterations=max_expansions)

    scale = max(1.0, abs(lo), abs(hi))
    # Secant start: both endpoint gaps are already known (from the locator
    # or the expansion), so the first iterate is free and usually lands
    # very close to the root.
    x = 0.5 * (lo + hi)
    if math.isfinite(g_hi) and g_hi > g_lo:
        secant = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if lo < secant < hi:
            x = secant
    for _ in range(max_iter):
        if flow_dflow is not None:
            flow, d = flow_dflow(x)
            g = float(flow) - demand
            d = float(d)
        else:
            g = total(x) - demand
            d = math.nan
        if math.isnan(g):
            raise ConvergenceError(
                "water-filling flow evaluated to NaN during the level solve")
        if g == 0.0:
            return x
        if g < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= tol * scale:
            return 0.5 * (lo + hi)
        step = None
        if math.isfinite(d) and d > 0.0:
            step = -g / d
        if step is not None and lo < x + step < hi:
            x = x + step
            if abs(step) <= 0.5 * tol * scale:
                return x
        else:
            x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def vectorized_bisect(func: Callable[[np.ndarray], np.ndarray],
                      lo: np.ndarray, hi: np.ndarray, *,
                      tol: float = 1e-12, max_iter: int = 200) -> np.ndarray:
    """Elementwise root of ``func(x) = 0`` for componentwise non-decreasing ``func``.

    The arrays ``lo``/``hi`` bracket a root in every component
    (``func(lo) <= 0 <= func(hi)`` up to a small slack, as in
    :func:`repro.utils.rootfind.bisect_root`).  Each bisection step evaluates
    ``func`` once on the full midpoint array, so the per-step cost is one
    vectorized call instead of ``m`` scalar ones.

    NaN midpoint values raise :class:`ConvergenceError` immediately: NaN
    compares false against everything, so treating it like an ordinary
    value would silently move ``hi`` down and collapse the bracket onto an
    invalid point (e.g. an M/M/1 latency probed at or beyond capacity).
    ``+inf``, by contrast, is a legitimate "above the root" signal (an
    overflowing polynomial evaluated at a huge trial load) and keeps its
    ordinary comparison semantics.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    if lo.shape != hi.shape:
        raise ModelError("vectorized_bisect needs matching bracket shapes")
    if lo.size == 0:
        return lo
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        vals = np.asarray(func(mid))
        if np.any(np.isnan(vals)):
            raise ConvergenceError(
                "vectorized_bisect: func(mid) produced NaN; the bracket "
                "would silently collapse onto an invalid domain point")
        below = vals < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= tol * scale):
            break
    return 0.5 * (lo + hi)


def expand_upper_brackets(func: Callable[[np.ndarray], np.ndarray],
                          lo: np.ndarray, *, initial: float = 1.0,
                          factor: float = 2.0,
                          max_expansions: int = 200) -> np.ndarray:
    """Per-component ``hi > lo`` with ``func(hi) >= 0`` by geometric expansion.

    The vectorized analogue of :func:`repro.utils.rootfind.expand_upper_bracket`:
    components that already satisfy ``func(hi) >= 0`` are frozen while the
    rest keep doubling.  Frozen components are *not* re-evaluated — each
    iteration probes them at their known-good ``lo`` instead of their frozen
    ``hi``, so a component already bracketed near its domain boundary (an
    M/M/1 row frozen at its capacity) costs no wasted work and can never
    raise a spurious domain error on behalf of the rows still expanding.
    Raises :class:`ConvergenceError` when some component fails to bracket
    after ``max_expansions`` doublings.
    """
    lo = np.asarray(lo, dtype=float)
    hi = lo + initial
    if lo.size == 0:
        return hi
    pending = np.ones(lo.shape, dtype=bool)
    for _ in range(max_expansions):
        probe = np.where(pending, hi, lo)
        pending &= np.asarray(func(probe)) < 0.0
        if not np.any(pending):
            return hi
        hi = np.where(pending, lo + (hi - lo) * factor, hi)
    raise ConvergenceError(
        f"could not bracket every root after {max_expansions} expansions",
        iterations=max_expansions,
    )
