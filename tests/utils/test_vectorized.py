"""Tests for the vectorized numeric kernels (`repro.utils.vectorized`).

Covers the sorted-breakpoint level engine and its segment locator, and the
two kernel bug regressions: the NaN guard in
``vectorized_bisect`` and the frozen-row probing of ``expand_upper_brackets``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.equilibrium.parallel import water_fill
from repro.exceptions import ConvergenceError, ModelError
from repro.instances import random_mixed_parallel
from repro.latency.batch import LatencyBatch, _LevelProfile
from repro.utils import vectorized
from repro.utils.vectorized import (
    expand_upper_brackets,
    piecewise_linear_level,
    sorted_breakpoint_level,
    vectorized_bisect,
)


# --------------------------------------------------------------------------- #
# The generic sorted-breakpoint level engine
# --------------------------------------------------------------------------- #
def _affine_flow(weights, breaks):
    """Vectorized total filled flow of affine links at each level."""
    def flow(levels):
        levels = np.asarray(levels, dtype=float)
        return (np.maximum(levels[:, None] - breaks, 0.0) * weights).sum(axis=1)
    return flow


def _affine_dflow(weights, breaks):
    def dflow(levels):
        levels = np.asarray(levels, dtype=float)
        return ((levels[:, None] > breaks) * weights).sum(axis=1)
    return dflow


def _links(size):
    """``size`` affine links with duplicate breakpoints on purpose."""
    if size == 4:
        return np.array([1.0, 0.5, 2.0, 0.25]), np.array([0.0, 1.0, 1.0, 3.0])
    rng = np.random.default_rng(size)
    weights = rng.uniform(0.2, 3.0, size=size)
    breaks = 3.0 * rng.integers(0, size, size=size) / size
    assert np.unique(breaks).size < size
    return weights, breaks


def _demands(weights, breaks):
    """Demands from the first segment to far above the top breakpoint."""
    top = float(_affine_flow(weights, breaks)(np.array([breaks.max()]))[0])
    return np.array([0.5, 2.5, 42.0, 0.37 * top, 0.81 * top, 3.0 * top])


# 300 and 5000 unique-ish breakpoints need several locator rounds.
SIZES = pytest.mark.parametrize("size", [4, 300, 5000])


class TestSortedBreakpointLevel:
    weights, breaks = _links(4)

    @SIZES
    def test_matches_exact_affine_solution(self, size):
        weights, breaks = _links(size)
        flow = _affine_flow(weights, breaks)
        for demand in _demands(weights, breaks):
            level = sorted_breakpoint_level(breaks, demand, flow)
            assert level == pytest.approx(
                piecewise_linear_level(weights, breaks, demand), rel=1e-10)

    @SIZES
    def test_newton_hook_matches_bisection_only(self, size):
        weights, breaks = _links(size)
        flow = _affine_flow(weights, breaks)
        dflow = _affine_dflow(weights, breaks)
        for demand in _demands(weights, breaks):
            plain = sorted_breakpoint_level(breaks, demand, flow)
            fused = sorted_breakpoint_level(
                breaks, demand, flow,
                flow_dflow=lambda x: (float(flow(np.array([x]))[0]),
                                      float(dflow(np.array([x]))[0])))
            assert fused == pytest.approx(plain, rel=1e-10)

    @SIZES
    def test_extra_term_joins_the_solve(self, size):
        # Split the last link out of the closed form into the scalar hook.
        weights, breaks = _links(size)
        flow = _affine_flow(weights[:-1], breaks[:-1])

        def extra(level):
            return weights[-1] * max(level - breaks[-1], 0.0)

        for demand in _demands(weights, breaks):
            level = sorted_breakpoint_level(breaks, demand, flow,
                                            extra=extra)
            assert level == pytest.approx(
                piecewise_linear_level(weights, breaks, demand), rel=1e-10)

    def test_demand_above_top_breakpoint_expands(self):
        flow = _affine_flow(self.weights, self.breaks)
        level = sorted_breakpoint_level(self.breaks, 1e4, flow)
        assert level == pytest.approx(
            piecewise_linear_level(self.weights, self.breaks, 1e4), rel=1e-10)

    def test_zero_filled_demand_returns_smallest_breakpoint(self):
        flow = _affine_flow(self.weights, self.breaks)
        assert sorted_breakpoint_level(self.breaks, 0.0, flow) == \
            pytest.approx(float(self.breaks.min()))

    def test_saturating_flow_raises(self):
        # Total filled flow caps at 1.0: demand 2.0 can never be bracketed.
        def flow(levels):
            levels = np.asarray(levels, dtype=float)
            return 1.0 - np.exp(-np.maximum(levels, 0.0))

        with pytest.raises(ConvergenceError):
            sorted_breakpoint_level(np.array([0.0]), 2.0, flow,
                                    max_expansions=40)

    def test_nan_flow_raises(self):
        # The active segment is [0, 2] but the flow turns NaN above 1.0, so
        # the Newton/bisection loop must trip the finiteness guard rather
        # than silently half-stepping on a poisoned bracket.
        def flow(levels):
            levels = np.asarray(levels, dtype=float)
            with np.errstate(invalid="ignore"):
                return np.where(levels > 1.0, np.nan, levels)

        with pytest.raises(ConvergenceError):
            sorted_breakpoint_level(np.array([0.0, 2.0]), 1.5, flow)

    def test_rejects_negative_demand_and_bad_breakpoints(self):
        flow = _affine_flow(self.weights, self.breaks)
        with pytest.raises(ModelError):
            sorted_breakpoint_level(self.breaks, -1.0, flow)
        with pytest.raises(ModelError):
            sorted_breakpoint_level(np.array([0.0, np.inf]), 1.0, flow)
        with pytest.raises(ModelError):
            sorted_breakpoint_level(np.array([]), 1.0, flow)


# --------------------------------------------------------------------------- #
# The segment locator
# --------------------------------------------------------------------------- #
class TestSegmentLocator:
    def test_matches_the_dense_grid_oracle(self, monkeypatch):
        # The locator must land on the segment a searchsorted over the full
        # grid of every link at every breakpoint finds, with the same flows.
        instance = random_mixed_parallel(400, demand=80.0, seed=5)
        profile = LatencyBatch(instance.latencies).level_profile("optimum")
        levels, grid = profile.grid()
        demands = np.concatenate([[0.0], np.linspace(0.5, 2.0 * grid[-1], 37)])
        located = []
        locate = vectorized._locate_segment

        def recording(*args):
            located.append(locate(*args))
            return located[-1]

        monkeypatch.setattr(vectorized, "_locate_segment", recording)
        for demand in demands:
            try:
                sorted_breakpoint_level(profile.breakpoints, float(demand),
                                        profile.flow_grid)
            except ConvergenceError:
                pass  # above the M/M/1 capacities; the locator has run
        k, f_lo, f_hi = (np.array(column) for column in zip(*located))
        expected = np.maximum(
            np.searchsorted(grid, demands, side="right") - 1, 0)
        np.testing.assert_array_equal(k, expected)
        np.testing.assert_array_equal(f_lo, grid[k])
        inner = k + 1 < levels.size
        np.testing.assert_array_equal(f_hi[inner], grid[k[inner] + 1])
        assert np.all(np.isnan(f_hi[~inner]))

    def test_budget_below_row_count_still_terminates(self, monkeypatch):
        # A budget smaller than the breakpoint count leaves no room for more
        # than one probe; the locator must still probe one interior
        # breakpoint per round and so finish in ~log2(m) rounds.
        monkeypatch.setattr(vectorized, "_LOCATE_ELEMENTS", 1)
        weights, breaks = _links(300)
        flow = _affine_flow(weights, breaks)
        calls = []

        def counted(levels):
            calls.append(len(levels))
            return flow(levels)

        for demand in _demands(weights, breaks):
            calls.clear()
            level = sorted_breakpoint_level(breaks, float(demand), counted)
            assert level == pytest.approx(
                piecewise_linear_level(weights, breaks, float(demand)),
                rel=1e-10)
            # ~log2(unique breakpoints) locator rounds, the top expansion
            # and the bisection-only finish, one level per call.
            assert max(calls) == 1
            assert len(calls) < 120

    def test_cold_water_fill_evaluates_o_m_log_m_elements(self, monkeypatch):
        # The dense grid evaluates every increasing link at every unique
        # breakpoint (~9e6 level x row elements at m=4000); the locator
        # probes O(log m) levels.
        m = 4000
        instance = random_mixed_parallel(m, demand=800.0, seed=0)
        original = _LevelProfile.flow_grid
        elements = []

        def counting(self, levels):
            elements.append(np.size(levels) * self._rows)
            return original(self, levels)

        monkeypatch.setattr(_LevelProfile, "flow_grid", counting)
        flows, _ = water_fill(instance.latencies, instance.demand, "nash")
        assert flows.sum() == pytest.approx(instance.demand)
        assert elements
        assert sum(elements) <= 64 * m


# --------------------------------------------------------------------------- #
# Regression: NaN from func(mid) must raise, not collapse the bracket
# --------------------------------------------------------------------------- #
class TestVectorizedBisectNaNGuard:
    def test_nan_raises_convergence_error(self):
        # An M/M/1-style gap evaluated beyond its pole returns NaN.  Under
        # the old code ``NaN < 0`` is False, so ``hi := mid`` silently walked
        # the bracket onto the invalid region and "converged" to garbage.
        def gap(x):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(x >= 1.0, np.nan, 1.0 / (1.0 - x) - 10.0)

        with pytest.raises(ConvergenceError):
            vectorized_bisect(gap, np.array([0.0]), np.array([2.0]))

    def test_infinite_values_still_bisect(self):
        # +inf is a legitimate "above the root" signal and must keep working.
        def gap(x):
            with np.errstate(over="ignore"):
                return np.exp(x) - np.e

        root = vectorized_bisect(gap, np.array([0.0]), np.array([800.0]))
        assert root[0] == pytest.approx(1.0, abs=1e-9)

    def test_plain_roots_unaffected(self):
        roots = vectorized_bisect(lambda x: x - np.array([1.0, 2.0, 3.0]),
                                  np.zeros(3), np.full(3, 10.0))
        np.testing.assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-9)


# --------------------------------------------------------------------------- #
# Regression: frozen rows must not be re-evaluated at their frozen hi
# --------------------------------------------------------------------------- #
class TestExpandUpperBracketsFrozenRows:
    def test_frozen_row_is_not_probed_again(self):
        # Row 0 brackets immediately at hi = capacity (an M/M/1 row frozen
        # exactly at its domain boundary); row 1 needs several doublings.
        # The old code kept evaluating func(hi) on row 0 every iteration —
        # wasted work and a spurious domain probe at the boundary.  The fix
        # probes frozen rows at their known-good ``lo`` instead.
        capacity = 1.0
        probes_at_boundary = []

        def gap(x):
            probes_at_boundary.append(float(x[0]))
            out = np.array(x - 40.0, dtype=float)
            if np.isclose(x[0], capacity):
                out[0] = 0.0  # row 0 brackets exactly at its boundary
            return out

        hi = expand_upper_brackets(gap, np.array([0.0, 0.0]), initial=capacity)
        assert hi[0] == pytest.approx(capacity)
        assert hi[1] >= 40.0
        # Row 0 was probed at its boundary exactly once (the freezing
        # evaluation); every later iteration probed it at lo = 0.
        assert probes_at_boundary.count(capacity) == 1
        assert all(p == 0.0 for p in probes_at_boundary[1:])

    def test_mm1_row_frozen_at_capacity_raises_nothing(self):
        # End-to-end shape of the bug: one row's upper bracket sits at an
        # M/M/1 capacity where the latency cannot be evaluated, the other
        # row still needs expansion.  Old code re-evaluated the frozen row
        # at its boundary and blew up with a domain error.
        capacity = 2.0

        def gap(x):
            out = np.empty_like(x)
            # Row 0: an M/M/1 latency gap, +inf (bracketed) at capacity,
            # invalid beyond it.
            if x[0] > capacity:
                raise FloatingPointError("M/M/1 probed beyond capacity")
            with np.errstate(divide="ignore"):
                out[0] = np.inf if x[0] == capacity \
                    else 1.0 / (capacity - x[0]) - 100.0
            out[1] = x[1] - 33.0
            return out

        hi = expand_upper_brackets(gap, np.zeros(2), initial=capacity)
        assert hi[0] == pytest.approx(capacity)
        assert hi[1] >= 33.0

    def test_all_rows_expand_normally(self):
        hi = expand_upper_brackets(lambda x: x - np.array([3.0, 17.0]),
                                   np.zeros(2))
        assert hi[0] >= 3.0 and hi[1] >= 17.0

    def test_unbracketable_rows_raise(self):
        with pytest.raises(ConvergenceError):
            expand_upper_brackets(lambda x: np.full_like(x, -1.0),
                                  np.zeros(2), max_expansions=8)
