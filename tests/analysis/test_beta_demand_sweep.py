"""Tests for the beta-vs-demand sweep and the E13/E14 experiments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.analysis.studies import run_experiment
from repro.analysis.sweep import beta_demand_sweep
from repro.instances import pigou, figure_4_example


class TestBetaDemandSweep:
    def test_points_follow_requested_demands(self):
        points = beta_demand_sweep(pigou(), [0.5, 1.0, 2.0])
        assert [p.demand for p in points] == [0.5, 1.0, 2.0]

    def test_pigou_beta_at_unit_demand(self):
        points = beta_demand_sweep(pigou(), [1.0])
        assert points[0].beta == pytest.approx(0.5, abs=1e-9)
        assert points[0].price_of_anarchy == pytest.approx(4.0 / 3.0)

    def test_low_demand_pigou_has_no_anarchy(self):
        """Below the constant link's latency the fast link alone is optimal."""
        points = beta_demand_sweep(pigou(), [0.25])
        assert points[0].beta == pytest.approx(0.0, abs=1e-9)
        assert points[0].price_of_anarchy == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(ModelError):
            beta_demand_sweep(pigou(), [0.0])

    def test_beta_positive_iff_anarchy_gap(self):
        points = beta_demand_sweep(figure_4_example(), np.linspace(0.3, 2.0, 6))
        for point in points:
            gap = point.nash_cost - point.optimum_cost
            if point.beta > 1e-7:
                assert gap > 0.0
            if gap > 1e-5:
                assert point.beta > 0.0


class TestNewExperiments:
    def test_weak_strong_experiment(self):
        record = run_experiment("E13", seeds=(0, 1))
        assert record.all_claims_hold

    def test_beta_vs_demand_experiment(self):
        record = run_experiment("E14", num_points=4)
        assert record.all_claims_hold
