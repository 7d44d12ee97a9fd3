"""Tests for the design-choice ablations (plans A1-A3)."""

from __future__ import annotations

from repro.analysis.studies import run_experiment


class TestAblations:
    def test_solver_agreement(self):
        record = run_experiment("A1", seeds=(0,))
        assert record.all_claims_hold
        assert len(record.rows) == 2  # nash + optimum for one seed

    def test_free_flow_rule(self):
        record = run_experiment("A2", seeds=(0,))
        assert record.all_claims_hold
        # roughgarden + grid + layered for one seed
        assert len(record.rows) == 3

    def test_shortest_path_tolerance(self):
        record = run_experiment("A3", tolerances=(1e-6, 1e-4), seeds=(0,))
        assert record.all_claims_hold
        assert len(record.headers) == 3
