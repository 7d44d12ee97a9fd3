"""Smoke tests of the per-figure experiments: every paper claim must hold.

These run the same declarative plans the benchmark harness runs, through
:func:`repro.analysis.studies.run_experiment`, with reduced sizes (where
parameters allow) so that the unit-test suite also certifies the
reproduction results end to end.
"""

from __future__ import annotations

from repro.analysis.studies import run_experiment


class TestCanonicalExperiments:
    def test_pigou(self):
        record = run_experiment("E1")
        assert record.all_claims_hold
        assert record.rows  # the table is not empty

    def test_figure4(self):
        record = run_experiment("E2")
        assert record.all_claims_hold
        assert len(record.rows) == 5

    def test_roughgarden(self):
        record = run_experiment("E3")
        assert record.all_claims_hold

    def test_roughgarden_perturbed(self):
        record = run_experiment("E3", epsilon=0.05)
        assert record.all_claims_hold


class TestFamilyExperiments:
    def test_optop_random_families(self):
        record = run_experiment("E4", num_instances=2, num_links=4,
                                minimality_resolution=10)
        assert record.all_claims_hold

    def test_mop_networks(self):
        record = run_experiment("E5", seeds=(0,))
        assert record.all_claims_hold

    def test_linear_optimal(self):
        record = run_experiment("E6", num_links=3, brute_resolution=12)
        assert record.all_claims_hold

    def test_bound_sweep(self):
        record = run_experiment("E7", num_links=4, alphas=(0.25, 0.5, 1.0))
        assert record.all_claims_hold

    def test_mm1_beta(self):
        record = run_experiment("E8")
        assert record.all_claims_hold

    def test_monotonicity(self):
        record = run_experiment("E9", num_links=4, num_demands=6)
        assert record.all_claims_hold

    def test_frozen_links(self):
        record = run_experiment("E10", num_links=4, trials=3)
        assert record.all_claims_hold

    def test_scaling(self):
        record = run_experiment("E11", optop_sizes=(4, 8), mop_sides=(3,))
        assert record.all_claims_hold

    def test_thresholds(self):
        record = run_experiment("E12", seeds=(1, 2))
        assert record.all_claims_hold
