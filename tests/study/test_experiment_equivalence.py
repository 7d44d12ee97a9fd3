"""Equivalence of the migrated experiments with the legacy computations.

The legacy ``experiment_*`` bodies built instances ad hoc and called the
solvers directly; the study-backed plans must reproduce the same numbers.
These tests re-derive reference values the legacy way (direct ``solve`` /
``solve_many`` calls, direct internal functions) and compare them against
the records produced through the study pipeline, to 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.studies import (
    build_experiment,
    experiment_ids,
    run_experiment,
)
from repro.api import SolveConfig, cache_stats, clear_cache, solve, solve_many
from repro.instances import (
    figure_4_example,
    grid_network,
    pigou,
    random_linear_parallel,
)
from repro.study import ArtifactStore


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRegistryShape:
    def test_all_experiments_defined(self):
        assert experiment_ids() == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "E11", "E12", "E13", "E14", "E15", "E16", "A1", "A2", "A3"]

    def test_plans_carry_specs(self):
        plan = build_experiment("E1")
        assert plan.spec.num_cells == 1
        assert plan.experiment_id == "E1"


class TestAnalyticEquivalence:
    def test_e1_matches_the_paper_exactly(self):
        record = run_experiment("E1")
        assert record.all_claims_hold
        nash_row = record.rows[0]
        assert nash_row[1] == pytest.approx(1.0, abs=1e-9)
        assert nash_row[3] == pytest.approx(1.0, abs=1e-9)
        optimum_row = record.rows[1]
        assert optimum_row[1] == pytest.approx(0.5, abs=1e-9)
        assert optimum_row[3] == pytest.approx(0.75, abs=1e-9)

    def test_e2_beta_is_29_over_120(self):
        record = run_experiment("E2")
        assert record.all_claims_hold

    def test_e14_matches_direct_solves(self):
        record = run_experiment("E14", num_points=3)
        assert record.all_claims_hold
        demands = [float(d) for d in np.linspace(0.25, 2.5, 3)]
        clear_cache()
        for row, demand in zip(record.rows[:3], demands):
            direct = solve(pigou(demand), "optop")
            assert row[0] == "pigou"
            assert row[1] == pytest.approx(demand, abs=1e-12)
            assert row[2] == pytest.approx(direct.beta, abs=1e-9)
            assert row[3] == pytest.approx(direct.price_of_anarchy, abs=1e-9)
        clear_cache()
        for row, demand in zip(record.rows[3:], demands):
            direct = solve(figure_4_example(demand), "optop")
            assert row[0] == "figure 4"
            assert row[2] == pytest.approx(direct.beta, abs=1e-9)


class TestBatchEquivalence:
    def test_e4_family_statistics_match_direct_solve_many(self):
        record = run_experiment("E4", num_instances=3, num_links=4)
        assert record.all_claims_hold
        clear_cache()
        family = [random_linear_parallel(4, demand=2.0, seed=s)
                  for s in range(3)]
        reports = solve_many(family, "optop")
        betas = np.asarray([r.beta for r in reports])
        linear_row = record.rows[0]
        assert linear_row[0] == "linear"
        assert linear_row[1] == pytest.approx(float(betas.mean()), abs=1e-9)
        assert linear_row[2] == pytest.approx(float(betas.min()), abs=1e-9)
        assert linear_row[3] == pytest.approx(float(betas.max()), abs=1e-9)

    def test_e5_matches_direct_mop_solve(self):
        record = run_experiment("E5", seeds=(0,))
        assert record.all_claims_hold
        clear_cache()
        direct = solve(grid_network(3, 3, demand=2.0, seed=0), "mop",
                       config=SolveConfig(compute_nash=False))
        grid_row = record.rows[0]
        assert grid_row[0] == "grid 3x3"
        assert grid_row[4] == pytest.approx(direct.beta, abs=1e-9)
        assert grid_row[5] == pytest.approx(direct.optimum_cost, abs=1e-9)
        assert grid_row[6] == pytest.approx(direct.induced_cost, abs=1e-9)


class TestRunExperimentEntryPoint:
    def test_repeated_runs_match(self):
        first = run_experiment("E1")
        again = run_experiment("E1")
        assert first.rows == again.rows
        assert first.claims == again.claims

    def test_forwards_keyword_arguments(self):
        record = run_experiment("E14", num_points=3)
        assert len(record.rows) == 6

    def test_ablation_accepts_an_empty_seed_list(self):
        record = run_experiment("A3", tolerances=(1e-5, 1e-4), seeds=())
        assert record.all_claims_hold


class TestExperimentResume:
    def test_experiment_reruns_from_the_store_without_solving(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_experiment("E14", num_points=3, store=store)
        clear_cache()
        second = run_experiment("E14", num_points=3, store=store)
        assert cache_stats()["misses"] == 0, (
            "re-running a stored experiment must perform zero solver calls")
        assert first.rows == second.rows
        assert first.claims == second.claims

    def test_dependent_cells_resume_too(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_experiment("E4", num_instances=2, num_links=3,
                               store=store)
        clear_cache()
        second = run_experiment("E4", num_instances=2, num_links=3,
                                store=store)
        assert cache_stats()["misses"] == 0, (
            "the follow-up brute-force cell must be served from the store")
        assert first.rows == second.rows
