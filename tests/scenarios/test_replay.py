"""Trace replay through the serving layer: caching, resume, accounting."""

from __future__ import annotations

import pytest

from repro import instances
from repro.api import SolveConfig, clear_cache
from repro.exceptions import ModelError
from repro.scenarios import DemandTrace, TraceReport, replay_trace
from repro.serve import SolveService
from repro.study import ArtifactStore


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestReplay:
    def test_per_step_reports_align_with_the_trace(self):
        trace = DemandTrace.from_process("piecewise",
                                         {"levels": [0.5, 1.0, 2.0]})
        report = replay_trace(instances.pigou(), trace)
        assert len(report) == 3
        assert [step.demand for step in report.steps] == [0.5, 1.0, 2.0]
        assert [step.index for step in report.steps] == [0, 1, 2]
        for step, solve_report in zip(report.steps, report.reports):
            assert step.beta == solve_report.beta
            assert step.induced_cost == solve_report.induced_cost

    def test_repeated_levels_are_collapsed(self):
        trace = DemandTrace.from_process("constant",
                                         {"level": 1.5, "num_steps": 20})
        report = replay_trace(instances.figure_4_example(), trace)
        stats = report.stats
        # One solve; the 19 repeats coalesce or hit tier 1.
        assert stats.enqueued <= 1
        assert stats.coalesced + stats.tier1_hits >= 19
        assert report.num_distinct_levels == 1

    def test_second_replay_against_a_store_is_fully_resumed(self, tmp_path):
        trace = DemandTrace.from_process(
            "diurnal", {"num_steps": 50, "base": 2.0, "amplitude": 1.0})
        inst = instances.figure_4_example()
        store_dir = tmp_path / "store"
        cold = replay_trace(inst, trace, store=ArtifactStore(store_dir))
        assert not cold.fully_resumed
        assert cold.solver_calls == cold.num_distinct_levels

        clear_cache()
        warm = replay_trace(inst, trace, store=ArtifactStore(store_dir))
        assert warm.fully_resumed
        assert warm.solver_calls == 0
        assert warm.stats.tier2_hits + warm.stats.tier1_hits == len(trace)
        for a, b in zip(cold.steps, warm.steps):
            assert b.induced_cost == pytest.approx(a.induced_cost, abs=1e-12)
            assert b.beta == pytest.approx(a.beta, abs=1e-12)

    def test_long_traces_do_not_hit_service_backpressure(self):
        # The private replay service must be unbounded: a trace longer than
        # SolveService's default max_queue (10,000) submits every step up
        # front and would otherwise die with ServiceOverloadedError.
        trace = DemandTrace.from_process("constant",
                                         {"level": 1.0, "num_steps": 10_050})
        report = replay_trace(instances.pigou(), trace,
                              config=SolveConfig(compute_nash=False))
        assert len(report) == 10_050
        assert report.stats.rejected == 0
        assert report.solver_calls <= 1

    def test_shared_service_is_left_running(self):
        trace = DemandTrace.from_process("constant",
                                         {"level": 1.0, "num_steps": 3})
        with SolveService() as service:
            report = replay_trace(instances.pigou(), trace, service=service)
            assert service.running
            assert len(report) == 3

    def test_trace_type_is_validated(self):
        with pytest.raises(ModelError, match="DemandTrace"):
            replay_trace(instances.pigou(), [1.0, 2.0])

    def test_config_is_forwarded(self):
        trace = DemandTrace.from_process("constant",
                                         {"level": 1.0, "num_steps": 2})
        report = replay_trace(instances.pigou(), trace,
                              config=SolveConfig(compute_nash=False))
        assert all(not r.config.compute_nash for r in report.reports)

    def test_report_serialises(self):
        trace = DemandTrace.from_process("piecewise", {"levels": [1.0, 2.0]})
        report = replay_trace(instances.pigou(), trace)
        payload = report.to_dict()
        assert payload["strategy"] == "auto"
        assert payload["solver_calls"] == report.solver_calls
        assert len(payload["steps"]) == 2
        assert report.to_json()  # JSON-serialisable end to end
        assert "replayed 2 steps" in report.summary()
        assert "Trace replay" in report.to_table()
        assert isinstance(report, TraceReport)
