"""Tests for the command-line interface."""

from __future__ import annotations

import json
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.api import clear_cache
from repro.api import session
from repro.cli import NAMED_INSTANCES, build_parser, main
from repro.instances import pigou
from repro.serialization import save_instance


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_named_instances_registered(self):
        assert {"pigou", "figure4", "braess", "roughgarden"} <= set(NAMED_INSTANCES)


class TestAnalyzeCommand:
    def test_analyze_pigou(self, capsys):
        assert main(["analyze", "--instance", "pigou"]) == 0
        out = capsys.readouterr().out
        assert "price of optimum beta = 0.5" in out
        assert "price of anarchy = 1.333333" in out

    def test_analyze_network_instance(self, capsys):
        assert main(["analyze", "--instance", "roughgarden"]) == 0
        out = capsys.readouterr().out
        assert "price of optimum beta = 0.5" in out

    def test_analyze_from_file(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        save_instance(pigou(), path)
        assert main(["analyze", "--file", str(path)]) == 0
        assert "beta" in capsys.readouterr().out

    def test_analyze_missing_file(self, capsys):
        assert main(["analyze", "--file", "/nonexistent/instance.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_instance_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "parallel", "demand": "x",
                                    "links": [{"type": "constant",
                                               "value": 1.0}]}))
        assert main(["solve", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'demand'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--instance", "pigou"],
        ["--instance", "roughgarden"],
        ["--instance", "braess", "--strategy", "scale", "--alpha", "0.5",
         "--json"],
    ])
    def test_analyze_is_an_alias_of_solve(self, argv, capsys):
        # Each run starts from an empty cache with a frozen clock, so the
        # JSON report's cache stamp and wall time match too.
        outputs = []
        with mock.patch.object(session, "time",
                               SimpleNamespace(perf_counter=lambda: 0.0)):
            for command in ("analyze", "solve"):
                clear_cache()
                assert main([command, *argv]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0]


class TestSweepCommand:
    def test_sweep_pigou(self, capsys):
        assert main(["sweep", "--instance", "pigou", "--alphas", "0.25", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "LLF ratio" in out
        assert "0.25" in out

    def test_sweep_rejects_network_instance(self, capsys):
        assert main(["sweep", "--instance", "braess"]) == 2
        assert "parallel-link" in capsys.readouterr().err


class TestExperimentsCommand:
    def test_run_selected_experiments(self, capsys):
        assert main(["experiments", "--only", "E1", "E2"]) == 0
        out = capsys.readouterr().out
        assert "[E1]" in out and "[E2]" in out

    def test_invalid_experiment_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "--only", "E99"])


class TestStudyCommand:
    def test_list_shows_experiments_and_named_studies(self, capsys):
        assert main(["study", "list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E14" in out and "A3" in out
        assert "smoke" in out

    def test_list_generators(self, capsys):
        assert main(["study", "list", "--generators"]) == 0
        out = capsys.readouterr().out
        assert "random_linear_parallel" in out
        assert "literal" in out

    def test_run_experiment_by_id(self, capsys):
        assert main(["study", "run", "E1"]) == 0
        out = capsys.readouterr().out
        assert "[E1]" in out
        assert "solver calls" in out

    def test_run_named_study_with_store_then_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        from repro.api import clear_cache

        clear_cache()
        assert main(["study", "run", "smoke", "--store", store]) == 0
        first = capsys.readouterr().out
        assert "store hits 0" in first
        clear_cache()
        assert main(["study", "resume", "smoke", "--store", store]) == 0
        second = capsys.readouterr().out
        assert "fully resumed" in second

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(["study", "resume", "smoke"])

    def test_run_unknown_name_errors(self, capsys):
        assert main(["study", "run", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_json_and_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "cells.csv"
        assert main(["study", "run", "smoke", "--json",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert '"counters"' in out
        assert csv_path.read_text(encoding="utf-8").startswith("index,")


class TestSolveCommand:
    def test_static_solve_matches_analyze(self, capsys):
        assert main(["solve", "--instance", "pigou"]) == 0
        out = capsys.readouterr().out
        assert "price of optimum beta = 0.500000" in out

    def test_elastic_solve_reports_rate_and_surplus(self, capsys):
        assert main(["solve", "--instance", "pigou", "--elastic",
                     "--intercept", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "realised rate = 1.000000" in out
        assert "consumer surplus = 0.500000" in out

    def test_elastic_json_round_trips(self, capsys):
        assert main(["solve", "--instance", "pigou", "--elastic",
                     "--json"]) == 0
        import json as _json

        from repro.scenarios import ElasticReport

        payload = _json.loads(capsys.readouterr().out)
        report = ElasticReport.from_dict(payload)
        assert report.realised_rate > 0.0

    def test_elastic_exponential_curve(self, capsys):
        assert main(["solve", "--instance", "figure4", "--elastic",
                     "--curve", "exponential", "--intercept", "4.0",
                     "--decay", "0.5"]) == 0
        assert "realised rate" in capsys.readouterr().out

    def test_closed_market_is_a_cli_error(self, tmp_path, capsys):
        # An M/M/1 farm has a positive free-flow level; an intercept below
        # it cannot open the market.
        from repro import instances, save_instance

        path = tmp_path / "mm1.json"
        save_instance(instances.mm1_server_farm(2, 2), path)
        assert main(["solve", "--file", str(path), "--elastic",
                     "--intercept", "0.01"]) == 2
        assert "no positive rate" in capsys.readouterr().err


class TestTraceCommand:
    def test_list_shows_builtin_processes(self, capsys):
        assert main(["trace", "list"]) == 0
        out = capsys.readouterr().out
        for process in ("constant", "piecewise", "diurnal", "random_walk",
                        "literal"):
            assert process in out

    def test_run_prints_per_step_table_and_summary(self, capsys):
        assert main(["trace", "run", "--instance", "figure4",
                     "--steps", "8"]) == 0
        out = capsys.readouterr().out
        assert "Trace replay" in out
        assert "replayed 8 steps" in out

    def test_run_second_replay_fully_resumes(self, tmp_path, capsys):
        from repro.api import clear_cache

        store = str(tmp_path / "store")
        clear_cache()
        assert main(["trace", "run", "--instance", "figure4",
                     "--steps", "50", "--store", store, "--quiet"]) == 0
        first = capsys.readouterr().out
        assert "replayed 50 steps" in first
        assert "fully resumed" not in first
        clear_cache()
        assert main(["trace", "run", "--instance", "figure4",
                     "--steps", "50", "--store", store, "--quiet"]) == 0
        second = capsys.readouterr().out
        assert "0 solver calls (fully resumed)" in second

    def test_run_json_reports_accounting(self, capsys):
        assert main(["trace", "run", "--instance", "pigou",
                     "--process", "piecewise", "--levels", "1.0", "2.0",
                     "--json"]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert len(payload["steps"]) == 2
        assert payload["fully_resumed"] is False

    def test_run_from_csv(self, tmp_path, capsys):
        path = tmp_path / "levels.csv"
        path.write_text("1.0\n2.0\n1.0\n", encoding="utf-8")
        assert main(["trace", "run", "--instance", "pigou",
                     "--csv", str(path), "--quiet"]) == 0
        assert "replayed 3 steps" in capsys.readouterr().out

    def test_piecewise_without_levels_is_an_error(self, capsys):
        assert main(["trace", "run", "--instance", "pigou",
                     "--process", "piecewise"]) == 2
        assert "needs --levels" in capsys.readouterr().err


class TestServeBenchTrace:
    def test_bench_with_trace_runs_and_is_consistent(self, capsys):
        assert main(["serve", "bench", "--requests", "60", "--distinct", "6",
                     "--passes", "2", "--trace", "diurnal",
                     "--trace-steps", "12", "--json"]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        warm = payload["passes"][1]["stats"]
        assert warm["enqueued"] == 0
        assert all(p["stats"]["consistent"] for p in payload["passes"])


class TestChaosListCommand:
    def test_list_shows_named_plans_with_seeds(self, capsys):
        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "slow_solver", "bad_disk"):
            assert name in out
        assert "worker_sigkill" in out
        assert "0x" in out  # seeds print in hex for easy pinning


class TestObsCommand:
    """`repro obs` against a live in-process worker endpoint."""

    @pytest.fixture()
    def obs_worker_url(self):
        import asyncio
        import threading

        from repro.cluster.worker import WorkerServer
        from repro.obs import Observability

        obs = Observability(service="worker-cli")
        # Pre-recorded spans: the CLI reads whatever the ring holds, so
        # the test stays deterministic without driving a solve.
        obs.tracer.record_complete(
            "service.batch", trace_id="t1", start=0.0, duration=0.050,
            strategy="optop", batch_size=2)
        obs.tracer.record_complete(
            "worker.solve", trace_id="t1", start=0.0, duration=0.060)

        loop = asyncio.new_event_loop()
        started = threading.Event()
        state = {}

        def run():
            asyncio.set_event_loop(loop)
            worker = WorkerServer(obs=obs)
            loop.run_until_complete(worker.start())
            state["worker"] = worker
            started.set()
            loop.run_forever()
            loop.run_until_complete(worker.stop())
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(timeout=30.0)
        try:
            yield f"http://127.0.0.1:{state['worker'].port}"
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30.0)

    def test_metrics_text_exposition(self, obs_worker_url, capsys):
        assert main(["obs", "metrics", "--url", obs_worker_url]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
        assert "repro_requests_total 0" in out

    def test_metrics_json(self, obs_worker_url, capsys):
        import json as _json

        assert main(["obs", "metrics", "--url", obs_worker_url,
                     "--json"]) == 0
        payload = _json.loads(capsys.readouterr().out)
        assert payload["repro_requests_total"]["samples"] == [
            {"labels": {}, "value": 0}]

    def test_trace_table_lists_spans(self, obs_worker_url, capsys):
        assert main(["obs", "trace", "--url", obs_worker_url]) == 0
        out = capsys.readouterr().out
        assert "service.batch" in out
        assert "worker.solve" in out
        assert "t1" in out

    def test_top_ranks_by_cumulative_time(self, obs_worker_url, capsys):
        assert main(["obs", "top", "--url", obs_worker_url]) == 0
        out = capsys.readouterr().out
        # worker.solve (60 ms) outranks the strategy-labeled batch (50 ms).
        assert out.index("worker.solve") < out.index("service.batch[optop]")

    def test_unreachable_endpoint_is_a_clean_error(self, capsys):
        assert main(["obs", "metrics", "--url",
                     "http://127.0.0.1:1/"]) == 2
        assert "cannot reach" in capsys.readouterr().err
