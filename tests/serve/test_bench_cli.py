"""The `repro serve bench` CLI front-end and the bench driver."""

from __future__ import annotations

import json

import pytest

from repro.api import clear_cache
from repro.cli import main
from repro.exceptions import ModelError
from repro.serve import build_workload, run_bench
from repro.study.store import ArtifactStore


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestWorkload:
    def test_workload_is_deterministic(self):
        a_instances, a_schedule = build_workload(num_requests=100,
                                                 num_distinct=20, seed=5)
        b_instances, b_schedule = build_workload(num_requests=100,
                                                 num_distinct=20, seed=5)
        assert a_schedule == b_schedule
        assert len(a_instances) == len(b_instances) == 20

    def test_workload_touches_every_instance(self):
        _, schedule = build_workload(num_requests=80, num_distinct=30,
                                     seed=1)
        assert set(schedule) == set(range(30))

    def test_workload_rejects_uncoverable_streams(self):
        with pytest.raises(ModelError):
            build_workload(num_requests=5, num_distinct=10)


class TestRunBench:
    def test_second_pass_is_all_hits(self, tmp_path):
        result = run_bench(num_requests=150, num_distinct=25, passes=2,
                           store=ArtifactStore(tmp_path / "store"), seed=3)
        assert len(result.passes) == 2
        warm = result.passes[1].stats
        assert warm.hits == 150
        assert warm.enqueued == 0
        assert all(p.stats.consistent for p in result.passes)
        assert result.final_stats.requests == 300

    def test_single_pass_is_cold(self):
        result = run_bench(num_requests=20, num_distinct=5, passes=1)
        assert len(result.passes) == 1
        assert result.passes[0].stats.requests == 20
        assert result.passes[0].stats.consistent
        assert result.final_stats.requests == 20

    @pytest.mark.parametrize("passes", [0, -3])
    def test_rejects_non_positive_passes(self, passes):
        with pytest.raises(ModelError, match="passes must be >= 1"):
            run_bench(num_requests=20, num_distinct=5, passes=passes)


class TestCli:
    def test_serve_bench_prints_table(self, capsys):
        code = main(["serve", "bench", "--requests", "120", "--distinct",
                     "20", "--passes", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SolveService synthetic benchmark" in out
        assert "tier-1 hits" in out
        assert "totals:" in out

    def test_serve_bench_json_roundtrips(self, capsys, tmp_path):
        code = main(["serve", "bench", "--requests", "60", "--distinct",
                     "12", "--passes", "1",
                     "--store", str(tmp_path / "store"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_stats"]["requests"] == 60
        assert payload["passes"][0]["stats"]["consistent"] is True

    def test_serve_bench_rejects_zero_passes(self, capsys):
        code = main(["serve", "bench", "--requests", "20", "--distinct",
                     "5", "--passes", "0", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "passes must be >= 1" in captured.err

    @pytest.mark.parametrize("option", ["--cluster", "--max-inflight",
                                        "--max-batch", "--max-wait-ms",
                                        "--workers"])
    def test_serve_bench_has_no_cluster_mode(self, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "bench", "--requests", "20", "--distinct", "5",
                  option, "2"])
        assert excinfo.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--max-batch", "--max-wait-ms"])
    def test_serve_cluster_has_no_batch_window(self, option, capsys,
                                               monkeypatch):
        import repro.cluster

        def refuse(*args, **kwargs):
            raise AssertionError("a cluster was started")

        monkeypatch.setattr(repro.cluster, "start_cluster", refuse)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "cluster", option, "2"])
        assert excinfo.value.code == 2
        assert option in capsys.readouterr().err
