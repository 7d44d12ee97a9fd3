"""Artifact store and study runner: resume semantics, counters, export."""

from __future__ import annotations

import pytest

from repro.api import (
    SolveConfig,
    cache_stats,
    clear_cache,
    register_strategy,
    solve,
)
from repro.api.registry import REGISTRY
from repro.exceptions import ModelError
from repro.instances import pigou
from repro.serialization import instance_digest, instance_to_dict
from repro.study import (
    ArtifactStore,
    GeneratorAxis,
    StudySpec,
    artifact_key,
    get_named_study,
    run_study,
    solve_cell,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def small_spec(num_seeds: int = 4) -> StudySpec:
    return StudySpec(
        "small",
        [GeneratorAxis("random_linear_parallel",
                       {"num_links": 4, "demand": 2.0},
                       seeds=range(num_seeds))],
        strategies=("optop",))


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = solve(pigou(), "optop")
        key = artifact_key("digest", "optop", SolveConfig())
        store.put(key, report)
        assert key in store
        loaded = store.get(key)
        assert loaded == report
        assert store.stats() == {"hits": 1, "misses": 0, "writes": 1,
                                 "skipped_writes": 0, "corrupt": 0}

    def test_miss_counts_and_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("ab" * 32) is None
        assert store.stats()["misses"] == 1

    def test_corrupt_artifact_is_quarantined_as_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = artifact_key("digest", "optop", SolveConfig())
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert store.get(key) is None
        stats = store.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1
        # The damaged file was renamed aside, so the key is now absent and
        # the next put lands a fresh artifact.
        assert not path.exists()
        quarantined = list(store.quarantined())
        assert len(quarantined) == 1
        assert quarantined[0].name == f"{path.name}.corrupt.0"

    def test_truncated_artifact_is_a_miss(self, tmp_path):
        # Regression: a torn write (zero-byte or half-written JSON) used to
        # raise JSONDecodeError out of the cache read path.
        store = ArtifactStore(tmp_path)
        report = solve(pigou(), "optop")
        key = artifact_key("digest", "optop", SolveConfig())
        path = store.put(key, report)
        full = path.read_text(encoding="utf-8")
        path.write_text(full[:len(full) // 2], encoding="utf-8")
        assert store.get(key) is None
        assert store.stats()["corrupt"] == 1
        path.write_text("", encoding="utf-8")  # zero-byte variant
        assert store.get(key) is None
        assert store.stats()["corrupt"] == 2
        assert len(list(store.quarantined())) == 2

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = solve(pigou(), "optop")
        key = artifact_key("digest", "optop", SolveConfig())
        path = store.put(key, report)
        import json as _json
        payload = _json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"sha256", "report"}
        payload["report"]["beta"] = 123.456  # silent bit rot
        path.write_text(_json.dumps(payload), encoding="utf-8")
        assert store.get(key) is None
        assert store.stats()["corrupt"] == 1

    def test_bare_report_without_envelope_is_quarantined(self, tmp_path):
        # A bare SolveReport carries no checksum, so bit rot in it could
        # not be detected: it is treated as damaged, not served.
        import json as _json
        store = ArtifactStore(tmp_path)
        report = solve(pigou(), "optop")
        key = artifact_key("digest", "optop", SolveConfig())
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(_json.dumps(report.to_dict()), encoding="utf-8")
        assert store.get(key) is None
        assert store.stats()["corrupt"] == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt.0").exists()

    def test_artifact_of_the_previous_format_is_unreachable(self, tmp_path):
        # Before the format version, reports embedded their instance and
        # the address hashed only {instance, strategy, config}.  Such a
        # file is never read, so it is neither served nor quarantined.
        import hashlib
        import json as _json
        store = ArtifactStore(tmp_path)
        instance, config = pigou(), SolveConfig()
        digest = instance_digest(instance)
        report = solve(instance, "optop", config=config).to_dict()
        report["instance"] = instance_to_dict(instance)
        report_json = _json.dumps(report, sort_keys=True,
                                  separators=(",", ":"))
        old_key = hashlib.sha256(_json.dumps(
            {"instance": digest, "strategy": "optop",
             "config": _json.loads(config.to_json())},
            sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()
        old_path = store.path_for(old_key)
        old_path.parent.mkdir(parents=True)
        old_path.write_text(_json.dumps(
            {"sha256": hashlib.sha256(report_json.encode("utf-8")).hexdigest(),
             "report": report}), encoding="utf-8")
        assert store.get(artifact_key(digest, "optop", config)) is None
        assert store.stats()["corrupt"] == 0
        assert store.stats()["misses"] == 1
        assert old_path.exists()

    def test_keys_and_delete(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = solve(pigou(), "optop")
        keys = [artifact_key(f"digest{i}", "optop", SolveConfig())
                for i in range(3)]
        for key in keys:
            store.put(key, report)
        assert len(store) == 3
        assert set(store.keys()) == set(keys)
        assert store.delete(keys[0]) is True
        assert store.delete(keys[0]) is False
        assert len(store) == 2

    def test_key_depends_on_every_component(self):
        base = artifact_key("d", "optop", SolveConfig())
        assert artifact_key("e", "optop", SolveConfig()) != base
        assert artifact_key("d", "mop", SolveConfig()) != base
        assert artifact_key("d", "optop", SolveConfig(alpha=0.5)) != base


class TestRunStudy:
    def test_cold_run_solves_every_cell(self, tmp_path):
        store = ArtifactStore(tmp_path)
        study = run_study(small_spec(), store=store)
        assert len(study) == 4
        assert study.store_hits == 0
        assert study.solver_calls == 4
        assert not study.fully_resumed
        assert all(r.source == "solver" for r in study)

    def test_resume_is_zero_solver_calls(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = run_study(small_spec(), store=store)
        clear_cache()  # only the artifacts may serve the second run
        warm = run_study(small_spec(), store=store)
        assert warm.fully_resumed
        assert warm.store_hits == 4
        assert cache_stats() == {"hits": 0, "misses": 0}
        assert [r.report.beta for r in warm] == [r.report.beta for r in cold]
        assert all(r.source == "store" for r in warm)

    def test_deleting_one_artifact_resolves_exactly_one_cell(self, tmp_path):
        calls = []

        @register_strategy("counting_study_stub")
        def counting_stub(instance, config):
            calls.append(1)
            return solve(instance, "aloof",
                         config=SolveConfig(cache=False, compute_nash=False))

        try:
            spec = StudySpec(
                "count",
                [GeneratorAxis("random_linear_parallel",
                               {"num_links": 3, "demand": 1.0},
                               seeds=range(4))],
                strategies=("counting_study_stub",),
                configs=(SolveConfig(compute_nash=False),))
            store = ArtifactStore(tmp_path)
            study = run_study(spec, store=store)
            assert len(calls) == 4

            store.delete(study.results[1].artifact_key)
            clear_cache()
            again = run_study(spec, store=store)
            assert len(calls) == 5, "exactly one solver call after deletion"
            assert again.store_hits == 3
            assert again.solver_calls == 1
        finally:
            REGISTRY.unregister("counting_study_stub")

    def test_runs_without_a_store(self):
        study = run_study(small_spec(2))
        assert len(study) == 2
        assert study.store_hits == 0 and study.store_misses == 0

    def test_in_batch_duplicates_served_by_session_cache(self):
        # Two axes producing the same instance: one solver call, one hit.
        spec = StudySpec("dups", [GeneratorAxis("pigou"),
                                  GeneratorAxis("pigou")],
                         strategies=("optop",))
        study = run_study(spec)
        assert study.solver_calls == 1
        assert study.cache_hits == 1

    def test_duplicate_cells_against_one_store_counters(self, tmp_path):
        # Three pigou cells and two equal random cells, each under two
        # strategies and a cached and a cache-free config: 20 cells over 4
        # distinct cached (instance, strategy) pairs.  The store is probed
        # for every cached cell before any is solved, so the first run
        # misses all 10; duplicates are cache hits; cache-free cells are
        # solved every time.
        spec = StudySpec(
            "dup-cells",
            [GeneratorAxis("pigou", seeds=(0, 1)), GeneratorAxis("pigou"),
             GeneratorAxis("random_linear_parallel",
                           {"num_links": 3, "demand": 1.0}, seeds=(4, 4))],
            strategies=("optop", "aloof"),
            configs=(SolveConfig(compute_nash=False),
                     SolveConfig(cache=False, compute_nash=False)))
        store = ArtifactStore(tmp_path)

        def counters(study):
            return (len(study), study.cache_hits, study.cache_misses,
                    study.store_hits, study.store_misses,
                    study.solver_calls)

        assert counters(run_study(spec, store=store)) == (20, 6, 4, 0, 10, 14)
        assert len(store) == 4
        assert counters(run_study(spec, store=store)) == (20, 0, 0, 10, 0, 10)

    def test_reregistered_strategy_bypasses_the_store(self, tmp_path):
        # Artifacts are addressed by strategy *name*; a re-registered
        # implementation must not resume the old implementation's results.
        @register_strategy("regen_stub")
        def v1(instance, config):
            return solve(instance, "aloof",
                         config=SolveConfig(cache=False, compute_nash=False))

        spec = StudySpec("regen", [GeneratorAxis("pigou")],
                         strategies=("regen_stub",))
        store = ArtifactStore(tmp_path)
        try:
            first = run_study(spec, store=store)
            assert first.results[0].report.strategy == "aloof"
            assert len(store) == 1
        finally:
            REGISTRY.unregister("regen_stub")

        @register_strategy("regen_stub")
        def v2(instance, config):
            return solve(instance, "optop",
                         config=SolveConfig(cache=False, compute_nash=False))

        try:
            clear_cache()
            second = run_study(spec, store=store)
            assert second.results[0].report.strategy == "optop", \
                "stale artifact served for a re-registered strategy"
            assert second.store_hits == 0
        finally:
            REGISTRY.unregister("regen_stub")

    def test_cache_free_cells_bypass_the_store(self, tmp_path):
        # cache=False means "never reuse results" — timing cells must not
        # be served from (or written to) the artifact store either.
        spec = StudySpec(
            "timing-store",
            [GeneratorAxis("random_linear_parallel",
                           {"num_links": 3, "demand": 1.0}, seeds=(0,))],
            strategies=("optop",),
            configs=(SolveConfig(cache=False, compute_nash=False),))
        store = ArtifactStore(tmp_path)
        first = run_study(spec, store=store)
        assert len(store) == 0
        second = run_study(spec, store=store)
        assert second.solver_calls == 1
        assert not second.fully_resumed

    def test_cache_free_cells_count_as_solver_calls(self):
        # A cache-disabled config never touches the session counters; the
        # study must still report its executions truthfully.
        spec = StudySpec(
            "timing",
            [GeneratorAxis("random_linear_parallel",
                           {"num_links": 3, "demand": 1.0}, seeds=range(3))],
            strategies=("optop",),
            configs=(SolveConfig(cache=False, compute_nash=False),))
        study = run_study(spec)
        assert study.solver_calls == 3
        assert not study.fully_resumed
        assert study.to_dict()["counters"]["uncached_calls"] == 3

    def test_unknown_strategy_fails_before_solving(self):
        spec = StudySpec("bad", [GeneratorAxis("pigou")],
                         strategies=("bogus",))
        with pytest.raises(Exception, match="unknown strategy"):
            run_study(spec)


class TestSolveCell:
    def test_dependent_cell_resumes_through_the_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = SolveConfig(compute_nash=False)
        first = solve_cell(pigou(), "optop", config, store=store)
        before = cache_stats()
        clear_cache()
        second = solve_cell(pigou(), "optop", config, store=store)
        assert second == first
        assert cache_stats()["misses"] == 0
        assert store.stats()["hits"] >= 1


class TestStudyReport:
    def test_select_and_one(self, tmp_path):
        study = run_study(small_spec())
        assert len(study.select(strategy="optop")) == 4
        assert study.one(seed=2).cell.seed == 2
        with pytest.raises(LookupError):
            study.one(strategy="optop")

    def test_table_csv_json_export(self, tmp_path):
        study = run_study(small_spec(2))
        table = study.to_table()
        assert "Study 'small'" in table
        csv_path = tmp_path / "cells.csv"
        text = study.to_csv(csv_path)
        assert csv_path.read_text(encoding="utf-8") == text
        assert text.splitlines()[0].startswith("index,generator")
        assert len(text.splitlines()) == 3
        payload = study.to_json(tmp_path / "study.json")
        assert (tmp_path / "study.json").exists()
        assert '"solver_calls"' in payload


class TestNamedStudies:
    def test_smoke_study_runs_and_resumes(self, tmp_path):
        spec = get_named_study("smoke", num_instances=3)
        store = ArtifactStore(tmp_path)
        cold = run_study(spec, store=store)
        assert len(cold) == 3
        clear_cache()
        warm = run_study(spec, store=store)
        assert warm.fully_resumed

    def test_unknown_named_study_rejected(self):
        with pytest.raises(ModelError, match="named studies"):
            get_named_study("nope")
