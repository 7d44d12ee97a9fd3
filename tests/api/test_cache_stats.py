"""Hit/miss accounting of the session result cache."""

from __future__ import annotations

import pytest

from repro.api import SolveConfig, cache_stats, clear_cache, solve, solve_many
from repro.cache import LRUCache
from repro.exceptions import ModelError
from repro.instances import pigou, random_linear_parallel


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestSolveCounters:
    def test_first_solve_is_a_miss_then_hits(self):
        instance = pigou()
        first = solve(instance, "optop")
        assert cache_stats() == {"hits": 0, "misses": 1}
        assert first.metadata["cache"]["hit"] is False

        second = solve(instance, "optop")
        assert cache_stats() == {"hits": 1, "misses": 1}
        assert second.metadata["cache"] == {"hit": True}
        assert second.beta == pytest.approx(first.beta)

    def test_disabled_cache_counts_nothing(self):
        config = SolveConfig(cache=False)
        solve(pigou(), "optop", config=config)
        solve(pigou(), "optop", config=config)
        assert cache_stats() == {"hits": 0, "misses": 0}

    def test_clear_cache_resets_counters(self):
        solve(pigou(), "optop")
        solve(pigou(), "optop")
        assert cache_stats()["hits"] == 1
        clear_cache()
        assert cache_stats() == {"hits": 0, "misses": 0}


class TestSolveManyCounters:
    def test_repeated_batch_hits_for_every_instance(self):
        batch = [random_linear_parallel(5, demand=2.0, seed=s)
                 for s in range(6)]
        first = solve_many(batch, "optop")
        assert cache_stats() == {"hits": 0, "misses": len(batch)}
        assert all(r.metadata["cache"]["hit"] is False for r in first)

        second = solve_many(batch, "optop")
        stats = cache_stats()
        assert stats["hits"] == len(batch)
        assert stats["misses"] == len(batch)
        assert all(r.metadata["cache"]["hit"] is True for r in second)
        for a, b in zip(first, second):
            assert a.beta == pytest.approx(b.beta, abs=1e-12)

    def test_duplicates_within_one_batch_count_as_hits(self):
        instance = random_linear_parallel(4, demand=1.5, seed=3)
        reports = solve_many([instance, instance, instance], "optop")
        stats = cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        # Each duplicate receives its own copy of the first occurrence's
        # report, carrying a hit=True cache record like any other hit.
        assert reports[1] is not reports[0]
        assert reports[2] is not reports[0]
        assert reports[0].metadata["cache"]["hit"] is False
        assert reports[1].metadata["cache"]["hit"] is True
        assert reports[2].metadata["cache"]["hit"] is True

    def test_counters_survive_report_serialisation(self):
        report = solve(pigou(), "optop")
        clone = type(report).from_json(report.to_json())
        assert clone.metadata["cache"] == report.metadata["cache"]


class TestCacheArgument:
    @pytest.mark.parametrize("bad", [False, True, {}, "lru"])
    def test_solve_rejects_a_non_cache(self, bad):
        with pytest.raises(ModelError, match=r"SolveConfig\(cache=False\)"):
            solve(pigou(), "optop", cache=bad)

    @pytest.mark.parametrize("bad", [False, {}])
    def test_solve_many_rejects_a_non_cache(self, bad):
        with pytest.raises(ModelError, match=r"SolveConfig\(cache=False\)"):
            solve_many([pigou()], "optop", cache=bad)

    def test_an_injected_cache_is_used(self):
        private = LRUCache(max_entries=4)
        solve(pigou(), "optop", cache=private)
        solve(pigou(), "optop", cache=private)
        assert private.stats()["hits"] == 1
        assert cache_stats() == {"hits": 0, "misses": 0}
