"""A cold parallel-link solve canonicalises its latencies exactly once.

The instance digest reads the links' per-class parameter columns
(:class:`~repro.latency.columns.LatencyColumns`), the
:class:`~repro.latency.LatencyBatch` is filled from those same columns, and
every later view — OpTop's per-round sub-instances, the Followers' shifted
instance of the induced equilibrium — is derived from that one batch by
array operations.
"""

from __future__ import annotations

import pytest

from repro.api import solve
from repro.cache import LRUCache
from repro.instances import random_mixed_parallel
from repro.latency.columns import LatencyColumns


@pytest.fixture()
def batch_builds(monkeypatch):
    """How many times ``LatencyColumns.__init__`` (canonicalisation) ran."""
    calls = []
    original = LatencyColumns.__init__

    def counted(self, latencies):
        calls.append(None)
        original(self, latencies)

    monkeypatch.setattr(LatencyColumns, "__init__", counted)
    return calls


@pytest.mark.parametrize("strategy", ["optop", "aloof", "llf"])
def test_cold_solve_builds_one_batch(batch_builds, strategy):
    report = solve(random_mixed_parallel(4000, 800.0, seed=23), strategy,
                   cache=LRUCache())
    assert report.instance_kind == "parallel"
    assert len(batch_builds) == 1
