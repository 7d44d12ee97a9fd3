"""A cold parallel-link solve canonicalises its latencies exactly once.

Every later view — OpTop's per-round sub-instances, the Followers' shifted
instance of the induced equilibrium — is derived from that one
:class:`~repro.latency.LatencyBatch` by array operations.
"""

from __future__ import annotations

import pytest

from repro.api import solve
from repro.cache import LRUCache
from repro.instances import random_mixed_parallel
from repro.latency import LatencyBatch


@pytest.fixture()
def batch_builds(monkeypatch):
    """How many times ``LatencyBatch.__init__`` has run."""
    calls = []
    original = LatencyBatch.__init__

    def counted(self, latencies):
        calls.append(None)
        original(self, latencies)

    monkeypatch.setattr(LatencyBatch, "__init__", counted)
    return calls


@pytest.mark.parametrize("strategy", ["optop", "aloof", "llf"])
def test_cold_solve_builds_one_batch(batch_builds, strategy):
    report = solve(random_mixed_parallel(4000, 800.0, seed=23), strategy,
                   cache=LRUCache())
    assert report.instance_kind == "parallel"
    assert len(batch_builds) == 1
