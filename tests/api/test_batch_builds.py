"""A cold solve canonicalises its latencies exactly once.

The instance digest reads the links' (or edges') per-class parameter
columns (:class:`~repro.latency.columns.LatencyColumns`), the
:class:`~repro.latency.LatencyBatch` is filled from those same columns, and
every later view — OpTop's per-round sub-instances, the Followers' shifted
instance or network of the induced equilibrium — is derived from that one
batch by array operations.  A cold network solve also builds its CSR
adjacency once, and its optimum starts from the certified path flows of
its Nash.
"""

from __future__ import annotations

import pytest

from repro.api import solve
from repro.cache import LRUCache
from repro.equilibrium import network as network_module
from repro.instances import grid_network, random_mixed_parallel
from repro.latency.columns import LatencyColumns
from repro.network import Network


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


@pytest.fixture()
def csr_builds(monkeypatch):
    """How many times a network built its CSR structure."""
    calls = []
    original = Network.csr_structure

    def counted(self):
        if "csr" not in self._derived:
            calls.append(None)
        return original(self)

    monkeypatch.setattr(Network, "csr_structure", counted)
    return calls


@pytest.fixture()
def path_solves(monkeypatch):
    """``(kind, seeded, rounds)`` of every path-equilibration solve."""
    solves = []
    original = network_module.path_based_flow

    def recorded(instance, kind, **kwargs):
        result = original(instance, kind, **kwargs)
        solves.append((kind, kwargs.get("start") is not None,
                       result.iterations))
        return result

    monkeypatch.setattr(network_module, "path_based_flow", recorded)
    return solves


@pytest.mark.parametrize("strategy", ["optop", "llf"])
def test_cold_network_solve_builds_once_and_seeds(batch_builds, csr_builds,
                                                  path_solves, strategy):
    report = solve(grid_network(5, 6, seed=11), strategy, cache=LRUCache())
    assert report.instance_kind == "network"
    assert len(batch_builds) == 1
    assert len(csr_builds) == 1
    # The Nash is solved first and cold; the optimum starts from its paths;
    # the Followers' induced solve starts cold.
    assert [(kind, seeded) for kind, seeded, _ in path_solves] == [
        ("nash", False), ("optimum", True), ("nash", False)]
    if strategy == "optop":
        # MOP's Followers reach their equilibrium in the first round.
        assert path_solves[2][2] == 1
