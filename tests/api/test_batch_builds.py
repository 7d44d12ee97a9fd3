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

import numpy as np
import pytest

from repro.api import solve
from repro.cache import LRUCache
from repro.equilibrium import network as network_module
from repro.instances import (grid_network, random_linear_parallel,
                             random_mixed_parallel)
from repro.latency import LatencyFunction, ShiftedLatency
from repro.latency import batch as batch_module
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


@pytest.fixture()
def latency_objects(monkeypatch):
    """Per-link latency objects built: ``shifted`` calls and wrappers."""
    calls = []

    def counting(original):
        def counted(self, *args):
            calls.append(type(self).__name__)
            return original(self, *args)
        return counted

    base_shifted = counting(LatencyFunction.shifted)
    wrapper_shifted = counting(ShiftedLatency.shifted)
    monkeypatch.setattr(LatencyFunction, "shifted", base_shifted)
    monkeypatch.setattr(ShiftedLatency, "shifted", wrapper_shifted)
    monkeypatch.setattr(ShiftedLatency, "__init__",
                        counting(ShiftedLatency.__init__))
    # The counted methods are still the stock shifts a batch derives with
    # array operations.
    monkeypatch.setattr(batch_module, "_STOCK_SHIFTS",
                        (base_shifted, wrapper_shifted))
    return calls


COLD_PARALLEL = {
    "mixed": lambda: random_mixed_parallel(4000, 800.0, seed=23),
    "linear": lambda: random_linear_parallel(4000, 800.0, seed=23),
}


@pytest.mark.parametrize("family", sorted(COLD_PARALLEL))
@pytest.mark.parametrize("strategy", ["optop", "aloof", "llf"])
def test_cold_solve_builds_one_batch_and_no_link_objects(
        batch_builds, latency_objects, strategy, family):
    report = solve(COLD_PARALLEL[family](), strategy, cache=LRUCache())
    assert report.instance_kind == "parallel"
    assert len(batch_builds) == 1
    assert latency_objects == []


def test_reading_a_derived_view_builds_its_link_objects(latency_objects):
    instance = random_mixed_parallel(50, 10.0, seed=23)
    strategy = np.zeros(50)
    strategy[[3, 7]] = 0.5
    followers = instance.shifted(strategy)
    sub = instance.sub_instance([7, 3, 1], 1.0)
    assert latency_objects == []
    assert sub.latencies == tuple(instance.latencies[i] for i in (7, 3, 1))
    assert latency_objects == []
    assert len(followers.latencies) == 50
    # One ``shifted`` call and one wrapper per loaded link.
    assert len(latency_objects) == 4
    assert latency_objects.count("ShiftedLatency") == 2


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
