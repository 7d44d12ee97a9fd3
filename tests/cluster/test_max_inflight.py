"""``max_inflight < 1`` is refused before anything starts.

A per-worker bound of zero would make the gateway's semaphore admit no
request, so every solve would wait forever; each entry point raises
:class:`~repro.exceptions.ClusterError` instead.  Nothing here binds a
socket or starts a process.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterGateway, WorkerEndpoint, start_cluster
from repro.cluster import launcher
from repro.exceptions import ClusterError

#: A port nothing listens on: the constructors never connect.
UNBOUND = ("127.0.0.1", 1)


@pytest.fixture
def no_worker_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(launcher, "WorkerProcess", refuse)


@pytest.mark.parametrize("bad", [0, -1])
def test_worker_endpoint_rejects_a_bound_below_one(bad):
    with pytest.raises(ClusterError, match="max_inflight must be >= 1"):
        WorkerEndpoint(*UNBOUND, max_inflight=bad)


@pytest.mark.parametrize("bad", [0, -1])
def test_gateway_rejects_a_bound_below_one(bad):
    with pytest.raises(ClusterError, match="max_inflight must be >= 1"):
        ClusterGateway([UNBOUND], max_inflight=bad)


def test_gateway_accepts_a_bound_of_one():
    gateway = ClusterGateway([UNBOUND], max_inflight=1)
    assert list(gateway.workers) == ["127.0.0.1:1"]


def test_start_cluster_rejects_before_spawning(no_worker_processes):
    with pytest.raises(ClusterError, match="max_inflight must be >= 1"):
        start_cluster(n_workers=1, max_inflight=0)


def test_cli_exits_2_before_spawning(no_worker_processes, capsys):
    from repro.cli import main

    code = main(["serve", "cluster", "--workers", "1", "--port", "0",
                 "--max-inflight", "0", "--duration", "0"])
    assert code == 2
    assert "max_inflight must be >= 1" in capsys.readouterr().err
