"""The queue bound is checked before a service or cluster starts.

``SolveService`` and ``start_cluster`` share one check
(:func:`repro.serve.service.check_batching`): a ``max_queue`` below zero or
not an int raises :class:`~repro.exceptions.ModelError`.  Nothing here
starts a process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import launcher, start_cluster
from repro.exceptions import ModelError
from repro.serve import SolveService
from repro.serve.service import check_batching

BAD = [
    ({"max_queue": -1}, "max_queue"),
    ({"max_queue": None}, "max_queue"),
    ({"max_queue": "x"}, "max_queue"),
    ({"max_queue": 2.5}, "max_queue"),
    ({"max_queue": True}, "max_queue"),
]


@pytest.fixture
def no_worker_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(launcher, "WorkerProcess", refuse)


@pytest.mark.parametrize("bad, name", BAD)
def test_check_batching_rejects(bad, name):
    with pytest.raises(ModelError, match=name):
        check_batching(**bad)


def test_check_batching_accepts_the_edges():
    assert check_batching(0) == 0
    assert check_batching(10_000) == 10_000
    assert type(check_batching(np.int64(3))) is int


@pytest.mark.parametrize("bad, name", BAD)
def test_service_rejects(bad, name):
    with pytest.raises(ModelError, match=name):
        SolveService(**bad)


@pytest.mark.parametrize("bad, name", BAD)
def test_start_cluster_rejects_before_spawning(bad, name,
                                               no_worker_processes):
    with pytest.raises(ModelError, match=name):
        start_cluster(1, **bad)
