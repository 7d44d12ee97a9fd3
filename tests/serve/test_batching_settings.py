"""The batching settings are checked before a service or cluster starts.

``SolveService`` and ``start_cluster`` share one check
(:func:`repro.serve.service.check_batching`): a ``max_batch`` below one, a
``max_wait_ms`` that is negative, not finite or not a number, or a
``max_queue`` below zero (each count must be an int) raises :class:`~repro.exceptions.ModelError`.  Nothing here
starts a process.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import launcher, start_cluster
from repro.exceptions import ModelError
from repro.serve import SolveService
from repro.serve.service import check_batching

BAD = [
    ({"max_batch": 0}, "max_batch"),
    ({"max_batch": -2}, "max_batch"),
    ({"max_wait_ms": -1.0}, "max_wait_ms"),
    ({"max_wait_ms": math.nan}, "max_wait_ms"),
    ({"max_wait_ms": math.inf}, "max_wait_ms"),
    ({"max_queue": -1}, "max_queue"),
    ({"max_batch": "x"}, "max_batch"),
    ({"max_batch": 2.7}, "max_batch"),
    ({"max_queue": None}, "max_queue"),
    ({"max_wait_ms": "soon"}, "max_wait_ms"),
]
GOOD = {"max_batch": 64, "max_wait_ms": 2.0, "max_queue": 10_000}


@pytest.fixture
def no_worker_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(launcher, "WorkerProcess", refuse)


@pytest.mark.parametrize("bad, name", BAD)
def test_check_batching_rejects(bad, name):
    with pytest.raises(ModelError, match=name):
        check_batching(**{**GOOD, **bad})


def test_check_batching_accepts_the_edges():
    assert check_batching(1, 0.0, 0) == (1, 0.0, 0)
    assert check_batching(64, 2, 10_000) == (64, 2.0, 10_000)


@pytest.mark.parametrize("bad, name", BAD)
def test_service_rejects(bad, name):
    with pytest.raises(ModelError, match=name):
        SolveService(**bad)


@pytest.mark.parametrize("bad, name", BAD)
def test_start_cluster_rejects_before_spawning(bad, name,
                                               no_worker_processes):
    with pytest.raises(ModelError, match=name):
        start_cluster(1, **bad)
