"""Serving-layer resilience: deadlines, injected solver faults, recovery.

Covers the end-to-end deadline contract of :meth:`SolveService.submit`
(expired-on-arrival and expired-in-queue), the chaos hooks drawn once per
solve, and the recovery paths that existed but had no direct tests:
``drain(timeout=)`` returning ``False``, dispatcher death healing through
``_spawn_dispatcher_locked(restart=True)``, and the shutdown join-timeout
accounting.
"""

from __future__ import annotations

import logging
import time

import pytest

from repro.api import SolveConfig
from repro.exceptions import FaultInjectedError, ServiceTimeoutError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.instances.random_parallel import random_linear_parallel
from repro.serve import SolveService

CONFIG = SolveConfig(compute_nash=False)


def instance(seed: int = 0):
    return random_linear_parallel(3, demand=1.5, seed=seed)


def service_with(*specs, **kwargs) -> SolveService:
    injector = FaultInjector.from_plan(
        FaultPlan(name="svc", seed=5, specs=specs))
    return SolveService(fault_injector=injector, **kwargs)


class TestDeadlines:
    def test_expired_on_arrival_is_rejected_fast(self):
        with SolveService() as service:
            with pytest.raises(ServiceTimeoutError) as excinfo:
                service.submit(instance(), "optop", config=CONFIG,
                               deadline=time.monotonic() - 0.5)
            assert excinfo.value.elapsed >= 0.5
            stats = service.stats()
        assert stats.requests == 1
        assert stats.rejected == 1
        assert stats.timeouts == 1
        assert stats.consistent  # timeouts is a side counter, not a bucket

    def test_expired_in_queue_fails_with_timeout(self):
        # Solve 1 holds the dispatcher for 300 ms (injected delay); the
        # second request's 50 ms deadline expires while it waits in the
        # queue, so it must fail fast without occupying the solver.
        delay = FaultSpec(kind="solver_delay", nth_call=1, delay_ms=300.0)
        with service_with(delay) as service:
            slow = service.submit(instance(0), "optop", config=CONFIG)
            fast = service.submit(instance(1), "optop", config=CONFIG,
                                  deadline=time.monotonic() + 0.05)
            assert slow.result(timeout=30.0) is not None
            with pytest.raises(ServiceTimeoutError):
                fast.result(timeout=30.0)
            stats = service.stats()
        assert stats.timeouts == 1
        assert stats.solve_failures == 0  # no solver work was lost
        assert stats.consistent

    def test_generous_deadline_solves_normally(self):
        with SolveService() as service:
            report = service.submit(
                instance(), "optop", config=CONFIG,
                deadline=time.monotonic() + 60.0).result(timeout=30.0)
            assert report.strategy == "optop"
            assert service.stats().timeouts == 0


class TestSolverFaultHooks:
    def test_solver_crash_fails_the_solve_futures_typed(self):
        crash = FaultSpec(kind="solver_crash", nth_call=1)
        with service_with(crash) as service:
            future = service.submit(instance(0), "optop", config=CONFIG)
            with pytest.raises(FaultInjectedError):
                future.result(timeout=30.0)
            # The fault fired once; the service keeps serving afterwards.
            report = service.submit(instance(1), "optop",
                                    config=CONFIG).result(timeout=30.0)
            assert report is not None
            stats = service.stats()
        assert stats.solve_failures == 1
        assert stats.consistent

    def test_solver_faults_are_drawn_once_per_solve(self):
        crash = FaultSpec(kind="solver_crash", nth_call=2)
        with service_with(crash) as service:
            futures = [service.submit(instance(seed), "optop", config=CONFIG)
                       for seed in range(3)]
            assert futures[0].result(timeout=30.0) is not None
            with pytest.raises(FaultInjectedError):
                futures[1].result(timeout=30.0)
            assert futures[2].result(timeout=30.0) is not None
            stats = service.stats()
        assert stats.solve_failures == 1
        assert stats.consistent

    def test_unfaulted_service_has_no_injector(self):
        with SolveService() as service:
            assert service._faults is None
            report = service.submit(instance(), "optop",
                                    config=CONFIG).result(timeout=30.0)
            assert report is not None


class TestRecoveryPaths:
    def test_drain_timeout_returns_false_then_completes(self):
        delay = FaultSpec(kind="solver_delay", nth_call=1, delay_ms=400.0)
        with service_with(delay) as service:
            future = service.submit(instance(), "optop", config=CONFIG)
            assert service.drain(timeout=0.05) is False
            assert future.result(timeout=30.0) is not None
            assert service.drain(timeout=10.0) is True

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_dispatcher_respawns_on_next_submit(self):
        service = SolveService()
        service.start()
        thread = service._thread
        assert thread.is_alive()

        # Kill the dispatcher the hard way: an exception out of the queue
        # escapes the loop, which contains only what a solve raises.
        class _Bomb:
            def get(self, timeout=None):
                raise SystemExit("injected dispatcher death")

        real_queue = service._queue
        service._queue = _Bomb()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        service._queue = real_queue

        try:
            report = service.submit(instance(), "optop",
                                    config=CONFIG).result(timeout=30.0)
            assert report is not None
            stats = service.stats()
            assert stats.worker_restarts == 1
            assert service._thread is not thread
            assert service.running
        finally:
            service.shutdown(wait=True, timeout=30.0)

    def test_internal_dispatcher_error_is_contained(self, caplog):
        service = SolveService().start()
        thread = service._thread

        class _Faulty:
            # Raises once from the dispatcher's own queue read, then
            # hands over to the real queue.
            def __init__(self, real):
                self.real, self.raised = real, False

            def get(self, timeout=None):
                if not self.raised:
                    self.raised = True
                    raise RuntimeError("injected dispatcher error")
                return self.real.get(timeout=timeout)

            def __getattr__(self, name):
                return getattr(self.real, name)

        try:
            with caplog.at_level(logging.ERROR, logger="repro.serve.service"):
                faulty = service._queue = _Faulty(service._queue)
                deadline = time.monotonic() + 10.0
                while not faulty.raised and time.monotonic() < deadline:
                    time.sleep(0.01)
                report = service.submit(instance(), "optop",
                                        config=CONFIG).result(timeout=30.0)
            assert report is not None
            assert service._thread is thread  # the loop kept running
            assert service.stats().worker_restarts == 1
            assert any("dispatcher error" in record.message
                       for record in caplog.records)
        finally:
            service.shutdown(wait=True, timeout=30.0)

    def test_shutdown_join_timeout_is_counted_and_logged(self, caplog):
        service = SolveService()
        service.start()
        service.drain(timeout=10.0)

        class _StuckThread:
            def is_alive(self):
                return True

            def join(self, timeout=None):
                pass  # simulates a dispatcher held hostage by a solver

        service._thread = _StuckThread()
        with caplog.at_level(logging.WARNING, logger="repro.serve.service"):
            service.shutdown(wait=False)
        assert service.stats().shutdown_timeouts == 1
        assert any("shutdown join" in record.message
                   for record in caplog.records)
