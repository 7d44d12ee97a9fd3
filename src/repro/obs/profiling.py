"""Opt-in per-phase kernel profiling.

``SolveConfig(profile=True)`` makes :func:`repro.api.solve` wrap the
strategy call in a :func:`profiled` context; the equilibrium kernels
(:func:`repro.equilibrium.water_fill`, the Frank–Wolfe solver) report
their elapsed time into the active :class:`PhaseRecorder`, and the result
lands in ``SolveReport.metadata["profile"]``:

``{"phases": {name: {"calls": n, "seconds": s}}, "total_seconds": t}``

The recorder is **thread-local**: the active profile follows the thread
that executes the solve (the strategy function runs start-to-finish on
one thread — the caller's, or the service dispatcher's, where
:func:`repro.api.session.execute` arms it).

Overhead contract (see ``docs/subsystems/obs.md``): with profiling off —
the default — a kernel pays exactly one thread-local attribute read that
returns ``None``.  Recorders stack: nesting :func:`profiled` chains to
the enclosing recorder, so a service-level trace collection and a
user-requested ``profile=True`` can coexist without stealing each
other's phases.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

__all__ = ["PhaseRecorder", "active", "phase", "profiled"]

_LOCAL = threading.local()


class PhaseRecorder:
    """Accumulates ``{phase name: calls + cumulative seconds}``.

    Not locked: a recorder is owned by the thread that installed it (and
    its ``parent`` chain lives on the same thread).
    """

    __slots__ = ("phases", "parent")

    def __init__(self, parent: Optional["PhaseRecorder"] = None) -> None:
        self.phases: Dict[str, Dict[str, float]] = {}
        self.parent = parent

    def note(self, name: str, seconds: float) -> None:
        entry = self.phases.get(name)
        if entry is None:
            self.phases[name] = {"calls": 1, "seconds": float(seconds)}
        else:
            entry["calls"] += 1
            entry["seconds"] += float(seconds)
        if self.parent is not None:
            self.parent.note(name, seconds)

    def to_dict(self, *, total_seconds: Optional[float] = None
                ) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "phases": {name: dict(entry)
                       for name, entry in sorted(self.phases.items())}}
        if total_seconds is not None:
            data["total_seconds"] = float(total_seconds)
        return data


def active() -> Optional[PhaseRecorder]:
    """The recorder installed on this thread, or ``None`` (the hot-path
    check: kernels bail on ``None`` before doing any timing work)."""
    return getattr(_LOCAL, "recorder", None)


@contextmanager
def profiled() -> Iterator[PhaseRecorder]:
    """Install a fresh recorder on this thread for the ``with`` body.

    Chains to any enclosing recorder, and always restores it on exit.
    """
    recorder = PhaseRecorder(parent=active())
    _LOCAL.recorder = recorder
    try:
        yield recorder
    finally:
        _LOCAL.recorder = recorder.parent


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time the ``with`` body into the active recorder (no-op when off)."""
    recorder = active()
    if recorder is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        recorder.note(name, time.perf_counter() - start)
