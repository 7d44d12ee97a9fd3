"""Shared measurement helpers: percentiles, layer samples, environment.

Nothing here imports :mod:`repro`, so the runner can report a missing
package cleanly before any of it is needed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: CPU seconds one :func:`host_probe` takes on the reference machine (a
#: 2-vCPU shared VM, Intel Xeon at 2.1 GHz) while its host runs at full
#: speed.  Reported times are converted to that speed.
PROBE_REF_S = 2.5e-4

_PROBE_ARRAY = np.random.default_rng(0).random(4000)

#: Standard percentiles the tail is chosen from, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)

#: Samples that must lie beyond the tail percentile.
TAIL_MIN_BEYOND = 10

#: Timed passes over identical inputs; an operation's time is its fastest.
#: Contention from other tenants only ever slows a call down, so the
#: per-operation minimum tracks the code, not the neighbours.
TIMED_PASSES = 2


def best_of(passes: Sequence[Sequence[Optional[float]]]) -> List[Optional[float]]:
    """Per-operation minimum over passes; ``None`` where any pass failed."""
    out: List[Optional[float]] = []
    for times in zip(*passes):
        out.append(None if any(t is None for t in times) else min(times))
    return out


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float], preferred: float) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` of the workload's tail.

    Starts at the workload's fixed ``preferred`` percentile and steps down
    the ladder until at least :data:`TAIL_MIN_BEYOND` samples lie strictly
    above the value, so a short run still reports an honest tail.
    """
    for p in PERCENTILE_LADDER:
        if p > preferred:
            continue
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= TAIL_MIN_BEYOND or p == PERCENTILE_LADDER[-1]:
            return p, value, beyond
    raise AssertionError("unreachable: the ladder ends at the median")


def host_probe() -> float:
    """CPU seconds of a fixed mix of interpreter and NumPy work, best of 3.

    On a shared host the same code runs up to 1.6x slower from one
    few-second window to the next, in CPU time as much as in wall time.
    The probe reads that speed next to each timed operation.  It counts CPU
    time, not wall time, so waiting for a core that the benchmark's own
    processes hold does not slow it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.thread_time()
        total = 0.0
        for i in range(3000):
            total += i * 0.5
        values = _PROBE_ARRAY
        for _round in range(3):
            values = np.sqrt(values * values + 1.0)
            values.sort()
        best = min(best, time.thread_time() - start)
    return best


def to_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` timed while :func:`host_probe` read ``probe_s``, converted
    to the reference machine at full speed."""
    return seconds * PROBE_REF_S / probe_s


class HostProbe:
    """Reads :func:`host_probe` every ``interval`` seconds on a thread.

    For work done in other processes, such as cluster workers, the readings
    taken during a time window give the host's speed in it.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        #: ``(perf_counter at the end of the probe, probe seconds)``
        self.readings: List[Tuple[float, float]] = []

    def _run(self) -> None:
        while not self._stop.is_set():
            probe = host_probe()
            self.readings.append((time.perf_counter(), probe))
            self._stop.wait(self._interval)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def probe_s(self, start: float, end: float) -> float:
        """Median reading inside ``[start, end]``, else the nearest one."""
        inside = [p for t, p in self.readings if start <= t <= end]
        if inside:
            return statistics.median(inside)
        middle = (start + end) / 2
        return min(self.readings, key=lambda r: abs(r[0] - middle))[1]

    def median_s(self) -> float:
        return statistics.median(p for _, p in self.readings)


class Layers:
    """Per-layer samples, reduced to one figure per metric at the end.

    ``time``/``size`` samples reduce to their median, ``count`` samples to
    their sum, ``worst`` samples to their maximum.
    """

    def __init__(self) -> None:
        self._samples: Dict[str, Tuple[str, List[float]]] = {}

    def add(self, name: str, value: float, how: str = "median") -> None:
        entry = self._samples.setdefault(name, (how, []))
        entry[1].append(float(value))

    def ms(self, name: str, seconds: float) -> None:
        self.add(name, seconds * 1e3)

    def count(self, name: str, value: float) -> None:
        self.add(name, value, "sum")

    def worst(self, name: str, value: float) -> None:
        self.add(name, value, "max")

    def figures(self) -> Dict[str, float]:
        out = {}
        for name, (how, values) in self._samples.items():
            if how == "sum":
                out[name] = float(sum(values))
            elif how == "max":
                out[name] = float(max(values))
            else:
                out[name] = float(statistics.median(values))
        return out


class Fingerprint:
    """SHA-256 over the generated inputs, in the order they were issued."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts: object) -> None:
        self._hash.update(json.dumps(parts, separators=(",", ":")).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process, when readable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def process_cpu_s(pid: int) -> Optional[float]:
    """User plus system CPU seconds of a live process, when readable."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            # Fields after the parenthesised command name; utime and stime
            # are fields 14 and 15 of the whole line.
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """The machine and library versions a result was measured with."""
    import numpy
    import scipy

    env: Dict[str, object] = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }
    if extra:
        env.update(extra)
    return env


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))
