"""Deterministic request tracing with a bounded in-memory ring buffer.

The qualitative half of :mod:`repro.obs`: where did one request spend its
time across ``gateway -> shard -> service -> kernel``?  Each process that
opts in owns a :class:`Tracer`; spans carry a **trace id** propagated over
the wire via the ``x-repro-trace-id`` header
(:data:`repro.cluster.protocol.TRACE_HEADER`), so the gateway can stitch a
cross-process view together by fetching every worker's ``/trace`` ring.

Determinism is a design requirement, not an accident:

* trace ids derive from ``(request digest, per-gateway sequence)`` via
  SHA-256 — replaying the same workload yields the same ids;
* span ids are a per-tracer counter, not random;
* the clock is injectable, so tests assert exact timestamps/durations
  with a fake monotonic clock instead of sleeping.

The ring buffer (``capacity`` spans, oldest evicted first) bounds memory
for arbitrarily long-lived workers.  Export is Chrome ``trace_event``
JSON (``chrome://tracing`` / Perfetto compatible): complete events
(``"ph": "X"``) with microsecond ``ts``/``dur``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["Span", "Tracer", "trace_id_for"]


def trace_id_for(digest: str, sequence: int) -> str:
    """The deterministic 16-hex-digit trace id for a request.

    ``digest`` is the request's content digest (already deterministic);
    ``sequence`` is the issuing gateway's request counter, which keeps
    repeated submissions of the same instance distinguishable.
    """
    raw = hashlib.sha256(f"{digest}:{int(sequence)}".encode("ascii"))
    return raw.hexdigest()[:16]


class Span:
    """One timed operation, open until :meth:`finish` (or ``with`` exit).

    Spans self-register with their tracer's ring buffer when finished —
    an unfinished span is never exported, so a crash mid-span cannot leak
    a nonsense duration.  ``annotate`` attaches JSON-compatible context
    (``retry=2``, ``strategy="optop"``, ...).
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "start", "duration", "annotations", "_finished")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: str, parent_id: Optional[str],
                 annotations: Optional[Dict[str, Any]]) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = tracer.clock()
        self.duration: Optional[float] = None
        self.annotations: Dict[str, Any] = dict(annotations or {})
        self._finished = False

    def annotate(self, key: str, value: Any) -> "Span":
        self.annotations[key] = value
        return self

    def finish(self) -> "Span":
        if not self._finished:
            self._finished = True
            self.duration = self.tracer.clock() - self.start
            self.tracer._record(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if exc_info[0] is not None:
            self.annotations.setdefault("error", exc_info[0].__name__)
        self.finish()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id, "span_id": self.span_id,
            "parent_id": self.parent_id, "name": self.name,
            "service": self.tracer.service, "start": self.start,
            "duration": self.duration,
            "annotations": dict(self.annotations),
        }


class Tracer:
    """Per-process span factory + bounded ring buffer.

    Parameters
    ----------
    service:
        Process identity stamped on every span (``"gateway"``,
        ``"worker-<pid>"``); becomes the ``pid`` of the Chrome export.
    capacity:
        Ring buffer bound; the oldest finished span is evicted first.
    clock:
        Monotonic float clock.  Defaults to :func:`time.perf_counter`;
        tests inject a counter to make timings exact.
    """

    def __init__(self, *, service: str, capacity: int = 4096,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if int(capacity) < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.service = service
        self.clock: Callable[[], float] = clock or time.perf_counter
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=int(capacity))
        self._sequence = 0

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #
    def next_sequence(self) -> int:
        """The next request sequence number (feeds :func:`trace_id_for`)."""
        with self._lock:
            self._sequence += 1
            return self._sequence

    def span(self, name: str, *, trace_id: str,
             parent_id: Optional[str] = None,
             **annotations: Any) -> Span:
        """Open a span; finish it via ``with`` or :meth:`Span.finish`."""
        with self._lock:
            self._sequence += 1
            span_id = f"{self.service}:{self._sequence}"
        return Span(self, name, trace_id, span_id, parent_id, annotations)

    def record_complete(self, name: str, *, trace_id: str,
                        start: float, duration: float,
                        parent_id: Optional[str] = None,
                        **annotations: Any) -> Dict[str, Any]:
        """Record an already-timed operation (profiler phases, remote
        spans folded into an aggregate view) without opening a live span.
        """
        with self._lock:
            self._sequence += 1
            span_id = f"{self.service}:{self._sequence}"
        record = {
            "trace_id": trace_id, "span_id": span_id,
            "parent_id": parent_id, "name": name, "service": self.service,
            "start": float(start), "duration": float(duration),
            "annotations": dict(annotations),
        }
        with self._lock:
            self._ring.append(record)
        return record

    def _record(self, span: Span) -> None:
        with self._lock:
            self._ring.append(span.to_dict())

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def spans(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """Finished spans, oldest first; ``last`` keeps only the newest N."""
        with self._lock:
            records = list(self._ring)
        if last is not None:
            records = records[-int(last):] if int(last) > 0 else []
        return [dict(record, annotations=dict(record["annotations"]))
                for record in records]

    def chrome_trace(self, last: Optional[int] = None) -> Dict[str, Any]:
        """Chrome ``trace_event`` export: ``{"traceEvents": [...]}``."""
        return {"traceEvents": [span_to_chrome_event(record)
                                for record in self.spans(last)]}

    def clear(self) -> int:
        """Drop every buffered span; returns how many were dropped."""
        with self._lock:
            dropped = len(self._ring)
            self._ring.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def span_to_chrome_event(record: Dict[str, Any]) -> Dict[str, Any]:
    """Map one span record onto a Chrome complete event (``"ph": "X"``)."""
    args = dict(record.get("annotations") or {})
    args["trace_id"] = record["trace_id"]
    if record.get("parent_id"):
        args["parent_id"] = record["parent_id"]
    return {
        "name": record["name"],
        "cat": record["trace_id"],
        "ph": "X",
        "ts": round(float(record["start"]) * 1e6, 3),
        "dur": round(float(record.get("duration") or 0.0) * 1e6, 3),
        "pid": record.get("service", "repro"),
        "tid": record["span_id"],
        "args": args,
    }
