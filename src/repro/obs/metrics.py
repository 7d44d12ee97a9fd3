"""Dependency-free, thread-safe metrics primitives.

This module is the quantitative half of :mod:`repro.obs`: a small
Prometheus-flavoured registry (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`, labeled families) that the layers above re-home their
ad-hoc accounting onto — without changing any public ``stats()`` API and
without taking a dependency.  Two export surfaces:

* :meth:`MetricsRegistry.snapshot` — a JSON-compatible dict, embedded in
  chaos reports and served by ``/metrics?format=json``;
* :meth:`MetricsRegistry.render_prometheus` — the text exposition format
  (version 0.0.4), served by ``/metrics`` on workers and the gateway.

Design constraints, in order:

1. **Exactness** — counters are plain Python numbers under a lock; no
   sampling, no floating drift for integral series.  The collectors in
   :mod:`repro.obs.collect` map legacy ``stats()`` dicts onto this
   registry at *numeric identity*, which the test suite asserts
   key-by-key.
2. **Thread safety** — every mutation and every snapshot runs under the
   owning metric's lock; concurrent readers can never observe a torn
   histogram (``sum`` inconsistent with bucket counts).
3. **Zero cost when absent** — nothing in this module is imported on the
   serve/cluster hot paths unless observability is switched on; the hot
   paths guard with a single ``is None`` check (see
   ``docs/subsystems/obs.md`` for the contract).
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "parse_prometheus",
]

#: Fixed exponential latency buckets (seconds): 0.5 ms doubling up to
#: ~16.4 s, 16 finite bounds + implicit +Inf.  Chosen to straddle the
#: serving stack's observed range — sub-millisecond tier-1 hits up to
#: multi-second cold cluster solves — with constant relative error.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    0.0005 * 2.0 ** i for i in range(16))


def _format_value(value: float) -> str:
    """Render a sample exactly: integral values without a decimal point."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(str(labels[key]))}"'
                     for key in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonically non-decreasing sample (``*_total`` series).

    ``inc`` rejects negative amounts: monotonicity is the point — it is
    what makes rate computations and the bench/CI deltas meaningful.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotonic; cannot add {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set_exact(self, value: float) -> None:
        """Set the absolute value (collector use: re-homing a legacy
        counter snapshot).  Still refuses to go backwards."""
        with self._lock:
            if value < self._value:
                raise ValueError(
                    f"counter would regress: {self._value!r} -> {value!r}")
            self._value = value


class Gauge:
    """A sample that can go both ways (queue depths, breaker state)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with exact ``sum``/``count`` accounting.

    Buckets are *upper bounds* of half-open intervals, cumulative in the
    exported form (Prometheus convention, ``le`` labels, implicit
    ``+Inf``).  ``observe`` and ``snapshot`` are each atomic, so a
    snapshot is always internally consistent.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                 ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, "
                             f"got {buckets!r}")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow
        self._sum: float = 0.0
        self._count: int = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # Linear scan: len(bounds) is ~16 and observations on the serving
        # path are rare compared to the work they measure.
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Dict[str, Any]:
        """Atomic ``{"buckets": [[le, cumulative], ...], "sum", "count"}``."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = 0
            buckets: List[List[float]] = []
            for bound, count in zip(self.bounds, counts):
                acc += count
                buckets.append([bound, acc])
            buckets.append([math.inf, total])
            return {"buckets": buckets, "sum": self._sum, "count": total}

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) by in-bucket interpolation."""
        return histogram_quantile(self.snapshot(), q)


def histogram_quantile(snapshot: Mapping[str, Any], q: float) -> float:
    """Estimate a quantile from a :meth:`Histogram.snapshot` dict.

    Returns ``nan`` when the population is empty.  Standard
    Prometheus-style linear interpolation inside the containing bucket;
    the overflow bucket clamps to its lower bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    buckets = snapshot["buckets"]
    count = int(snapshot["count"])
    if count <= 0:
        return math.nan
    rank = q * count
    previous_bound, previous_cum = 0.0, 0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if math.isinf(bound):
                return previous_bound
            in_bucket = cumulative - previous_cum
            if in_bucket <= 0:  # pragma: no cover - defensive
                return bound
            fraction = (rank - previous_cum) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cumulative
    return previous_bound  # pragma: no cover - count>0 guarantees a hit


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A labeled family: one metric instance per label-value combination."""

    __slots__ = ("name", "kind", "help", "label_names", "_children",
                 "_lock", "_buckets")

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()
        self._buckets = buckets

    def labels(self, **labels: str) -> Any:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}")
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._buckets
                                      or DEFAULT_LATENCY_BUCKETS)
                else:
                    child = _TYPES[self.kind]()
                self._children[key] = child
            return child

    def samples(self) -> List[Tuple[Dict[str, str], Any]]:
        with self._lock:
            items = list(self._children.items())
        return [(dict(zip(self.label_names, key)), child)
                for key, child in items]


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus exports.

    ``counter``/``gauge``/``histogram`` are get-or-create and idempotent;
    re-registering a name with a different type or label set raises.
    With ``labels=()`` (the default) the bare metric is returned; with
    label names, a family whose ``.labels(...)`` yields the children.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _family(self, name: str, kind: str, help_text: str,
                labels: Iterable[str],
                buckets: Optional[Sequence[float]] = None) -> _Family:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, label_names, buckets)
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names!r}, requested "
                    f"{kind}{label_names!r}")
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Iterable[str] = ()) -> Any:
        family = self._family(name, "counter", help_text, labels)
        return family if family.label_names else family.labels()

    def gauge(self, name: str, help_text: str = "",
              labels: Iterable[str] = ()) -> Any:
        family = self._family(name, "gauge", help_text, labels)
        return family if family.label_names else family.labels()

    def histogram(self, name: str, help_text: str = "",
                  labels: Iterable[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Any:
        family = self._family(name, "histogram", help_text, labels, buckets)
        return family if family.label_names else family.labels()

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible dump: ``{name: {type, help, samples: [...]}}``.

        Each sample is ``{"labels": {...}, "value": ...}`` (counters and
        gauges) or ``{"labels": {...}, **histogram_snapshot}``; the
        ``+Inf`` histogram bound is serialized as the string ``"+Inf"``.
        """
        with self._lock:
            families = sorted(self._families.items())
        out: Dict[str, Any] = {}
        for name, family in families:
            samples = []
            for labels, child in family.samples():
                if family.kind == "histogram":
                    data = child.snapshot()
                    data["buckets"] = [
                        ["+Inf" if math.isinf(bound) else bound, cum]
                        for bound, cum in data["buckets"]]
                    samples.append({"labels": labels, **data})
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[name] = {"type": family.kind, "help": family.help,
                         "samples": samples}
        return out

    def render_prometheus(self) -> str:
        """Text exposition (format 0.0.4), deterministic ordering."""
        with self._lock:
            families = sorted(self._families.items())
        lines: List[str] = []
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            samples = sorted(family.samples(),
                             key=lambda item: sorted(item[0].items()))
            for labels, child in samples:
                if family.kind == "histogram":
                    data = child.snapshot()
                    for bound, cumulative in data["buckets"]:
                        le = "+Inf" if math.isinf(bound) \
                            else _format_value(bound)
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels({**labels, 'le': le})} "
                            f"{cumulative}")
                    lines.append(f"{name}_sum{_render_labels(labels)} "
                                 f"{_format_value(data['sum'])}")
                    lines.append(f"{name}_count{_render_labels(labels)} "
                                 f"{data['count']}")
                else:
                    lines.append(f"{name}{_render_labels(labels)} "
                                 f"{_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse a text exposition back into ``{series: {labels_json: value}}``.

    The inverse of :meth:`MetricsRegistry.render_prometheus`, used by the
    CI cluster-smoke scrape and the equivalence tests.  ``series`` is the
    sample name (including ``_bucket``/``_sum``/``_count`` suffixes);
    keys of the inner dict are canonical JSON of the label dict.
    """
    out: Dict[str, Dict[str, float]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            sample, value_text = line.rsplit(" ", 1)
        except ValueError:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        labels: Dict[str, str] = {}
        name = sample
        if sample.endswith("}"):
            brace = sample.index("{")
            name, inner = sample[:brace], sample[brace + 1:-1]
            for part in filter(None, _split_labels(inner)):
                key, _, quoted = part.partition("=")
                if not (quoted.startswith('"') and quoted.endswith('"')):
                    raise ValueError(f"bad label in line: {raw!r}")
                labels[key] = quoted[1:-1].replace(r"\n", "\n") \
                    .replace(r"\"", '"').replace(r"\\", "\\")
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"bad sample value in line: {raw!r}")
        out.setdefault(name, {})[json.dumps(labels, sort_keys=True)] = value
    return out


def _split_labels(inner: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in inner:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    parts.append("".join(current))
    return parts
