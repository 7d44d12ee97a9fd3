"""JSON (de)serialisation of latencies and instances.

The command-line interface and downstream users need a way to describe
instances in plain files.  The format is deliberately simple:

.. code-block:: json

    {
      "type": "parallel",
      "demand": 1.0,
      "links": [
        {"type": "linear", "slope": 1.0, "intercept": 0.0},
        {"type": "constant", "value": 1.0}
      ]
    }

    {
      "type": "network",
      "edges": [
        {"tail": "s", "head": "v", "latency": {"type": "linear", "slope": 1.0}},
        {"tail": "v", "head": "t", "latency": {"type": "constant", "value": 1.0}}
      ],
      "commodities": [{"source": "s", "sink": "t", "demand": 1.0}]
    }

Every canonical instance of :mod:`repro.instances` round-trips through this
format (see the tests), so files produced by :func:`instance_to_dict` can be
re-loaded with :func:`instance_from_dict`.  The latency forms come from the
stock class table :data:`repro.latency.columns.STOCK_CLASSES`.

:func:`instance_digest` does not render JSON: it hashes the per-class
parameter columns of :class:`~repro.latency.columns.LatencyColumns` in a
fixed little-endian byte layout (see its docstring).
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.exceptions import ModelError
from repro.latency import LatencyFunction
from repro.latency.columns import (
    STOCK_CLASSES,
    LatencyColumns,
    StockClass,
    stock_class,
)
from repro.network import Commodity, Network, NetworkInstance, ParallelLinkInstance

__all__ = [
    "latency_to_dict",
    "latency_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "instance_digest",
    "save_instance",
    "load_instance",
]

AnyInstance = Union[ParallelLinkInstance, NetworkInstance]

_BY_TAG = {entry.tag: entry for entry in STOCK_CLASSES}


# --------------------------------------------------------------------------- #
# Latency functions
# --------------------------------------------------------------------------- #
def latency_to_dict(latency: LatencyFunction) -> Dict[str, Any]:
    """Serialise a latency function to a plain dictionary."""
    entry = stock_class(type(latency))
    if not isinstance(entry, StockClass):
        raise ModelError(
            f"cannot serialise latency of type {type(latency).__name__}")
    if entry.ragged:
        return {"type": entry.tag, "coefficients": list(latency.coefficients)}
    data = {"type": entry.tag}
    for name, key in zip(entry.fields, entry.keys):
        data[key] = getattr(latency, name)
    return data


def latency_from_dict(data: Dict[str, Any]) -> LatencyFunction:
    """Deserialise a latency function from a dictionary."""
    return _latency_from_dict(data, "latency")


def _latency_from_dict(data: Any, where: str) -> LatencyFunction:
    """:func:`latency_from_dict`, with ``where`` naming ``data`` in errors."""
    kind = data.get("type") if isinstance(data, dict) else None
    entry = _BY_TAG.get(kind) if isinstance(kind, str) else None
    if entry is None:
        _field(data, "type", where)  # names a non-object or a missing type
        raise ModelError(f"{where}: unknown latency type {kind!r}")
    defaults = entry.defaults
    try:
        if entry.ragged:
            return entry.cls([float(c) for c in data["coefficients"]])
        return entry.cls(*[float(data[key] if key not in defaults
                                 else data.get(key, defaults[key]))
                           for key in entry.keys])
    except (KeyError, TypeError, ValueError):
        pass
    # Off the hot path: name the first missing or non-numeric field.
    convert = (lambda v: [float(c) for c in _as_list(v)]) if entry.ragged \
        else float
    for key in entry.keys:
        _field(data, key, where, convert, defaults.get(key))
    raise ModelError(f"{where}: invalid latency specification: {data!r}")


def _field(spec: Any, key: Any, where: str,
           convert: Optional[Callable[[Any], Any]] = None,
           default: Any = None) -> Any:
    """``convert(spec[key])``, or ``default`` when the key is absent.

    ``where`` names ``spec`` in the :class:`ModelError` raised when ``spec``
    is not an object, a required field (``default is None``) is missing, or
    ``convert`` rejects the value with a ``TypeError``/``ValueError``.
    """
    if not isinstance(spec, dict):
        raise ModelError(f"{where} must be an object, got {spec!r}")
    if key not in spec:
        if default is None:
            raise ModelError(f"{where} is missing field {key!r}")
        return default
    value = spec[key]
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ModelError(
            f"{where} field {key!r} is invalid: {value!r}") from None


def _as_list(value: Any) -> list:
    """``value`` as a list; a JSON array is the only accepted form."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return list(value)


# --------------------------------------------------------------------------- #
# Instances
# --------------------------------------------------------------------------- #
def instance_to_dict(instance: AnyInstance) -> Dict[str, Any]:
    """Serialise a parallel-link or network instance to a dictionary.

    Dispatch is structural (via
    :func:`repro.api.dispatch.resolve_instance_kind`), so subclasses and
    duck-typed wrappers of the two instance families serialise as well.
    """
    from repro.api.dispatch import resolve_instance_kind

    try:
        kind = resolve_instance_kind(instance)
    except ModelError:
        raise ModelError(
            f"cannot serialise instance of type {type(instance).__name__}")
    if kind == "parallel":
        return {
            "type": "parallel",
            "demand": instance.demand,
            "names": list(instance.names),
            "links": [latency_to_dict(lat) for lat in instance.latencies],
        }
    return {
        "type": "network",
        "edges": [
            {"tail": edge.tail, "head": edge.head,
             "latency": latency_to_dict(edge.latency)}
            for edge in instance.network.edges
        ],
        "commodities": [
            {"source": com.source, "sink": com.sink, "demand": com.demand}
            for com in instance.commodities
        ],
    }


def _node_name(name: Any) -> Any:
    """Hashable node name: JSON arrays come back as lists, rebuild tuples.

    Tuple node names (e.g. the ``(row, col)`` nodes of grid networks)
    serialise to JSON arrays; converting them back keeps the topology JSON
    — and therefore :func:`instance_digest` — stable across a round trip.
    An unhashable name (a JSON object) raises ``TypeError``.
    """
    if isinstance(name, list):
        return tuple(_node_name(item) for item in name)
    hash(name)
    return name


def instance_from_dict(data: Dict[str, Any]) -> AnyInstance:
    """Deserialise an instance description produced by :func:`instance_to_dict`.

    A malformed description raises :class:`ModelError` naming the bad field.
    """
    kind = _field(data, "type", "instance")
    if kind == "parallel":
        # One label for every link: a per-link label would cost a string
        # format per link on every decode.
        links = [_latency_from_dict(spec, "a link") for spec
                 in _field(data, "links", "instance", _as_list, [])]
        return ParallelLinkInstance(
            links, _field(data, "demand", "instance", float),
            names=data.get("names"))
    if kind == "network":
        network = Network()
        edges = _field(data, "edges", "instance", _as_list, [])
        for i, spec in enumerate(edges):
            where = f"edges[{i}]"
            network.add_edge(_field(spec, "tail", where, _node_name),
                             _field(spec, "head", where, _node_name),
                             _latency_from_dict(_field(spec, "latency", where),
                                                f"{where}.latency"))
        commodities = []
        for i, spec in enumerate(
                _field(data, "commodities", "instance", _as_list, [])):
            where = f"commodities[{i}]"
            commodities.append(Commodity(
                _field(spec, "source", where, _node_name),
                _field(spec, "sink", where, _node_name),
                _field(spec, "demand", where, float)))
        return NetworkInstance(network, commodities)
    raise ModelError(f"unknown instance type {kind!r}")


def instance_digest(instance: AnyInstance) -> str:
    """SHA-256 hex digest of an instance's canonical byte layout.

    The identity of an instance for every cache, store and shard route.
    Dispatch is structural, like :func:`instance_to_dict`, and the digest
    raises :class:`~repro.exceptions.ModelError` for exactly the instances
    that cannot be serialised (those are simply not cacheable).  The hashed
    bytes, all little-endian, are:

    1. ``<8sqq``: the kind tag (``parallel`` / ``network``), the link or
       edge count ``m`` and the demand count ``k``;
    2. ``k`` float64 demands: the total demand, or each commodity's;
    3. an int64 byte length and the compact, key-sorted JSON of the
       topology: the link names, or ``{"commodities": [[source, sink],
       ...], "edges": [[tail, head], ...]}``;
    4. for each class of :data:`~repro.latency.columns.STOCK_CLASSES`, in
       table order: ``<qq`` with the parameter count ``p`` and row count
       ``n``, the ``n`` int64 link indices, then the ``p * n`` float64
       parameters, one field after the other (a polynomial's fields are
       its coefficient count and its zero-padded coefficients).
    """
    from repro.api.dispatch import resolve_instance_kind

    try:
        kind = resolve_instance_kind(instance)
    except ModelError:
        raise ModelError(
            f"cannot serialise instance of type {type(instance).__name__}")
    if kind == "parallel":
        columns = (instance.latency_columns()
                   if isinstance(instance, ParallelLinkInstance)
                   else LatencyColumns(instance.latencies))
        demands = [instance.demand]
        topology: Any = list(instance.names)
    else:
        network = instance.network
        edges = network.edges
        columns = (network.latency_columns() if isinstance(network, Network)
                   else LatencyColumns([edge.latency for edge in edges]))
        commodities = instance.commodities
        demands = [com.demand for com in commodities]
        topology = {"edges": [[edge.tail, edge.head] for edge in edges],
                    "commodities": [[com.source, com.sink]
                                    for com in commodities]}
    bad = columns.first_unserialisable()
    if bad is not None:
        raise ModelError(
            f"cannot serialise latency of type {type(bad).__name__}")
    text = json.dumps(topology, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256(struct.pack("<8sqq", kind.encode("ascii"),
                                        len(columns), len(demands)))
    digest.update(np.asarray(demands, dtype="<f8").tobytes())
    digest.update(struct.pack("<q", len(text)))
    digest.update(text)
    digest.update(columns.to_bytes())
    return digest.hexdigest()


def save_instance(instance: AnyInstance, path: Union[str, Path]) -> None:
    """Write an instance to a JSON file."""
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n",
                          encoding="utf-8")


def load_instance(path: Union[str, Path]) -> AnyInstance:
    """Read an instance from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON in {path}: {exc}") from exc
    return instance_from_dict(data)
