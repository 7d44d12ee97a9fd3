"""The stock latency classes as a table, and the columnar canonicaliser.

Six latency classes ship with the package.  :data:`STOCK_CLASSES` lists
each one's JSON type name, its parameter fields (with their JSON keys and
read defaults) and the :class:`~repro.latency.LatencyBatch` family its
non-constant rows belong to.  Every consumer of latency parameters reads
them through this table: the batch canonicaliser, the instance digest and
the JSON (de)serialisers in :mod:`repro.serialization`.

:class:`LatencyColumns` is the one canonicaliser.  It groups a latency
sequence by ``type(lat)`` in a single pass, resolves each distinct class
once, and reads each stock class's parameters as float64 columns with one
attribute comprehension per field.  Class resolution uses ``issubclass``
in table order, so a subclass of a stock class is read as that stock class
exactly as the ``isinstance`` chains of earlier versions routed it.
Stackelberg wrappers (:class:`~repro.latency.ShiftedLatency`,
:class:`~repro.latency.ScaledLatency`) and classes the table does not know
are kept as objects in :attr:`LatencyColumns.others`.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.latency.base import LatencyFunction
from repro.latency.linear import ConstantLatency, LinearLatency
from repro.latency.mm1 import MM1Latency
from repro.latency.polynomial import BPRLatency, MonomialLatency, PolynomialLatency
from repro.latency.shifted import ScaledLatency, ShiftedLatency

__all__ = ["StockClass", "STOCK_CLASSES", "WRAPPER", "stock_class",
           "check_latencies", "LatencyColumns"]


@dataclass(frozen=True, eq=False)
class StockClass:
    """One stock latency class: how it serialises and how it batches."""

    cls: type
    #: The ``"type"`` of its JSON form.
    tag: str
    #: Attribute names of the parameters, in constructor order.
    fields: Tuple[str, ...]
    #: The JSON keys of ``fields``, aligned with them.
    keys: Tuple[str, ...]
    #: The :class:`~repro.latency.LatencyBatch` bucket of non-constant rows.
    family: str
    #: JSON keys that may be omitted on read, with their values.
    defaults: Dict[str, float] = field(default_factory=dict)

    @property
    def ragged(self) -> bool:
        """Whether the one field is a variable-length coefficient tuple."""
        return self.cls is PolynomialLatency


#: The fixed class order of the canonicaliser, the digest and the JSON
#: type dispatch.
STOCK_CLASSES: Tuple[StockClass, ...] = (
    StockClass(LinearLatency, "linear", ("slope", "intercept"),
               ("slope", "intercept"), "linear",
               {"slope": 0.0, "intercept": 0.0}),
    StockClass(ConstantLatency, "constant", ("constant",), ("value",),
               "constant"),
    StockClass(MonomialLatency, "monomial",
               ("coefficient", "degree", "constant"),
               ("coefficient", "degree", "constant"), "power",
               {"constant": 0.0}),
    StockClass(PolynomialLatency, "polynomial", ("coefficients",),
               ("coefficients",), "poly"),
    StockClass(BPRLatency, "bpr", ("free_flow_time", "capacity", "alpha", "beta"),
               ("free_flow_time", "capacity", "alpha", "beta"), "power",
               {"alpha": 0.15, "beta": 4.0}),
    StockClass(MM1Latency, "mm1", ("capacity",), ("capacity",), "mm1"),
)

#: Resolution of classes outside the table that batches can unwrap.
WRAPPER = "wrapper"

_BY_CLASS = {entry.cls: entry for entry in STOCK_CLASSES}


def stock_class(cls: type):
    """The table entry ``cls`` is read as, :data:`WRAPPER`, or ``None``.

    A stock class is one dictionary lookup.  Any other class is resolved
    with ``issubclass``, wrappers first and then in table order: the
    routing of an ``isinstance`` chain, decided per class, not per link.
    """
    entry = _BY_CLASS.get(cls)
    if entry is not None:
        return entry
    if issubclass(cls, (ShiftedLatency, ScaledLatency)):
        return WRAPPER
    for entry in STOCK_CLASSES:
        if issubclass(cls, entry.cls):
            return entry
    return None


def check_latencies(latencies: Sequence[object]) -> None:
    """Raise :class:`ModelError` naming the first non-``LatencyFunction``.

    Checks once per distinct class; only a class failing ``issubclass``
    falls back to a per-link ``isinstance`` scan for the message.
    """
    if all(issubclass(cls, LatencyFunction)
           for cls in set(map(type, latencies))):
        return
    for i, lat in enumerate(latencies):
        if not isinstance(lat, LatencyFunction):
            raise ModelError(
                f"link {i}: expected a LatencyFunction, "
                f"got {type(lat).__name__}")


def _read(entry: StockClass, objs: Sequence[LatencyFunction]) -> np.ndarray:
    """The ``(fields, rows)`` float64 parameter matrix of one class.

    A polynomial's matrix holds the coefficient count in its first row and
    the coefficients, zero-padded to the longest, below it.
    """
    if entry.ragged:
        rows = [lat.coefficients for lat in objs]
        lengths = [len(row) for row in rows]
        params = np.zeros((1 + max(lengths), len(rows)))
        params[0] = lengths
        for j, row in enumerate(rows):
            params[1:1 + len(row), j] = row
        return params
    params = np.empty((len(entry.fields), len(objs)))
    for k, name in enumerate(entry.fields):
        params[k] = np.fromiter(map(operator.attrgetter(name), objs),
                                dtype=float, count=len(objs))
    return params


class LatencyColumns:
    """A latency sequence as per-class index and parameter columns.

    Attributes
    ----------
    latencies:
        The sequence, as a tuple.
    classes:
        The distinct latency classes, in order of first appearance.
    groups:
        One ``(indices, params)`` pair per :data:`STOCK_CLASSES` entry, in
        table order: the ascending int64 link indices of the links read as
        that class and their ``(fields, rows)`` float64 parameter matrix.
    others:
        ``(index, latency)`` of every wrapper or unknown-class link, in
        link order.
    """

    __slots__ = ("latencies", "classes", "groups", "others")

    def __init__(self, latencies: Sequence[LatencyFunction]) -> None:
        latencies = tuple(latencies)
        types = list(map(type, latencies))
        self.latencies = latencies
        self.classes = tuple(dict.fromkeys(types))
        codes = {cls: _code(stock_class(cls)) for cls in self.classes}
        if len(codes) == 1:
            code_array = np.full(len(types), codes[types[0]], dtype=np.intp)
        else:
            code_array = np.fromiter(map(codes.__getitem__, types),
                                     dtype=np.intp, count=len(types))
        present = set(codes.values())
        groups = []
        for code, entry in enumerate(STOCK_CLASSES):
            if code not in present:
                groups.append((np.empty(0, dtype=np.int64),
                               np.empty((0 if entry.ragged
                                         else len(entry.fields), 0))))
                continue
            idx = np.flatnonzero(code_array == code).astype(np.int64)
            positions = idx.tolist()
            objs = (operator.itemgetter(*positions)(latencies)
                    if len(positions) > 1 else (latencies[positions[0]],))
            groups.append((idx, _read(entry, objs)))
        self.groups: Tuple[Tuple[np.ndarray, np.ndarray], ...] = tuple(groups)
        other = len(STOCK_CLASSES)
        if other in present:
            self.others = tuple(
                (i, latencies[i])
                for i in np.flatnonzero(code_array == other).tolist())
        else:
            self.others = ()

    def __len__(self) -> int:
        return len(self.latencies)

    def to_bytes(self) -> bytes:
        """The stock-class columns: the bytes of step 4 of
        :func:`repro.serialization.instance_digest` (not :attr:`others`)."""
        parts = []
        for indices, params in self.groups:
            parts.append(struct.pack("<qq", *params.shape))
            parts.append(indices.astype("<i8", copy=False).tobytes())
            parts.append(params.astype("<f8", copy=False).tobytes())
        return b"".join(parts)

    def first_unserialisable(self) -> Optional[LatencyFunction]:
        """The first link outside the stock table, if any."""
        return self.others[0][1] if self.others else None


def _code(resolved) -> int:
    """Group code: the table position, or ``len(STOCK_CLASSES)``."""
    if isinstance(resolved, StockClass):
        return STOCK_CLASSES.index(resolved)
    return len(STOCK_CLASSES)
