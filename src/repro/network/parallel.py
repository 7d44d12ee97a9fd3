"""Parallel-link scheduling instances ``(M, r)``."""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.exceptions import InfeasibleFlowError, ModelError
from repro.latency.base import LatencyFunction
from repro.latency.batch import LatencyBatch, LazyTuple
from repro.latency.columns import STOCK_CLASSES, LatencyColumns, check_latencies
from repro.utils.numeric import DEFAULT_ATOL, finite_real

__all__ = ["ParallelLinkInstance"]


class ParallelLinkInstance:
    """An s–t system of ``m`` parallel links sharing a total flow ``r > 0``.

    Parameters
    ----------
    latencies:
        One :class:`~repro.latency.LatencyFunction` per link.
    demand:
        Total flow ``r > 0`` to be routed from the source to the sink.
    names:
        Optional human-readable link names (defaults to ``M1 .. Mm`` as in the
        paper's figures).

    The instance is immutable; the OpTop recursion produces new, smaller
    instances via :meth:`sub_instance`, and the induced-equilibrium code
    produces the Followers' view via :meth:`shifted`.  Those derived
    instances carry their parent's columns, an index map and offsets:
    their :attr:`latencies` and :attr:`names` are built on first read.
    """

    __slots__ = ("_latencies", "demand", "_names", "_batch", "_uppers",
                 "_columns")

    def __init__(self, latencies: Sequence[LatencyFunction], demand: float,
                 *, names: Sequence[str] | None = None) -> None:
        latencies = tuple(latencies)
        if not latencies:
            raise ModelError("a parallel-link instance needs at least one link")
        check_latencies(latencies)
        if names is None:
            names = tuple(f"M{i + 1}" for i in range(len(latencies)))
        else:
            names = tuple(str(n) for n in names)
            if len(names) != len(latencies):
                raise ModelError(
                    f"got {len(names)} names for {len(latencies)} links")
        self._init(latencies, demand, names, _domain_uppers(latencies), None,
                   None)

    def _init(self, latencies, demand: float, names, uppers: np.ndarray,
              batch: LatencyBatch | None,
              columns: LatencyColumns | None) -> None:
        """Set the fields after checking ``demand`` against the capacity.

        Derived instances come straight here: their links were validated
        when the parent was built, so only the new demand is checked.
        They pass ``latencies=None`` (their batch builds them on first
        read) and may pass ``names`` as a ``LazyTuple``.
        """
        demand = finite_real(demand, "total demand")
        if demand < 0.0:
            raise ModelError(f"total demand must be >= 0, got {demand!r}")
        # ``cumsum`` adds left to right: the same capacity, to the last bit,
        # as summing the latencies' ``domain_upper`` one by one.
        capacity = float(np.cumsum(uppers)[-1])
        if demand >= capacity:
            raise ModelError(
                f"demand {demand!r} exceeds the total link capacity {capacity!r}")
        self._latencies = latencies
        self.demand = demand
        self._names = names
        self._uppers = uppers
        self._batch = batch
        self._columns = columns

    @staticmethod
    def _derived(latencies, demand: float, names, uppers: np.ndarray,
                 batch: LatencyBatch | None,
                 columns: LatencyColumns | None = None,
                 ) -> "ParallelLinkInstance":
        new = object.__new__(ParallelLinkInstance)
        new._init(latencies, demand, names, uppers, batch, columns)
        return new

    @property
    def latencies(self) -> Tuple[LatencyFunction, ...]:
        """One latency function per link (built on first read if derived)."""
        if self._latencies is None:
            self._latencies = self._batch.latencies
        return self._latencies

    @property
    def names(self) -> Tuple[str, ...]:
        """The link names (built on first read if derived)."""
        self._names = LazyTuple.resolve(self._names)
        return self._names

    def latency_columns(self) -> LatencyColumns:
        """The per-class parameter columns of the link latencies (cached).

        The one canonicalisation of the links: the instance digest hashes
        these columns and :meth:`latency_batch` fills its buckets from them.
        """
        if self._columns is None:
            self._columns = LatencyColumns(self.latencies)
        return self._columns

    def latency_batch(self) -> LatencyBatch:
        """The vectorized family-grouped view of the link latencies (cached).

        Built lazily on first use from :meth:`latency_columns`; the instance
        is immutable, so the batch stays valid for its whole lifetime.
        """
        if self._batch is None:
            self._batch = LatencyBatch.from_columns(self.latency_columns())
        return self._batch

    # The columns and the batch are derived views; drop them when pickling
    # (a copy rebuilds them on demand).
    def __getstate__(self):
        return (self.latencies, self.demand, self.names)

    def __setstate__(self, state) -> None:
        self._latencies, self.demand, self._names = state
        self._uppers = _domain_uppers(self._latencies)
        self._batch = None
        self._columns = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_links(self) -> int:
        """Number of parallel links ``m``."""
        return len(self._uppers)

    @property
    def has_constant_links(self) -> bool:
        """``True`` when at least one link has a constant latency."""
        return bool(self.latency_batch().is_constant.any())

    def __len__(self) -> int:
        return self.num_links

    def __repr__(self) -> str:
        return (f"ParallelLinkInstance(num_links={self.num_links}, "
                f"demand={self.demand!r})")

    # ------------------------------------------------------------------ #
    # Flow functionals
    # ------------------------------------------------------------------ #
    def validate_flow(self, flows: Iterable[float], *, demand: float | None = None,
                      atol: float = 1e-6) -> np.ndarray:
        """Check that ``flows`` is a feasible assignment and return it as an array.

        Feasibility means: one value per link, all non-negative (up to
        ``atol``) and summing to ``demand`` (default: the instance demand).
        Raises :class:`InfeasibleFlowError` otherwise.  Tiny negative values
        within tolerance are clipped to zero.
        """
        arr = np.asarray(list(flows) if not isinstance(flows, np.ndarray) else flows,
                         dtype=float)
        if arr.shape != (self.num_links,):
            raise InfeasibleFlowError(
                f"expected {self.num_links} link flows, got shape {arr.shape}")
        if np.any(arr < -atol):
            raise InfeasibleFlowError(
                f"negative link flow: {arr.min()!r}")
        target = self.demand if demand is None else float(demand)
        total = float(arr.sum())
        if abs(total - target) > atol * max(1.0, target):
            raise InfeasibleFlowError(
                f"link flows sum to {total!r}, expected {target!r}")
        return np.clip(arr, 0.0, None)

    def latencies_at(self, flows: np.ndarray) -> np.ndarray:
        """Per-link latencies ``l_i(x_i)``."""
        return self.latency_batch().values(np.asarray(flows, dtype=float))

    def marginal_costs_at(self, flows: np.ndarray) -> np.ndarray:
        """Per-link marginal costs ``l_i(x_i) + x_i l_i'(x_i)``."""
        return self.latency_batch().marginals(np.asarray(flows, dtype=float))

    def cost(self, flows: np.ndarray) -> float:
        """Total cost ``C(X) = sum_i x_i l_i(x_i)``."""
        return self.latency_batch().total_cost(np.asarray(flows, dtype=float))

    def beckmann(self, flows: np.ndarray) -> float:
        """Beckmann potential ``sum_i int_0^{x_i} l_i(t) dt``."""
        return self.latency_batch().beckmann(np.asarray(flows, dtype=float))

    # ------------------------------------------------------------------ #
    # Derived instances
    # ------------------------------------------------------------------ #
    def with_demand(self, demand: float) -> "ParallelLinkInstance":
        """A copy of this instance with a different total flow.

        The links are unchanged, so the copy *shares* the cached
        :class:`LatencyBatch` (and with it the sorted-breakpoint level
        profiles): elastic-demand bisections and demand sweeps re-solve
        without re-grouping the families per trial demand.
        """
        return self._derived(self._latencies, demand, self._names,
                             self._uppers, self._batch, self._columns)

    def sub_instance(self, link_indices: Sequence[int],
                     demand: float) -> "ParallelLinkInstance":
        """The restriction of the system to ``link_indices`` with flow ``demand``.

        Used by OpTop when it discards optimally frozen links and recurses on
        the remaining subsystem.  The sub-batch is sliced from this
        instance's :class:`LatencyBatch` (:meth:`LatencyBatch.subset`), and
        the kept links are not re-validated: only the new demand is checked.
        """
        if not len(link_indices):
            raise ModelError("sub_instance needs at least one link")
        batch = self.latency_batch().subset(link_indices)
        idx = np.array(link_indices, dtype=np.intp)  # validated by subset
        return self._derived(None, demand, LazyTuple(self._names, idx),
                             self._uppers[idx], batch)

    def shifted(self, strategy_flows: np.ndarray) -> "ParallelLinkInstance":
        """The Followers' view of the system under a Stackelberg pre-load.

        Every latency becomes ``l_i(x + s_i)`` and the demand drops by the
        controlled amount ``sum_i s_i``.  The Followers' batch is derived
        from this instance's (:meth:`LatencyBatch.shifted`), so the links
        are neither re-canonicalised nor re-validated.
        """
        try:
            strategy = np.asarray(strategy_flows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"Stackelberg strategy flows must be numbers: "
                             f"{exc}") from None
        if strategy.shape != (self.num_links,):
            raise ModelError(
                f"expected {self.num_links} strategy flows, got shape {strategy.shape}")
        if np.any(strategy < -DEFAULT_ATOL):
            raise ModelError("Stackelberg strategy flows must be non-negative")
        strategy = np.clip(strategy, 0.0, None)
        remaining = self.demand - float(strategy.sum())
        if remaining < -1e-9 * max(1.0, self.demand):
            raise ModelError(
                f"strategy routes {strategy.sum()!r} > total demand {self.demand!r}")
        remaining = max(0.0, remaining)
        parent = self.latency_batch()
        batch = parent.shifted(strategy)
        # A shift leaves an infinite domain infinite; only the finite domains
        # of moved links need the shifted latency's own bound.  A derived
        # batch's column holds it bit for bit; one canonicalised afresh
        # (nested shifts accumulate in another order) reads the objects.
        uppers = self._uppers.copy()
        moved = np.flatnonzero((strategy != 0.0) & np.isfinite(uppers))
        if moved.size:
            uppers[moved] = (batch.domain_upper[moved] if parent.derives_shifts
                             else [batch.latencies[i].domain_upper
                                   for i in moved.tolist()])
        return self._derived(None, remaining, self._names, uppers, batch)


#: Stock classes with an unbounded domain: they inherit the class constant
#: ``domain_upper = inf`` (their batch families report ``inf`` too).
_UNBOUNDED = frozenset(entry.cls for entry in STOCK_CLASSES
                       if entry.cls.domain_upper == math.inf)


def _domain_uppers(latencies: Sequence[LatencyFunction]) -> np.ndarray:
    """Per-link exclusive upper ends of the latency domains.

    Checked once per distinct class: links of the unbounded stock classes
    alone need no per-link read.
    """
    if set(map(type, latencies)) <= _UNBOUNDED:
        return np.full(len(latencies), math.inf)
    return np.array([lat.domain_upper for lat in latencies], dtype=float)
