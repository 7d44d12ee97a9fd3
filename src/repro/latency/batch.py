"""Batched evaluation of heterogeneous latency families.

:class:`LatencyBatch` takes a ``Sequence[LatencyFunction]`` and groups the
links by analytic family — linear/affine, constant, power (monomial and BPR),
M/M/1, polynomial — into NumPy coefficient arrays.  Every quantity the
solvers need is then one array operation over each family instead of ``m``
Python method calls:

* ``values(x)``, ``derivs(x)``, ``second_derivs(x)``, ``marginals(x)``,
  ``integrals(x)`` — elementwise calculus at a shared scalar load or a
  per-link load vector;
* ``inverse_values(level)`` / ``inverse_marginals(level)`` — the per-link
  loads at which the latency (resp. marginal cost) reaches ``level``, the
  kernel of the water-filling solvers.  Closed forms are used wherever the
  family admits one (linear, M/M/1, un-shifted power); the rest fall back to
  a *vectorized* bisection that still evaluates all affected links per step
  in one array op.

The buckets are filled from the per-class parameter columns of
:class:`~repro.latency.columns.LatencyColumns`, one array expression per
stock class.  Stackelberg wrappers are folded into the coefficient arrays at
construction time: ``ShiftedLatency``/``ScaledLatency`` around a linear base
collapse to a plain affine row, a shifted M/M/1 queue collapses to an M/M/1
queue with reduced capacity, and power/polynomial families carry an explicit
offset column.  Latency subclasses the canonicaliser does not recognise land
in a ``generic`` bucket evaluated with the ordinary scalar loop, so a batch
is always exact — unknown families only lose the speed-up, never
correctness.

The batch preserves the scalar layer's domain semantics: evaluating an M/M/1
family at or beyond its capacity raises
:class:`~repro.exceptions.LatencyDomainError`, exactly like
:meth:`repro.latency.MM1Latency.value`.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import LatencyDomainError, ModelError
from repro.latency.base import LatencyFunction
from repro.latency.columns import (
    STOCK_CLASSES,
    WRAPPER,
    LatencyColumns,
    check_latencies,
    stock_class,
)
from repro.latency.shifted import ScaledLatency, ShiftedLatency
from repro.utils.vectorized import expand_upper_brackets, vectorized_bisect

__all__ = ["LatencyBatch"]

#: The ``shifted`` implementations :meth:`LatencyBatch.shifted` can mirror
#: with array operations; a latency class overriding ``shifted`` may return
#: anything, so batches holding one re-run the canonicaliser instead.
_STOCK_SHIFTS = (LatencyFunction.shifted, ShiftedLatency.shifted)

#: Relative bracket tolerance of the numeric inverse fallbacks; matches the
#: default of :func:`repro.utils.rootfind.bisect_root` used by the scalar
#: ``LatencyFunction._numeric_inverse``.
_INVERSE_TOL = 1e-12


def _power_loads_at_levels(levels: np.ndarray, coeffs: np.ndarray,
                           degrees: np.ndarray, consts: np.ndarray,
                           offsets: np.ndarray, kind: str) -> np.ndarray:
    """Per-row loads of ``a (x + o)^d + c`` rows at each level, shape (K, n).

    ``kind == "nash"`` inverts the latency itself (closed form for any
    offset); ``kind == "optimum"`` inverts the marginal cost, which has a
    closed form only for un-shifted rows (``o == 0``) and affine rows
    (``d == 1``) — callers must not select other rows through this path.
    """
    L = np.asarray(levels, dtype=float)[:, None]
    if kind == "nash":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = np.maximum(L - consts, 0.0) / coeffs
            x = np.power(t, 1.0 / degrees) - offsets
        return np.maximum(x, 0.0)
    lin = degrees == 1.0
    scale = coeffs * (1.0 + degrees)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_pow = np.power(np.maximum(L - consts, 0.0) / scale, 1.0 / degrees)
    x_lin = np.maximum(L - consts - coeffs * offsets, 0.0) / (2.0 * coeffs)
    return np.where(lin, x_lin, x_pow)


def _power_level_flow_dflow(levels: np.ndarray, coeffs: np.ndarray,
                            degrees: np.ndarray, consts: np.ndarray,
                            offsets: np.ndarray,
                            kind: str) -> Tuple[np.ndarray, np.ndarray]:
    """Fused ``(flow_sum, dflow_sum)`` of the power closed forms, shape (K,).

    One evaluation shares the ``np.power`` intermediates between the load and
    its level-derivative — the dominant cost of a Newton step on mixed
    batches — instead of recomputing them in two separate passes.
    """
    L = np.asarray(levels, dtype=float)[:, None]
    if kind == "nash":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = np.maximum(L - consts, 0.0) / coeffs
            r = np.power(t, 1.0 / degrees)
            x = r - offsets
            d = r / (t * coeffs * degrees)
        flow = np.maximum(x, 0.0).sum(axis=1)
        dflow = np.where(x > 0.0, d, 0.0).sum(axis=1)
        return flow, dflow
    lin = degrees == 1.0
    scale = coeffs * (1.0 + degrees)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.maximum(L - consts, 0.0) / scale
        r = np.power(u, 1.0 / degrees)
        d_pow = np.where(u > 0.0, r / (u * scale * degrees), 0.0)
    x_lin = np.maximum(L - consts - coeffs * offsets, 0.0) / (2.0 * coeffs)
    d_lin = (L > consts + coeffs * offsets) / (2.0 * coeffs)
    flow = np.where(lin, x_lin, r).sum(axis=1)
    dflow = np.where(lin, d_lin, d_pow).sum(axis=1)
    return flow, dflow


class LazyTuple:
    """A tuple derived from a parent tuple, built on its first :meth:`get`.

    The items are ``parent[i] for i in index`` (all of the parent's
    without an ``index``), each with a non-zero ``offsets`` entry then
    replaced by ``item.shifted(offset)``.  ``parent`` is a tuple or another
    :class:`LazyTuple`.  Derived batches and instances carry their
    latencies and link names this way, so a view whose objects nobody
    reads builds none.
    """

    __slots__ = ("_parent", "_index", "_offsets", "_items")

    def __init__(self, parent, index: Optional[np.ndarray] = None,
                 offsets: Optional[np.ndarray] = None) -> None:
        self._parent, self._index, self._offsets = parent, index, offsets
        self._items: Optional[tuple] = None

    def get(self) -> tuple:
        """The items, built once."""
        if self._items is None:
            items = LazyTuple.resolve(self._parent)
            if self._index is not None:
                items = tuple(map(items.__getitem__, self._index.tolist()))
            if self._offsets is not None:
                items = list(items)
                values = self._offsets.tolist()
                for i in np.flatnonzero(self._offsets).tolist():
                    items[i] = items[i].shifted(values[i])
                items = tuple(items)
            self._items = items
        return self._items

    @staticmethod
    def resolve(items) -> tuple:
        """``items`` as a tuple: a :class:`LazyTuple` is built, a tuple
        returned as it is."""
        return items.get() if isinstance(items, LazyTuple) else items


def _unwrap(lat: LatencyFunction) -> Tuple[LatencyFunction, float, float, bool]:
    """Strip ``ShiftedLatency``/``ScaledLatency`` wrappers.

    Returns ``(base, offset, factor, nested)`` such that the original latency
    is ``x -> factor * base(x + offset)`` (shift and scale commute, so nesting
    in any order accumulates correctly).  ``nested`` flags a shift below the
    outermost wrapper: shifting such a row once more does not add the new
    offset last, so :meth:`LatencyBatch.shifted` cannot derive it.
    """
    offset = 0.0
    factor = 1.0
    base = lat
    nested = False
    while True:
        if isinstance(base, ShiftedLatency):
            nested = nested or base is not lat
            offset += base.offset
            base = base.base
        elif isinstance(base, ScaledLatency):
            factor *= base.factor
            base = base.base
        else:
            return base, offset, factor, nested


class _Members:
    """Common bookkeeping of one family bucket."""

    #: Frozen per-row coefficient arrays, sliced row-wise by :meth:`take`.
    _ARRAYS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.indices = np.empty(0, dtype=np.intp)

    @classmethod
    def filled(cls, indices: np.ndarray, columns: Dict[str, np.ndarray],
               ) -> "_Members":
        """A frozen bucket holding ``columns`` for the links ``indices``."""
        fam = cls()
        fam.indices = indices
        if len(indices):
            for name in cls._ARRAYS:
                setattr(fam, name, columns[name])
            fam._after_take()
        return fam

    def __len__(self) -> int:
        return len(self.indices)

    def index_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)

    def take(self, rows: np.ndarray, new_indices: np.ndarray) -> "_Members":
        """A frozen copy restricted to ``rows``, re-indexed to ``new_indices``."""
        clone = type(self)()
        clone.indices = new_indices
        if len(new_indices):
            for name in self._ARRAYS:
                setattr(clone, name, getattr(self, name)[rows])
            clone._after_take()
        return clone

    def shift(self, offsets: np.ndarray) -> "_Members":
        """A frozen copy with row ``k`` shifted by ``offsets[k]`` more.

        Only the ``offsets`` column moves; :meth:`_after_take` re-derives
        every column that depends on it with the construction formula, so
        the copy holds the floats the canonicaliser gives the shifted
        latencies.  Buckets without an offset column are load-shift
        invariant and return themselves.
        """
        if "offsets" not in self._ARRAYS:
            return self
        clone = copy.copy(self)
        clone.offsets = self.offsets + offsets
        clone._after_take()
        return clone

    def _after_take(self) -> None:
        """Recompute derived attributes after :meth:`take` or :meth:`shift`."""

    def analytic_for(self, kind: str) -> bool:
        """Whether every row has a closed-form inverse for this solve kind."""
        return False


class _LinearFamily(_Members):
    """Affine rows ``l(x) = slope * x + intercept`` with ``slope > 0``."""

    name = "linear"
    #: ``slopes`` is ``factor * base slope``; the intercept of a shifted row
    #: ``factor * (base slope * offset + base intercept)`` is re-derived from
    #: the raw base columns whenever the offsets change.
    _ARRAYS = ("slopes", "base_slopes", "base_intercepts", "factors",
               "offsets")

    def _after_take(self) -> None:
        self.intercepts = self.factors * (self.base_slopes * self.offsets
                                          + self.base_intercepts)

    def values(self, x) -> np.ndarray:
        return self.slopes * x + self.intercepts

    def derivs(self, x) -> np.ndarray:
        return np.broadcast_to(self.slopes, (len(self),)).copy() if np.isscalar(x) \
            else self.slopes + 0.0 * x

    def second_derivs(self, x) -> np.ndarray:
        return np.zeros(len(self))

    def integrals(self, x) -> np.ndarray:
        return (0.5 * self.slopes * x + self.intercepts) * x

    def inverse_values(self, y: float) -> np.ndarray:
        return np.maximum((y - self.intercepts) / self.slopes, 0.0)

    def inverse_marginals(self, y: float) -> np.ndarray:
        return np.maximum((y - self.intercepts) / (2.0 * self.slopes), 0.0)

    def domain_upper(self) -> np.ndarray:
        return np.full(len(self), math.inf)

    def analytic_for(self, kind: str) -> bool:
        return True

    def _level_denoms(self, kind: str) -> np.ndarray:
        return self.slopes if kind == "nash" else 2.0 * self.slopes

    def level_flow_sum(self, levels: np.ndarray, kind: str) -> np.ndarray:
        L = np.asarray(levels, dtype=float)[:, None]
        return (np.maximum(L - self.intercepts, 0.0)
                / self._level_denoms(kind)).sum(axis=1)

    def level_flow_dflow_sum(self, levels: np.ndarray,
                             kind: str) -> Tuple[np.ndarray, np.ndarray]:
        L = np.asarray(levels, dtype=float)[:, None]
        gap = L - self.intercepts
        denoms = self._level_denoms(kind)
        return ((np.maximum(gap, 0.0) / denoms).sum(axis=1),
                ((gap > 0.0) / denoms).sum(axis=1))


class _ConstantFamily(_Members):
    """Load-independent rows ``l(x) = c``."""

    name = "constant"
    _ARRAYS = ("constants",)

    def values(self, x) -> np.ndarray:
        return self.constants.copy()

    def derivs(self, x) -> np.ndarray:
        return np.zeros(len(self))

    second_derivs = derivs

    def integrals(self, x) -> np.ndarray:
        return self.constants * x

    def inverse_values(self, y: float) -> np.ndarray:
        # Constant latencies have no inverse; the water-filling solvers mask
        # these entries out and route the excess flow explicitly.
        return np.zeros(len(self))

    inverse_marginals = inverse_values

    def domain_upper(self) -> np.ndarray:
        return np.full(len(self), math.inf)


class _PowerFamily(_Members):
    """Rows ``l(x) = a * (x + o)^d + c`` with ``a > 0``, ``d >= 1``.

    Covers :class:`MonomialLatency` and :class:`BPRLatency`, including their
    shifted/scaled wrappers (the scale factor folds into ``a`` and ``c``).
    """

    name = "power"
    _ARRAYS = ("coeffs", "degrees", "consts", "offsets")

    def _after_take(self) -> None:
        self.has_offsets = bool(np.any(self.offsets > 0.0))

    def values(self, x) -> np.ndarray:
        return self.coeffs * np.power(x + self.offsets, self.degrees) + self.consts

    def derivs(self, x) -> np.ndarray:
        return (self.coeffs * self.degrees
                * np.power(x + self.offsets, self.degrees - 1.0))

    def second_derivs(self, x) -> np.ndarray:
        return (self.coeffs * self.degrees * (self.degrees - 1.0)
                * np.power(x + self.offsets, self.degrees - 2.0))

    def integrals(self, x) -> np.ndarray:
        exp = self.degrees + 1.0
        shifted = (np.power(x + self.offsets, exp) - np.power(self.offsets, exp))
        return self.coeffs * shifted / exp + self.consts * x

    def inverse_values(self, y: float) -> np.ndarray:
        at_zero = self.values(0.0)
        with np.errstate(invalid="ignore"):
            root = np.power(np.maximum(y - self.consts, 0.0) / self.coeffs,
                            1.0 / self.degrees) - self.offsets
        return np.where(y <= at_zero, 0.0, np.maximum(root, 0.0))

    def inverse_marginals(self, y: float) -> np.ndarray:
        at_zero = self.values(0.0)  # marginal cost at zero equals l(0)
        if not self.has_offsets:
            scale = self.coeffs * (1.0 + self.degrees)
            with np.errstate(invalid="ignore"):
                root = np.power(np.maximum(y - self.consts, 0.0) / scale,
                                1.0 / self.degrees)
            return np.where(y <= at_zero, 0.0, np.maximum(root, 0.0))
        # Shifted powers have no closed-form marginal inverse; bisect all rows
        # at once.  marginal(x) >= value(x), so the value inverse brackets the
        # root from above.
        hi = np.maximum(self.inverse_values(y), 0.0)
        lo = np.zeros(len(self))

        def gap(x: np.ndarray) -> np.ndarray:
            return self.values(x) + x * self.derivs(x) - y

        solved = vectorized_bisect(gap, lo, hi, tol=_INVERSE_TOL)
        return np.where(y <= at_zero, 0.0, solved)

    def domain_upper(self) -> np.ndarray:
        return np.full(len(self), math.inf)

    def analytic_for(self, kind: str) -> bool:
        if kind == "nash":
            return True
        # The marginal cost of a *shifted* power row has no closed-form
        # inverse unless the row is affine.
        return bool(np.all((self.offsets == 0.0) | (self.degrees == 1.0)))

    def level_flow_sum(self, levels: np.ndarray, kind: str) -> np.ndarray:
        return _power_loads_at_levels(levels, self.coeffs, self.degrees,
                                      self.consts, self.offsets, kind).sum(axis=1)

    def level_flow_dflow_sum(self, levels: np.ndarray,
                             kind: str) -> Tuple[np.ndarray, np.ndarray]:
        return _power_level_flow_dflow(levels, self.coeffs, self.degrees,
                                       self.consts, self.offsets, kind)


class _MM1Family(_Members):
    """Rows ``l(x) = factor / (capacity - x)`` for ``x < capacity``.

    A Stackelberg shift by ``s`` is exactly an M/M/1 queue with capacity
    ``capacity - s``, so offsets fold into the capacity column.
    """

    name = "mm1"
    _ARRAYS = ("base_capacities", "offsets", "factors")

    def _after_take(self) -> None:
        self.capacities = self.base_capacities - self.offsets

    def _check_domain(self, x) -> None:
        if np.any(np.asarray(x) >= self.capacities):
            load = float(np.max(np.asarray(x, dtype=float) - self.capacities))
            raise LatencyDomainError(
                f"M/M/1 latency evaluated at load >= capacity "
                f"(excess {load!r})")

    def values(self, x) -> np.ndarray:
        self._check_domain(x)
        return self.factors / (self.capacities - x)

    def derivs(self, x) -> np.ndarray:
        self._check_domain(x)
        diff = self.capacities - x
        return self.factors / (diff * diff)

    def second_derivs(self, x) -> np.ndarray:
        self._check_domain(x)
        diff = self.capacities - x
        return 2.0 * self.factors / (diff * diff * diff)

    def integrals(self, x) -> np.ndarray:
        self._check_domain(x)
        return self.factors * np.log(self.capacities / (self.capacities - x))

    def _clamp_inside(self, root: np.ndarray) -> np.ndarray:
        # At huge levels ``c - f/y`` rounds to exactly ``c``; a flow *at*
        # capacity is outside the open domain and would make any later
        # ``values``/``derivs`` call raise.  Clamp strictly inside, one ulp
        # below capacity — far below the solver tolerances, so the water
        # level is unaffected.
        return np.minimum(root, np.nextafter(self.capacities, 0.0))

    def inverse_values(self, y: float) -> np.ndarray:
        free_flow = self.factors / self.capacities
        with np.errstate(divide="ignore"):
            root = self._clamp_inside(self.capacities - self.factors / y)
        return np.where(y <= free_flow, 0.0, np.maximum(root, 0.0))

    def inverse_marginals(self, y: float) -> np.ndarray:
        # marginal cost factor*c/(c-x)^2 = y  =>  x = c - sqrt(factor*c/y).
        free_flow = self.factors / self.capacities
        with np.errstate(divide="ignore"):
            root = self._clamp_inside(
                self.capacities - np.sqrt(self.factors * self.capacities / y))
        return np.where(y <= free_flow, 0.0, np.maximum(root, 0.0))

    def domain_upper(self) -> np.ndarray:
        return self.capacities.copy()

    def analytic_for(self, kind: str) -> bool:
        return True

    def level_flow_sum(self, levels: np.ndarray, kind: str) -> np.ndarray:
        L = np.asarray(levels, dtype=float)[:, None]
        free_flow = self.factors / self.capacities
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if kind == "nash":
                x = self.capacities - self.factors / L
            else:
                x = self.capacities - np.sqrt(
                    self.factors * self.capacities / L)
            x = np.minimum(x, np.nextafter(self.capacities, 0.0))
        return np.where(L > free_flow, np.maximum(x, 0.0), 0.0).sum(axis=1)

    def level_flow_dflow_sum(self, levels: np.ndarray,
                             kind: str) -> Tuple[np.ndarray, np.ndarray]:
        L = np.asarray(levels, dtype=float)[:, None]
        free_flow = self.factors / self.capacities
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if kind == "nash":
                inv = 1.0 / L
                x = self.capacities - self.factors * inv
                d = self.factors * inv * inv
            else:
                s = np.sqrt(self.factors * self.capacities / L)
                x = self.capacities - s
                d = 0.5 * s / L
            x = np.minimum(x, np.nextafter(self.capacities, 0.0))
        active = L > free_flow
        return (np.where(active, np.maximum(x, 0.0), 0.0).sum(axis=1),
                np.where(active, d, 0.0).sum(axis=1))


class _PolyFamily(_Members):
    """Rows ``l(x) = sum_k C[k] (x + o)^k`` with non-negative coefficients."""

    name = "poly"
    _ARRAYS = ("coeffs", "offsets")

    def _after_take(self) -> None:
        coeffs = self.coeffs
        width = coeffs.shape[1]
        degrees = np.arange(1, width + 1, dtype=float)
        self.deriv_coeffs = coeffs[:, 1:] * degrees[:width - 1] if width > 1 \
            else np.zeros((coeffs.shape[0], 1))
        self.integral_coeffs = coeffs / degrees  # antiderivative, constant 0
        # Rows with a single non-constant term are monomials in disguise —
        # ``C0 + Ck (x + o)^k`` — and admit the power family's closed-form
        # inverses instead of the bisection fallback.
        nonzero = coeffs[:, 1:] != 0.0
        self.is_monomial = width > 1 and bool(np.all(nonzero.sum(axis=1) == 1))
        if self.is_monomial:
            k = np.argmax(nonzero, axis=1) + 1
            rows = np.arange(coeffs.shape[0])
            self.mono_coeffs = coeffs[rows, k]
            self.mono_degrees = k.astype(float)
            self.mono_consts = coeffs[:, 0].copy()
        else:
            self.mono_coeffs = None
            self.mono_degrees = None
            self.mono_consts = None

    @staticmethod
    def _horner(coeffs: np.ndarray, t) -> np.ndarray:
        result = np.zeros(coeffs.shape[0]) + 0.0 * t
        for j in range(coeffs.shape[1] - 1, -1, -1):
            result = result * t + coeffs[:, j]
        return result

    def values(self, x) -> np.ndarray:
        return self._horner(self.coeffs, x + self.offsets)

    def derivs(self, x) -> np.ndarray:
        return self._horner(self.deriv_coeffs, x + self.offsets)

    def second_derivs(self, x) -> np.ndarray:
        width = self.deriv_coeffs.shape[1]
        if width <= 1:
            return np.zeros(len(self))
        second = self.deriv_coeffs[:, 1:] * np.arange(1, width, dtype=float)
        return self._horner(second, x + self.offsets)

    def integrals(self, x) -> np.ndarray:
        t = x + self.offsets
        return (self._horner(self.integral_coeffs, t) * t
                - self._horner(self.integral_coeffs, self.offsets) * self.offsets)

    def _bisect_inverse(self, level_fn, y: float) -> np.ndarray:
        at_zero = level_fn(0.0)
        lo = np.zeros(len(self))
        hi = expand_upper_brackets(lambda x: level_fn(x) - y, lo, initial=1.0)
        solved = vectorized_bisect(lambda x: level_fn(x) - y, lo, hi,
                                   tol=_INVERSE_TOL)
        return np.where(y <= at_zero, 0.0, solved)

    def inverse_values(self, y: float) -> np.ndarray:
        if self.is_monomial:
            return _power_loads_at_levels(
                np.array([y]), self.mono_coeffs, self.mono_degrees,
                self.mono_consts, self.offsets, "nash")[0]
        return self._bisect_inverse(self.values, y)

    def inverse_marginals(self, y: float) -> np.ndarray:
        if self.analytic_for("optimum"):
            return _power_loads_at_levels(
                np.array([y]), self.mono_coeffs, self.mono_degrees,
                self.mono_consts, self.offsets, "optimum")[0]
        return self._bisect_inverse(
            lambda x: self.values(x) + x * self.derivs(x), y)

    def domain_upper(self) -> np.ndarray:
        return np.full(len(self), math.inf)

    def analytic_for(self, kind: str) -> bool:
        if not self.is_monomial:
            return False
        if kind == "nash":
            return True
        return bool(np.all((self.offsets == 0.0) | (self.mono_degrees == 1.0)))

    def level_flow_sum(self, levels: np.ndarray, kind: str) -> np.ndarray:
        return _power_loads_at_levels(levels, self.mono_coeffs,
                                      self.mono_degrees, self.mono_consts,
                                      self.offsets, kind).sum(axis=1)

    def level_flow_dflow_sum(self, levels: np.ndarray,
                             kind: str) -> Tuple[np.ndarray, np.ndarray]:
        return _power_level_flow_dflow(levels, self.mono_coeffs,
                                       self.mono_degrees, self.mono_consts,
                                       self.offsets, kind)


class _GenericFamily(_Members):
    """Fallback bucket: unknown subclasses evaluated with the scalar loop."""

    name = "generic"

    #: The latency objects themselves; :meth:`take` slices the list.
    _ARRAYS = ("functions",)

    def __init__(self) -> None:
        super().__init__()
        self.functions: List[LatencyFunction] = []

    def take(self, rows: np.ndarray, new_indices: np.ndarray) -> "_GenericFamily":
        clone = type(self)()
        clone.indices = new_indices
        clone.functions = [self.functions[r] for r in rows.tolist()]
        return clone

    def shift(self, offsets: np.ndarray) -> "_GenericFamily":
        # Generic rows keep the wrapped object, so they take the shifted one.
        clone = type(self)()
        clone.indices = self.indices
        clone.functions = [lat.shifted(s) if s else lat for lat, s
                           in zip(self.functions, offsets.tolist())]
        return clone

    def _per_link(self, x, method: str) -> np.ndarray:
        if np.isscalar(x):
            return np.array([float(getattr(lat, method)(x))
                             for lat in self.functions])
        return np.array([float(getattr(lat, method)(xi))
                         for lat, xi in zip(self.functions, x)])

    def values(self, x) -> np.ndarray:
        return self._per_link(x, "value")

    def derivs(self, x) -> np.ndarray:
        return self._per_link(x, "derivative")

    def second_derivs(self, x) -> np.ndarray:
        raise ModelError(
            "generic latency functions expose no second derivative")

    def integrals(self, x) -> np.ndarray:
        return self._per_link(x, "integral")

    def inverse_values(self, y: float) -> np.ndarray:
        return np.array([0.0 if lat.is_constant else float(lat.inverse_value(y))
                         for lat in self.functions])

    def inverse_marginals(self, y: float) -> np.ndarray:
        return np.array([0.0 if lat.is_constant
                         else float(lat.inverse_marginal(y))
                         for lat in self.functions])

    def domain_upper(self) -> np.ndarray:
        return np.array([float(lat.domain_upper) for lat in self.functions])


class _LevelProfile:
    """The sorted-breakpoint water-filling view of one batch for one kind.

    Splits the increasing families into *analytic* rows — those with a
    closed-form inverse for the requested equalisation kind, evaluated on a
    whole grid of candidate levels in one broadcast — and *numeric* rows
    (multi-term polynomials; shifted powers when equalising marginal costs)
    that are inverted per scalar level through the bisection fallback.  The
    level engine (:func:`repro.utils.vectorized.sorted_breakpoint_level`)
    consumes this object: ``breakpoints`` are the sorted unique free-flow
    activation levels, ``flow_grid`` the vectorized analytic filled flow,
    ``extra`` / ``flow_dflow`` the scalar hooks covering the numeric
    remainder.  Everything it holds is O(m): the engine evaluates the flow
    only at the levels its segment locator probes.
    """

    #: Cap on level-grid x family-row broadcast size per chunk (elements).
    _CHUNK_ELEMENTS = 2_000_000

    def __init__(self, batch: "LatencyBatch", kind: str) -> None:
        self.kind = kind
        self._analytic: List[_Members] = []
        self._numeric: List[_Members] = []
        for fam in batch._families:
            if isinstance(fam, (_ConstantFamily, _GenericFamily)):
                continue
            if fam.analytic_for(kind):
                self._analytic.append(fam)
            else:
                self._numeric.append(fam)
        self.breakpoints = np.unique(batch.values_at_zero[~batch.is_constant])
        self._rows = sum(len(fam) for fam in self._analytic)

    @property
    def has_numeric(self) -> bool:
        return bool(self._numeric)

    def grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted unique breakpoints with their analytic filled flows.

        The dense grid: every analytic row at every breakpoint, O(m^2) work
        on each call.  No solver uses it; it is an oracle for the level
        engine's segment locator and a per-layer benchmark probe.
        """
        levels = self.breakpoints
        if levels.size == 0 or not np.all(np.isfinite(levels)):
            raise ModelError(
                "water filling needs finite activation breakpoints on "
                "at least one strictly increasing link")
        return levels, self.flow_grid(levels)

    def flow_grid(self, levels) -> np.ndarray:
        """Total analytic filled flow at each candidate level."""
        levels = np.asarray(levels, dtype=float)
        total = np.zeros(levels.shape[0])
        chunk = max(1, self._CHUNK_ELEMENTS // max(self._rows, 1))
        for start in range(0, levels.shape[0], chunk):
            block = levels[start:start + chunk]
            out = total[start:start + chunk]
            for fam in self._analytic:
                out += fam.level_flow_sum(block, self.kind)
        return total

    def _numeric_inverse(self, fam: _Members, level: float) -> np.ndarray:
        return fam.inverse_values(level) if self.kind == "nash" \
            else fam.inverse_marginals(level)

    def extra(self, level: float) -> float:
        """Filled flow of the numeric rows at a scalar level."""
        total = 0.0
        for fam in self._numeric:
            total += float(self._numeric_inverse(fam, level).sum())
        return total

    def _numeric_dflow(self, fam: _Members, x: np.ndarray) -> float:
        """``d(filled flow)/dL`` of one numeric family at its loads ``x``."""
        active = x > 0.0
        if not np.any(active):
            return 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d1 = fam.derivs(x)
            if self.kind == "nash":
                denom = d1
            else:
                denom = 2.0 * d1 + x * fam.second_derivs(x)
            contrib = np.where(active & (denom > 0.0), 1.0 / denom, 0.0)
        return float(contrib.sum())

    def flow_dflow(self, level: float) -> Tuple[float, float]:
        """Fused ``(filled flow, d flow/dL)`` at a scalar level.

        One pass over the families sharing the expensive ``np.power``
        intermediates between the flow and its derivative — the per-iteration
        evaluation of the engine's safeguarded Newton loop.  Numeric rows
        contribute their bisected inverse and the implicit-function derivative
        ``1 / (d/dx level(x))`` at it.
        """
        levels = np.array([float(level)])
        flow = 0.0
        dflow = 0.0
        for fam in self._analytic:
            f, d = fam.level_flow_dflow_sum(levels, self.kind)
            flow += float(f[0])
            dflow += float(d[0])
        for fam in self._numeric:
            x = self._numeric_inverse(fam, level)
            flow += float(x.sum())
            dflow += self._numeric_dflow(fam, x)
        return flow, dflow


_FAMILIES = (_LinearFamily, _ConstantFamily, _PowerFamily, _MM1Family,
             _PolyFamily, _GenericFamily)


def _merge(parts: list) -> Tuple[np.ndarray, dict]:
    """One bucket's ``(indices, columns)`` from its parts, in link order."""
    if not parts:
        return np.empty(0, dtype=np.intp), {}
    idx, columns = parts[0]
    if len(parts) > 1:
        idx = np.concatenate([part[0] for part in parts])
        columns = {name: np.concatenate([part[1][name] for part in parts])
                   for name in columns}
    if len(idx) > 1 and bool(np.any(idx[1:] < idx[:-1])):
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        columns = {name: column[order] for name, column in columns.items()}
    return idx.astype(np.intp, copy=False), columns


def _put(parts: list, mask: np.ndarray, idx: np.ndarray,
         **columns: np.ndarray) -> None:
    """Add the rows ``mask`` selects to a bucket's ``parts``."""
    if mask.any():
        parts.append((idx[mask], columns))


# Each route folds one stock class's rows into the parts of its family
# bucket (``out``, the table's ``family``) and of the constant bucket, with
# the arithmetic, operand order included, of the scalar construction
# ``factor * base(x + offset)``, so the columns are bit-identical to it.  A
# route returns whether :meth:`LatencyBatch.shifted` can still mirror its
# rows with array operations.
def _route_linear(out, constant, idx, params, offsets, factors) -> bool:
    base_slopes, base_intercepts = params
    slopes = factors * base_slopes
    flat = slopes == 0.0
    _put(constant, flat, idx, constants=(
        factors * (base_slopes * offsets + base_intercepts))[flat])
    rising = ~flat
    _put(out, rising, idx, slopes=slopes[rising],
         base_slopes=base_slopes[rising],
         base_intercepts=base_intercepts[rising], factors=factors[rising],
         offsets=offsets[rising])
    # A slope that underflows to zero makes a constant that moves with a
    # shift.
    return not bool(np.any(flat & (base_slopes != 0.0)))


def _route_constant(out, constant, idx, params, offsets, factors) -> bool:
    out.append((idx, {"constants": factors * params[0]}))
    return True


def _route_monomial(out, constant, idx, params, offsets, factors) -> bool:
    coefficients, degrees, constants = params
    flat = coefficients == 0.0
    _put(constant, flat, idx, constants=(factors * constants)[flat])
    rising = ~flat
    _put(out, rising, idx,
         coeffs=(factors * coefficients)[rising], degrees=degrees[rising],
         consts=(factors * constants)[rising], offsets=offsets[rising])
    return True


def _route_bpr(out, constant, idx, params, offsets, factors) -> bool:
    free_flow, capacity, alpha, beta = params
    flat = alpha == 0.0
    _put(constant, flat, idx, constants=(factors * free_flow)[flat])
    rising = ~flat
    if rising.any():
        # Python ``**``: ``np.power`` may round the last ulp differently.
        scale = np.array([c ** b for c, b in zip(capacity[rising].tolist(),
                                                 beta[rising].tolist())])
        _put(out, rising, idx,
             coeffs=factors[rising] * free_flow[rising] * alpha[rising] / scale,
             degrees=beta[rising], consts=(factors * free_flow)[rising],
             offsets=offsets[rising])
    return True


def _route_polynomial(out, constant, idx, params, offsets, factors) -> bool:
    lengths, coeffs = params[0], params[1:].T
    flat = ~np.any(coeffs[:, 1:] != 0.0, axis=1)
    _put(constant, flat, idx, constants=(factors * coeffs[:, 0])[flat])
    rising = ~flat
    if rising.any():
        width = int(lengths[rising].max())
        inside = np.arange(width) < lengths[rising][:, None]
        scaled = np.where(inside,
                          factors[rising][:, None] * coeffs[rising, :width],
                          0.0)
        _put(out, rising, idx, coeffs=scaled, offsets=offsets[rising])
    return True


def _route_mm1(out, constant, idx, params, offsets, factors) -> bool:
    out.append((idx, {"base_capacities": params[0], "offsets": offsets,
                      "factors": factors}))
    return True


_ROUTES = {"linear": _route_linear, "constant": _route_constant,
           "monomial": _route_monomial, "polynomial": _route_polynomial,
           "bpr": _route_bpr, "mm1": _route_mm1}


class LatencyBatch:
    """A family-grouped, array-backed view of a sequence of latency functions.

    Construction is O(m); every evaluation afterwards is a handful of array
    operations (one per non-empty family).  Instances are immutable once
    built and safe to cache alongside the latency sequence they mirror.
    """

    def __init__(self, latencies: Sequence[LatencyFunction]) -> None:
        latencies = tuple(latencies)
        check_latencies(latencies)
        self._fill(LatencyColumns(latencies))

    @classmethod
    def from_columns(cls, columns: LatencyColumns) -> "LatencyBatch":
        """The batch of ``columns.latencies``, filled from their columns.

        Equal to ``LatencyBatch(columns.latencies)``; an instance that has
        already canonicalised its links (for its digest) reuses the columns.
        """
        batch = object.__new__(cls)
        batch._fill(columns)
        return batch

    def _buckets(self) -> Tuple[_Members, ...]:
        return (self._linear, self._constant, self._power, self._mm1,
                self._poly, self._generic)

    def _assemble(self, latencies, is_constant: np.ndarray) -> None:
        """Finish a batch whose family buckets are frozen.

        ``latencies`` is a tuple, or a :class:`LazyTuple` if derived.
        """
        self._latencies = latencies
        self._families = [fam for fam in self._buckets() if len(fam)]
        self._index_arrays = [fam.index_array() for fam in self._families]
        self.is_constant = is_constant
        self._values_at_zero: Optional[np.ndarray] = None
        self._domain_upper: Optional[np.ndarray] = None
        self._profiles: dict = {}

    def _derive(self, latencies: LazyTuple, buckets: Sequence[_Members],
                is_constant: np.ndarray) -> "LatencyBatch":
        """A batch assembled from frozen ``buckets`` without canonicalising."""
        new = object.__new__(LatencyBatch)
        (new._linear, new._constant, new._power, new._mm1, new._poly,
         new._generic) = buckets
        new.derives_shifts = self.derives_shifts
        new._assemble(latencies, is_constant)
        return new

    # ------------------------------------------------------------------ #
    # Canonicalisation
    # ------------------------------------------------------------------ #
    def _fill(self, columns: LatencyColumns) -> None:
        """Fill the family buckets from ``columns``, in link order.

        Plain stock rows enter with offset 0 and factor 1.  When some links
        are wrappers, each is unwrapped and the sequence with the wrappers
        replaced by their bases is canonicalised once more; a base of an
        unknown class keeps the *wrapped* object in the generic bucket.
        Each stock class then routes all its rows with one array
        expression (:data:`_ROUTES`).
        """
        latencies = columns.latencies
        offsets = np.zeros(len(latencies))
        factors = np.ones(len(latencies))
        # Whether :meth:`shifted` may derive its batch with array operations.
        derivable = all(cls.shifted in _STOCK_SHIFTS for cls in columns.classes)
        wrapped = [i for i, lat in columns.others
                   if stock_class(type(lat)) is WRAPPER]
        if wrapped:
            bases = list(latencies)
            for i in wrapped:
                bases[i], offsets[i], factors[i], nested = _unwrap(bases[i])
                derivable = derivable and not nested
            columns = LatencyColumns(bases)
        parts: Dict[str, list] = {fam.name: [] for fam in _FAMILIES}
        for entry, (idx, params) in zip(STOCK_CLASSES, columns.groups):
            if len(idx):
                derivable &= _ROUTES[entry.tag](
                    parts[entry.family], parts["constant"], idx, params,
                    offsets[idx], factors[idx])
        generic = [i for i, _ in columns.others]
        if generic:
            parts["generic"].append((np.asarray(generic, dtype=np.int64), {
                "functions": [latencies[i] for i in generic]}))
        (self._linear, self._constant, self._power, self._mm1, self._poly,
         self._generic) = [family.filled(*_merge(parts[family.name]))
                           for family in _FAMILIES]
        #: Whether :meth:`shifted` derives its batch with array operations;
        #: its columns, ``domain_upper`` included, then equal bit for bit
        #: those of the shifted latencies.
        self.derives_shifts = bool(derivable)
        is_constant = np.zeros(len(latencies), dtype=bool)
        is_constant[self._constant.indices] = True
        for i, lat in zip(generic, self._generic.functions):
            is_constant[i] = bool(lat.is_constant)
        self._assemble(latencies, is_constant)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def latencies(self) -> Tuple[LatencyFunction, ...]:
        """The latency functions, one per link (built on first read if
        the batch was derived by :meth:`subset` or :meth:`shifted`)."""
        self._latencies = LazyTuple.resolve(self._latencies)
        return self._latencies

    @property
    def size(self) -> int:
        return len(self.is_constant)

    def __len__(self) -> int:
        return self.size

    @property
    def family_names(self) -> Tuple[str, ...]:
        """Names of the non-empty family buckets (construction order)."""
        return tuple(fam.name for fam in self._families)

    @property
    def has_generic(self) -> bool:
        return len(self._generic) > 0

    @property
    def supports_newton(self) -> bool:
        """Whether every link has a well-behaved analytic second derivative.

        Power rows with exponents in the open interval (1, 2) are excluded:
        their second derivative diverges at zero load, which would destabilise
        a Newton line search near the boundary.
        """
        if self.has_generic:
            return False
        if len(self._power):
            d = self._power.degrees
            if np.any((d > 1.0) & (d < 2.0)):
                return False
        return True

    @property
    def values_at_zero(self) -> np.ndarray:
        """Free-flow latencies ``l_i(0)`` (also the marginal costs at zero)."""
        if self._values_at_zero is None:
            self._values_at_zero = self.values(0.0)
            self._values_at_zero.setflags(write=False)
        return self._values_at_zero

    @property
    def domain_upper(self) -> np.ndarray:
        """Per-link exclusive upper ends of the latency domains."""
        if self._domain_upper is None:
            out = np.empty(self.size)
            for fam, idx in zip(self._families, self._index_arrays):
                out[idx] = fam.domain_upper()
            out.setflags(write=False)
            self._domain_upper = out
        return self._domain_upper

    def linear_increasing_params(self) -> Optional[Tuple[np.ndarray, np.ndarray,
                                                         np.ndarray]]:
        """``(slopes, intercepts, indices)`` when every increasing link is affine.

        Returns ``None`` as soon as any non-constant link belongs to another
        family; the all-linear closed-form water-filling solve only applies in
        the pure case.
        """
        increasing = int(np.count_nonzero(~self.is_constant))
        if len(self._linear) != increasing:
            return None
        return (self._linear.slopes, self._linear.intercepts,
                self._linear.index_array())

    def level_profile(self, kind: str) -> Optional[_LevelProfile]:
        """The sorted-breakpoint engine profile for ``kind`` (cached).

        Returns ``None`` when some strictly increasing link sits in the
        generic bucket: those rows have no family closed form at all, so the
        legacy bracket-and-bisect level solve is the only correct path.
        """
        if kind not in ("nash", "optimum"):
            raise ModelError(f"unknown water-filling kind {kind!r}")
        cached = self._profiles.get(kind)
        if cached is None:
            if len(self._generic) and bool(np.any(
                    ~self.is_constant[self._generic.index_array()])):
                cached = False  # remembered "no profile available"
            else:
                cached = _LevelProfile(self, kind)
            self._profiles[kind] = cached
        return cached or None

    def subset(self, indices: Sequence[int]) -> "LatencyBatch":
        """The batch restricted to ``indices``, by slicing the family arrays.

        Equivalent to ``LatencyBatch([batch.latencies[i] for i in indices])``
        but without re-running the per-link canonicaliser — the OpTop
        recursion derives each round's sub-instance batch this way.
        """
        idx = np.array(indices).reshape(-1)  # a copy: the view keeps it
        if not idx.size:
            raise ModelError("subset needs at least one link index")
        if idx.dtype.kind not in "iu":
            raise ModelError(f"subset indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        outside = (idx < 0) | (idx >= self.size)
        if outside.any():
            raise ModelError(f"subset index {int(idx[outside][0])} out of "
                             f"range 0..{self.size - 1}")
        positions = np.full(self.size, -1, dtype=np.intp)
        positions[idx] = np.arange(idx.size)
        if np.count_nonzero(positions >= 0) != idx.size:
            raise ModelError("subset indices must be unique")
        buckets = []
        for fam in self._buckets():
            new_positions = positions[fam.index_array()]
            rows = np.flatnonzero(new_positions >= 0)
            buckets.append(fam.take(rows, new_positions[rows]))
        return self._derive(LazyTuple(self._latencies, idx), buckets,
                            self.is_constant[idx])

    def shifted(self, offsets) -> "LatencyBatch":
        """The batch of the shifted latencies ``x -> l_i(x + offsets[i])``.

        Equivalent, bit for bit, to ``LatencyBatch([lat.shifted(s) for lat,
        s in zip(batch.latencies, offsets)])`` — the Followers' view of a
        Stackelberg pre-load.  Only rows with a non-zero offset build a new
        latency object; each family then re-derives its offset-dependent
        columns from the raw ``(base, offset, factor)`` columns in one array
        operation (:meth:`_Members.shift`) instead of re-running the per-link
        canonicaliser.  A batch holding a shift below another wrapper or a
        latency class with its own ``shifted`` canonicalises the shifted
        latencies afresh.
        """
        offsets = np.array(offsets, dtype=float)  # a copy: the view keeps it
        if offsets.shape != (self.size,):
            raise ModelError(
                f"expected {self.size} offsets, got shape {offsets.shape}")
        if not np.all(np.isfinite(offsets)):
            raise ModelError("shift offsets must be finite")
        latencies = LazyTuple(self._latencies, offsets=offsets)
        if not self.derives_shifts:
            return LatencyBatch(latencies.get())
        if (offsets < 0.0).any():
            latencies.get()  # raises where the per-link shift would
        buckets = [fam.shift(offsets[fam.index_array()]) if len(fam) else fam
                   for fam in self._buckets()]
        return self._derive(latencies, buckets, self.is_constant)

    # ------------------------------------------------------------------ #
    # Batched calculus
    # ------------------------------------------------------------------ #
    def _gather(self, method: str, x) -> np.ndarray:
        scalar = np.isscalar(x)
        if not scalar:
            x = np.asarray(x, dtype=float)
            if x.shape != (self.size,):
                raise ModelError(
                    f"expected {self.size} loads, got shape {x.shape}")
        out = np.empty(self.size)
        for fam, idx in zip(self._families, self._index_arrays):
            xf = x if scalar else x[idx]
            out[idx] = getattr(fam, method)(xf)
        return out

    def values(self, x) -> np.ndarray:
        """Per-link latencies ``l_i(x_i)`` (``x`` scalar or per-link vector)."""
        return self._gather("values", x)

    def derivs(self, x) -> np.ndarray:
        """Per-link derivatives ``l_i'(x_i)``."""
        return self._gather("derivs", x)

    def second_derivs(self, x) -> np.ndarray:
        """Per-link second derivatives ``l_i''(x_i)``."""
        return self._gather("second_derivs", x)

    def integrals(self, x) -> np.ndarray:
        """Per-link Beckmann integrals ``\\int_0^{x_i} l_i(t) dt``."""
        return self._gather("integrals", x)

    def marginals(self, x) -> np.ndarray:
        """Per-link marginal costs ``l_i(x_i) + x_i l_i'(x_i)``."""
        x_arr = x if np.isscalar(x) else np.asarray(x, dtype=float)
        return self.values(x) + x_arr * self.derivs(x)

    def link_costs(self, x) -> np.ndarray:
        """Per-link total costs ``x_i l_i(x_i)``."""
        x_arr = x if np.isscalar(x) else np.asarray(x, dtype=float)
        return x_arr * self.values(x)

    def total_cost(self, x) -> float:
        """``C(x) = sum_i x_i l_i(x_i)``."""
        return float(np.sum(self.link_costs(x)))

    def beckmann(self, x) -> float:
        """``sum_i \\int_0^{x_i} l_i(t) dt``."""
        return float(np.sum(self.integrals(x)))

    # ------------------------------------------------------------------ #
    # Batched inverses
    # ------------------------------------------------------------------ #
    def inverse_values(self, level: float) -> np.ndarray:
        """Per-link least loads with ``l_i(x) = level`` (0 below free flow).

        Constant links contribute 0; callers mask them via ``is_constant``.
        """
        return self._gather("inverse_values", float(level))

    def inverse_marginals(self, level: float) -> np.ndarray:
        """Per-link least loads with marginal cost equal to ``level``."""
        return self._gather("inverse_marginals", float(level))
