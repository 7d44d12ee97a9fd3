"""Abstract base class for latency functions."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Union

import numpy as np

from repro.exceptions import LatencyDomainError
from repro.utils.rootfind import bisect_root, expand_upper_bracket

__all__ = ["LatencyFunction", "ArrayLike"]

ArrayLike = Union[float, np.ndarray]


class LatencyFunction(ABC):
    """A load-dependent latency function ``l(x)`` on a link or edge.

    Subclasses implement :meth:`value`, :meth:`derivative` and
    :meth:`integral`; everything else (marginal cost, link cost, inverses,
    shifting) is derived here.  All evaluation methods accept scalars or NumPy
    arrays and are vectorised element-wise.

    The paper's standing assumption (Remark 2.5) is that latencies are strictly
    increasing and that ``x*l(x)`` is convex; :attr:`is_constant` marks the
    documented extension to constant latencies.
    """

    #: Upper end of the domain (exclusive).  ``inf`` for most families;
    #: :class:`repro.latency.MM1Latency` overrides it with its capacity.
    domain_upper: float = math.inf

    # ------------------------------------------------------------------ #
    # Abstract calculus
    # ------------------------------------------------------------------ #
    @abstractmethod
    def value(self, x: ArrayLike) -> ArrayLike:
        """Latency ``l(x)`` at load ``x >= 0``."""

    @abstractmethod
    def derivative(self, x: ArrayLike) -> ArrayLike:
        """Derivative ``l'(x)`` at load ``x >= 0``."""

    @abstractmethod
    def integral(self, x: ArrayLike) -> ArrayLike:
        """Beckmann integral ``\\int_0^x l(t) dt``."""

    # ------------------------------------------------------------------ #
    # Derived calculus
    # ------------------------------------------------------------------ #
    def __call__(self, x: ArrayLike) -> ArrayLike:
        return self.value(x)

    def marginal_cost(self, x: ArrayLike) -> ArrayLike:
        """Marginal social cost ``(x*l(x))' = l(x) + x*l'(x)``."""
        return self.value(x) + np.asarray(x, dtype=float) * self.derivative(x) \
            if not np.isscalar(x) else self.value(x) + x * self.derivative(x)

    def link_cost(self, x: ArrayLike) -> ArrayLike:
        """Total cost ``x * l(x)`` incurred on the link at load ``x``."""
        if np.isscalar(x):
            return x * self.value(x)
        x_arr = np.asarray(x, dtype=float)
        return x_arr * self.value(x_arr)

    @property
    def value_at_zero(self) -> float:
        """Free-flow latency ``l(0)``."""
        return float(self.value(0.0))

    @property
    def is_constant(self) -> bool:
        """``True`` for constant (load-independent) latencies."""
        return False

    @property
    def is_strictly_increasing(self) -> bool:
        """``True`` when ``l`` is strictly increasing on its domain."""
        return not self.is_constant

    # ------------------------------------------------------------------ #
    # Inverses (numeric fallbacks; analytic families override)
    # ------------------------------------------------------------------ #
    def _numeric_inverse(self, func, y: float) -> float:
        """Least ``x >= 0`` with ``func(x) = y`` for non-decreasing ``func``."""
        if y <= func(0.0):
            return 0.0
        upper_cap = self.domain_upper
        if math.isinf(upper_cap):
            hi = expand_upper_bracket(lambda x: func(x) - y, 0.0, initial=1.0)
        else:
            # Approach the capacity from below; ``func`` diverges there.
            hi = upper_cap
            probe = upper_cap - 1e-15 * max(1.0, abs(upper_cap))
            if func(probe) < y:
                return probe
            hi = probe
        return bisect_root(lambda x: func(x) - y, 0.0, hi)

    def inverse_value(self, y: float) -> float:
        """Load ``x >= 0`` at which the latency equals ``y`` (0 when ``y <= l(0)``).

        Only meaningful for strictly increasing latencies; constant latencies
        raise :class:`LatencyDomainError`.
        """
        if self.is_constant:
            raise LatencyDomainError(
                "inverse_value is undefined for constant latencies")
        return self._numeric_inverse(lambda x: float(self.value(x)), float(y))

    def inverse_marginal(self, y: float) -> float:
        """Load ``x >= 0`` at which the marginal cost equals ``y``.

        Returns 0 when ``y <= l(0)`` (the marginal cost at zero equals the
        free-flow latency).  Constant latencies raise
        :class:`LatencyDomainError`.
        """
        if self.is_constant:
            raise LatencyDomainError(
                "inverse_marginal is undefined for constant latencies")
        return self._numeric_inverse(lambda x: float(self.marginal_cost(x)), float(y))

    # ------------------------------------------------------------------ #
    # Stackelberg shift
    # ------------------------------------------------------------------ #
    def shifted(self, offset: float) -> "LatencyFunction":
        """A-posteriori latency ``x -> l(x + offset)`` seen by Followers.

        ``offset`` is the Leader's flow pre-assigned to the link.  Returns a
        :class:`repro.latency.ShiftedLatency` (or ``self`` when ``offset`` is
        zero).
        """
        if offset == 0.0:
            return self
        return ShiftedLatency(self, offset)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# ``ShiftedLatency`` subclasses ``LatencyFunction``, so it can only be imported
# once the class above exists; a module-level name keeps ``shifted`` free of a
# per-call import.
from repro.latency.shifted import ShiftedLatency  # noqa: E402
