"""Tolerance-aware scalar comparisons used throughout the library.

Equilibrium computations are numerical, so every comparison of flows, costs
and latencies must be made up to a tolerance.  Centralising the defaults here
keeps the algorithms (OpTop, MOP, frozen-link predicates) consistent with the
solvers that produce their inputs.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.exceptions import ModelError

#: Default absolute tolerance for flow / latency comparisons.
DEFAULT_ATOL: float = 1e-9

#: Default relative tolerance for cost comparisons.
DEFAULT_RTOL: float = 1e-7


#: ``isinstance`` tests ``float`` and ``int`` before the slower ABC.
REAL_TYPES = (float, int, numbers.Real)


def finite_real(value, what: str) -> float:
    """``value`` as a float; :class:`ModelError` unless a finite real number."""
    if not isinstance(value, REAL_TYPES) or not math.isfinite(value):
        raise ModelError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def close(a: float, b: float, *, atol: float = DEFAULT_ATOL,
          rtol: float = DEFAULT_RTOL) -> bool:
    """Return ``True`` when ``a`` and ``b`` are equal up to tolerances.

    Combines absolute and relative criteria, mirroring :func:`math.isclose`
    but with library-wide defaults.
    """
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def leq(a: float, b: float, *, atol: float = DEFAULT_ATOL) -> bool:
    """Tolerant ``a <= b``."""
    return a <= b + atol


def geq(a: float, b: float, *, atol: float = DEFAULT_ATOL) -> bool:
    """Tolerant ``a >= b``."""
    return a >= b - atol


def positive_part(x: np.ndarray | float) -> np.ndarray | float:
    """Element-wise ``max(x, 0)`` that works for scalars and arrays."""
    if np.isscalar(x):
        return x if x > 0.0 else 0.0
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def relative_gap(value: float, reference: float, *, floor: float = 1e-30) -> float:
    """Relative difference ``|value - reference| / max(|reference|, floor)``.

    Used to express convergence gaps and paper-vs-measured deviations in a
    scale-free way.
    """
    denom = max(abs(reference), floor)
    return abs(value - reference) / denom
