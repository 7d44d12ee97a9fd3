"""Pluggable strategy registry behind :func:`repro.api.solve`.

Every solver the package offers — the paper's OpTop/MOP plus the baseline
strategies — is registered here under a short name and exposed through the
uniform :class:`Strategy` callable protocol ``(instance, config) ->
SolveReport``.  Downstream code (CLI, sweeps, experiments, batch execution)
dispatches by name instead of importing algorithm functions, and external
code can plug in its own strategies:

>>> from repro.api import register_strategy
>>> @register_strategy("my_heuristic")
... def my_heuristic(instance, config):
...     ...
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.exceptions import StrategyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SolveConfig
    from repro.api.report import SolveReport

__all__ = [
    "Strategy",
    "StrategyRegistry",
    "REGISTRY",
    "register_strategy",
    "get_strategy",
    "available_strategies",
]

#: The strategy protocol: a callable mapping ``(instance, config)`` to a
#: :class:`~repro.api.report.SolveReport`.
Strategy = Callable[[object, "SolveConfig"], "SolveReport"]

class StrategyRegistry:
    """Name -> :data:`Strategy` mapping with a decorator-based registration API."""

    def __init__(self) -> None:
        self._strategies: Dict[str, Strategy] = {}
        self._generations: Dict[str, int] = {}

    def register(self, name: str,
                 strategy: Optional[Strategy] = None) -> Callable:
        """Register ``strategy`` under ``name``.

        Usable directly (``registry.register("x", fn)``) or as a decorator
        (``@registry.register("x")``).  Re-registering an existing name is an
        error; use :meth:`unregister` first to replace a strategy.
        """
        if not name or not isinstance(name, str):
            raise StrategyError(f"strategy name must be a non-empty string, "
                                f"got {name!r}")

        def decorator(fn: Strategy) -> Strategy:
            if name in self._strategies:
                raise StrategyError(f"strategy {name!r} is already registered")
            if not callable(fn):
                raise StrategyError(f"strategy {name!r} must be callable, "
                                    f"got {type(fn).__name__}")
            self._strategies[name] = fn
            # A fresh implementation under a reused name must not inherit the
            # previous implementation's cached results.
            self._generations[name] = self._generations.get(name, 0) + 1
            return fn

        if strategy is not None:
            return decorator(strategy)
        return decorator

    def unregister(self, name: str) -> Strategy:
        """Remove and return the strategy registered under ``name``."""
        try:
            strategy = self._strategies.pop(name)
        except KeyError:
            raise StrategyError(f"strategy {name!r} is not registered") from None
        return strategy

    def get(self, name: str) -> Strategy:
        """Look up a strategy by name; unknown names list the alternatives."""
        try:
            return self._strategies[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise StrategyError(
                f"unknown strategy {name!r}; registered strategies: {known}"
            ) from None

    def generation(self, name: str) -> int:
        """How many times ``name`` has been (re-)registered.

        Cache layers mix this into their keys so that replacing a strategy via
        :meth:`unregister` + :meth:`register` invalidates results produced by
        the previous implementation.
        """
        return self._generations.get(name, 0)

    def names(self) -> List[str]:
        """Sorted names of all registered strategies."""
        return sorted(self._strategies)

    def __contains__(self, name: str) -> bool:
        return name in self._strategies

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._strategies)


#: The default registry used by :func:`repro.api.solve`.
REGISTRY = StrategyRegistry()


def register_strategy(name: str, strategy: Optional[Strategy] = None) -> Callable:
    """Register a strategy in the default registry (decorator-friendly)."""
    return REGISTRY.register(name, strategy)


def get_strategy(name: str) -> Strategy:
    """Look up a strategy in the default registry."""
    return REGISTRY.get(name)


def available_strategies() -> List[str]:
    """Names registered in the default registry."""
    return REGISTRY.names()
