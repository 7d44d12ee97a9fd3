"""`repro.api` — the unified solver-session surface of the package.

One import gives everything a production consumer needs:

>>> from repro.api import solve, solve_many, SolveConfig, available_strategies
>>> from repro import instances
>>> report = solve(instances.pigou())            # Price of Optimum by default
>>> round(report.beta, 6)
0.5
>>> report = solve(instances.pigou(), "scale",
...                config=SolveConfig(alpha=0.75))
>>> report.strategy
'scale'

The pieces:

* :class:`SolveConfig` — one frozen dataclass of solver settings, threaded
  down through :mod:`repro.core` and :mod:`repro.equilibrium`;
* :class:`SolveReport` — one flat, JSON-round-trippable result record
  replacing the per-algorithm result types;
* :class:`StrategyRegistry` / :func:`register_strategy` — pluggable strategy
  dispatch by name (``optop``, ``mop``, ``llf``, ``scale``, ``aloof``,
  ``brute_force`` are built in);
* :func:`solve` / :func:`solve_many` — single and in-process batch
  execution with an instance-digest result cache.
"""

from repro.config import EQUILIBRIUM_BACKENDS, SolveConfig
from repro.api.dispatch import resolve_instance_kind
from repro.api.report import SolveReport
from repro.api.registry import (
    REGISTRY,
    Strategy,
    StrategyRegistry,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.api import strategies as _builtin_strategies  # noqa: F401  (registers built-ins)
from repro.api.session import cache_size, cache_stats, clear_cache, solve, solve_many
from repro.serialization import instance_digest

__all__ = [
    "SolveConfig",
    "EQUILIBRIUM_BACKENDS",
    "SolveReport",
    "Strategy",
    "StrategyRegistry",
    "REGISTRY",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "resolve_instance_kind",
    "solve",
    "solve_many",
    "clear_cache",
    "cache_size",
    "cache_stats",
    "instance_digest",
]
