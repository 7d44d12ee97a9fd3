"""Solver configuration: the one carrier of solver settings.

:class:`SolveConfig` is the only way settings reach a solve.  Every function
between :func:`repro.api.solve` and the numeric kernels takes one optional
``config`` (defaulting to ``SolveConfig()``) and reads its tolerances,
iteration cap and backend from it, so the optimum, the strategy built from
it and the Followers' induced equilibrium are all solved under the same
settings, and a report can embed the exact settings that produced it.  The
module imports only :mod:`repro.exceptions` and :mod:`repro.utils`, so every
layer can import it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional

from repro.exceptions import ModelError
from repro.utils.numeric import REAL_TYPES

__all__ = ["SolveConfig", "EQUILIBRIUM_BACKENDS", "resolve_config"]

#: Equilibrium backend identifiers accepted by :class:`SolveConfig`.
#:
#: * ``"auto"`` — water-filling on parallel links, path equilibration plus
#:   column generation (stopped at a relative path-cost residual of
#:   ``1e-12``) on networks of every size;
#: * ``"frank_wolfe"`` — the Frank–Wolfe iterative solver on networks
#:   (parallel links still use water-filling).
EQUILIBRIUM_BACKENDS = ("auto", "frank_wolfe")


@dataclass(frozen=True)
class SolveConfig:
    """Configuration of one :func:`repro.api.solve` call.

    Attributes
    ----------
    tolerance:
        Convergence tolerance of the Frank–Wolfe network solver.  The
        path-based solver stops on its own certified residual (``1e-12``).
    water_fill_tol:
        Tolerance of the exact water-filling solver on parallel links.
    backend:
        Equilibrium backend, one of :data:`EQUILIBRIUM_BACKENDS`.
    max_iterations:
        Iteration cap of the Frank–Wolfe network solver.
    underload_atol:
        Absolute slack OpTop uses to classify a link as under-loaded.
    shortest_path_atol:
        Slack MOP uses to classify an edge as lying on a shortest path.
    alpha:
        Leader budget (fraction of the demand) for the budgeted strategies
        ``llf`` / ``scale`` / ``brute_force``; ignored by ``optop`` / ``mop``
        / ``aloof``.  ``None`` selects the default budget of 0.5.
    brute_force_resolution:
        Grid resolution of the brute-force strategy search.
    compute_nash:
        Whether reports should also carry the uncontrolled Nash equilibrium
        (needed for the price-of-anarchy column; costs one extra solve).
    cache:
        Whether :func:`repro.api.solve` / :func:`repro.api.solve_many` may
        reuse results cached under the instance digest.
    profile:
        Opt-in per-phase kernel profiling (:mod:`repro.obs.profiling`).
        When ``True`` the solve runs under a
        :class:`~repro.obs.profiling.PhaseRecorder` and the report carries
        ``metadata["profile"]`` with per-kernel call counts and cumulative
        seconds.  ``False`` (the default) is serialized *by omission* —
        the canonical config JSON of an unprofiled config is byte-for-byte
        what it was before this field existed, so cache keys, artifact
        addresses and golden fixtures are unaffected.
    """

    tolerance: float = 1e-9
    water_fill_tol: float = 1e-12
    backend: str = "auto"
    max_iterations: int = 20_000
    underload_atol: float = 1e-8
    shortest_path_atol: float = 1e-5
    alpha: Optional[float] = None
    brute_force_resolution: int = 12
    compute_nash: bool = True
    cache: bool = True
    profile: bool = False

    def __post_init__(self) -> None:
        if self.backend not in EQUILIBRIUM_BACKENDS:
            raise ModelError(
                f"unknown equilibrium backend {self.backend!r}; expected one of "
                f"{', '.join(EQUILIBRIUM_BACKENDS)}")
        for name in ("tolerance", "water_fill_tol", "underload_atol",
                     "shortest_path_atol", "alpha"):
            value = getattr(self, name)
            if not (isinstance(value, REAL_TYPES)
                    or (name == "alpha" and value is None)):
                raise ModelError(f"{name} must be a number, got {value!r}")
        for name in ("max_iterations", "brute_force_resolution"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) \
                    or isinstance(value, bool):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            # A plain int keeps to_json() (the cache key) canonical.
            object.__setattr__(self, name, int(value))
        for name in ("tolerance", "water_fill_tol", "underload_atol",
                     "shortest_path_atol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ModelError(f"{name} must be > 0, got {value!r}")
        if self.max_iterations < 1:
            raise ModelError(
                f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if self.brute_force_resolution < 1:
            raise ModelError(f"brute_force_resolution must be >= 1, got "
                             f"{self.brute_force_resolution!r}")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ModelError(f"alpha must lie in [0, 1], got {self.alpha!r}")

    # ------------------------------------------------------------------ #
    # Derived views consumed by the lower layers
    # ------------------------------------------------------------------ #
    def network_solver(self) -> str:
        """The network backend name (:attr:`backend`)."""
        return self.backend

    def budget(self) -> float:
        """The Leader budget used by alpha-parameterised strategies."""
        return 0.5 if self.alpha is None else float(self.alpha)

    def with_alpha(self, alpha: float) -> "SolveConfig":
        """A copy of this config with the Leader budget replaced."""
        return replace(self, alpha=float(alpha))

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary (JSON-compatible).

        ``profile`` is omitted while ``False`` so the canonical JSON (and
        everything keyed on it: tier-1 cache keys, artifact addresses,
        session cache keys) is unchanged for unprofiled configs.  A
        profiled config *does* serialize the flag — a profiled solve must
        not be served from an unprofiled cache entry that lacks the
        timings.
        """
        data = asdict(self)
        if not data["profile"]:
            del data["profile"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveConfig":
        """Reconstruct a config serialised by :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise ModelError(f"a SolveConfig must be an object, got {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ModelError(
                f"unknown SolveConfig fields: {', '.join(sorted(unknown))}")
        return cls(**data)

    def to_json(self) -> str:
        """Canonical JSON rendering (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolveConfig":
        """Reconstruct a config serialised by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def resolve_config(config: Optional[SolveConfig]) -> SolveConfig:
    """``config``, or ``SolveConfig()`` for ``None``; :class:`ModelError`
    for anything else that is not a :class:`SolveConfig`."""
    if config is None:
        return SolveConfig()
    if not isinstance(config, SolveConfig):
        raise ModelError(
            f"config must be a SolveConfig, got {type(config).__name__}")
    return config
