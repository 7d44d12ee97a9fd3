"""The unified result type of every `repro.api` strategy.

:class:`SolveReport` replaces the zoo of per-algorithm result types
(``OpTopResult``, ``MOPResult``, bare strategy objects from the baselines)
with one flat, JSON-serialisable record of what the algorithm output: the
Leader's share, the Price of Optimum, the flow vectors and their costs.  The
instance is not part of the report; every cache, store and wire that keeps a
report names its instance by digest next to it.  All flow vectors are plain
float tuples, and ``SolveReport.from_json(report.to_json())`` reconstructs a
report losslessly.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.config import SolveConfig

__all__ = ["SolveReport"]

#: Types ``_jsonify`` returns unchanged, checked by identity first.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _jsonify(value: Any) -> Any:
    """Normalise ``value`` to what it will look like after a JSON round trip."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _PLAIN else _jsonify(item)
                for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "item"):  # numpy scalars
        return _jsonify(value.item())
    raise ModelError(
        f"SolveReport metadata must be JSON-serialisable, found "
        f"{type(value).__name__}")


def _float_tuple(values: Any) -> Tuple[float, ...]:
    if isinstance(values, np.ndarray) and values.ndim == 1:
        return tuple(values.astype(float, copy=False).tolist())
    return tuple(map(float, values))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of solving one instance with one registered strategy.

    Attributes
    ----------
    strategy:
        Registry name of the strategy that produced the report.
    instance_kind:
        ``"parallel"`` or ``"network"``.
    alpha:
        Fraction of the demand the Leader actually controls.
    beta:
        The Price of Optimum, for strategies that compute it (``optop`` /
        ``mop``); ``None`` for budgeted baselines.
    leader_flows / induced_flows / optimum_flows / nash_flows:
        Per-link (parallel) or per-edge (network) flow vectors: the Leader
        strategy ``S``, the induced equilibrium ``S + T``, the system optimum
        ``O`` and the uncontrolled Nash ``N`` (``None`` unless
        ``config.compute_nash``).
    induced_cost / optimum_cost / nash_cost:
        Total costs ``C(S+T)``, ``C(O)`` and ``C(N)``.
    price_of_anarchy:
        ``C(N) / C(O)`` when the Nash equilibrium was computed.
    wall_time:
        Wall-clock seconds spent inside the strategy call.
    config:
        The :class:`~repro.config.SolveConfig` that produced the report.
    metadata:
        Strategy-specific, JSON-serialisable solver details (round traces,
        backend names, evaluation counts, ...).
    """

    strategy: str
    instance_kind: str
    alpha: float
    beta: Optional[float]
    leader_flows: Tuple[float, ...]
    induced_flows: Tuple[float, ...]
    optimum_flows: Tuple[float, ...]
    nash_flows: Optional[Tuple[float, ...]]
    induced_cost: float
    optimum_cost: float
    nash_cost: Optional[float]
    price_of_anarchy: Optional[float]
    wall_time: float = 0.0
    config: SolveConfig = field(default_factory=SolveConfig)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", _jsonify(self.metadata))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta",
                           None if self.beta is None else float(self.beta))
        object.__setattr__(self, "leader_flows", _float_tuple(self.leader_flows))
        object.__setattr__(self, "induced_flows", _float_tuple(self.induced_flows))
        object.__setattr__(self, "optimum_flows", _float_tuple(self.optimum_flows))
        object.__setattr__(self, "nash_flows",
                           None if self.nash_flows is None
                           else _float_tuple(self.nash_flows))
        object.__setattr__(self, "induced_cost", float(self.induced_cost))
        object.__setattr__(self, "optimum_cost", float(self.optimum_cost))
        object.__setattr__(self, "nash_cost",
                           None if self.nash_cost is None
                           else float(self.nash_cost))
        object.__setattr__(self, "price_of_anarchy",
                           None if self.price_of_anarchy is None
                           else float(self.price_of_anarchy))
        object.__setattr__(self, "wall_time", float(self.wall_time))

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def cost_ratio(self) -> float:
        """A-posteriori ratio ``C(S+T) / C(O)`` (1.0 for a zero optimum)."""
        if self.optimum_cost <= 0.0:
            return 1.0
        return self.induced_cost / self.optimum_cost

    @property
    def attains_optimum(self) -> bool:
        """Whether the induced cost matches the optimum (to solver accuracy)."""
        scale = max(abs(self.optimum_cost), 1e-12)
        return abs(self.induced_cost - self.optimum_cost) / scale < 1e-6

    @property
    def controlled_flow(self) -> float:
        """Total flow routed by the Leader."""
        return float(sum(self.leader_flows))

    def stamped(self, *, wall_time: Optional[float] = None,
                **entries: Any) -> "SolveReport":
        """A copy with ``wall_time`` and the metadata ``entries`` set.

        Only ``entries`` are normalised: every other field was normalised
        when this report was built and is shared with the copy, so stamping
        does not grow with the flow vectors.  Nested metadata containers
        are shared too; like the rest of a report they are read-only.
        """
        new = copy.copy(self)
        metadata = dict(self.metadata)
        metadata.update(_jsonify(entries))
        object.__setattr__(new, "metadata", metadata)
        if wall_time is not None:
            object.__setattr__(new, "wall_time", float(wall_time))
        return new

    @property
    def profile(self) -> Optional[Dict[str, Any]]:
        """Per-phase kernel timings when the solve ran with
        ``SolveConfig(profile=True)`` (see :mod:`repro.obs.profiling`);
        ``None`` otherwise."""
        return self.metadata.get("profile")

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary (JSON-compatible)."""
        # Shallow: ``_jsonify`` below already copies every container once.
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["config"] = self.config.to_dict()
        return _jsonify(data)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveReport":
        """Reconstruct a report serialised by :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise ModelError(f"invalid SolveReport payload: {data!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ModelError(
                f"unknown SolveReport fields: {', '.join(sorted(unknown))}")
        config = SolveConfig.from_dict(data.get("config", {}))
        return cls(**{**data, "config": config})

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialise to JSON; ``from_json`` inverts this losslessly.

        Without ``indent``: the canonical, compact form that the cluster
        wire ships and the artifact store checksums.
        """
        separators = (",", ":") if indent is None else None
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          separators=separators)

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        """Reconstruct a report serialised by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid SolveReport JSON: {exc}") from exc
        return cls.from_dict(data)

    def summary(self) -> str:
        """One-line human-readable digest of the report."""
        beta = "-" if self.beta is None else f"{self.beta:.4f}"
        return (f"{self.strategy}[{self.instance_kind}] alpha={self.alpha:.4f} "
                f"beta={beta} C(S+T)={self.induced_cost:.6g} "
                f"C(O)={self.optimum_cost:.6g} ratio={self.cost_ratio:.6g}")
