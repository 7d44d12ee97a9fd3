"""Declarative study specifications and their lazy plan expansion.

A :class:`StudySpec` is the declarative description of an entire experiment
campaign: one or more :class:`GeneratorAxis` entries (an instance generator
plus a parameter grid and a seed list) crossed with a strategy grid and a
:class:`~repro.config.SolveConfig` grid.  ``expand()`` turns the spec
into a deterministic, lazily generated plan of :class:`StudyCell` work items
— nothing is materialised until the runner walks the iterator, so a spec
describing millions of cells costs nothing to hold.

Specs are plain JSON values end to end (generator params are JSON, configs
serialise canonically), so a spec can be stored, diffed, and digested — the
digest names the study in the artifact store.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.config import SolveConfig
from repro.exceptions import ModelError
from repro.study.generators import get_generator

__all__ = ["GeneratorAxis", "StudyCell", "StudySpec"]


def _freeze(value: Any) -> str:
    """A value as canonical JSON: hashable, ordered, and lossless to thaw.

    Generator params are JSON values end to end, so canonical JSON is the
    natural frozen form — unlike structural tuple encodings it cannot
    confuse a list of pairs with a mapping.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ModelError(
            f"generator params must be JSON values, got {value!r}: {exc}"
        ) from exc


def _freeze_params(params: Optional[Mapping[str, Any]]) -> str:
    return _freeze(dict(params) if params else {})


def _params_dict(frozen: str) -> Dict[str, Any]:
    return json.loads(frozen)


@dataclass(frozen=True)
class GeneratorAxis:
    """One instance family of a study: a generator, a param grid and seeds.

    Attributes
    ----------
    generator:
        Name in the generator registry
        (:func:`repro.study.available_generators`).
    params:
        Fixed parameters shared by every instance of the axis.
    grid:
        Swept parameters: a mapping from parameter name to the sequence of
        values to sweep.  The expansion takes the cartesian product over the
        grid keys in sorted order, so the plan order is deterministic.
    seeds:
        Seeds to instantiate each parameter combination with (unseeded
        generators simply ignore them).
    label:
        Free-form tag carried into every cell of the axis (e.g. the family
        name an experiment table groups by).
    strategies / configs:
        Optional per-axis overrides of the spec-level strategy / config grids.
    """

    generator: str
    params: str = "{}"
    grid: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    seeds: Tuple[int, ...] = (0,)
    label: str = ""
    strategies: Optional[Tuple[str, ...]] = None
    configs: Optional[Tuple[SolveConfig, ...]] = None

    def __init__(self, generator: str,
                 params: Optional[Mapping[str, Any]] = None, *,
                 grid: Optional[Mapping[str, Sequence[Any]]] = None,
                 seeds: Sequence[int] = (0,),
                 label: str = "",
                 strategies: Optional[Sequence[str]] = None,
                 configs: Optional[Sequence[SolveConfig]] = None) -> None:
        object.__setattr__(self, "generator", str(generator))
        object.__setattr__(self, "params", _freeze_params(params))
        frozen_grid = tuple(sorted(
            (str(k), tuple(_freeze(v) for v in values))
            for k, values in (grid or {}).items()))
        object.__setattr__(self, "grid", frozen_grid)
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        object.__setattr__(self, "label", str(label))
        object.__setattr__(self, "strategies",
                           None if strategies is None else tuple(strategies))
        object.__setattr__(self, "configs",
                           None if configs is None else tuple(configs))
        if not self.seeds:
            raise ModelError(f"axis {self.generator!r} needs at least one seed")
        overlap = set(_params_dict(self.params)) & {k for k, _ in self.grid}
        if overlap:
            raise ModelError(
                f"axis {self.generator!r} sweeps parameters that are also "
                f"fixed: {sorted(overlap)}")
        for key, values in self.grid:
            if not values:
                raise ModelError(
                    f"axis {self.generator!r} sweeps {key!r} over an empty "
                    f"value list")

    def combinations(self) -> Iterator[Dict[str, Any]]:
        """Lazily yield the resolved param dict of every grid point."""
        base = _params_dict(self.params)
        if not self.grid:
            yield dict(base)
            return
        keys = [key for key, _ in self.grid]
        for combo in itertools.product(*(values for _, values in self.grid)):
            point = dict(base)
            point.update({key: json.loads(value)
                          for key, value in zip(keys, combo)})
            yield point

    @property
    def num_points(self) -> int:
        """Instances the axis expands to (grid points x seeds)."""
        count = 1
        for _, values in self.grid:
            count *= len(values)
        return count * len(self.seeds)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary (JSON-compatible)."""
        data: Dict[str, Any] = {
            "generator": self.generator,
            "params": _params_dict(self.params),
            "grid": {key: [json.loads(v) for v in values]
                     for key, values in self.grid},
            "seeds": list(self.seeds),
            "label": self.label,
        }
        if self.strategies is not None:
            data["strategies"] = list(self.strategies)
        if self.configs is not None:
            data["configs"] = [config.to_dict() for config in self.configs]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GeneratorAxis":
        """Reconstruct an axis serialised by :meth:`to_dict`."""
        if not isinstance(data, Mapping) or "generator" not in data:
            raise ModelError(f"invalid GeneratorAxis payload: {data!r}")
        configs = data.get("configs")
        return cls(
            data["generator"],
            data.get("params") or {},
            grid=data.get("grid") or {},
            seeds=data.get("seeds") or (0,),
            label=data.get("label", ""),
            strategies=data.get("strategies"),
            configs=None if configs is None
            else [SolveConfig.from_dict(c) for c in configs],
        )


@dataclass(frozen=True)
class StudyCell:
    """One unit of work of an expanded study plan.

    A cell is the cross product point ``(instance params, seed, strategy,
    config)`` together with its deterministic position in the plan; the
    runner materialises the instance, executes the strategy through
    :func:`repro.api.solve` and lands the report in the artifact store.
    """

    index: int
    generator: str
    params: str  # canonical JSON of the generator params
    seed: int
    strategy: str
    config: SolveConfig
    label: str = ""

    @property
    def params_dict(self) -> Dict[str, Any]:
        """The generator params as a plain dictionary."""
        return _params_dict(self.params)

    def make_instance(self) -> Any:
        """Materialise the cell's instance through the generator registry."""
        return get_generator(self.generator).build(self.params_dict,
                                                   seed=self.seed)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary (JSON-compatible)."""
        return {
            "index": self.index,
            "generator": self.generator,
            "params": self.params_dict,
            "seed": self.seed,
            "strategy": self.strategy,
            "config": self.config.to_dict(),
            "label": self.label,
        }


@dataclass(frozen=True)
class StudySpec:
    """A declarative experiment campaign: generators x strategies x configs.

    Attributes
    ----------
    name:
        Identifier of the study (used in artifact paths and CLI listings).
    axes:
        The instance families (:class:`GeneratorAxis`) the study runs over.
    strategies:
        Registry names executed on every instance (an axis may override).
        An empty tuple together with axis-level ``strategies=None`` yields a
        cell-free spec — useful for studies whose summarising logic consumes
        the instances directly.
    configs:
        :class:`~repro.config.SolveConfig` grid applied to every
        ``(instance, strategy)`` pair (an axis may override).
    description:
        One-line human-readable summary.
    """

    name: str
    axes: Tuple[GeneratorAxis, ...] = ()
    strategies: Tuple[str, ...] = ("optop",)
    configs: Tuple[SolveConfig, ...] = (SolveConfig(),)
    description: str = ""

    def __init__(self, name: str,
                 axes: Sequence[GeneratorAxis] = (), *,
                 strategies: Sequence[str] = ("optop",),
                 configs: Sequence[SolveConfig] = (SolveConfig(),),
                 description: str = "") -> None:
        if not name or not isinstance(name, str):
            raise ModelError(f"study name must be a non-empty string, "
                             f"got {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "strategies", tuple(strategies))
        object.__setattr__(self, "configs", tuple(configs))
        object.__setattr__(self, "description", str(description))
        for axis in self.axes:
            if not isinstance(axis, GeneratorAxis):
                raise ModelError(
                    f"study axes must be GeneratorAxis values, got "
                    f"{type(axis).__name__}")

    # ------------------------------------------------------------------ #
    # Lazy plan expansion
    # ------------------------------------------------------------------ #
    def expand(self) -> Iterator[StudyCell]:
        """Lazily yield the deterministic plan of the study.

        Order: axes in declaration order; within an axis the cartesian
        product of the sorted grid keys, then seeds, then strategies, then
        configs.  The enumeration allocates one cell at a time, so arbitrarily
        large grids can be streamed.
        """
        index = 0
        for axis in self.axes:
            strategies = (self.strategies if axis.strategies is None
                          else axis.strategies)
            configs = self.configs if axis.configs is None else axis.configs
            for params in axis.combinations():
                frozen = _freeze_params(params)
                for seed in axis.seeds:
                    for strategy in strategies:
                        for config in configs:
                            yield StudyCell(
                                index=index, generator=axis.generator,
                                params=frozen, seed=seed, strategy=strategy,
                                config=config, label=axis.label)
                            index += 1

    def instances(self) -> Iterator[Tuple[GeneratorAxis, Dict[str, Any], int, Any]]:
        """Lazily yield ``(axis, params, seed, instance)`` for every instance.

        Unlike :meth:`expand` this enumerates each instance once (not once
        per strategy/config), which is what summarising logic that consumes
        instances directly wants.
        """
        for axis in self.axes:
            for params in axis.combinations():
                for seed in axis.seeds:
                    instance = get_generator(axis.generator).build(params,
                                                                   seed=seed)
                    yield axis, dict(params), seed, instance

    @property
    def num_cells(self) -> int:
        """Total number of cells the plan expands to (computed, not expanded)."""
        total = 0
        for axis in self.axes:
            strategies = (self.strategies if axis.strategies is None
                          else axis.strategies)
            configs = self.configs if axis.configs is None else axis.configs
            total += axis.num_points * len(strategies) * len(configs)
        return total

    def validate(self) -> None:
        """Fail fast: resolve every generator and strategy name."""
        from repro.api.registry import get_strategy

        for axis in self.axes:
            get_generator(axis.generator)
            for strategy in (self.strategies if axis.strategies is None
                             else axis.strategies):
                get_strategy(strategy)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary (JSON-compatible)."""
        return {
            "name": self.name,
            "description": self.description,
            "axes": [axis.to_dict() for axis in self.axes],
            "strategies": list(self.strategies),
            "configs": [config.to_dict() for config in self.configs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        """Reconstruct a spec serialised by :meth:`to_dict`."""
        if not isinstance(data, Mapping) or "name" not in data:
            raise ModelError(f"invalid StudySpec payload: {data!r}")
        return cls(
            data["name"],
            [GeneratorAxis.from_dict(axis) for axis in data.get("axes", [])],
            strategies=data.get("strategies", ("optop",)),
            configs=[SolveConfig.from_dict(c)
                     for c in data.get("configs", [SolveConfig().to_dict()])],
            description=data.get("description", ""),
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialise to JSON; :meth:`from_json` inverts this losslessly."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        """Reconstruct a spec serialised by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid StudySpec JSON: {exc}") from exc
        return cls.from_dict(data)

    def digest(self) -> str:
        """SHA-256 of the canonical spec JSON (stable across processes)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_configs(self, configs: Sequence[SolveConfig]) -> "StudySpec":
        """A copy of the spec with the top-level config grid replaced."""
        return replace(self, configs=tuple(configs))
