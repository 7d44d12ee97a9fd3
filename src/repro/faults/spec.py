"""Declarative fault plans: what to break, where, and when.

A :class:`FaultSpec` names one *kind* of fault (its injection site), a
deterministic trigger — either ``nth_call`` (fire on exactly the Nth
invocation of that site) or a seeded ``probability`` per invocation — and
optional kind-specific parameters (``delay_ms`` for ``solver_delay``,
``max_triggers`` to bound repeat firings).  A :class:`FaultPlan` is a named
list of specs plus a base seed; both round-trip losslessly through JSON, so
a chaos scenario is a *file* you can pin in CI, diff in review and replay
byte-for-byte.

The taxonomy (one row per kind; the site column names the hook that draws
it):

==========================  ============================================
kind                        injected at
==========================  ============================================
``solver_crash``            ``SolveService`` solve, drawn once per
                            solved request (raises
                            :class:`~repro.exceptions.FaultInjectedError`)
``solver_delay``            ``SolveService`` solve, drawn once per
                            solved request (sleeps ``delay_ms`` first)
``store_torn_write``        ``ArtifactStore.put`` (writes a truncated
                            artifact, simulating a torn write)
``store_corrupt_artifact``  ``ArtifactStore.put`` (flips payload bytes,
                            so a later ``get`` must quarantine)
``store_enospc``            ``ArtifactStore.put`` (raises
                            ``OSError(ENOSPC)``)
``conn_drop``               worker response path (closes the connection
                            without answering)
``response_truncate``       worker response path (ships half the
                            response bytes, then closes)
``worker_sigkill``          worker solve path (``SIGKILL``s the worker's
                            own process)
==========================  ============================================

Determinism: every probabilistic spec owns a private ``random.Random``
seeded from ``(plan.seed, spec index, spec seed)``, and ``nth_call``
triggers count invocations of the spec's site — so a pinned plan replayed
over the same call sequence injects the same faults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ModelError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "named_plans"]

#: Every fault kind the injector knows how to draw (site == kind).
FAULT_KINDS = (
    "solver_crash",
    "solver_delay",
    "store_torn_write",
    "store_corrupt_artifact",
    "store_enospc",
    "conn_drop",
    "response_truncate",
    "worker_sigkill",
)

#: Kinds that kill or wedge the injecting process itself; a supervisor
#: respawning a worker strips these from the replacement's plan so a
#: bounded restart budget cannot be burned by the same scripted kill.
PROCESS_FATAL_KINDS = frozenset({"worker_sigkill"})


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: a kind, a trigger and its parameters."""

    #: One of :data:`FAULT_KINDS`; doubles as the injection site name.
    kind: str
    #: Fire on exactly the Nth invocation of the site (1-based).
    nth_call: Optional[int] = None
    #: Per-invocation trigger probability (seeded, deterministic).
    probability: float = 0.0
    #: Extra seed component, so two specs of the same kind diverge.
    seed: int = 0
    #: Stop firing after this many triggers (``None`` = unbounded for
    #: probability triggers; ``nth_call`` triggers fire exactly once).
    max_triggers: Optional[int] = None
    #: Sleep length for ``solver_delay`` (milliseconds).
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ModelError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        if self.nth_call is not None and int(self.nth_call) < 1:
            raise ModelError(
                f"nth_call must be >= 1, got {self.nth_call!r}")
        if not 0.0 <= float(self.probability) <= 1.0:
            raise ModelError(
                f"probability must be in [0, 1], got {self.probability!r}")
        if self.nth_call is None and self.probability == 0.0:
            raise ModelError(
                f"fault spec {self.kind!r} can never trigger: give it an "
                f"nth_call or a probability")
        if float(self.delay_ms) < 0.0:
            raise ModelError(f"delay_ms must be >= 0, got {self.delay_ms!r}")

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind}
        if self.nth_call is not None:
            data["nth_call"] = int(self.nth_call)
        if self.probability:
            data["probability"] = float(self.probability)
        if self.seed:
            data["seed"] = int(self.seed)
        if self.max_triggers is not None:
            data["max_triggers"] = int(self.max_triggers)
        if self.delay_ms:
            data["delay_ms"] = float(self.delay_ms)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        try:
            return cls(
                kind=str(data["kind"]),
                nth_call=(None if data.get("nth_call") is None
                          else int(data["nth_call"])),  # type: ignore[arg-type]
                probability=float(data.get("probability", 0.0)),  # type: ignore[arg-type]
                seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
                max_triggers=(None if data.get("max_triggers") is None
                              else int(data["max_triggers"])),  # type: ignore[arg-type]
                delay_ms=float(data.get("delay_ms", 0.0)),  # type: ignore[arg-type]
            )
        except ModelError:
            raise
        except Exception as exc:  # noqa: BLE001 - malformed plan input
            raise ModelError(f"malformed fault spec {data!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of :class:`FaultSpec`\\ s (JSON round-trippable)."""

    name: str = "unnamed"
    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def kinds(self) -> List[str]:
        """The distinct fault kinds the plan injects (sorted)."""
        return sorted({spec.kind for spec in self.specs})

    def without(self, kinds) -> "FaultPlan":
        """A copy with every spec of the given ``kinds`` removed.

        Used by the worker supervisor: a respawned worker keeps the plan
        minus :data:`PROCESS_FATAL_KINDS`, so the scripted SIGKILL cannot
        exhaust the restart budget by re-firing in every replacement.
        """
        kinds = frozenset(kinds)
        return FaultPlan(name=self.name, seed=self.seed,
                         specs=tuple(spec for spec in self.specs
                                     if spec.kind not in kinds))

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "seed": int(self.seed),
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        try:
            specs = tuple(FaultSpec.from_dict(entry)
                          for entry in data.get("specs", []))  # type: ignore[union-attr]
            return cls(name=str(data.get("name", "unnamed")),
                       seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
                       specs=specs)
        except ModelError:
            raise
        except Exception as exc:  # noqa: BLE001 - malformed plan input
            raise ModelError(f"malformed fault plan: {exc}") from exc

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, source: Union[str, Path]) -> "FaultPlan":
        """A plan by built-in name, from a JSON file path, or inline JSON.

        Inline JSON (anything starting with ``{``) is how the launcher
        ships a *derived* plan — e.g. a respawned worker's plan with the
        process-fatal kinds stripped — on a worker command line without a
        scratch file.
        """
        text = str(source)
        plans = named_plans()
        if text in plans:
            return plans[text]
        if text.lstrip().startswith("{"):
            return cls.from_json(text)
        path = Path(source)
        if not path.exists():
            raise ModelError(
                f"no fault plan named {source!r} and no such file; built-in "
                f"plans: {', '.join(sorted(plans))}")
        return cls.from_json(path.read_text(encoding="utf-8"))


def named_plans() -> Dict[str, FaultPlan]:
    """The built-in fault plans (fresh instances each call).

    ``smoke``
        The CI chaos scenario: one scripted worker SIGKILL, a seeded 20%
        chance of corrupting each stored artifact, and a seeded 5% chance
        of dropping any worker connection — the combination that exercises
        respawn, quarantine and gateway failover in one run.
    ``slow_solver``
        Every 7th solve sleeps 50 ms; surfaces deadline expiries without
        any hard failure.
    ``bad_disk``
        Torn writes and ENOSPC on the artifact store; exercises
        ``cache_put_failures`` and read-side quarantine with no cluster
        involvement needed.
    """
    return {
        "smoke": FaultPlan(name="smoke", seed=0xC405, specs=(
            FaultSpec(kind="worker_sigkill", nth_call=8),
            FaultSpec(kind="store_corrupt_artifact", probability=0.2),
            FaultSpec(kind="conn_drop", probability=0.05, max_triggers=6),
        )),
        "slow_solver": FaultPlan(name="slow_solver", seed=7, specs=(
            FaultSpec(kind="solver_delay", probability=1 / 7,
                      delay_ms=50.0),
        )),
        "bad_disk": FaultPlan(name="bad_disk", seed=11, specs=(
            FaultSpec(kind="store_torn_write", probability=0.15),
            FaultSpec(kind="store_enospc", probability=0.1),
        )),
    }
