"""The runtime half of fault injection: drawing faults at hook sites.

Production code never imports fault *logic* — it carries an optional
injector reference (``None`` by default) and asks it one question at each
hook site::

    if self._faults is not None:
        self._faults.raise_solver_faults()        # serving layer
    ...
    if self._faults is not None and self._faults.draw("conn_drop"):
        writer.close(); return                    # worker response path

With the default ``None`` the hook is a single attribute check — the
happy path stays free.  An active :class:`FaultInjector` is built from a
:class:`~repro.faults.spec.FaultPlan`; each spec keeps a private seeded
RNG and an invocation counter (lock-guarded — injection sites run on
dispatcher threads, submit threads and the asyncio loop), so triggers are
deterministic per plan over a given call sequence.  Every trigger is
counted in :meth:`FaultInjector.stats`, which chaos reports surface as
``injected``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional

from repro.exceptions import FaultInjectedError
from repro.faults.spec import FaultPlan, FaultSpec

__all__ = ["FaultInjector"]


class _ArmedSpec:
    """One spec plus its runtime state (counter, RNG, triggers so far)."""

    __slots__ = ("spec", "rng", "calls", "triggers")

    def __init__(self, spec: FaultSpec, plan_seed: int, index: int) -> None:
        self.spec = spec
        # A string seed hashes via SHA-512 inside random.Random — stable
        # across processes and runs, unlike hash()-based tuple seeding.
        self.rng = random.Random(
            f"{plan_seed}:{index}:{spec.seed}:{spec.kind}")
        self.calls = 0
        self.triggers = 0

    def draw(self) -> bool:
        """Advance this spec's counter; decide whether it fires now."""
        self.calls += 1
        limit = self.spec.max_triggers
        if limit is not None and self.triggers >= limit:
            return False
        fired = False
        if self.spec.nth_call is not None:
            fired = self.calls == self.spec.nth_call
        elif self.spec.probability > 0.0:
            fired = self.rng.random() < self.spec.probability
        if fired:
            self.triggers += 1
        return fired


class FaultInjector:
    """Deterministic, seeded fault source built from a :class:`FaultPlan`.

    Thread-safe: one injector may be shared by a service's submit threads,
    its dispatcher, the artifact store and an asyncio connection handler.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._armed: Dict[str, List[_ArmedSpec]] = {}
        for index, spec in enumerate(plan.specs):
            self._armed.setdefault(spec.kind, []).append(
                _ArmedSpec(spec, plan.seed, index))

    @classmethod
    def from_plan(cls, plan: Optional[FaultPlan]) -> Optional["FaultInjector"]:
        """``None`` for an empty/absent plan — the zero-overhead default."""
        if plan is None or not plan.specs:
            return None
        return cls(plan)

    # ------------------------------------------------------------------ #
    # Drawing
    # ------------------------------------------------------------------ #
    def draw(self, kind: str) -> Optional[FaultSpec]:
        """Advance the site counter for ``kind``; the spec that fired, if any.

        Every armed spec of the kind advances on each call; the first one
        that fires wins (at most one fault per site invocation).
        """
        with self._lock:
            for armed in self._armed.get(kind, ()):
                if armed.draw():
                    return armed.spec
        return None

    def raise_solver_faults(self) -> None:
        """The serving layer's solve hook: maybe delay, maybe crash.

        Drawn once per solved request.  ``solver_delay`` sleeps its
        ``delay_ms`` (holding no locks); ``solver_crash`` raises
        :class:`FaultInjectedError`, which the service's solve-failure
        containment turns into failed futures — never a lost request.
        """
        delay = self.draw("solver_delay")
        if delay is not None and delay.delay_ms > 0.0:
            time.sleep(delay.delay_ms / 1000.0)
        if self.draw("solver_crash") is not None:
            raise FaultInjectedError(
                "injected solver crash (fault plan "
                f"{self.plan.name!r})")

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Triggered-fault counts per kind (only kinds that fired)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for kind, specs in self._armed.items():
                total = sum(armed.triggers for armed in specs)
                if total:
                    counts[kind] = total
            return counts

    def total_injected(self) -> int:
        return sum(self.stats().values())
