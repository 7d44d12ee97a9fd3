"""Two-tier result cache: in-memory LRU above the on-disk artifact store.

Tier 1 is a thread-safe :class:`repro.cache.LRUCache` (fast, bounded,
process-local); tier 2 is the content-addressed
:class:`repro.study.store.ArtifactStore` (persistent, shared across
processes and with the study pipeline — a report solved by ``repro study
run --store`` is served by the service without any solver work, and vice
versa).

Semantics:

* **Lookup** probes tier 1 first; a tier-2 hit is *promoted* into tier 1 so
  repeated traffic for a hot key never touches the disk again.
* **Write-through**: :meth:`TieredCache.put` lands a fresh report in both
  tiers, so a process restart loses only latency, never results.
* **No counters of its own**: each event is counted once, by the layer
  that decides it — the LRU and the store count their hits and misses,
  :class:`~repro.serve.SolveService` counts the request buckets — and
  :meth:`TieredCache.stats` nests the two backing tiers' snapshots.

Entries are addressed by what determines the solver output: the instance
digest, the strategy name and the canonical config JSON (the same triple the
session cache and the artifact store already key on).
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Tuple

from repro.config import SolveConfig
from repro.api.registry import REGISTRY
from repro.api.report import SolveReport
from repro.cache import LRUCache
from repro.exceptions import ModelError
from repro.study.store import ArtifactStore, artifact_key, storable_strategy

__all__ = ["TieredCache"]

logger = logging.getLogger(__name__)


class TieredCache:
    """Write-through memory+disk cache for solve reports.

    Parameters
    ----------
    store:
        Optional tier-2 :class:`~repro.study.store.ArtifactStore`; without
        it the cache degrades gracefully to a single in-memory tier.
    max_entries:
        Bound of the tier-1 LRU.
    shared_store:
        Mark the store as *shared* between several writers (cluster
        shards, a concurrent study run).  Write-throughs then use
        :meth:`~repro.study.store.ArtifactStore.put_if_absent` — content
        addressing makes every writer's payload identical, so once any
        process has landed an artifact the remaining writers skip the
        disk I/O.
    """

    def __init__(self, *, store: Optional[ArtifactStore] = None,
                 max_entries: int = 4096,
                 shared_store: bool = False) -> None:
        self.memory = LRUCache(max_entries=max_entries)
        self.store = store
        self.shared_store = bool(shared_store)

    @staticmethod
    def memory_key(digest: str, strategy: str,
                   config: SolveConfig) -> Tuple[str, str, str]:
        """The tier-1 key of one solved cell.

        Mixes in the strategy's registry generation (like the session-layer
        cache) so re-registering a name with a new implementation
        invalidates tier-1 entries instead of serving the old
        implementation's reports.
        """
        return (f"{strategy}@{REGISTRY.generation(strategy)}", digest,
                config.to_json())

    #: Shared storability rule: tier 2 is bypassed for strategies
    #: re-registered in this process, exactly like the study runner.
    _storable = staticmethod(storable_strategy)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get_memory(self, digest: str, strategy: str, config: SolveConfig,
                   ) -> Optional[SolveReport]:
        """Tier-1-only probe (pure in-memory, no disk I/O).

        A lookup that misses goes on to :meth:`get_store`; the serving
        front-end makes the two calls apart, so it never touches the disk
        while holding its own locks.
        """
        return self.memory.get(self.memory_key(digest, strategy, config))

    def get_store(self, digest: str, strategy: str, config: SolveConfig,
                  ) -> Optional[SolveReport]:
        """Tier-2 probe, completing a lookup that missed tier 1.

        A hit is promoted into tier 1.  A *corrupt* artifact is
        quarantined by the store itself (visible as
        ``stats()["store"]["corrupt"]``) and surfaces here as a plain
        miss, so the write-through of the fresh solve repairs it; a store
        that raises anyway is logged and treated as a miss too.
        """
        if self.store is None or not self._storable(strategy):
            return None
        try:
            stored = self.store.get(artifact_key(digest, strategy, config))
        except ModelError as exc:
            # A damaged artifact must not take the service down (or leak
            # out of a lookup): treat it as a miss and let the
            # write-through replace the bad file.
            logger.warning("artifact store lookup failed, treated as a "
                           "miss: %s", exc)
            return None
        if stored is not None:
            self.memory.put(self.memory_key(digest, strategy, config), stored)
        return stored

    def put(self, digest: str, strategy: str, config: SolveConfig,
            report: SolveReport) -> None:
        """Write-through insert into both tiers.

        Tier 1 is written first, so even when the disk write fails the
        report is served from memory; tier 2 is skipped for re-registered
        strategies (see :meth:`_storable`).
        """
        self.memory.put(self.memory_key(digest, strategy, config), report)
        if self.store is not None and self._storable(strategy):
            key = artifact_key(digest, strategy, config)
            if self.shared_store:
                self.store.put_if_absent(key, report)
            else:
                self.store.put(key, report)

    def stats(self) -> Dict[str, object]:
        """The backing tiers' counters: ``{"memory": ..., "store": ...}``.

        ``store`` is ``None`` without a tier 2.  The two sections are
        snapshotted under the two tiers' own locks, so each is internally
        exact while cross-section sums can be transiently ahead or behind
        by in-flight operations.
        """
        return {
            "memory": self.memory.stats(),
            "store": None if self.store is None else self.store.stats(),
        }
