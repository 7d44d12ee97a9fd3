"""Content-addressed, resumable artifact store for solve reports.

Each executed study cell lands on disk as one JSON file named by the SHA-256
of *what was solved*: the instance digest, the strategy name and the
canonical config JSON.  The address is independent of which study produced
the artifact, so structurally identical work is shared across studies, and
re-running a study only solves the cells whose artifacts are missing —
deleting one file re-solves exactly one cell.

Layout (git-style fan-out to keep directories small)::

    <root>/
      ab/
        abcdef....json        # {"sha256": ..., "report": {...}}
        abcdef....json.corrupt.0   # quarantined damaged artifact (if any)

Writes are atomic (temp file + rename) and every artifact embeds a SHA-256
content checksum over its canonical report JSON, verified on read.  A file
that fails to parse, fails the checksum, or was torn mid-write is
**quarantined** — renamed aside to ``<name>.json.corrupt.N``, counted in
``stats()["corrupt"]`` — and reported as a *miss*, so the damaged cell is
transparently re-solved (and the write-through replaces the artifact)
instead of crashing the read path.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

from repro.config import SolveConfig
from repro.api.registry import REGISTRY
from repro.api.report import SolveReport
from repro.exceptions import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector

__all__ = ["ArtifactStore", "artifact_key", "storable_strategy"]

#: Artifact layout version, part of every :func:`artifact_key`: a bump makes
#: older artifacts unreachable, so they are re-solved.  2: no instance;
#: 3: instance digests over the columnar byte layout.
ARTIFACT_FORMAT = 3


def storable_strategy(strategy: str) -> bool:
    """Whether artifacts may serve/persist results for ``strategy``.

    Artifact keys are content-addressed by the strategy *name*: a
    persistent key cannot embed the process-local registry generation the
    in-memory caches use for invalidation.  A strategy re-registered in
    this process — a fresh implementation under a reused name — must
    therefore bypass the store entirely, or its artifacts would replay the
    previous implementation's results.  The study runner and the serving
    layer's tier-2 cache both apply this one rule.
    """
    return REGISTRY.generation(strategy) <= 1


def artifact_key(instance_digest: str, strategy: str,
                 config: SolveConfig) -> str:
    """The content address of one solved cell.

    SHA-256 over the canonical JSON of ``{instance digest, strategy, config,
    format}`` — everything that determines the solver output, plus the
    :data:`ARTIFACT_FORMAT` of the stored report.  Stable across processes
    and platforms because every component is itself canonical JSON.

    The strategy is addressed by *name*: unlike the in-process result cache
    the persistent store cannot mix in the registry generation, so changing
    a strategy's implementation under an existing name requires clearing the
    store (the study runner additionally refuses to serve artifacts for
    names re-registered within the current process).
    """
    payload = json.dumps(
        {"instance": instance_digest, "strategy": strategy,
         "config": json.loads(config.to_json()), "format": ARTIFACT_FORMAT},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _payload_checksum(report_json: str) -> str:
    """SHA-256 content checksum of one artifact's report JSON."""
    return hashlib.sha256(report_json.encode("utf-8")).hexdigest()


class ArtifactStore:
    """On-disk key -> :class:`~repro.api.report.SolveReport` store.

    Tracks cumulative hit/miss counters (``stats()``) so callers — the study
    runner, the CI smoke check — can assert resume behaviour: a second run
    of the same study must be 100% hits.

    The store doubles as the tier-2 backend of the serving stack
    (:class:`repro.serve.TieredCache`): writes are atomic (temp file +
    ``os.replace``), so concurrent processes racing on one key leave exactly
    one intact artifact, and the counters are lock-guarded so concurrent
    submit threads never tear them.  Damaged artifacts — truncated, torn,
    checksum-mismatched — are quarantined on read (renamed aside, counted
    as ``corrupt``) and served as misses; see :meth:`get`.

    ``fault_injector`` is the chaos hook: an active
    :class:`repro.faults.FaultInjector` may turn a :meth:`put` into a torn
    write, a corrupt payload or an ``ENOSPC`` failure.  The default
    (``None``) costs one attribute check per write.
    """

    def __init__(self, root: Union[str, Path], *,
                 fault_injector: "Optional[FaultInjector]" = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._faults = fault_injector
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {"hits": 0, "misses": 0, "writes": 0,
                                       "skipped_writes": 0, "corrupt": 0}

    def _count(self, counter: str) -> None:
        # Monotonicity audit: this is the only place the counters mutate,
        # always under _stats_lock; stats() snapshots under the same lock.
        # Counters are therefore monotone non-decreasing under any thread
        # interleaving.
        with self._stats_lock:
            self._stats[counter] += 1

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """The artifact path of ``key`` (two-level fan-out)."""
        if not key or len(key) < 3:
            raise ModelError(f"invalid artifact key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[SolveReport]:
        """Load the report stored under ``key``; ``None`` (a miss) if absent.

        A damaged artifact — zero-byte or truncated file, invalid JSON, a
        report that fails validation, or a checksum mismatch — is
        **quarantined** (renamed aside, counted in ``stats()["corrupt"]``)
        and reported as a miss, never raised out of the cache read path:
        the caller re-solves the cell and the write-through repairs the
        store.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError:
            # Unreadable (permissions, I/O error): a miss, not a crash.
            self._count("misses")
            return None
        report = self._decode_artifact(text)
        if report is None:
            self._quarantine(path)
            self._count("corrupt")
            self._count("misses")
            return None
        self._count("hits")
        return report

    @staticmethod
    def _decode_artifact(text: str) -> Optional[SolveReport]:
        """Parse + verify one artifact's bytes; ``None`` when damaged."""
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, ValueError):
            return None
        if not (isinstance(payload, dict) and "sha256" in payload
                and "report" in payload):
            return None
        try:
            report_json = json.dumps(payload["report"], sort_keys=True,
                                     separators=(",", ":"))
            if _payload_checksum(report_json) != payload["sha256"]:
                return None
            return SolveReport.from_dict(payload["report"])
        except (ModelError, KeyError, TypeError, ValueError):
            return None

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Rename a damaged artifact aside (first free ``.corrupt.N``)."""
        for attempt in range(100):
            target = path.with_name(f"{path.name}.corrupt.{attempt}")
            if target.exists():
                continue
            try:
                os.replace(path, target)
                return target
            except FileNotFoundError:
                return None  # a concurrent reader quarantined it first
            except OSError:
                break
        # Renaming failed (read-only dir?): degrade to deletion-less miss;
        # the write-through will overwrite the damaged file in place.
        return None

    def put(self, key: str, report: SolveReport) -> Path:
        """Atomically write ``report`` under ``key``; returns the path.

        The artifact embeds a SHA-256 checksum over the canonical report
        JSON (``{"sha256": ..., "report": {...}}``), which :meth:`get`
        verifies — so silent bit rot or a torn write is caught on read and
        quarantined instead of served.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        report_json = report.to_json()
        # The checksum covers the TRUE payload, before any injected
        # damage — bit rot happens after a correct write, and a checksum
        # taken over already-corrupt bytes would dutifully verify them.
        checksum = _payload_checksum(report_json)
        if self._faults is not None:
            if self._faults.draw("store_enospc") is not None:
                raise OSError(errno.ENOSPC,
                              "injected ENOSPC (fault plan "
                              f"{self._faults.plan.name!r})", str(path))
            if self._faults.draw("store_corrupt_artifact") is not None:
                # Flip a byte mid-payload; whether or not the result still
                # parses as JSON, the checksum catches it on read.
                mid = len(report_json) // 2
                report_json = (report_json[:mid]
                               + ("X" if report_json[mid] != "X" else "Y")
                               + report_json[mid + 1:])
        # The canonical envelope ("report" sorts first), encoded once.
        body = f'{{"report":{report_json},"sha256":"{checksum}"}}'
        if self._faults is not None \
                and self._faults.draw("store_torn_write") is not None:
            body = body[:max(1, len(body) // 2)]  # torn mid-write
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(body)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("writes")
        return path

    def put_if_absent(self, key: str, report: SolveReport) -> Path:
        """Write ``report`` under ``key`` unless an artifact already exists.

        The read-through tier of a *shared* store — several cluster shards
        (or a shard and the study runner) pointing at one directory — uses
        this instead of :meth:`put`: content addressing makes every writer's
        payload for a key identical, so once any process has landed the
        artifact the remaining writers can skip the temp-file + rename I/O
        entirely.  Races stay safe (the fallback is the atomic :meth:`put`);
        skipped writes are counted as ``skipped_writes``, not ``writes``.
        """
        path = self.path_for(key)
        if path.exists():
            self._count("skipped_writes")
            return path
        return self.put(key, report)

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def delete(self, key: str) -> bool:
        """Remove the artifact under ``key``; returns whether it existed."""
        path = self.path_for(key)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> Iterator[str]:
        """All artifact keys currently stored (sorted, for determinism)."""
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def quarantined(self) -> Iterator[Path]:
        """Paths of every quarantined (damaged, renamed-aside) artifact."""
        yield from sorted(self.root.glob("??/*.json.corrupt.*"))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Cumulative counters of this store handle.

        ``hits`` / ``misses`` / ``writes`` / ``skipped_writes`` as before,
        plus ``corrupt``: artifacts quarantined by :meth:`get` (each also
        counted as a miss, so hit/miss accounting still balances).
        """
        with self._stats_lock:
            return dict(self._stats)
