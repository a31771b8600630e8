"""Content-addressed on-disk artifact store.

The store maps ``(kind, digest)`` pairs to JSON payloads under a fan-out
directory layout::

    <root>/objects/<kind>/<digest[:2]>/<digest>.json

``kind`` names the artifact family (``analysis.fingerprint``,
``incremental.state``, ...) and ``digest`` is a content address — for
per-function artifacts, :meth:`repro.ir.function.Function.content_digest` —
so a record is valid exactly as long as the content it was derived from
exists, with no invalidation protocol at all: content changed ⇒ different
digest ⇒ the old record is simply never looked up again.

Robustness contract (the store is a *cache*, never a source of truth):

* Every record carries a schema tag plus its own ``kind``/``digest``; a
  missing, truncated, corrupt, mis-filed or schema-incompatible record is a
  **miss**, never an error.
* Writes go to a per-process temporary file and are published with an atomic
  :func:`os.replace`, so concurrent writers are last-wins and readers never
  observe a half-written record.
* Write failures (read-only disk, quota) are swallowed and counted — a store
  that cannot persist degrades to the cold path.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

#: Version tag of the on-disk record format.  Bump on any incompatible change
#: to the record envelope or a payload encoding: old records then read as
#: schema mismatches (cold rebuild), never as wrong data.
SCHEMA_VERSION = 1

_UNSAFE_PATH_CHARS = re.compile(r"[^A-Za-z0-9_.-]")


@dataclass
class StoreStats:
    """Hit/miss/load/store counters of one :class:`ArtifactStore`."""

    #: Loads that returned a valid payload.
    hits: int = 0
    #: Loads that found nothing usable (absent, corrupt or schema-mismatched).
    misses: int = 0
    #: Records written (published via atomic replace).
    stores: int = 0
    #: Records rejected as unreadable or semantically invalid — counted on
    #: top of the miss they also produce.
    corrupt_records: int = 0
    #: Records rejected because their schema tag did not match the store's.
    schema_mismatches: int = 0
    #: Failed write attempts (the store keeps working, just colder).
    write_errors: int = 0

    @property
    def loads(self) -> int:
        """Total load attempts (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of loads served from the store."""
        return self.hits / self.loads if self.loads else 0.0

    def merge(self, other: "StoreStats") -> "StoreStats":
        """Fold ``other``'s counters into this one (in place) and return self."""
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.corrupt_records += other.corrupt_records
        self.schema_mismatches += other.schema_mismatches
        self.write_errors += other.write_errors
        return self

    def as_dict(self) -> Dict[str, Any]:
        """A flat summary suitable for reporting / ``extra_info`` dumps."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "loads": self.loads,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "corrupt_records": self.corrupt_records,
            "schema_mismatches": self.schema_mismatches,
            "write_errors": self.write_errors,
        }


class ArtifactStore:
    """A content-addressed JSON artifact store rooted at one directory.

    Several stores (from several processes) may share a root concurrently;
    records are immutable in meaning — two writers racing on the same
    ``(kind, digest)`` write the same logical content, so last-wins replace
    is safe.
    """

    def __init__(self, root: Union[str, Path],
                 schema_version: int = SCHEMA_VERSION,
                 stats: Optional[StoreStats] = None) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.stats = stats or StoreStats()
        self._sequence = 0
        #: Optional repro.obs.MetricsRegistry (see :meth:`attach_metrics`):
        #: when attached, load/store calls time themselves into the
        #: ``repro_store_io_seconds`` timer family.
        self._metrics = None
        self._io_timers = None

    def attach_metrics(self, registry) -> None:
        """Record store I/O timings into ``registry``.

        Purely observational — payloads, hit/miss behaviour and the
        :class:`StoreStats` counters are identical with or without a
        registry.  Passing ``None`` detaches.
        """
        self._metrics = registry
        if registry is None:
            self._io_timers = None
            return
        help_text = "Wall-clock of artifact-store I/O, by operation."
        self._io_timers = {
            "load": registry.timer("repro_store_io_seconds", help=help_text,
                                   op="load"),
            "store": registry.timer("repro_store_io_seconds", help=help_text,
                                    op="store"),
        }

    # ---------------------------------------------------------------- layout
    def path_for(self, kind: str, digest: str) -> Path:
        """Where a record lives on disk (paths are sanitized, records verify
        the *logical* kind/digest, so sanitization collisions stay safe)."""
        safe_kind = _UNSAFE_PATH_CHARS.sub("_", kind) or "_"
        safe_digest = _UNSAFE_PATH_CHARS.sub("_", digest) or "_"
        fan_out = safe_digest[:2] if len(safe_digest) >= 2 else "__"
        return self.root / "objects" / safe_kind / fan_out / f"{safe_digest}.json"

    # ----------------------------------------------------------------- loads
    def load(self, kind: str, digest: str) -> Optional[Any]:
        """The payload stored under ``(kind, digest)``, or ``None`` (a miss).

        Any defect — absent file, unreadable file, invalid JSON, wrong
        envelope, schema mismatch, mis-filed record — is a miss.
        """
        if self._io_timers is None:
            return self._load(kind, digest)
        with self._io_timers["load"].time():
            return self._load(kind, digest)

    def _load(self, kind: str, digest: str) -> Optional[Any]:
        path = self.path_for(kind, digest)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.stats.misses += 1
            return None
        except UnicodeDecodeError:
            self.stats.misses += 1
            self.stats.corrupt_records += 1
            return None
        try:
            record = json.loads(text)
        except ValueError:
            self.stats.misses += 1
            self.stats.corrupt_records += 1
            return None
        if not isinstance(record, dict) or "payload" not in record:
            self.stats.misses += 1
            self.stats.corrupt_records += 1
            return None
        if record.get("schema") != self.schema_version:
            self.stats.misses += 1
            self.stats.schema_mismatches += 1
            return None
        if record.get("kind") != kind or record.get("digest") != digest:
            self.stats.misses += 1
            self.stats.corrupt_records += 1
            return None
        self.stats.hits += 1
        return record["payload"]

    # ---------------------------------------------------------------- stores
    def store(self, kind: str, digest: str, payload: Any) -> bool:
        """Persist ``payload`` under ``(kind, digest)``; False on write failure."""
        if self._io_timers is None:
            return self._store(kind, digest, payload)
        with self._io_timers["store"].time():
            return self._store(kind, digest, payload)

    def _store(self, kind: str, digest: str, payload: Any) -> bool:
        path = self.path_for(kind, digest)
        record = {
            "schema": self.schema_version,
            "kind": kind,
            "digest": digest,
            "payload": payload,
        }
        self._sequence += 1
        temp = path.with_name(f".{path.name}.{os.getpid()}.{self._sequence}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            temp.write_text(
                json.dumps(record, separators=(",", ":"), sort_keys=True),
                encoding="utf-8")
            os.replace(temp, path)
        except (OSError, TypeError, ValueError):
            self.stats.write_errors += 1
            try:
                temp.unlink()
            except OSError:
                pass
            return False
        self.stats.stores += 1
        return True

    # ------------------------------------------------------------ inventory
    def iter_digests(self, kind: str) -> Iterable[str]:
        """Every digest with a record filed under ``kind`` (unvalidated:
        the names on disk, in no particular order — a later :meth:`load`
        still applies the full robustness contract to each)."""
        kind_dir = self.root / "objects" / (
            _UNSAFE_PATH_CHARS.sub("_", kind) or "_")
        try:
            fan_dirs = [path for path in kind_dir.iterdir() if path.is_dir()]
        except OSError:
            return
        for fan_dir in fan_dirs:
            try:
                records = list(fan_dir.glob("*.json"))
            except OSError:
                continue
            for record in records:
                yield record.name[:-len(".json")]

    def note_invalid_payload(self) -> None:
        """Record that a consumer rejected a structurally valid record's
        payload (semantic corruption the envelope check cannot see).

        Reclassifies the load the consumer just made from hit to miss, so
        the counters reflect what the consumer actually got out of the store.
        """
        if self.stats.hits > 0:
            self.stats.hits -= 1
        self.stats.misses += 1
        self.stats.corrupt_records += 1
