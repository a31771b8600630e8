"""Content-addressed persistence: the run ledger's record store.

:class:`ArtifactStore` is a content-addressed JSON store (one directory,
versioned records, corruption-tolerant: a bad or stale record is a miss,
never an error).  :class:`~repro.obs.RunLedger` keeps its run records in
one; see ``docs/runs.md``.
"""

from .store import SCHEMA_VERSION, ArtifactStore, StoreStats

__all__ = [
    "ArtifactStore",
    "SCHEMA_VERSION",
    "StoreStats",
]
