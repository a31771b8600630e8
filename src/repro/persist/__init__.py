"""Content-addressed persistence: warm-start artifacts for repeated runs.

Every pipeline invocation used to start cold — fingerprints and cost-model
sizes were recomputed from scratch even when the module barely changed
between runs.  This subsystem gives those process-external artifacts, the
incremental pipeline's state snapshots and the run ledger an on-disk home:

* :class:`ArtifactStore` — a content-addressed JSON store (one directory,
  versioned records, corruption-tolerant: a bad or stale record is a miss,
  never an error).
* :class:`PersistentAnalysisCache` — backs the analysis manager for analyses
  whose results are pure data (fingerprints, function sizes), keyed by
  :meth:`repro.ir.function.Function.content_digest` so invalidation reduces
  to "the digest changed".

Thread a ``cache_dir`` through :func:`repro.harness.pipeline.run_pipeline`
to turn it on; see ``docs/persistence.md`` for the store layout and
invalidation story.
"""

from .cache import ANALYSIS_KIND_PREFIX, PersistentAnalysisCache
from .store import SCHEMA_VERSION, ArtifactStore, StoreStats

__all__ = [
    "ANALYSIS_KIND_PREFIX",
    "ArtifactStore",
    "PersistentAnalysisCache",
    "SCHEMA_VERSION",
    "StoreStats",
]
