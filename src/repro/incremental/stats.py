"""Per-delta counters of the incremental pipeline.

One :class:`IncrementalStats` is produced by every
:func:`repro.harness.run_pipeline_incremental` call and folded into the
run's metrics registry by :func:`repro.obs.observe_incremental_stats`
(``repro_incremental_*`` families).  Like the other stats dataclasses it is
purely observational — the merge report is bit-identical whatever the
counters say.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass
class IncrementalStats:
    """What one delta cost, and what the previous state paid for."""

    #: 0 for the bootstrap run, then 1, 2, ... per applied delta.
    delta_index: int = 0
    functions_added: int = 0
    functions_changed: int = 0
    functions_removed: int = 0
    #: Candidate pairs whose outcome was replayed from the attempt cache.
    pairs_reused: int = 0
    #: Candidate pairs actually re-aligned and re-evaluated this run (at
    #: least one endpoint's content was new to the cache).
    pairs_rescored: int = 0
    #: Committed merges reconstructed from a cached merged body (no codegen).
    merges_spliced: int = 0
    #: Committed merges whose body had to be regenerated this run.
    merges_recomputed: int = 0
    #: Total attempts the replayed ranking loop evaluated (= the cold run's
    #: ``MergeReport.attempts`` — replay preserves the loop bit for bit).
    attempts: int = 0
    wall_seconds: float = 0.0

    @property
    def dirty_functions(self) -> int:
        """Delta members that carried new content into this run."""
        return self.functions_added + self.functions_changed

    @property
    def pair_reuse_fraction(self) -> float:
        """Fraction of evaluated pairs served from the attempt cache."""
        total = self.pairs_reused + self.pairs_rescored
        return self.pairs_reused / total if total else 0.0

    @property
    def rescore_fraction(self) -> float:
        """Fraction of evaluated pairs that needed real re-scoring."""
        total = self.pairs_reused + self.pairs_rescored
        return self.pairs_rescored / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """A flat summary suitable for reporting / ``extra_info`` dumps."""
        return {
            "delta_index": self.delta_index,
            "functions_added": self.functions_added,
            "functions_changed": self.functions_changed,
            "functions_removed": self.functions_removed,
            "dirty_functions": self.dirty_functions,
            "pairs_reused": self.pairs_reused,
            "pairs_rescored": self.pairs_rescored,
            "pair_reuse_fraction": self.pair_reuse_fraction,
            "merges_spliced": self.merges_spliced,
            "merges_recomputed": self.merges_recomputed,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
        }
