"""The attempt cache: memoized merge outcomes keyed by content digests.

Bit-identity with a cold run is guaranteed by *replaying* the ranking loop —
the loop's control flow is cheap — while memoizing its two expensive pure
steps: per-pair alignment + profitability evaluation, and per-commit merged
codegen.  Both are deterministic functions of the input functions' content,
so an outcome recorded under the ordered key ``(first.content_digest(),
second.content_digest())`` is valid forever — content changed ⇒ different
digest ⇒ the old entry is simply never looked up again.

An :class:`AttemptOutcome` stores exactly what a replayed
:class:`~repro.merge.pass_manager.MergeRecord` needs (decision integers,
matched instructions, DP cells, wall-clock attributions) plus — once some
run committed the pair — the merged function's *named* text and parameter
map, so later runs *splice* the merged body back in by parsing instead of
re-running codegen.  The text is the named rendering, not the canonical
one: local value names never change a digest, but SalSSA's phi coalescing
tie-breaks on them, so a spliced function that later participates in
further merging must carry the exact names a cold run would have produced.
Uncommitted outcomes carry no body; if a later delta changes the ranking so
a previously losing pair wins, the pass re-merges it deterministically and
promotes the entry.

``index_artifacts`` is a side cache for functions *created* during a run
(committed merged functions re-entering the candidate index): their
fingerprints keyed by content digest, so replaying a delta does not
recompute fingerprints for hundreds of unchanged merged functions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.fingerprint import Fingerprint
from ..ir.printer import print_function

#: Ordered (query digest, candidate digest) — merge(A, B) != merge(B, A).
PairKey = Tuple[str, str]


def pair_named_key(first, second) -> str:
    """Digest of the two inputs' *named* renderings.

    Content digests are canonical (name-independent), so two functions can
    share a :data:`PairKey` while carrying different local value names — and
    names steer SalSSA's phi coalescing, so their merged *bodies* differ.
    The named key guards the splice path: recorded text is only parsed back
    in when the replayed inputs are name-identical to the recorded ones;
    otherwise the pass re-merges deterministically.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(print_function(first).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(print_function(second).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class AttemptOutcome:
    """Everything one attempted merge decided, minus the IR."""

    #: The merger raised ``MergeError`` (counted as an attempt, no record).
    failed: bool = False
    # MergeDecision fields (reconstructed by the pass on replay):
    profitable: bool = False
    original_size: int = 0
    merged_size: int = 0
    overhead: int = 0
    # MergeRecord fields:
    matched_instructions: int = 0
    alignment_dp_cells: int = 0
    alignment_seconds: float = 0.0
    codegen_seconds: float = 0.0
    #: Named text of the merged body — present once the pair was committed
    #: by some run; parsed back in (spliced) on replayed commits.
    merged_text: Optional[str] = None
    #: :func:`pair_named_key` of the inputs the text was recorded from.
    named_key: Optional[str] = None
    #: per input function (0/1): original argument index -> merged index.
    param_map: Optional[Dict[int, Dict[int, int]]] = None


class AttemptCache:
    """Memoized attempt outcomes plus per-run reuse counters.

    The merge pass drives it duck-typed (``lookup`` / ``record`` /
    ``record_failure`` / ``note_commit`` and the ``merges_*`` counters), so
    :mod:`repro.merge` needs no import of this package.
    """

    def __init__(self) -> None:
        self.entries: Dict[PairKey, AttemptOutcome] = {}
        #: content digest -> fingerprint of functions created mid-run
        #: (committed merges).
        self.index_artifacts: Dict[str, Fingerprint] = {}
        self.begin_run()

    # ------------------------------------------------------------- lifecycle
    def begin_run(self) -> None:
        """Zero the per-run counters (call before every replayed run)."""
        self.run_hits = 0
        self.run_misses = 0
        self.merges_spliced = 0
        self.merges_recomputed = 0

    # ------------------------------------------------------------ pass hooks
    def lookup(self, key: PairKey) -> Optional[AttemptOutcome]:
        entry = self.entries.get(key)
        if entry is not None:
            self.run_hits += 1
        return entry

    def record(self, key: PairKey, decision, stats) -> AttemptOutcome:
        """Memoize a freshly evaluated attempt (its decision and stats)."""
        self.run_misses += 1
        entry = AttemptOutcome(
            failed=False,
            profitable=decision.profitable,
            original_size=decision.original_size,
            merged_size=decision.merged_size,
            overhead=decision.overhead,
            matched_instructions=stats.matched_instructions,
            alignment_dp_cells=stats.alignment_dp_cells,
            alignment_seconds=stats.alignment_seconds,
            codegen_seconds=stats.codegen_seconds,
        )
        self.entries[key] = entry
        return entry

    def record_failure(self, key: PairKey) -> AttemptOutcome:
        """Memoize a ``MergeError`` outcome (replays as a skipped attempt)."""
        self.run_misses += 1
        entry = AttemptOutcome(failed=True)
        self.entries[key] = entry
        return entry

    def note_commit(self, merged) -> None:
        """Capture the committed merged body for future splicing.

        Must be called *before* the originals are thunked — the pair key is
        their pre-commit content digests (memoized, so this is cheap).
        """
        key = (merged.first.content_digest(), merged.second.content_digest())
        entry = self.entries.get(key)
        if entry is None or entry.merged_text is not None:
            return
        entry.merged_text = print_function(merged.function)
        entry.named_key = pair_named_key(merged.first, merged.second)
        entry.param_map = merged.param_map

    #: Exposed on the cache so the merge pass stays duck-typed (no import
    #: of this package from :mod:`repro.merge`).
    pair_named_key = staticmethod(pair_named_key)

    def splice_valid(self, entry: AttemptOutcome, first, second) -> bool:
        """Whether ``entry``'s recorded text may be spliced for this pair.

        False when the replayed inputs' *named* renderings differ from the
        recorded ones — possible when canonically identical functions with
        different value names share a pair key — in which case the caller
        re-merges deterministically instead.
        """
        return (entry.merged_text is not None
                and entry.named_key == pair_named_key(first, second))

    # ---------------------------------------------------------- index hooks
    def prime_index_artifacts(self, index, function) -> None:
        """Inject the cached fingerprint of ``function`` before
        ``index.update``."""
        cached = self.index_artifacts.get(function.content_digest())
        if cached is not None:
            index.precomputed[function] = cached

    def capture_index_artifacts(self, index, function) -> None:
        """Keep the fingerprint ``index.update`` indexed ``function`` by."""
        fingerprint = index.fingerprints.get(function)
        if fingerprint is not None:
            self.index_artifacts[function.content_digest()] = fingerprint
