"""The attempt cache: memoized merge outcomes keyed by content digests.

Bit-identity with a cold run is guaranteed by *replaying* the ranking loop —
the loop's control flow is cheap — while memoizing its two expensive pure
steps: per-pair alignment + profitability evaluation, and per-commit merged
codegen.  Both are deterministic functions of the input functions' content,
so an outcome recorded under the ordered key ``(first.content_digest(),
second.content_digest())`` is valid forever — content changed ⇒ different
digest ⇒ the old entry is simply never looked up again, the same
no-invalidation contract as :mod:`repro.persist`.

An :class:`AttemptOutcome` stores exactly what a replayed
:class:`~repro.merge.pass_manager.MergeRecord` needs (decision integers,
matched instructions, DP cells, wall-clock attributions) plus — once some
run committed the pair — the merged function's *named* text and parameter
map, so later runs *splice* the merged body back in by parsing instead of
re-running codegen.  The text is the named rendering, not the canonical
one: local value names never change a digest, but SalSSA's phi coalescing
tie-breaks on them, so a spliced function that later participates in
further merging must carry the exact names a cold run would have produced.  Uncommitted outcomes carry no body; if a later delta
changes the ranking so a previously losing pair wins, the pass re-merges it
deterministically and promotes the entry.

``index_artifacts`` is a side cache for functions *created* during a run
(committed merged functions re-entering the candidate index): their
fingerprints keyed by content digest, so replaying a delta does not
recompute fingerprints for hundreds of unchanged merged functions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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
    #: Content digest of the committed merged function (used by ``compact``
    #: to chase liveness through merge chains).
    merged_digest: Optional[str] = None
    #: :func:`pair_named_key` of the inputs the text was recorded from.
    named_key: Optional[str] = None
    #: per input function (0/1): original argument index -> merged index.
    param_map: Optional[Dict[int, Dict[int, int]]] = None

    def payload(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "failed": self.failed,
            "profitable": self.profitable,
            "original_size": self.original_size,
            "merged_size": self.merged_size,
            "overhead": self.overhead,
            "matched_instructions": self.matched_instructions,
            "alignment_dp_cells": self.alignment_dp_cells,
            "alignment_seconds": self.alignment_seconds,
            "codegen_seconds": self.codegen_seconds,
        }
        if self.merged_text is not None:
            data["merged_text"] = self.merged_text
            data["named_key"] = self.named_key
            data["merged_digest"] = self.merged_digest
            data["param_map"] = {
                str(which): {str(original): merged
                             for original, merged in mapping.items()}
                for which, mapping in (self.param_map or {}).items()}
        return data

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "AttemptOutcome":
        param_map = None
        if data.get("param_map") is not None:
            param_map = {
                int(which): {int(original): int(merged)
                             for original, merged in mapping.items()}
                for which, mapping in data["param_map"].items()}
        return cls(
            failed=bool(data.get("failed", False)),
            profitable=bool(data.get("profitable", False)),
            original_size=int(data.get("original_size", 0)),
            merged_size=int(data.get("merged_size", 0)),
            overhead=int(data.get("overhead", 0)),
            matched_instructions=int(data.get("matched_instructions", 0)),
            alignment_dp_cells=int(data.get("alignment_dp_cells", 0)),
            alignment_seconds=float(data.get("alignment_seconds", 0.0)),
            codegen_seconds=float(data.get("codegen_seconds", 0.0)),
            merged_text=data.get("merged_text"),
            named_key=data.get("named_key"),
            merged_digest=data.get("merged_digest"),
            param_map=param_map,
        )


class AttemptCache:
    """Memoized attempt outcomes plus per-run reuse counters.

    The merge pass drives it duck-typed (``lookup`` / ``record`` /
    ``record_failure`` / ``note_commit`` and the ``merges_*`` counters), so
    :mod:`repro.merge` needs no import of this package.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.entries: Dict[PairKey, AttemptOutcome] = {}
        #: content digest -> fingerprint of functions created mid-run
        #: (committed merges).
        self.index_artifacts: Dict[str, Fingerprint] = {}
        #: LRU cap on memoized pair outcomes (None = unbounded, the batch
        #: default).  A long-lived service session sees an unbounded delta
        #: stream — without a bound every pair ever considered stays
        #: resident forever.  Eviction is purely a work-saver lost: an
        #: evicted pair is simply re-scored on its next appearance.
        self.max_entries = max_entries
        #: Entries dropped over this cache's lifetime (LRU + ``compact``),
        #: surfaced as ``repro_incremental_cache_evicted_total``.
        self.evicted = 0
        self.begin_run()

    # ------------------------------------------------------------- lifecycle
    def begin_run(self) -> None:
        """Zero the per-run counters (call before every replayed run)."""
        self.run_hits = 0
        self.run_misses = 0
        self.merges_spliced = 0
        self.merges_recomputed = 0

    # ------------------------------------------------------------ bounding
    def _note_use(self, key: PairKey) -> None:
        # Python dicts iterate in insertion order; re-inserting on every use
        # keeps the front of ``entries`` the least-recently-used key.
        entry = self.entries.pop(key)
        self.entries[key] = entry

    def _enforce_cap(self) -> None:
        if self.max_entries is None:
            return
        while len(self.entries) > max(1, self.max_entries):
            self.entries.pop(next(iter(self.entries)))
            self.evicted += 1

    def compact(self, live_digests) -> int:
        """Drop every entry keyed off content no longer live; return count.

        ``live_digests`` seeds the set of content digests a future replay
        can look up directly (a session's current pristine functions — see
        :meth:`~repro.incremental.state.PipelineState.live_digests`).
        Liveness is then chased through merge chains: a committed entry
        whose endpoints are both live makes its ``merged_digest`` live too,
        since the replayed merged function re-enters the ranking loop.
        Everything unreachable belongs to content no delta stream can
        reference again, so dropping it cannot cost a single re-score.
        """
        live = set(live_digests)
        changed = True
        while changed:
            changed = False
            for (first, second), entry in self.entries.items():
                if (entry.merged_digest is not None
                        and entry.merged_digest not in live
                        and first in live and second in live):
                    live.add(entry.merged_digest)
                    changed = True
        dead_pairs = [key for key in self.entries
                      if key[0] not in live or key[1] not in live]
        for key in dead_pairs:
            del self.entries[key]
        dead_artifacts = [digest for digest in self.index_artifacts
                          if digest not in live]
        for digest in dead_artifacts:
            del self.index_artifacts[digest]
        self.evicted += len(dead_pairs) + len(dead_artifacts)
        return len(dead_pairs) + len(dead_artifacts)

    # ------------------------------------------------------------ pass hooks
    def lookup(self, key: PairKey) -> Optional[AttemptOutcome]:
        entry = self.entries.get(key)
        if entry is not None:
            self.run_hits += 1
            if self.max_entries is not None:
                self._note_use(key)
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
        self._enforce_cap()
        return entry

    def record_failure(self, key: PairKey) -> AttemptOutcome:
        """Memoize a ``MergeError`` outcome (replays as a skipped attempt)."""
        self.run_misses += 1
        entry = AttemptOutcome(failed=True)
        self.entries[key] = entry
        self._enforce_cap()
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
        entry.merged_digest = merged.function.content_digest()

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

    # --------------------------------------------------------- serialization
    def attempts_payload(self) -> List[List[Any]]:
        return [[first, second, entry.payload()]
                for (first, second), entry in self.entries.items()]

    def artifacts_payload(self) -> Dict[str, Any]:
        return {digest: [list(fingerprint.counts), fingerprint.size]
                for digest, fingerprint in self.index_artifacts.items()}

    def load_payloads(self, attempts: List[List[Any]],
                      artifacts: Dict[str, Any]) -> None:
        for first, second, data in attempts:
            self.entries[(str(first), str(second))] = \
                AttemptOutcome.from_payload(data)
        for digest, (counts, size) in artifacts.items():
            self.index_artifacts[str(digest)] = Fingerprint(
                tuple(int(c) for c in counts), int(size))
