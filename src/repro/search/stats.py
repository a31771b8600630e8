"""Per-query counters for candidate-search indexes.

Every :class:`~repro.search.index.CandidateIndex` owns a :class:`SearchStats`
and records one observation per ``candidates_for`` query: how many candidates
it actually scored against the query fingerprint (*scanned*), how many it
returned, and how many it *could* have scored (the index population at query
time, which is what a full scan scores).  The ratio of the two
totals — :attr:`SearchStats.scan_fraction` — is the headline number for the
sub-linear strategies: the MinHash/LSH index is only worth its build cost when
it keeps this well below 1.0 without losing recall.

The counters aggregate cleanly (see :meth:`SearchStats.merge` and
:func:`repro.harness.metrics.combine_search_stats`), so per-module stats can
be rolled up across a whole benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence


@dataclass
class SearchStats:
    """Aggregate counters of one candidate index (or a merged set of them)."""

    strategy: str = ""
    #: Number of ``candidates_for`` queries answered.
    queries: int = 0
    #: Candidates actually scored against query fingerprints, summed over queries.
    candidates_scanned: int = 0
    #: Candidates returned to the caller, summed over queries.
    candidates_returned: int = 0
    #: Index population available per query, summed over queries.  This is the
    #: number of candidates a full scan would have scored, so
    #: ``candidates_scanned / population_available`` is the scan fraction.
    population_available: int = 0
    #: Incremental maintenance traffic after the initial build.  Each call
    #: counts once under its own counter: ``add`` under inserts, ``remove``
    #: under removals, ``update`` under updates (never double-counted).
    inserts: int = 0
    removals: int = 0
    updates: int = 0

    # ------------------------------------------------------------ recording
    def record_query(self, scanned: int, returned: int, population: int) -> None:
        self.queries += 1
        self.candidates_scanned += scanned
        self.candidates_returned += returned
        self.population_available += population

    # ----------------------------------------------------------- aggregates
    @property
    def scan_fraction(self) -> float:
        """Fraction of the full scan's candidate-pair work this index did."""
        if self.population_available == 0:
            return 0.0
        return self.candidates_scanned / self.population_available

    @property
    def avg_scanned_per_query(self) -> float:
        return self.candidates_scanned / self.queries if self.queries else 0.0

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Fold ``other``'s counters into this one (in place) and return self."""
        if not self.strategy:
            self.strategy = other.strategy
        elif other.strategy and other.strategy != self.strategy:
            self.strategy = "mixed"
        self.queries += other.queries
        self.candidates_scanned += other.candidates_scanned
        self.candidates_returned += other.candidates_returned
        self.population_available += other.population_available
        self.inserts += other.inserts
        self.removals += other.removals
        self.updates += other.updates
        return self

    def as_dict(self) -> Dict[str, float]:
        """A flat summary suitable for reporting / ``extra_info`` dumps."""
        return {
            "strategy": self.strategy,
            "queries": self.queries,
            "candidates_scanned": self.candidates_scanned,
            "candidates_returned": self.candidates_returned,
            "population_available": self.population_available,
            "scan_fraction": self.scan_fraction,
            "inserts": self.inserts,
            "removals": self.removals,
            "updates": self.updates,
        }


def quality_recall(expected: Sequence, observed: Sequence) -> float:
    """Distance-aware top-k recall over two ``RankedCandidate`` lists.

    Fingerprint distances tie frequently (small functions especially), and any
    candidate at the same distance is an interchangeable merge partner — the
    exhaustive ordering among ties is an arbitrary name tie-break.  So instead
    of requiring the identical functions, this counts rank position ``i`` as
    recalled when the observed ``i``-th candidate is at least as close as the
    expected ``i``-th one.
    """
    reference = list(expected)
    if not reference:
        return 1.0
    found = list(observed)
    matched = 0
    for position, ref in enumerate(reference):
        if position < len(found) and found[position].distance <= ref.distance:
            matched += 1
    return matched / len(reference)


def topk_recall(expected: Sequence, observed: Iterable) -> float:
    """Top-k recall of ``observed`` against the ``expected`` reference set.

    Both arguments are sequences of functions (or any hashable items); the
    reference is typically the exhaustive index's top-k for one query.  An
    empty reference counts as perfect recall — there was nothing to find.
    """
    reference = list(expected)
    if not reference:
        return 1.0
    found = set(observed)
    return sum(1 for item in reference if item in found) / len(reference)
