"""Per-query counters for candidate-search indexes.

Every :class:`~repro.search.index.CandidateIndex` owns a :class:`SearchStats`
and records one observation per ``candidates_for`` query: how many candidates
it actually scored against the query fingerprint (*scanned*), how many it
returned, and how many it *could* have scored (the index population at query
time, which is what a full scan scores).  The ratio of the two
totals — :attr:`SearchStats.scan_fraction` — is the share of a full scan's
pair scoring that the size bound left to do.

The counters aggregate cleanly (see :meth:`SearchStats.merge` and
:func:`repro.harness.metrics.combine_search_stats`), so per-module stats can
be rolled up across a whole benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class SearchStats:
    """Aggregate counters of one candidate index (or a merged set of them)."""

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
            "queries": self.queries,
            "candidates_scanned": self.candidates_scanned,
            "candidates_returned": self.candidates_returned,
            "population_available": self.population_available,
            "scan_fraction": self.scan_fraction,
            "inserts": self.inserts,
            "removals": self.removals,
            "updates": self.updates,
        }

