"""The candidate index: where "find promising merge partners" lives.

The merge pass (paper §5.1) needs, for each function, the ``t`` most similar
other functions by fingerprint distance.  A full O(N) scan per query makes
that O(N²) per module.  :class:`CandidateIndex` answers it exactly while
scoring only the candidates that could win: a fingerprint's opcode-bucket
counts sum to its size, so the Manhattan distance between two fingerprints
is never less than the difference of their sizes, and a walk outward from
the query's size can stop at that bound.

The index is incremental: the merge pass calls :meth:`CandidateIndex.remove`
for consumed functions and :meth:`CandidateIndex.update` for freshly merged
ones, so it never rebuilds from scratch mid-run.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right, insort
from operator import sub
from typing import Dict, List, Optional

from ..analysis.fingerprint import Fingerprint, RankedCandidate
from ..ir.function import Function
from ..ir.module import Module
from .stats import SearchStats


class CandidateIndex:
    """Exact top-``threshold`` partner ranking, pruned by size.

    Functions are kept in size order.  A query walks outward from its own
    size, nearest gap first, and stops once the gap is strictly greater than
    the ``threshold``-th best distance found so far: nothing farther out can
    reach the top ``threshold``, and a candidate whose gap equals that
    distance may still tie on it and win on size or name.  Candidates rank by
    ``(distance, -size, name)``, so the answer is a full scan's, ties
    included.
    """

    def __init__(self, module: Module, min_size: int = 2,
                 analysis_manager=None,
                 precomputed: Optional[Dict[Function, Fingerprint]] = None
                 ) -> None:
        self.min_size = min_size
        self.stats = SearchStats()
        #: Optional repro.analysis.manager manager: fingerprints are then
        #: pulled from the shared per-function cache (and stay valid across
        #: index rebuilds for functions the merge pass never touched) instead
        #: of being computed privately by every index.
        self.analysis_manager = analysis_manager
        #: Optional fingerprints derived ahead of the build (the incremental
        #: pipeline's state index supplies them).  Consulted before the
        #: manager or any computation, so an index over precomputed
        #: fingerprints builds without touching the functions' bodies.
        self.precomputed = precomputed or {}
        #: Optional repro.obs hook (see :meth:`attach_metrics`); resolved to a
        #: concrete timer once so queries pay no registry lookups.
        self._query_timer = None
        self.fingerprints: Dict[Function, Fingerprint] = {}
        #: Indexed functions in ascending size order, with their sizes in a
        #: parallel list to bisect.
        self._sizes: List[int] = []
        self._by_size: List[Function] = []
        for function in module.defined_functions():
            # Initial build: populate without touching the maintenance stats,
            # so inserts/removals/updates count only incremental churn.
            self._index_function(function)

    def attach_metrics(self, registry) -> None:
        """Record query timings into ``registry``.

        Purely observational — rankings and stats counters are identical
        with or without a registry.  Passing ``None`` detaches.
        """
        if registry is None:
            self._query_timer = None
            return
        self._query_timer = registry.timer(
            "repro_search_query_seconds",
            help="Wall-clock of candidates_for queries.")

    # ------------------------------------------------------------ population
    def __len__(self) -> int:
        return len(self.fingerprints)

    def __contains__(self, function: Function) -> bool:
        return function in self.fingerprints

    def functions_by_size(self) -> List[Function]:
        """Indexed functions ordered from largest to smallest."""
        return sorted(self.fingerprints, key=lambda f: -self.fingerprints[f].size)

    # ----------------------------------------------------------- maintenance
    def add(self, function: Function) -> None:
        """Index a function (ignored when it is below the size threshold)."""
        if self._index_function(function):
            self.stats.inserts += 1

    def remove(self, function: Function) -> None:
        """Forget a function (e.g. once it has been merged away)."""
        if self._unindex_function(function):
            self.stats.removals += 1

    def update(self, function: Function) -> None:
        """Re-index a (new or rewritten) function."""
        removed = self._unindex_function(function)
        added = self._index_function(function)
        if removed or added:
            self.stats.updates += 1

    def _index_function(self, function: Function) -> bool:
        if function.num_instructions() < self.min_size:
            return False
        fingerprint = self.precomputed.get(function)
        if fingerprint is None:
            if self.analysis_manager is not None:
                fingerprint = self.analysis_manager.fingerprint(function)
            else:
                fingerprint = Fingerprint.of(function)
        self.fingerprints[function] = fingerprint
        position = bisect_right(self._sizes, fingerprint.size)
        self._sizes.insert(position, fingerprint.size)
        self._by_size.insert(position, function)
        return True

    def _unindex_function(self, function: Function) -> bool:
        fingerprint = self.fingerprints.pop(function, None)
        if fingerprint is None:
            return False
        size = fingerprint.size
        position = self._by_size.index(function,
                                       bisect_left(self._sizes, size),
                                       bisect_right(self._sizes, size))
        del self._sizes[position]
        del self._by_size[position]
        return True

    # ---------------------------------------------------------------- query
    def candidates_for(self, function: Function, threshold: int = 1,
                       exclude: Optional[set] = None) -> List[RankedCandidate]:
        """The top-``threshold`` most similar indexed candidates for
        ``function``, never the function itself or ``exclude`` members."""
        fingerprint = self.fingerprints.get(function)
        if fingerprint is None or threshold <= 0:
            return []
        exclude = exclude or set()
        query_started = time.perf_counter() if self._query_timer is not None \
            else 0.0
        sizes = self._sizes
        members = self._by_size
        fingerprints = self.fingerprints
        counts = fingerprint.counts
        size = fingerprint.size
        end = len(sizes)
        above = bisect_left(sizes, size)
        below = above - 1
        # The best ``threshold`` candidates so far, ascending by the ranking
        # key ``(distance, -size, name)``; the walk-order tie-break keeps
        # the comparison off the function objects.
        best: list = []
        bound = -1  # the threshold-th best distance, once ``best`` is full
        scanned = 0
        while True:
            if below >= 0 and (above >= end
                               or size - sizes[below] <= sizes[above] - size):
                position = below
                gap = size - sizes[below]
                below -= 1
            elif above < end:
                position = above
                gap = sizes[above] - size
                above += 1
            else:
                break
            if gap > bound >= 0:
                break
            other = members[position]
            if other is function or other in exclude:
                continue
            other_fingerprint = fingerprints[other]
            scanned += 1
            distance = sum(map(abs, map(sub, counts, other_fingerprint.counts)))
            if bound >= 0 and distance > bound:
                continue
            entry = (distance, -other_fingerprint.size, other.name, scanned,
                     other, other_fingerprint)
            if len(best) == threshold:
                if entry > best[-1]:
                    continue
                best.pop()
            insort(best, entry)
            if len(best) == threshold:
                bound = best[-1][0]
        ranked = [RankedCandidate(other, distance,
                                  fingerprint.similarity(other_fingerprint))
                  for distance, _, _, _, other, other_fingerprint in best]
        self.stats.record_query(scanned=scanned, returned=len(ranked),
                                population=max(0, len(fingerprints) - 1))
        if self._query_timer is not None:
            self._query_timer.observe(time.perf_counter() - query_started)
        return ranked


def make_index(module: Module, min_size: int = 2,
               analysis_manager=None,
               precomputed: Optional[Dict[Function, Fingerprint]] = None
               ) -> CandidateIndex:
    """Build a :class:`CandidateIndex` over ``module``.

    ``analysis_manager`` (see :mod:`repro.analysis.manager`) makes the index
    pull function fingerprints from the shared per-function cache instead of
    computing its own.  ``precomputed`` maps functions to fingerprints
    another index already derived, consulted before the manager or any
    computation.
    """
    return CandidateIndex(module, min_size=min_size,
                          analysis_manager=analysis_manager,
                          precomputed=precomputed)
