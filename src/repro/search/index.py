"""Candidate indexes: where "find promising merge partners" lives.

The merge pass (paper §5.1) needs, for each function, the ``t`` most similar
other functions by fingerprint distance.  A full O(N) scan per query makes
that O(N²) per module.  This module answers it behind a
:class:`CandidateIndex` interface with three strategies:

* :class:`ExhaustiveIndex` — exact: walks the functions in size order outward
  from the query's size and stops once the size gap, a lower bound on the
  distance, exceeds the ``t``-th best distance found.  Its answers equal a
  full scan's, ties included, and it is the reference the others are
  measured against.
* :class:`SizeBucketIndex` — functions live in log2(size) buckets and a query
  only scans buckets within a radius of its own.  Uses the same size bound
  as a heuristic, so far-away buckets are skipped even when they could win.
* :class:`MinHashLSHIndex` — order-sensitive signatures: the bucketised
  opcode sequence is shingled into k-grams, MinHash-compressed, and stored in
  banded LSH tables.  A query only scores functions sharing at least one band
  key, which for clone families is a tiny, near-constant-size pool.

All three rank by the same ``(distance, -size, name)`` key; the two
approximate ones score a pool and fall back to a full scan when the pool
comes back too small.

Indexes are incremental: the merge pass calls :meth:`CandidateIndex.remove`
for consumed functions and :meth:`CandidateIndex.update` for freshly merged
ones, so no strategy ever rebuilds from scratch mid-run.
"""

from __future__ import annotations

import hashlib
import random
import time
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right, insort
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.counters import count_construction
from ..analysis.fingerprint import (
    Fingerprint,
    RankedCandidate,
    opcode_shingles,
    rank_candidates,
)
from ..ir.function import Function
from ..ir.module import Module
from .stats import SearchStats
from .strategy import SearchStrategy, register_strategy, resolve_strategy


class CandidateIndex(ABC):
    """Maintains per-function fingerprints and answers top-k partner queries.

    Subclasses implement ``_insert`` / ``_discard`` (structure maintenance)
    and ``_search`` (one query).  Fingerprint bookkeeping and stats recording
    are shared here.
    """

    strategy_name = "abstract"

    def __init__(self, module: Module, min_size: int = 2,
                 strategy: Optional[SearchStrategy] = None,
                 stats: Optional[SearchStats] = None,
                 analysis_manager=None,
                 artifact_store=None,
                 precomputed=None) -> None:
        self.module = module
        self.min_size = min_size
        self.strategy = strategy or resolve_strategy(self.strategy_name)
        self.stats = stats or SearchStats(strategy=self.strategy.name)
        #: Optional repro.analysis.manager manager: fingerprints are then
        #: pulled from the shared per-function cache (and stay valid across
        #: index rebuilds for functions the merge pass never touched) instead
        #: of being computed privately by every index.
        self.analysis_manager = analysis_manager
        #: Optional repro.persist.ArtifactStore: strategies with expensive
        #: per-function derivations (the MinHash signatures) then load them
        #: by content digest and only compute for functions whose digest the
        #: store has never seen.
        self.artifact_store = artifact_store
        #: Optional per-function artifacts derived ahead of the build (the
        #: incremental pipeline's state index exports them):
        #: ``{function: {"fingerprint": ..., "signature": ...}}``.  Consulted
        #: before the manager, the store or any computation, so an index over
        #: precomputed artifacts builds without touching the functions'
        #: bodies at all.
        self.precomputed = precomputed or {}
        #: Optional repro.obs hooks (see :meth:`attach_metrics`); resolved to
        #: concrete metric children once so queries pay no registry lookups.
        self._query_timer = None
        self._fallback_counter = None
        self.fingerprints: Dict[Function, Fingerprint] = {}
        for function in module.defined_functions():
            # Initial build: populate without touching the maintenance stats,
            # so inserts/removals/updates count only incremental churn.
            self._index_function(function)

    def attach_metrics(self, registry) -> None:
        """Record query timings and fallback scans into ``registry``.

        Purely observational — rankings, stats counters and fallback
        behaviour are identical with or without a registry.  Passing
        ``None`` detaches.
        """
        if registry is None:
            self._query_timer = None
            self._fallback_counter = None
            return
        self._query_timer = registry.timer(
            "repro_search_query_seconds",
            help="Wall-clock of candidates_for queries, by strategy.",
            strategy=self.strategy.name)
        self._fallback_counter = registry.counter(
            "repro_search_fallback_queries_total",
            help="Queries that fell back to a full population scan.",
            strategy=self.strategy.name)

    # ------------------------------------------------------------ population
    def __len__(self) -> int:
        return len(self.fingerprints)

    def __contains__(self, function: Function) -> bool:
        return function in self.fingerprints

    def functions_by_size(self) -> List[Function]:
        """Indexed functions ordered from largest to smallest."""
        return sorted(self.fingerprints, key=lambda f: -self.fingerprints[f].size)

    def export_artifacts(self, function: Function) -> Dict[str, object]:
        """The derived artifacts of one indexed function, ready to ship.

        The base index only derives fingerprints; strategies with further
        per-function derivations (the MinHash signatures) extend this.  The
        format matches the ``precomputed`` map accepted by the constructor,
        so artifacts exported from one index rebuild another — in this or any
        other process — without recomputation.
        """
        return {"fingerprint": self.fingerprints[function]}

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
        precomputed = self.precomputed.get(function)
        if precomputed is not None and "fingerprint" in precomputed:
            fingerprint = precomputed["fingerprint"]
        elif self.analysis_manager is not None:
            fingerprint = self.analysis_manager.fingerprint(function)
        else:
            fingerprint = Fingerprint.of(function)
        self.fingerprints[function] = fingerprint
        self._insert(function, fingerprint)
        return True

    def _unindex_function(self, function: Function) -> bool:
        fingerprint = self.fingerprints.pop(function, None)
        if fingerprint is None:
            return False
        self._discard(function, fingerprint)
        return True

    # ---------------------------------------------------------------- query
    def candidates_for(self, function: Function, threshold: Optional[int] = None,
                       exclude: Optional[set] = None) -> List[RankedCandidate]:
        """The top-``threshold`` most similar indexed candidates for ``function``."""
        if threshold is None:
            threshold = self.strategy.top_k
        fingerprint = self.fingerprints.get(function)
        if fingerprint is None or threshold <= 0:
            return []
        exclude = exclude or set()
        query_started = time.perf_counter() if self._query_timer is not None \
            else 0.0
        ranked, scanned, used_fallback = self._search(
            function, fingerprint, threshold, exclude)
        self.stats.record_query(scanned=scanned, returned=len(ranked),
                                population=max(0, len(self.fingerprints) - 1))
        if self._query_timer is not None:
            self._query_timer.observe(time.perf_counter() - query_started)
            if used_fallback:
                self._fallback_counter.inc()
        return ranked

    # ------------------------------------------------------------- subclass
    @abstractmethod
    def _insert(self, function: Function, fingerprint: Fingerprint) -> None:
        """Add a function to the strategy's search structure."""

    @abstractmethod
    def _discard(self, function: Function, fingerprint: Fingerprint) -> None:
        """Remove a function from the strategy's search structure."""

    @abstractmethod
    def _search(self, function: Function, fingerprint: Fingerprint,
                threshold: int, exclude: set
                ) -> Tuple[List[RankedCandidate], int, bool]:
        """One query: the ranked answer, how many candidates were scored,
        and whether the query fell back to a full population scan.

        Never scores or returns the query function or ``exclude`` members.
        """


class ExhaustiveIndex(CandidateIndex):
    """Exact ranking that scores only the candidates that could win.

    A fingerprint's opcode-bucket counts sum to its size, so the Manhattan
    distance between two fingerprints is never less than the difference of
    their sizes.  The index keeps its functions in size
    order, walks outward from the query's size, nearest gap first, and stops
    once the gap is strictly greater than the ``threshold``-th best distance
    found so far: nothing farther out can reach the top ``threshold``, and a
    candidate whose gap equals that distance may still tie on it and win on
    size or name.  The answer is therefore the full scan's, ties included.
    """

    strategy_name = "exhaustive"

    def __init__(self, module: Module, min_size: int = 2,
                 strategy: Optional[SearchStrategy] = None,
                 stats: Optional[SearchStats] = None,
                 analysis_manager=None,
                 artifact_store=None,
                 precomputed=None) -> None:
        #: Indexed functions in ascending size order, with their sizes in a
        #: parallel list to bisect.
        self._sizes: List[int] = []
        self._by_size: List[Function] = []
        super().__init__(module, min_size=min_size, strategy=strategy, stats=stats,
                         analysis_manager=analysis_manager,
                         artifact_store=artifact_store,
                         precomputed=precomputed)

    def _insert(self, function: Function, fingerprint: Fingerprint) -> None:
        position = bisect_right(self._sizes, fingerprint.size)
        self._sizes.insert(position, fingerprint.size)
        self._by_size.insert(position, function)

    def _discard(self, function: Function, fingerprint: Fingerprint) -> None:
        size = fingerprint.size
        position = self._by_size.index(function,
                                       bisect_left(self._sizes, size),
                                       bisect_right(self._sizes, size))
        del self._sizes[position]
        del self._by_size[position]

    def _search(self, function: Function, fingerprint: Fingerprint,
                threshold: int, exclude: set
                ) -> Tuple[List[RankedCandidate], int, bool]:
        sizes = self._sizes
        members = self._by_size
        fingerprints = self.fingerprints
        floor = self.strategy.similarity_floor
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
            if floor > 0.0:
                total = size + other_fingerprint.size
                if total and 1.0 - distance / total < floor:
                    continue
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
        return ranked, scanned, False


class _PooledIndex(CandidateIndex):
    """An approximate index: score a strategy-chosen pool of candidates.

    Subclasses implement ``_candidate_pool``; the pool is ranked by the
    shared ``(distance, -size, name)`` key, and a pool smaller than the
    request falls back to scanning the rest of the population.
    """

    def _search(self, function: Function, fingerprint: Fingerprint,
                threshold: int, exclude: set
                ) -> Tuple[List[RankedCandidate], int, bool]:
        floor = self.strategy.similarity_floor
        pairs = list(self._candidate_pool(function, fingerprint, threshold, exclude))
        ranked = rank_candidates(fingerprint, pairs, threshold, floor)
        scanned = len(pairs)
        used_fallback = False
        # Fall back only when the *probe pool* was too small — if the pool
        # covered >= threshold candidates and ranking still came up short,
        # the similarity floor filtered them and a full scan would too.
        if len(ranked) < threshold and len(pairs) < threshold \
                and self.strategy.fallback_to_scan \
                and scanned < self._available_candidates(function, exclude):
            used_fallback = True
            # Conservative fallback: the probe under-delivered, so also scan
            # the rest of the population.  Only the complement is scored —
            # the probe's short top-k merges with the complement's.
            seen = {other for other, _ in pairs}
            extra = [(other, other_fingerprint) for other, other_fingerprint
                     in self._filter_pairs(self.fingerprints.items(),
                                           function, exclude)
                     if other not in seen]
            if extra:
                ranked = self._merge_ranked(
                    ranked, rank_candidates(fingerprint, extra, threshold, floor),
                    threshold)
                scanned += len(extra)
        return ranked, scanned, used_fallback

    def _available_candidates(self, function: Function, exclude: set) -> int:
        """How many indexed candidates a full scan for ``function`` would score."""
        excluded_indexed = sum(1 for other in exclude
                               if other is not function and other in self.fingerprints)
        return max(0, len(self.fingerprints) - 1 - excluded_indexed)

    def _merge_ranked(self, first: List[RankedCandidate],
                      second: List[RankedCandidate],
                      threshold: int) -> List[RankedCandidate]:
        combined = first + second
        combined.sort(key=lambda c: (c.distance,
                                     -self.fingerprints[c.function].size,
                                     c.function.name))
        return combined[:threshold]

    def _filter_pairs(self, pairs: "Iterable[Tuple[Function, Fingerprint]]",
                      function: Function, exclude: set
                      ) -> List[Tuple[Function, Fingerprint]]:
        """Drop the query function and excluded entries from a candidate pool.

        The single home of the self/exclude pre-filter: every
        ``_candidate_pool`` implementation routes through it, and
        :meth:`_search` trusts the returned pool (it used to re-filter
        defensively, doing the same membership tests twice per candidate).
        """
        return [(other, other_fingerprint) for other, other_fingerprint in pairs
                if other is not function and other not in exclude]

    @abstractmethod
    def _candidate_pool(self, function: Function, fingerprint: Fingerprint,
                        threshold: int, exclude: set
                        ) -> Iterable[Tuple[Function, Fingerprint]]:
        """``(function, fingerprint)`` pairs a query should score.

        Must not contain the query function or excluded entries — route the
        raw pool through :meth:`_filter_pairs` (the caller trusts the result
        and does not re-filter).
        """


#: Modulus of the universal hash family: the Mersenne prime 2^61 - 1.
_MERSENNE_PRIME = (1 << 61) - 1


def _hash_family(seed: int, count: int) -> List[Tuple[int, int]]:
    """``count`` universal-hash parameter pairs, deterministic in ``seed``."""
    rng = random.Random(seed)
    return [(rng.randrange(1, _MERSENNE_PRIME), rng.randrange(0, _MERSENNE_PRIME))
            for _ in range(count)]


def _minhash(tokens: Sequence[int],
             hash_params: Sequence[Tuple[int, int]]) -> List[int]:
    """MinHash of a token set under each ``(a, b)`` universal hash."""
    return [min((a * token + b) % _MERSENNE_PRIME for token in tokens)
            for a, b in hash_params]


def _fingerprint_tokens(fingerprint: Fingerprint) -> List[int]:
    """Unary encoding of a fingerprint: bucket ``i`` with count ``c``
    contributes tokens ``(i, 1) .. (i, c)``.

    The Jaccard similarity of two unary encodings is ``(1 - d') / (1 + d')``
    for normalised Manhattan distance ``d'``, so MinHash bands over these
    tokens recall exactly the low-distance pairs the exhaustive ranking puts
    first — the band family shared by :class:`MinHashLSHIndex` (its
    histogram bands) and :class:`SizeBucketIndex` (its bucket partitions).
    """
    return [((bucket << 16) | count)
            for bucket, total in enumerate(fingerprint.counts)
            for count in range(1, total + 1)] or [0]


class SizeBucketIndex(_PooledIndex):
    """Log-scale size bucketing: only comparably-sized functions are scanned.

    The fingerprint distance between two functions is at least the difference
    of their sizes (every surplus instruction adds one to some bucket count),
    so a candidate 4x larger than the query can only outrank a same-size
    candidate when the latter is already very dissimilar.  Scanning the query
    function's log2(size) bucket plus ``bucket_radius`` neighbours on each
    side therefore keeps near-exhaustive recall while skipping most of the
    population on modules with a wide size distribution.  The radius widens
    automatically until the pool covers the requested ``threshold``.

    Size alone degenerates on *homogeneous* populations: when most functions
    share a size bucket, every query scanned essentially everything.  Large
    buckets are therefore sub-partitioned by MinHash bands over the
    fingerprint's unary encoding (``bucket_bands`` x ``bucket_rows``): within
    a bucket of more than ``bucket_band_min`` members, a query only scans the
    members colliding with it in at least one band — same-size functions
    still partition by similarity.  Small buckets keep the exact full-bucket
    scan (partitioning them saves nothing and risks recall).
    """

    strategy_name = "size_buckets"
    # Deliberately NOT population-independent: the radius widens until the
    # pool covers the threshold and large buckets flip between full and
    # band-partitioned scans at ``bucket_band_min`` members, so who a query
    # scans depends on who else is indexed.  Cached answers must therefore
    # be dropped on any index mutation (the inherited False default).

    def __init__(self, module: Module, min_size: int = 2,
                 strategy: Optional[SearchStrategy] = None,
                 stats: Optional[SearchStats] = None,
                 analysis_manager=None,
                 artifact_store=None,
                 precomputed=None) -> None:
        # Insertion-ordered dicts keep per-bucket membership deterministic.
        self._buckets: Dict[int, Dict[Function, Fingerprint]] = {}
        strategy = strategy or resolve_strategy(self.strategy_name)
        self._band_count = max(0, strategy.bucket_bands)
        self._band_rows = max(1, strategy.bucket_rows)
        self._band_min = max(0, strategy.bucket_band_min)
        self._band_hashes = _hash_family(strategy.hash_seed ^ 0x5B5B,
                                         self._band_count * self._band_rows)
        #: Per size bucket, one hash table per band: band key -> members.
        self._band_tables: Dict[int, List[Dict[Tuple[int, ...],
                                               Dict[Function, Fingerprint]]]] = {}
        self._band_keys: Dict[Function, Tuple[Tuple[int, ...], ...]] = {}
        super().__init__(module, min_size=min_size, strategy=strategy, stats=stats,
                         analysis_manager=analysis_manager,
                         artifact_store=artifact_store,
                         precomputed=precomputed)

    @staticmethod
    def _bucket_of(size: int) -> int:
        return max(0, size).bit_length()

    def _band_keys_of(self, fingerprint: Fingerprint) -> Tuple[Tuple[int, ...], ...]:
        values = _minhash(_fingerprint_tokens(fingerprint), self._band_hashes)
        rows = self._band_rows
        return tuple(tuple(values[band * rows:(band + 1) * rows])
                     for band in range(self._band_count))

    def _insert(self, function: Function, fingerprint: Fingerprint) -> None:
        bucket = self._bucket_of(fingerprint.size)
        self._buckets.setdefault(bucket, {})[function] = fingerprint
        if not self._band_count:
            return
        keys = self._band_keys_of(fingerprint)
        self._band_keys[function] = keys
        tables = self._band_tables.setdefault(
            bucket, [{} for _ in range(self._band_count)])
        for band, key in enumerate(keys):
            tables[band].setdefault(key, {})[function] = fingerprint

    def _discard(self, function: Function, fingerprint: Fingerprint) -> None:
        bucket = self._bucket_of(fingerprint.size)
        members = self._buckets.get(bucket)
        if members is not None:
            members.pop(function, None)
            if not members:
                del self._buckets[bucket]
        keys = self._band_keys.pop(function, None)
        tables = self._band_tables.get(bucket)
        if keys is None or tables is None:
            return
        for band, key in enumerate(keys):
            band_members = tables[band].get(key)
            if band_members is not None:
                band_members.pop(function, None)
                if not band_members:
                    del tables[band][key]
        if bucket not in self._buckets:
            self._band_tables.pop(bucket, None)

    def _bucket_pool(self, bucket: int, function: Function,
                     query_keys: Optional[Tuple[Tuple[int, ...], ...]]
                     ) -> Iterable[Tuple[Function, Fingerprint]]:
        """One size bucket's candidates: everyone in a small bucket, only the
        band-colliding members of a large one."""
        members = self._buckets[bucket]
        if (query_keys is None or not self._band_count
                or len(members) <= self._band_min):
            return members.items()
        tables = self._band_tables.get(bucket)
        if tables is None:
            return members.items()
        pool: Dict[Function, Fingerprint] = {}
        for band, key in enumerate(query_keys):
            hit = tables[band].get(key)
            if hit:
                pool.update(hit)
        return pool.items()

    def _candidate_pool(self, function: Function, fingerprint: Fingerprint,
                        threshold: int, exclude: set
                        ) -> Iterable[Tuple[Function, Fingerprint]]:
        center = self._bucket_of(fingerprint.size)
        occupied = sorted(self._buckets)
        radius = max(0, self.strategy.bucket_radius)
        query_keys = self._band_keys.get(function) if self._band_count else None
        if query_keys is None and self._band_count:
            query_keys = self._band_keys_of(fingerprint)
        pool: List[Tuple[Function, Fingerprint]] = []
        included: set = set()
        while True:
            for bucket in occupied:
                if bucket not in included and abs(bucket - center) <= radius:
                    included.add(bucket)
                    pool.extend(self._filter_pairs(
                        self._bucket_pool(bucket, function, query_keys),
                        function, exclude))
            if len(pool) >= threshold or len(included) == len(occupied):
                return pool
            radius += 1


def signature_config_key(strategy: SearchStrategy) -> str:
    """Store/ship key fragment identifying one MinHash signature geometry.

    Signatures persisted or shipped under this key are only reusable by an
    index with the same banding geometry, shingle size and hash family.
    """
    return hashlib.blake2b(
        repr(("minhash-v1", strategy.shingle_size,
              max(1, strategy.num_bands), max(1, strategy.rows_per_band),
              max(0, strategy.fingerprint_bands),
              max(1, strategy.fingerprint_rows),
              strategy.hash_seed)).encode("ascii"),
        digest_size=8).hexdigest()


def _signature_hash_family(strategy: SearchStrategy) -> List[Tuple[int, int]]:
    """The universal-hash parameters of one signature geometry."""
    total = (max(1, strategy.num_bands) * max(1, strategy.rows_per_band)
             + max(0, strategy.fingerprint_bands) * max(1, strategy.fingerprint_rows))
    return _hash_family(strategy.hash_seed, total)


def _shingle_id(shingle: Tuple[str, ...]) -> int:
    digest = hashlib.blake2b("\x1f".join(shingle).encode("ascii"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def compute_minhash_signature(function: Function, fingerprint: Fingerprint,
                              strategy: SearchStrategy,
                              hash_params: Optional[Sequence[Tuple[int, int]]] = None
                              ) -> Tuple[int, ...]:
    """The MinHash signature of one function under ``strategy``'s geometry.

    ``hash_params`` lets a caller amortise the hash-family construction
    across functions.
    """
    count_construction("MinHashSignature")
    if hash_params is None:
        hash_params = _signature_hash_family(strategy)
    shingles = [_shingle_id(shingle)
                for shingle in opcode_shingles(function, strategy.shingle_size)]
    if not shingles:
        shingles = [0]
    split = max(1, strategy.num_bands) * max(1, strategy.rows_per_band)
    signature = _minhash(shingles, hash_params[:split])
    if max(0, strategy.fingerprint_bands):
        signature.extend(_minhash(_fingerprint_tokens(fingerprint),
                                  hash_params[split:]))
    return tuple(signature)


def valid_signature_payload(payload, expected_length: int) -> bool:
    """Whether a loaded/shipped signature payload is structurally sound."""
    return (isinstance(payload, (list, tuple))
            and len(payload) == expected_length
            and all(isinstance(value, int)
                    and not isinstance(value, bool)
                    and 0 <= value < _MERSENNE_PRIME
                    for value in payload))


def _minhash_gaps(tokens: Sequence[int],
                  hash_params: Sequence[Tuple[int, int]]) -> List[int]:
    """Per-row MinHash *gaps*: second-smallest minus smallest hash value.

    A small gap means the row's minimum was nearly beaten by another token —
    a near-identical function whose token set differs slightly is likely to
    flip exactly such rows.  Multi-probe therefore masks the smallest-gap
    rows first (data-driven probing, Lv et al. style) instead of a fixed
    row order.  Token sets with a single element have no runner-up; their
    gap is the hash modulus, so they are probed last.
    """
    gaps: List[int] = []
    for a, b in hash_params:
        best = second = _MERSENNE_PRIME
        for token in tokens:
            value = (a * token + b) % _MERSENNE_PRIME
            if value < best:
                second = best
                best = value
            elif best < value < second:
                second = value
        gaps.append(second - best)
    return gaps


def compute_probe_gaps(function: Function, fingerprint: Fingerprint,
                       strategy: SearchStrategy,
                       hash_params: Optional[Sequence[Tuple[int, int]]] = None
                       ) -> Tuple[int, ...]:
    """Per-row probe gaps aligned with :func:`compute_minhash_signature`.

    Row ``i`` of the returned tuple is the gap of row ``i`` of the signature
    (shingle rows first, then fingerprint rows).  Travels with the signature
    through ``export_artifacts``/``precomputed``, so an index built over
    exported artifacts probes in the same order as the one that exported
    them.
    """
    if hash_params is None:
        hash_params = _signature_hash_family(strategy)
    shingles = [_shingle_id(shingle)
                for shingle in opcode_shingles(function, strategy.shingle_size)]
    if not shingles:
        shingles = [0]
    split = max(1, strategy.num_bands) * max(1, strategy.rows_per_band)
    gaps = _minhash_gaps(shingles, hash_params[:split])
    if max(0, strategy.fingerprint_bands):
        gaps.extend(_minhash_gaps(_fingerprint_tokens(fingerprint),
                                  hash_params[split:]))
    return tuple(gaps)


def valid_probe_gaps(payload, expected_length: int) -> bool:
    """Whether a loaded/shipped probe-gap payload is structurally sound."""
    return (isinstance(payload, (list, tuple))
            and len(payload) == expected_length
            and all(isinstance(value, int)
                    and not isinstance(value, bool)
                    and 0 <= value <= _MERSENNE_PRIME
                    for value in payload))


class MinHashLSHIndex(_PooledIndex):
    """Shingled-opcode MinHash signatures in banded LSH tables.

    Each function's bucketised opcode sequence is cut into ``shingle_size``
    k-grams; the shingle set is compressed into a MinHash signature of
    ``num_bands * rows_per_band`` hashes drawn from a seeded universal hash
    family (deterministic across processes, unlike ``hash(str)``).  The
    signature is split into bands of ``rows_per_band`` rows; each band is a
    key into one hash table, and a query scores exactly the functions that
    collide with it in at least one band — for clone families a small,
    near-constant pool regardless of module size.

    Two functions with Jaccard shingle similarity ``s`` collide in some band
    with probability ``1 - (1 - s^r)^b``; the defaults (b=8, r=3) put the
    S-curve threshold near ``s ≈ 0.5``, well below the shingle similarity of
    clone-family members (typically 0.85+), which is what makes the index a
    conservative pre-filter rather than a lossy one.

    Shingle bands alone cannot see pairs whose opcode *histograms* match while
    their opcode *sequences* differ — and the exhaustive reference ranks by
    histogram (Manhattan) distance.  A second band family therefore MinHashes
    the fingerprint itself, unary-encoded (bucket ``i`` with count ``c``
    contributes tokens ``(i, 1) .. (i, c)``): the Jaccard similarity of two
    unary encodings is ``(1 - d') / (1 + d')`` for normalised Manhattan
    distance ``d'``, so these bands recall exactly the low-distance pairs the
    reference ranking puts first, sequence overlap or not.
    """

    strategy_name = "minhash_lsh"

    def __init__(self, module: Module, min_size: int = 2,
                 strategy: Optional[SearchStrategy] = None,
                 stats: Optional[SearchStats] = None,
                 analysis_manager=None,
                 artifact_store=None,
                 precomputed=None) -> None:
        strategy = strategy or resolve_strategy(self.strategy_name)
        self._num_bands = max(1, strategy.num_bands)
        self._rows = max(1, strategy.rows_per_band)
        self._fp_bands = max(0, strategy.fingerprint_bands)
        self._fp_rows = max(1, strategy.fingerprint_rows)
        self._hash_params = _signature_hash_family(strategy)
        self._config_key = signature_config_key(strategy)
        self._tables: List[Dict[Tuple[int, ...], Dict[Function, Fingerprint]]] = [
            {} for _ in range(self._num_bands + self._fp_bands)]
        #: Multi-probe: per band, auxiliary tables keyed by the band key with
        #: one row position masked out, so a query can also reach members
        #: whose signature differs from its own in that single row.  Members
        #: are inserted under *every* masked position; a query probes only
        #: the ``multiprobe`` positions whose rows have the smallest hash
        #: gaps (see :func:`compute_probe_gaps`) — the rows most likely to
        #: differ on a near-identical candidate.
        self._multiprobe = max(0, strategy.multiprobe)
        self._masked_tables: List[Dict[Tuple[int, Tuple[int, ...]],
                                       Dict[Function, Fingerprint]]] = [
            {} for _ in range(self._num_bands + self._fp_bands)] \
            if self._multiprobe else []
        self._signatures: Dict[Function, Tuple[int, ...]] = {}
        self._probe_gaps: Dict[Function, Tuple[int, ...]] = {}
        super().__init__(module, min_size=min_size, strategy=strategy, stats=stats,
                         analysis_manager=analysis_manager,
                         artifact_store=artifact_store,
                         precomputed=precomputed)

    # ------------------------------------------------------------ signatures
    def _signature(self, function: Function, fingerprint: Fingerprint) -> Tuple[int, ...]:
        shipped = self.precomputed.get(function)
        if shipped is not None:
            payload = shipped.get("signature")
            if valid_signature_payload(payload, len(self._hash_params)):
                return tuple(payload)
        store = self.artifact_store
        store_key = None
        if store is not None:
            store_key = f"{function.content_digest()}.{self._config_key}"
            payload = store.load("minhash_signature", store_key)
            if payload is not None:
                if valid_signature_payload(payload, len(self._hash_params)):
                    return tuple(payload)
                store.note_invalid_payload()
        signature = compute_minhash_signature(function, fingerprint,
                                              self.strategy, self._hash_params)
        if store is not None:
            store.store("minhash_signature", store_key, list(signature))
        return signature

    def _probe_gaps_for(self, function: Function,
                        fingerprint: Fingerprint) -> Tuple[int, ...]:
        """Per-row probe gaps of one function, precomputed or derived here."""
        precomputed = self.precomputed.get(function)
        if precomputed is not None:
            payload = precomputed.get("probe_gaps")
            if valid_probe_gaps(payload, len(self._hash_params)):
                return tuple(payload)
        return compute_probe_gaps(function, fingerprint, self.strategy,
                                  self._hash_params)

    def export_artifacts(self, function: Function) -> Dict[str, object]:
        artifacts = super().export_artifacts(function)
        signature = self._signatures.get(function)
        if signature is not None:
            artifacts["signature"] = signature
        gaps = self._probe_gaps.get(function)
        if gaps is not None:
            artifacts["probe_gaps"] = gaps
        return artifacts

    def _masked_keys(self, key: Tuple[int, ...]):
        """Every masked key of one band key: ``(position, key-without-it)``.

        Members are inserted under all positions, so the *query* side is free
        to probe whichever positions its own gaps rank as most fragile.
        """
        for position in range(len(key)):
            yield position, key[:position] + key[position + 1:]

    def _probe_positions(self, key: Tuple[int, ...], start: int,
                         gaps: Optional[Tuple[int, ...]]):
        """Which row positions of one band a query masks, fragile rows first."""
        count = min(self._multiprobe, len(key))
        if gaps is None:
            return range(count)
        return sorted(range(len(key)),
                      key=lambda position: (gaps[start + position], position)
                      )[:count]

    def _band_keys(self, signature: Tuple[int, ...]):
        """``(band, first-row-offset, key)`` triples of one signature."""
        rows = self._rows
        split = self._num_bands * rows
        for band in range(self._num_bands):
            yield band, band * rows, signature[band * rows:(band + 1) * rows]
        rows = self._fp_rows
        for band in range(self._fp_bands):
            yield (self._num_bands + band, split + band * rows,
                   signature[split + band * rows:split + (band + 1) * rows])

    # ----------------------------------------------------------- maintenance
    def _insert(self, function: Function, fingerprint: Fingerprint) -> None:
        signature = self._signature(function, fingerprint)
        self._signatures[function] = signature
        if self._multiprobe:
            gaps = self._probe_gaps_for(function, fingerprint)
            if gaps is not None:
                self._probe_gaps[function] = gaps
        for band, _, key in self._band_keys(signature):
            self._tables[band].setdefault(key, {})[function] = fingerprint
            if self._multiprobe:
                for masked in self._masked_keys(key):
                    self._masked_tables[band].setdefault(
                        masked, {})[function] = fingerprint

    def _discard(self, function: Function, fingerprint: Fingerprint) -> None:
        signature = self._signatures.pop(function, None)
        self._probe_gaps.pop(function, None)
        if signature is None:
            return
        for band, _, key in self._band_keys(signature):
            members = self._tables[band].get(key)
            if members is not None:
                members.pop(function, None)
                if not members:
                    del self._tables[band][key]
            if self._multiprobe:
                for masked in self._masked_keys(key):
                    masked_members = self._masked_tables[band].get(masked)
                    if masked_members is not None:
                        masked_members.pop(function, None)
                        if not masked_members:
                            del self._masked_tables[band][masked]

    # ---------------------------------------------------------------- query
    def _candidate_pool(self, function: Function, fingerprint: Fingerprint,
                        threshold: int, exclude: set
                        ) -> Iterable[Tuple[Function, Fingerprint]]:
        signature = self._signatures.get(function)
        if signature is None:
            return []
        gaps = self._probe_gaps.get(function) if self._multiprobe else None
        pool: Dict[Function, Fingerprint] = {}
        for band, start, key in self._band_keys(signature):
            members = self._tables[band].get(key)
            if members:
                pool.update(members)
            if self._multiprobe:
                # Neighbouring buckets: members that agree with the query on
                # every row of this band except the masked one.  The masked
                # positions are the query's smallest-gap rows — the rows a
                # near-duplicate is most likely to have flipped.
                for position in self._probe_positions(key, start, gaps):
                    masked = (position, key[:position] + key[position + 1:])
                    members = self._masked_tables[band].get(masked)
                    if members:
                        pool.update(members)
        return self._filter_pairs(pool.items(), function, exclude)


register_strategy(ExhaustiveIndex.strategy_name, ExhaustiveIndex)
register_strategy(SizeBucketIndex.strategy_name, SizeBucketIndex)
register_strategy(MinHashLSHIndex.strategy_name, MinHashLSHIndex)
