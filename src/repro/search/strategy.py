"""Search-strategy configuration and the index registry/factory.

A :class:`SearchStrategy` bundles every tuning knob of the candidate-search
subsystem into one frozen config object, so the merge pass, the pipeline and
the experiment runners can thread a single value (or just a strategy name)
instead of a bag of loose parameters.  :func:`make_index` turns a strategy —
or a bare name like ``"minhash_lsh"`` — into a live
:class:`~repro.search.index.CandidateIndex` over a module.

Third-party strategies can be plugged in with :func:`register_strategy`; the
built-in ones (``exhaustive``, ``size_buckets``, ``minhash_lsh``) register
themselves when :mod:`repro.search.index` is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, Union

from .stats import SearchStats

#: Factory signature every registered strategy must satisfy.
IndexFactory = Callable[..., "CandidateIndex"]  # noqa: F821 - forward ref

_REGISTRY: Dict[str, IndexFactory] = {}


@dataclass(frozen=True)
class SearchStrategy:
    """Configuration of one candidate-search strategy.

    Only the knobs relevant to the chosen ``name`` are consulted; the rest are
    ignored, so a single strategy object can be swept across index kinds.
    """

    #: Registered strategy name: ``exhaustive``, ``size_buckets``, ``minhash_lsh``, ...
    name: str = "exhaustive"
    #: Default number of candidates per query when the caller does not pass an
    #: explicit threshold (the merge pass always passes its exploration
    #: threshold, so this mainly serves standalone index users).
    top_k: int = 1
    #: Candidates whose fingerprint similarity falls below this are dropped.
    #: 0.0 (the default) keeps every candidate — bit-identical seed behaviour.
    similarity_floor: float = 0.0
    # -- size_buckets knobs ------------------------------------------------
    #: How many log2 size buckets on each side of the query's bucket to scan.
    bucket_radius: int = 1
    #: Sub-partition large size buckets by MinHash bands over the fingerprint
    #: (``bucket_bands`` tables keyed by ``bucket_rows`` hashes each), so a
    #: homogeneous population — everyone in one size bucket — still scans
    #: only similar candidates.  0 bands restores pure size bucketing.
    bucket_bands: int = 6
    bucket_rows: int = 4
    #: Buckets at or below this population keep the exact full-bucket scan;
    #: band partitioning only pays off once a single bucket is large enough
    #: that scanning it dominates the query.
    bucket_band_min: int = 64
    # -- minhash_lsh knobs -------------------------------------------------
    #: Length of the opcode k-grams fed to MinHash.
    shingle_size: int = 3
    #: LSH banding: ``num_bands`` tables keyed by ``rows_per_band`` signature
    #: rows each.  More bands / fewer rows = more candidates (higher recall,
    #: more scanning); fewer bands / more rows = the opposite.
    num_bands: int = 8
    rows_per_band: int = 3
    #: Second LSH band family over the unary-encoded fingerprint (weighted
    #: Jaccard ~ the exhaustive Manhattan metric); catches histogram-similar
    #: pairs whose opcode sequences differ.  0 bands disables it.
    fingerprint_bands: int = 8
    fingerprint_rows: int = 8
    #: Seed of the deterministic MinHash permutation family.
    hash_seed: int = 0x5A15
    #: LSH multi-probe: additionally probe band buckets that differ from the
    #: query's key in one row, for the first ``multiprobe`` row positions of
    #: each band.  Recovers recall at fewer bands (one allowed row mismatch
    #: roughly halves the effective rows of a band) at the cost of extra
    #: probe tables.  0 (the default) disables it.
    multiprobe: int = 0
    #: When a sub-linear probe yields fewer than ``threshold`` candidates,
    #: fall back to scanning the whole population for that query.  Keeps the
    #: strategies conservative over-approximations of the exhaustive ranking.
    fallback_to_scan: bool = True
    # -- adaptive knobs ----------------------------------------------------
    #: ``adaptive`` picks a concrete strategy per module: populations below
    #: this stay exhaustive (banding overhead cannot pay off), larger ones
    #: pick ``minhash_lsh`` when one log2-size bucket dominates (homogeneous
    #: sizes: bucketing would degenerate) and ``size_buckets`` otherwise.
    adaptive_small_population: int = 64
    #: Fraction of the population in the most-populated log2-size bucket at
    #: or above which the module counts as size-homogeneous.
    adaptive_dominant_share: float = 0.5

    def with_options(self, **kwargs) -> "SearchStrategy":
        """A copy of this strategy with the given fields replaced."""
        return replace(self, **kwargs)


def register_strategy(name: str, factory: IndexFactory) -> None:
    """Register (or override) a strategy name -> index factory binding."""
    _REGISTRY[name] = factory


def available_strategies() -> Tuple[str, ...]:
    """Registered strategy names, sorted."""
    _ensure_builtin_strategies()
    return tuple(sorted(_REGISTRY))


def resolve_strategy(strategy: Union[str, SearchStrategy, None]) -> SearchStrategy:
    """Normalise a name / config / None into a validated :class:`SearchStrategy`."""
    _ensure_builtin_strategies()
    if strategy is None:
        strategy = SearchStrategy()
    elif isinstance(strategy, str):
        strategy = SearchStrategy(name=strategy)
    if strategy.name not in _REGISTRY:
        raise ValueError(
            f"unknown search strategy {strategy.name!r}; "
            f"available: {', '.join(available_strategies())}")
    return strategy


def make_index(module, strategy: Union[str, SearchStrategy, None] = None,
               min_size: int = 2,
               stats: Optional[SearchStats] = None,
               analysis_manager=None,
               artifact_store=None,
               precomputed=None):
    """Build a :class:`CandidateIndex` over ``module`` for ``strategy``.

    ``analysis_manager`` (see :mod:`repro.analysis.manager`) makes the index
    pull function fingerprints from the shared per-function cache instead of
    computing its own.  ``artifact_store`` (see :mod:`repro.persist`) lets
    strategies with expensive per-function derivations — the MinHash
    signatures — load them by content digest and compute only what the store
    has never seen.  ``precomputed`` maps functions to artifacts another
    index already derived (``"fingerprint"``, ``"signature"``; see
    ``CandidateIndex.export_artifacts``), consulted before any store or
    computation.
    """
    resolved = resolve_strategy(strategy)
    factory = _REGISTRY[resolved.name]
    return factory(module, min_size=min_size, strategy=resolved, stats=stats,
                   analysis_manager=analysis_manager,
                   artifact_store=artifact_store,
                   precomputed=precomputed)


def _ensure_builtin_strategies() -> None:
    # Importing the index/adaptive modules registers the built-in strategies;
    # deferred to call time because index.py itself imports this module.
    from . import adaptive, index  # noqa: F401
