"""The ``adaptive`` search strategy: pick a concrete index per population.

Every concrete strategy has a regime where it loses (ROADMAP: "small modules
stop paying banding overhead"): ``minhash_lsh`` spends two band families of
MinHash work per function, which a 30-function module never amortises, while
``size_buckets`` degenerates on size-homogeneous populations where everyone
shares one log2 bucket.  ``adaptive`` inspects the population — its size and
the spread of function sizes (available as ``num_instructions`` without
computing a single fingerprint) — and delegates to the concrete strategy that
fits:

* population below ``adaptive_small_population`` → ``exhaustive`` (a full
  scan over a small module is cheaper than any index build);
* the most-populated log2-size bucket holds at least
  ``adaptive_dominant_share`` of the population → ``minhash_lsh`` (size
  bucketing cannot separate a homogeneous module; content bands can);
* otherwise → ``size_buckets`` (wide size spread: the cheap size partition
  already prunes most of the population).

:class:`AdaptiveIndex` keeps that choice *live*: every ``add``/``remove``/
``update`` re-evaluates it against the current population, and when the
verdict changes — a module merged down across the exhaustive cutoff, an
incremental delta stream narrowing the size spread — the wrapper rebuilds its
delegate in place, reusing the old delegate's exported artifacts (fingerprints
and any MinHash signatures it already holds) so nothing already derived is
recomputed.  The choice is a pure function of the indexed population, so an
adaptive index mutated through any interleaving ends up with the same
delegate — and the same answers — as a fresh adaptive index over the final
population.

:attr:`SearchStats.strategy` always reports the *current* concrete choice so
runs stay observable, while the merge report's ``search_strategy`` keeps the
requested ``"adaptive"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ir.module import Module
from .stats import SearchStats
from .strategy import SearchStrategy, register_strategy, resolve_strategy

ADAPTIVE_STRATEGY = "adaptive"


def choose_for_sizes(sizes: Sequence[int], strategy: SearchStrategy) -> str:
    """The concrete strategy ``adaptive`` picks for one population of sizes."""
    population = len(sizes)
    if population < max(0, strategy.adaptive_small_population):
        return "exhaustive"
    buckets: Dict[int, int] = {}
    for size in sizes:
        bucket = size.bit_length()
        buckets[bucket] = buckets.get(bucket, 0) + 1
    dominant_share = max(buckets.values()) / population if population else 0.0
    if dominant_share >= strategy.adaptive_dominant_share:
        return "minhash_lsh"
    return "size_buckets"


def choose_adaptive_strategy(module: Module, min_size: int,
                             strategy: SearchStrategy) -> str:
    """The concrete strategy name ``adaptive`` delegates to for ``module``."""
    return choose_for_sizes(
        [function.num_instructions()
         for function in module.defined_functions()
         if function.num_instructions() >= min_size], strategy)


class _IndexedPopulation:
    """A delegate-rebuild population: quacks like a module of known members."""

    def __init__(self, functions: List) -> None:
        self._functions = functions

    def defined_functions(self) -> List:
        return list(self._functions)


class AdaptiveIndex:
    """A :class:`~repro.search.index.CandidateIndex` whose concrete strategy
    tracks the population.

    Construction evaluates :func:`choose_adaptive_strategy` exactly like the
    old one-shot factory; every mutation re-evaluates it over the indexed
    population and swaps the delegate when the verdict changes.  All queries,
    stats and artifact export forward to the current delegate.
    """

    def __init__(self, module: Module, min_size: int = 2,
                 strategy: Optional[SearchStrategy] = None,
                 stats: Optional[SearchStats] = None,
                 analysis_manager=None,
                 artifact_store=None,
                 precomputed=None) -> None:
        self.module = module
        self.min_size = min_size
        #: The requested (``name="adaptive"``) strategy: every knob is kept
        #: when delegating, so a tuned adaptive config tunes its delegates.
        self.config = strategy or resolve_strategy(ADAPTIVE_STRATEGY)
        self.analysis_manager = analysis_manager
        self.artifact_store = artifact_store
        self._registry = None
        chosen = choose_adaptive_strategy(module, min_size, self.config)
        self._stats = stats or SearchStats(strategy=chosen)
        self._stats.strategy = chosen
        self._delegate = self._build(chosen, module,
                                     precomputed if precomputed is not None
                                     else {})

    def _build(self, chosen: str, population, precomputed):
        from .strategy import _REGISTRY  # deferred: strategy registers us

        resolved = self.config.with_options(name=chosen)
        delegate = _REGISTRY[chosen](
            population, min_size=self.min_size, strategy=resolved,
            stats=self._stats, analysis_manager=self.analysis_manager,
            artifact_store=self.artifact_store, precomputed=precomputed)
        if self._registry is not None:
            delegate.attach_metrics(self._registry)
        return delegate

    # -------------------------------------------------------- re-evaluation
    def _reevaluate(self) -> None:
        sizes = [fingerprint.size
                 for fingerprint in self._delegate.fingerprints.values()]
        chosen = choose_for_sizes(sizes, self.config)
        if chosen == self._delegate.strategy.name:
            return
        old = self._delegate
        # Rebuild over the surviving members in their insertion order, seeded
        # with everything the old delegate already derived (fingerprints, and
        # signatures/probe gaps when it was a MinHash index) plus any still
        # pending externally shipped artifacts for functions yet to come.
        precomputed = dict(old.precomputed)
        for function in old.fingerprints:
            precomputed[function] = dict(old.export_artifacts(function))
        self._stats.strategy = chosen
        delegate = self._build(
            chosen, _IndexedPopulation(list(old.fingerprints)), precomputed)
        # The member overlays were valid only for the rebuild itself: a later
        # in-place mutation + update() must re-derive, not re-read them
        # (precomputed entries survive construction and update() consults
        # them, so leaving the overlays in place would serve stale artifacts).
        for function in old.fingerprints:
            delegate.precomputed.pop(function, None)
        self._delegate = delegate

    # ----------------------------------------------------------- delegation
    @property
    def strategy(self) -> SearchStrategy:
        return self._delegate.strategy

    @property
    def stats(self) -> SearchStats:
        return self._delegate.stats

    @property
    def fingerprints(self):
        return self._delegate.fingerprints

    @property
    def precomputed(self):
        return self._delegate.precomputed

    def attach_metrics(self, registry) -> None:
        self._registry = registry
        self._delegate.attach_metrics(registry)

    def __len__(self) -> int:
        return len(self._delegate)

    def __contains__(self, function) -> bool:
        return function in self._delegate

    def functions_by_size(self):
        return self._delegate.functions_by_size()

    def export_artifacts(self, function):
        return self._delegate.export_artifacts(function)

    def candidates_for(self, function, threshold=None, exclude=None):
        return self._delegate.candidates_for(function, threshold,
                                             exclude=exclude)

    # ----------------------------------------------------------- maintenance
    def add(self, function) -> None:
        self._delegate.add(function)
        self._reevaluate()

    def remove(self, function) -> None:
        self._delegate.remove(function)
        self._reevaluate()

    def update(self, function) -> None:
        self._delegate.update(function)
        self._reevaluate()


def make_adaptive_index(module: Module, min_size: int = 2,
                        strategy: Optional[SearchStrategy] = None,
                        stats: Optional[SearchStats] = None,
                        analysis_manager=None,
                        artifact_store=None,
                        precomputed=None) -> AdaptiveIndex:
    """Index factory registered under ``"adaptive"``."""
    return AdaptiveIndex(module, min_size=min_size, strategy=strategy,
                         stats=stats, analysis_manager=analysis_manager,
                         artifact_store=artifact_store,
                         precomputed=precomputed)


register_strategy(ADAPTIVE_STRATEGY, make_adaptive_index)
