"""LLVM-style analysis managers: cached, invalidation-aware analyses.

The pipeline's consumers used to recompute every analysis at each use site —
``mem2reg``, the verifier and the SalSSA code generator each built their own
:class:`~repro.analysis.dominators.DominatorTree`, the cost model re-derived
function sizes on every merge attempt, and ``repro.search`` computed
fingerprints independently of everyone else.  The managers in this module give
all of them one memoized source of truth.

Staleness is detected *structurally*, not by convention: every cached result
is stamped with the owning function's ``mutation_epoch`` (a counter in the IR
layer bumped on any block/instruction/operand change, see
:meth:`repro.ir.function.Function.notify_mutated`).  A cache entry is valid
exactly while the stamp matches the live epoch, so a transform cannot forget
to invalidate — mutating the IR *is* the invalidation.

Preservation works the other way around: a transform that mutates a function
but provably keeps an analysis valid (e.g. DCE never touches terminators, so
the dominator tree survives) declares it with :meth:`mark_preserved`, which
re-stamps the cached entry to the current epoch.  The ``since`` argument
guards against resurrecting entries that were already stale before the
transform ran.

See ``docs/analysis.md`` for the full contract and how to register analyses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from ..ir.function import Function
from ..ir.interpreter import block_plans
from .cfg import predecessor_map, reachable_blocks
from .dominators import DominatorTree
from .fingerprint import Fingerprint
from .liveness import compute_liveness

#: Names of the built-in analyses (also valid keys for preservation sets).
DOMTREE = "domtree"
PREDECESSORS = "predecessors"
REACHABLE = "reachable"
LIVENESS = "liveness"
FINGERPRINT = "fingerprint"
#: Per-block interpreter prologues (phi list + first non-phi index); shared by
#: the reference interpreter so repeated dynamic runs derive them once.
BLOCK_PLAN = "block_plan"

#: The analyses that depend only on CFG *shape* (blocks and branch targets).
#: A transform that inserts/removes non-terminator instructions without adding
#: or removing blocks or rewiring branches preserves exactly this set.
#: (``BLOCK_PLAN`` is *not* a member: inserting a phi keeps the shape but
#: changes the block prologue.)
CFG_ANALYSES: FrozenSet[str] = frozenset({DOMTREE, PREDECESSORS, REACHABLE})

#: Every built-in analysis name.
ALL_ANALYSES: FrozenSet[str] = CFG_ANALYSES | {LIVENESS, FINGERPRINT, BLOCK_PLAN}


def default_analyses() -> Dict[str, Callable[[Function], Any]]:
    """The built-in analysis registry (name -> pure compute function)."""
    return {
        DOMTREE: DominatorTree,
        PREDECESSORS: predecessor_map,
        REACHABLE: reachable_blocks,
        LIVENESS: compute_liveness,
        FINGERPRINT: Fingerprint.of,
        BLOCK_PLAN: block_plans,
    }


@dataclass
class AnalysisStats:
    """Cache behaviour counters of one analysis manager (or a merged set)."""

    #: Queries answered from the cache.
    hits: int = 0
    #: Queries that had to compute (no entry, or a stale one).
    misses: int = 0
    #: Stale entries dropped because the function's epoch had moved on.
    invalidations: int = 0
    #: Entries re-stamped by a transform's preservation declaration.
    preserved: int = 0
    #: Misses per analysis name (what was actually recomputed, and how often).
    computed_by_analysis: Dict[str, int] = field(default_factory=dict)

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self, name: str) -> None:
        self.misses += 1
        self.computed_by_analysis[name] = self.computed_by_analysis.get(name, 0) + 1

    @property
    def queries(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered without recomputation."""
        return self.hits / self.queries if self.queries else 0.0

    def merge(self, other: "AnalysisStats") -> "AnalysisStats":
        """Fold ``other``'s counters into this one (in place) and return self."""
        self.hits += other.hits
        self.misses += other.misses
        self.invalidations += other.invalidations
        self.preserved += other.preserved
        for name, count in other.computed_by_analysis.items():
            self.computed_by_analysis[name] = \
                self.computed_by_analysis.get(name, 0) + count
        return self

    def as_dict(self) -> Dict[str, Any]:
        """A flat summary suitable for reporting / ``extra_info`` dumps."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "preserved": self.preserved,
            "hit_rate": self.hit_rate,
            "computed_by_analysis": dict(self.computed_by_analysis),
        }


class FunctionAnalysisManager:
    """Memoizes per-function analyses, keyed on the function's mutation epoch.

    Results are cached per ``(function, analysis name)`` and stamped with the
    function's epoch at computation time.  A query whose stamp matches the
    live epoch is a hit; otherwise the stale entry is dropped and the analysis
    recomputed.  Analyses must be pure functions of the IR — the same inputs
    always produce equal results, which is what makes cached and uncached
    pipelines bit-identical.
    """

    def __init__(self, registry: Optional[Dict[str, Callable[[Function], Any]]] = None,
                 stats: Optional[AnalysisStats] = None) -> None:
        self._registry = dict(registry) if registry is not None else default_analyses()
        self._cache: Dict[Function, Dict[str, Tuple[int, Any]]] = {}
        self.stats = stats or AnalysisStats()
        #: Optional repro.obs.MetricsRegistry (see :meth:`attach_metrics`):
        #: when attached, cache misses time their recomputation into the
        #: ``repro_analysis_compute_seconds`` timer family.
        self._metrics = None

    def attach_metrics(self, registry) -> None:
        """Record per-analysis recomputation timings into ``registry``.

        Purely observational — cached values, stats counters and results are
        identical with or without a registry; only misses pay one extra
        ``perf_counter`` pair.  Passing ``None`` detaches.
        """
        self._metrics = registry

    # ------------------------------------------------------------- registry
    def register(self, name: str, compute: Callable[[Function], Any],
                 overwrite: bool = False) -> None:
        """Register an analysis under ``name``; refuses silent replacement."""
        if not overwrite and name in self._registry:
            raise ValueError(f"analysis {name!r} already registered")
        self._registry[name] = compute

    def registered(self, name: str) -> bool:
        return name in self._registry

    # --------------------------------------------------------------- access
    def get(self, name: str, function: Function) -> Any:
        """The (possibly cached) result of analysis ``name`` on ``function``."""
        try:
            compute = self._registry[name]
        except KeyError:
            raise KeyError(
                f"unknown analysis {name!r}; registered: "
                f"{', '.join(sorted(self._registry))}") from None
        epoch = function.mutation_epoch
        per_function = self._cache.get(function)
        if per_function is None:
            per_function = self._cache[function] = {}
        else:
            entry = per_function.get(name)
            if entry is not None:
                if entry[0] == epoch:
                    self.stats.record_hit()
                    return entry[1]
                self.stats.invalidations += 1
        if self._metrics is not None:
            started = time.perf_counter()
            value = compute(function)
            self._metrics.timer(
                "repro_analysis_compute_seconds",
                help="Wall-clock of analysis recomputations, by analysis.",
                analysis=name).observe(time.perf_counter() - started)
        else:
            value = compute(function)
        self.stats.record_miss(name)
        per_function[name] = (epoch, value)
        return value

    # Convenience accessors for the built-in analyses.
    def domtree(self, function: Function) -> DominatorTree:
        return self.get(DOMTREE, function)

    def predecessors(self, function: Function):
        return self.get(PREDECESSORS, function)

    def reachable(self, function: Function):
        return self.get(REACHABLE, function)

    def liveness(self, function: Function):
        return self.get(LIVENESS, function)

    def fingerprint(self, function: Function) -> Fingerprint:
        return self.get(FINGERPRINT, function)

    def block_plans(self, function: Function):
        return self.get(BLOCK_PLAN, function)

    def function_size(self, function: Function, size_model) -> int:
        """Cached :meth:`SizeModel.function_size` for one size model.

        Each size model gets its own analysis key (``function_size:<name>``),
        registered lazily, so several cost models can share one manager.
        """
        name = f"function_size:{size_model.name}"
        if name not in self._registry:
            self._registry[name] = size_model.function_size
        return self.get(name, function)

    # --------------------------------------------------------- invalidation
    def invalidate(self, function: Function,
                   names: Optional[Iterable[str]] = None) -> None:
        """Explicitly drop cached entries for ``function``.

        Normally unnecessary — epoch stamps make mutations self-invalidating —
        but useful when an analysis result was corrupted in place.
        """
        per_function = self._cache.get(function)
        if per_function is None:
            return
        if names is None:
            count = len(per_function)
            per_function.clear()
        else:
            count = 0
            for name in names:
                if per_function.pop(name, None) is not None:
                    count += 1
        self.stats.invalidations += count

    def mark_preserved(self, function: Function, names: Iterable[str],
                       since: Optional[int] = None) -> None:
        """Declare that the named analyses survived mutations of ``function``.

        Re-stamps matching cache entries to the current epoch.  ``since``
        should be the function's epoch when the declaring transform *started*:
        entries stamped with a different epoch were already stale before the
        transform ran and are left alone (restamping them would resurrect
        results from an unknown IR state).
        """
        per_function = self._cache.get(function)
        if per_function is None:
            return
        epoch = function.mutation_epoch
        for name in names:
            entry = per_function.get(name)
            if entry is None or entry[0] == epoch:
                continue
            if since is not None and entry[0] != since:
                continue
            per_function[name] = (epoch, entry[1])
            self.stats.preserved += 1

    def forget(self, function: Function) -> None:
        """Drop every cached entry of ``function`` (e.g. when it is deleted)."""
        self._cache.pop(function, None)

    def clear(self) -> None:
        """Drop the whole cache (stats are kept)."""
        self._cache.clear()

    # ------------------------------------------------------------ inspection
    def cached_analyses(self, function: Function) -> Tuple[str, ...]:
        """The analysis names currently cached for ``function`` (any epoch)."""
        return tuple(sorted(self._cache.get(function, ())))


class ModuleAnalysisManager:
    """Module-scoped facade owning one :class:`FunctionAnalysisManager`.

    The pipeline creates one per module and threads it through transforms,
    the merge pass, the candidate-search indexes and the verifier, so every
    consumer shares a single per-function analysis cache.  Module-level
    analyses can be added here later; today the function-level cache is the
    interesting part.
    """

    def __init__(self, module=None,
                 registry: Optional[Dict[str, Callable[[Function], Any]]] = None,
                 stats: Optional[AnalysisStats] = None) -> None:
        self.module = module
        self.functions = FunctionAnalysisManager(registry=registry, stats=stats)

    @property
    def stats(self) -> AnalysisStats:
        return self.functions.stats

    def attach_metrics(self, registry) -> None:
        """See :meth:`FunctionAnalysisManager.attach_metrics`."""
        self.functions.attach_metrics(registry)

    # Delegation: a ModuleAnalysisManager can be used wherever a function-level
    # manager is expected, so consumers accept either.
    def get(self, name: str, function: Function) -> Any:
        return self.functions.get(name, function)

    def register(self, name: str, compute: Callable[[Function], Any],
                 overwrite: bool = False) -> None:
        self.functions.register(name, compute, overwrite=overwrite)

    def domtree(self, function: Function) -> DominatorTree:
        return self.functions.domtree(function)

    def predecessors(self, function: Function):
        return self.functions.predecessors(function)

    def reachable(self, function: Function):
        return self.functions.reachable(function)

    def liveness(self, function: Function):
        return self.functions.liveness(function)

    def fingerprint(self, function: Function) -> Fingerprint:
        return self.functions.fingerprint(function)

    def block_plans(self, function: Function):
        return self.functions.block_plans(function)

    def function_size(self, function: Function, size_model) -> int:
        return self.functions.function_size(function, size_model)

    def invalidate(self, function: Function,
                   names: Optional[Iterable[str]] = None) -> None:
        self.functions.invalidate(function, names)

    def mark_preserved(self, function: Function, names: Iterable[str],
                       since: Optional[int] = None) -> None:
        self.functions.mark_preserved(function, names, since=since)

    def forget(self, function: Function) -> None:
        self.functions.forget(function)

    def clear(self) -> None:
        self.functions.clear()
