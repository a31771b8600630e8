"""Pipeline state carried across deltas, and its persistent snapshot.

A :class:`PipelineState` owns everything one module's merge pipeline can
reuse between runs:

* **pristine functions** — normalized (mem2reg + simplify) private clones of
  every live function, keyed by name.  Normalization is a pure per-function
  map, so normalizing each function once when it arrives is bit-identical to
  the cold pipeline's whole-module ``baseline_compile`` pass.
* a **candidate index** over the pristine functions, maintained with
  ``CandidateIndex.add/update/remove`` for delta members only; its
  fingerprints warm-start each run's index, so index construction is
  O(population) cheap dictionary work, never a walk over every body.
* the **attempt cache** (:class:`~repro.incremental.cache.AttemptCache`) —
  the memoized pair scores and merged bodies that make replaying a run
  near-O(|delta|).
* the previous run's :class:`~repro.merge.pass_manager.MergeReport` and
  analysis manager, plus the clone clusters derived from the report.

``save_state`` / ``load_state`` snapshot the whole thing into a
:class:`~repro.persist.ArtifactStore` keyed by benchmark + configuration, so
a restarted process warm-starts straight into incremental mode (see
``docs/incremental.md`` for the snapshot format).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..analysis.fingerprint import Fingerprint
from ..ir.function import Function
from ..ir.module import Module
from ..ir.parser import parse_named_function
from ..ir.printer import print_function
from ..persist.store import ArtifactStore
from ..search import make_index
from ..transforms.clone import clone_function
from ..transforms.mem2reg import promote_allocas
from ..transforms.simplify import simplify_function
from .cache import AttemptCache
from .delta import ModuleDelta, detect_delta, remap_references, \
    replace_function_body

#: Artifact-store kind of pipeline-state snapshots.
STATE_KIND = "incremental.state"

#: Version tag of the snapshot payload; bump on incompatible change (old
#: snapshots then read as absent — a cold bootstrap, never wrong data).
#: Version 2 records one fingerprint per artifact digest.
STATE_SCHEMA = 2


@dataclass(frozen=True)
class IncrementalConfig:
    """The semantic configuration one pipeline state is valid for.

    Everything that changes the merge *outcome* is part of the key; runtime
    toggles that are proven bit-identical (caching, telemetry) deliberately
    are not — one state serves them all.
    """

    benchmark: str = "incremental"
    technique: str = "salssa"
    threshold: int = 1
    target: str = "x86_64"
    phi_coalescing: bool = True
    min_function_size: int = 3

    def key(self) -> str:
        """A stable digest of the outcome-relevant configuration."""
        text = repr((self.technique, self.threshold, self.target,
                     self.phi_coalescing, self.min_function_size))
        return hashlib.blake2b(text.encode("utf-8"),
                               digest_size=12).hexdigest()

    def payload(self) -> Dict[str, Any]:
        return {"benchmark": self.benchmark, "key": self.key()}


class PipelineState:
    """Everything :func:`repro.harness.run_pipeline_incremental` reuses."""

    def __init__(self, config: IncrementalConfig) -> None:
        self.config = config
        #: name -> normalized pristine clone (the replayed merge input).
        self.functions: Dict[str, Function] = {}
        #: name -> content digest of the *source* (un-normalized) function
        #: as last ingested; the basis of delta detection.
        self.source_digests: Dict[str, str] = {}
        self.cache = AttemptCache()
        self.deltas_applied = 0
        #: The previous run's report / manager (telemetry + cluster queries).
        self.report = None
        self.analysis_manager = None
        self.index = make_index(_EmptyPopulation(),
                                min_size=config.min_function_size)

    # -------------------------------------------------------------- deltas
    def detect_delta(self, module: Module) -> ModuleDelta:
        """Diff ``module`` against the last ingested source digests."""
        return detect_delta(module, self.source_digests)

    def apply_delta(self, module: Module, delta: ModuleDelta) -> None:
        """Ingest delta members only: O(|delta|) cloning, normalization and
        ``CandidateIndex.remove/update/add`` maintenance."""
        for name in delta.removed:
            function = self.functions.pop(name)
            self.source_digests.pop(name, None)
            self.index.remove(function)
        for name in delta.changed:
            incoming = module.get_function(name)
            if incoming is None or incoming.is_declaration():
                raise ValueError(f"changed function @{name} is not defined "
                                 f"in the incoming module")
            pristine = self.functions[name]
            if pristine.function_type == incoming.function_type:
                # Same signature: splice the new body into the existing
                # object so the index sees a true in-place *update*.
                replace_function_body(pristine, incoming)
                self._normalize(pristine)
                self.index.update(pristine)
            else:
                self.index.remove(pristine)
                self.index.add(self._ingest(name, incoming))
            self.source_digests[name] = incoming.content_digest()
        for name in delta.added:
            incoming = module.get_function(name)
            if incoming is None or incoming.is_declaration():
                raise ValueError(f"added function @{name} is not defined "
                                 f"in the incoming module")
            self.index.add(self._ingest(name, incoming))
            self.source_digests[name] = incoming.content_digest()
        self.deltas_applied += 1

    def _ingest(self, name: str, incoming: Function) -> Function:
        clone, _ = clone_function(incoming)
        self._normalize(clone)
        self.functions[name] = clone
        return clone

    @staticmethod
    def _normalize(function: Function) -> None:
        # The per-function image of the cold pipeline's baseline_compile
        # stage (promote_module + simplify_module are per-function maps;
        # the emit stage assigns names to unnamed values, which matters
        # because SalSSA phi coalescing tie-breaks on value names).
        promote_allocas(function)
        simplify_function(function)
        function.assign_names()

    # ------------------------------------------------------------- assembly
    def assemble(self, module: Module
                 ) -> Tuple[Module, Dict[Function, Fingerprint]]:
        """Build this run's working module plus its precomputed fingerprints.

        The working module clones every pristine function **in the incoming
        module's order** — worklist tie-breaks follow index insertion order,
        so ordering by the live module keeps replay bit-identical to a cold
        run over it.  All cross-references are remapped by name onto working
        objects (operand *identity* patterns must match a cold module's),
        clone digests are seeded from their pristine originals, and every
        indexed function ships its state-index fingerprint so the run index
        never recomputes one for clean content.
        """
        working = Module(module.name)
        clones: List[Tuple[Function, Function]] = []
        for function in module.functions:
            if function.is_declaration():
                working.declare_function(function.name, function.function_type)
                continue
            pristine = self.functions[function.name]
            clone, _ = clone_function(pristine)
            working.add_function(clone)
            clones.append((pristine, clone))
        remap_references(working)
        precomputed: Dict[Function, Fingerprint] = {}
        fingerprints = self.index.fingerprints
        for pristine, clone in clones:
            clone.prime_content_digest(pristine.content_digest())
            if pristine in fingerprints:
                precomputed[clone] = fingerprints[pristine]
        return working, precomputed

    # -------------------------------------------------------------- queries
    def live_digests(self) -> Set[str]:
        """Content digests a future replay can still look up directly.

        The pristine functions' digests.  Feed this to
        :meth:`AttemptCache.compact`, which itself expands the set through
        committed merged functions (their digests are recorded on the cache
        entries), then drops everything unreachable.
        """
        return {function.content_digest()
                for function in self.functions.values()}

    def compact_cache(self) -> int:
        """Drop attempt-cache entries no future delta stream can reference."""
        return self.cache.compact(self.live_digests())

    def clone_clusters(self) -> List[Set[str]]:
        """Connected components of the last report's committed merges."""
        if self.report is None:
            return []
        parent: Dict[str, str] = {}

        def find(name: str) -> str:
            parent.setdefault(name, name)
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        for record in self.report.records:
            if record.committed:
                union(record.first, record.merged)
                union(record.second, record.merged)
        clusters: Dict[str, Set[str]] = {}
        for name in parent:
            clusters.setdefault(find(name), set()).add(name)
        return sorted(clusters.values(), key=lambda c: sorted(c)[0])

    # ------------------------------------------------------------- snapshot
    def snapshot_digest(self) -> str:
        """The store digest this state's snapshot lives under (per benchmark
        and configuration, so a restarted process finds the latest state)."""
        return f"{self.config.benchmark}.{self.config.key()}"

    def snapshot_payload(self) -> Dict[str, Any]:
        return {
            "schema": STATE_SCHEMA,
            "config": self.config.payload(),
            "deltas_applied": self.deltas_applied,
            "functions": [
                [name, self.source_digests.get(name, ""),
                 print_function(function)]
                for name, function in self.functions.items()],
            "attempts": self.cache.attempts_payload(),
            "artifacts": self.cache.artifacts_payload(),
        }


def save_state(store: ArtifactStore, state: PipelineState) -> bool:
    """Publish ``state``'s snapshot (atomic last-wins replace)."""
    return store.store(STATE_KIND, state.snapshot_digest(),
                       state.snapshot_payload())


def load_state(store: ArtifactStore, config: IncrementalConfig
               ) -> Optional[PipelineState]:
    """Rebuild a :class:`PipelineState` from its snapshot, or None (a miss).

    Any defect — absent record, schema drift, configuration mismatch,
    unparseable function text — is a miss: the caller bootstraps cold,
    which is always correct, just slower.
    """
    digest = f"{config.benchmark}.{config.key()}"
    payload = store.load(STATE_KIND, digest)
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != STATE_SCHEMA:
        store.note_invalid_payload()
        return None
    stored_config = payload.get("config", {})
    if stored_config.get("key") != config.key():
        store.note_invalid_payload()
        return None
    state = PipelineState(config)
    try:
        for name, source_digest, text in payload["functions"]:
            function = parse_named_function(str(text))
            if function.name != str(name):
                raise ValueError(f"snapshot text names @{function.name}, "
                                 f"recorded as @{name}")
            state.functions[str(name)] = function
            state.source_digests[str(name)] = str(source_digest)
            state.index.add(function)
        state.cache.load_payloads(payload.get("attempts", []),
                                  payload.get("artifacts", {}))
        state.deltas_applied = int(payload.get("deltas_applied", 0))
    except (KeyError, TypeError, ValueError):
        store.note_invalid_payload()
        return None
    return state


class _EmptyPopulation:
    """The zero-function module stand-in the state index starts from.

    Members arrive exclusively through ``CandidateIndex.add`` as deltas are
    ingested.
    """

    def defined_functions(self) -> List[Function]:
        return []
