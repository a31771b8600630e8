"""Pipeline state carried across deltas.

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
* the previous run's analysis manager.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.fingerprint import Fingerprint
from ..ir.function import Function
from ..ir.module import Module
from ..search import make_index
from ..transforms.clone import clone_function
from ..transforms.mem2reg import promote_allocas
from ..transforms.simplify import simplify_function
from .cache import AttemptCache
from .delta import ModuleDelta, detect_delta, remap_references, \
    replace_function_body


@dataclass(frozen=True)
class IncrementalConfig:
    """The semantic configuration one pipeline state is valid for.

    Everything that changes the merge *outcome* is part of the key; runtime
    toggles that are proven bit-identical (caching, telemetry) deliberately
    are not — one state serves them all.
    """

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
        #: The previous run's analysis manager (it holds that run's output
        #: module until the next run replaces it).
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


class _EmptyPopulation:
    """The zero-function module stand-in the state index starts from.

    Members arrive exclusively through ``CandidateIndex.add`` as deltas are
    ingested.
    """

    def defined_functions(self) -> List[Function]:
        return []
