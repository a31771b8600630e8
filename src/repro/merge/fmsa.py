"""The FMSA baseline: function merging by sequence alignment with register
demotion (Rocha et al., CGO 2019), as described in the paper's §2 and Fig. 1.

Pipeline per candidate pair::

    clone -> reg2mem -> linearize -> align -> code generation -> mem2reg -> simplify

FMSA's published code generator emits merged code directly from the aligned
sequence; it cannot handle phi-nodes, which is why register demotion runs
first.  This reproduction reuses the CFG-driven generator for the
post-alignment step (which is *generous* to the baseline — its code generator
is never worse than SalSSA's), so every difference measured against SalSSA
comes from register demotion itself: longer sequences to align (quadratic
time/memory), merged stack slots whose address is chosen by a ``select`` on
the function identifier and therefore cannot be re-promoted, and the resulting
unprofitable merges.  This mirrors the paper's analysis of *why* FMSA loses.

Because FMSA must demote **all** functions before attempting any merge, the
pass leaves a residue on functions that end up not merged (paper §5.3, "FMSA
Residue"); :class:`FMSAMerger` exposes the same behaviour through
``demote_inputs_in_place``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ir.function import Function
from ..ir.module import Module
from ..transforms.clone import clone_function
from ..transforms.mem2reg import promote_allocas
from ..transforms.reg2mem import demote_function
from ..transforms.simplify import simplify_function
from .alignment import AlignmentResult, align
from .linearize import linearize
from .salssa.codegen import (
    MergedFunction,
    MergeError,
    SalSSAMerger,
    SalSSAOptions,
    rolled_back_on_error,
)


@dataclass
class FMSAOptions:
    """Configuration of the FMSA baseline."""

    run_simplification: bool = True


class FMSAMerger:
    """Merges pairs of functions the FMSA way: demote, align, merge, promote."""

    def __init__(self, module: Module, options: Optional[FMSAOptions] = None,
                 analysis_manager=None) -> None:
        self.module = module
        self.options = options or FMSAOptions()
        #: Shared analysis manager for work on module-resident functions (the
        #: merged result).  The scratch clones are transient and never reuse
        #: an analysis, so they deliberately stay outside the shared cache.
        self.analysis_manager = analysis_manager
        # The sequence-driven generator shared with SalSSA, minus the SSA-form
        # specific optimisations that FMSA does not have.
        self._generator = SalSSAMerger(module, SalSSAOptions(
            phi_coalescing=False,
            operand_reordering=True,
            xor_branch_folding=False,
            run_simplification=False,
            verify_result=False,
        ), analysis_manager=analysis_manager)

    def merge(self, first: Function, second: Function,
              name: Optional[str] = None) -> MergedFunction:
        """Merge two functions after register demotion, then re-promote."""
        if first.is_declaration() or second.is_declaration():
            raise MergeError("cannot merge function declarations")
        if first.return_type != second.return_type:
            raise MergeError(
                f"@{first.name} and @{second.name} have different return types")

        # Work on demoted clones; the originals are only replaced if the merge
        # is committed by the pass manager.  The clones are dropped once the
        # merge is done with them, so they do not outlive it.
        scratch_first, _ = clone_function(first, f"{first.name}.fmsa.tmp0")
        scratch_second, _ = clone_function(second, f"{second.name}.fmsa.tmp1")
        try:
            demote_function(scratch_first)
            demote_function(scratch_second)

            started = time.perf_counter()
            alignment = align(linearize(scratch_first, include_phis=True),
                              linearize(scratch_second, include_phis=True))
            alignment_seconds = time.perf_counter() - started

            merged = self._generator.merge(
                scratch_first, scratch_second,
                name=name or self.module.unique_function_name(
                    f"{first.name}.{second.name}.fmsa"),
                alignment=alignment)
            # Post-merge clean-up: promote what is still promotable and simplify.
            started = time.perf_counter()
            with rolled_back_on_error(self.module, merged.function,
                                      self.analysis_manager):
                promote_allocas(merged.function, self.analysis_manager)
                if self.options.run_simplification:
                    simplify_function(merged.function,
                                      manager=self.analysis_manager)
            merged.stats.codegen_seconds += time.perf_counter() - started
            merged.stats.alignment_seconds = alignment_seconds
        finally:
            scratch_first.drop_all_references()
            scratch_second.drop_all_references()

        # Report the merge against the *original* functions, not the scratch clones.
        return MergedFunction(merged.function, first, second, merged.param_map,
                              merged.stats)

    @staticmethod
    def demote_inputs_in_place(module: Module) -> Dict[Function, int]:
        """Apply register demotion to every defined function (the FMSA residue
        source): returns the pre-demotion instruction count per function."""
        sizes = {f: f.num_instructions() for f in module.defined_functions()}
        for function in module.defined_functions():
            demote_function(function)
        return sizes

    @staticmethod
    def cleanup_inputs_in_place(module: Module) -> None:
        """Undo :meth:`demote_inputs_in_place` as far as possible (mem2reg +
        simplify on every function); the imperfect reversal is the residue."""
        for function in module.defined_functions():
            promote_allocas(function)
            simplify_function(function)
