"""Function merging by sequence alignment: the FMSA baseline and SalSSA."""

from .linearize import Entry, InstructionEntry, LabelEntry, linearize, sequence_length
from .matching import entries_match, instructions_match, is_landing_block, labels_match
from .alignment import AlignedPair, AlignmentResult, align
from .cost_model import CostModel, MergeDecision
from .fmsa import FMSAMerger, FMSAOptions
from .salssa import (
    CoalescingPlan,
    MergeError,
    MergeStats,
    MergedFunction,
    SalSSAMerger,
    SalSSAOptions,
    plan_coalescing,
)
from .pass_manager import (
    FunctionMergingPass,
    MergePassOptions,
    MergeRecord,
    MergeReport,
    replace_with_thunk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
