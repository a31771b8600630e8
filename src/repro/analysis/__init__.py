"""Analyses over the repro IR: CFG utilities, dominators, liveness,
function fingerprints, code-size models and the cached analysis managers."""

from .cfg import (
    edges,
    is_critical_edge,
    postorder,
    predecessor_map,
    predecessors,
    reachable_blocks,
    reverse_postorder,
    successors,
)
from .counters import (
    construction_counts,
    count_construction,
    track_constructions,
)
from .dominators import DominatorTree
from .liveness import LivenessInfo, compute_liveness, user_blocks
from .manager import (
    ALL_ANALYSES,
    BLOCK_PLAN,
    CFG_ANALYSES,
    FINGERPRINT,
    AnalysisStats,
    FunctionAnalysisManager,
    ModuleAnalysisManager,
    default_analyses,
)
from .fingerprint import Fingerprint, RankedCandidate
from .size_model import (
    ARM_THUMB,
    SizeModel,
    TARGETS,
    X86_64,
    get_target,
    instruction_count,
    module_instruction_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]
