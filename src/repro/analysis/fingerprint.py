"""Function fingerprints and the ranked-candidate record.

Both FMSA and SalSSA decide *which* pairs of functions to attempt to merge
with a fingerprint-based ranking (paper §5.1): each function is summarised by
a small vector of opcode frequencies, candidate pairs are ranked by fingerprint
similarity, and the pass explores the top ``t`` candidates per function (the
*exploration threshold*).

The fingerprint is deliberately cheap — it must be computed for every function
in the module — and conservative: it never rejects a pair outright, it only
orders the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    CmpInst,
    Instruction,
    PhiInst,
)
from .counters import count_construction

#: The opcode buckets used by the fingerprint vector.  Related opcodes share a
#: bucket so that small rewrites (e.g. ``add`` vs ``sub``) still rank close.
_FINGERPRINT_BUCKETS: Tuple[str, ...] = (
    "int_arith", "float_arith", "bitwise", "shift", "cmp", "cast",
    "load", "store", "alloca", "gep", "call", "invoke", "landingpad",
    "phi", "select", "br", "switch", "ret", "other",
)

_BUCKET_BY_OPCODE: Dict[str, str] = {}
for op in ("add", "sub", "mul", "sdiv", "udiv", "srem", "urem"):
    _BUCKET_BY_OPCODE[op] = "int_arith"
for op in ("fadd", "fsub", "fmul", "fdiv", "frem"):
    _BUCKET_BY_OPCODE[op] = "float_arith"
for op in ("and", "or", "xor"):
    _BUCKET_BY_OPCODE[op] = "bitwise"
for op in ("shl", "lshr", "ashr"):
    _BUCKET_BY_OPCODE[op] = "shift"
for op in ("icmp", "fcmp"):
    _BUCKET_BY_OPCODE[op] = "cmp"
for op in ("trunc", "zext", "sext", "fptrunc", "fpext", "fptosi", "fptoui",
           "sitofp", "uitofp", "ptrtoint", "inttoptr", "bitcast"):
    _BUCKET_BY_OPCODE[op] = "cast"
for op in ("load", "store", "alloca", "call", "invoke", "landingpad", "phi",
           "select", "br", "switch", "ret"):
    _BUCKET_BY_OPCODE[op] = op
_BUCKET_BY_OPCODE["getelementptr"] = "gep"


@dataclass(frozen=True)
class Fingerprint:
    """An opcode-frequency summary of a function."""

    counts: Tuple[int, ...]
    size: int

    @classmethod
    def of(cls, function: Function) -> "Fingerprint":
        count_construction("Fingerprint")
        counts = {bucket: 0 for bucket in _FINGERPRINT_BUCKETS}
        size = 0
        for inst in function.instructions():
            size += 1
            bucket = _BUCKET_BY_OPCODE.get(inst.opcode, "other")
            counts[bucket] += 1
        return cls(tuple(counts[bucket] for bucket in _FINGERPRINT_BUCKETS), size)

    def distance(self, other: "Fingerprint") -> int:
        """Manhattan distance between two fingerprints (lower = more similar)."""
        return sum(abs(a - b) for a, b in zip(self.counts, other.counts))

    def similarity(self, other: "Fingerprint") -> float:
        """A normalised similarity in [0, 1]; 1 means identical fingerprints."""
        total = self.size + other.size
        if total == 0:
            return 1.0
        return 1.0 - self.distance(other) / total


@dataclass
class RankedCandidate:
    """One candidate merge partner for a function, with its ranking score."""

    function: Function
    distance: int
    similarity: float

