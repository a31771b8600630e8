"""Scalable candidate-search subsystem for the function-merging pass.

Decouples "find promising merge partners" from the merge driver behind the
:class:`CandidateIndex` interface, with three pluggable strategies:

* ``exhaustive`` — exact ranking that walks functions in size order and
  stops at the size bound (the reference),
* ``size_buckets`` — log-scale size bucketing, scans only comparable sizes,
* ``minhash_lsh`` — shingled opcode-sequence MinHash signatures in banded LSH
  tables for near-constant-time top-k retrieval.

See ``docs/search.md`` for strategy selection and tuning.
"""

from .adaptive import choose_adaptive_strategy, make_adaptive_index
from .index import (
    CandidateIndex,
    ExhaustiveIndex,
    MinHashLSHIndex,
    SizeBucketIndex,
    compute_minhash_signature,
    signature_config_key,
    valid_signature_payload,
)
from .stats import SearchStats, topk_recall
from .strategy import (
    SearchStrategy,
    available_strategies,
    make_index,
    register_strategy,
    resolve_strategy,
)

__all__ = [
    "CandidateIndex",
    "ExhaustiveIndex",
    "MinHashLSHIndex",
    "SearchStats",
    "SearchStrategy",
    "SizeBucketIndex",
    "available_strategies",
    "choose_adaptive_strategy",
    "compute_minhash_signature",
    "make_adaptive_index",
    "make_index",
    "register_strategy",
    "resolve_strategy",
    "signature_config_key",
    "topk_recall",
    "valid_signature_payload",
]
