"""Candidate search for the function-merging pass.

Decouples "find promising merge partners" from the merge driver:
:class:`CandidateIndex` ranks a function's partners by fingerprint distance,
exactly, walking functions in size order and stopping at the size bound.
See ``docs/search.md`` for how the walk works and what its counters mean.
"""

from .index import CandidateIndex, make_index
from .stats import SearchStats

__all__ = [
    "CandidateIndex",
    "SearchStats",
    "make_index",
]
