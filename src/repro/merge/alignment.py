"""Needleman–Wunsch sequence alignment over linearised functions.

This is the alignment stage shared by FMSA and SalSSA (paper §2): a global
alignment of the two entry sequences that maximises the number of matched
pairs, where a pair may only match if :func:`repro.merge.matching.entries_match`
allows it (binary scoring, no substitutions, no gap penalty).

With that scoring the alignment score is twice the longest common subsequence
of the two sequences under the match relation, and the relation is an
equivalence on :func:`repro.merge.matching.entry_key`.  So the dynamic
program runs bit-parallel (Allison–Dix / Hyyrö): one machine-word-packed row
vector per entry of the first sequence, computed from one bitmask over the
second sequence per match key.  The traceback reads any score cell from those
rows and breaks ties exactly as the textbook quadratic table does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from .linearize import Entry
from .matching import entry_key


@dataclass(frozen=True)
class AlignedPair:
    """One column of the alignment: an entry of each function or a gap (None)."""

    first: Optional[Entry]
    second: Optional[Entry]

    @property
    def is_match(self) -> bool:
        return self.first is not None and self.second is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"({self.first!r} | {self.second!r})"


@dataclass
class AlignmentResult:
    """The alignment plus the statistics the evaluation harness reports.

    ``dp_cells`` counts the logical cells of the Needleman–Wunsch table,
    ``(len(a) + 1) * (len(b) + 1)``, which is what the memory experiments
    (paper §5.5, Figure 22) attribute to sequence length; the bit-parallel
    rows actually store one bit per cell.
    """

    pairs: List[AlignedPair]
    matches: int
    length_first: int
    length_second: int
    dp_cells: int

    @property
    def match_ratio(self) -> float:
        total = max(1, self.length_first + self.length_second)
        return 2.0 * self.matches / total

    def matched_pairs(self) -> List[AlignedPair]:
        return [p for p in self.pairs if p.is_match]


def align(sequence_a: Sequence[Entry], sequence_b: Sequence[Entry]) -> AlignmentResult:
    """Globally align two entry sequences with Needleman–Wunsch.

    Only matching entries may be paired; every other entry is emitted against
    a gap.  Where several alignments score the same, the traceback from the
    last cell prefers a match, then a gap in the second sequence, then a gap
    in the first.
    """
    keys_a = [entry_key(entry) for entry in sequence_a]
    keys_b = [entry_key(entry) for entry in sequence_b]
    n, m = len(keys_a), len(keys_b)

    masks: Dict[Hashable, int] = {}
    for j, key in enumerate(keys_b):
        if key is not None:
            masks[key] = masks.get(key, 0) | (1 << j)

    # rows[i] bit j is 0 iff S[i][j+1] = S[i][j] + 1, where S[i][j] is the
    # number of matches aligning a[:i] with b[:j]; so S[i][j] is the count of
    # zero bits of rows[i] below bit j.
    full = (1 << m) - 1
    rows = [full]
    row = full
    for key in keys_a:
        matched = row & masks.get(key, 0)
        row = ((row + matched) | (row - matched)) & full
        rows.append(row)

    pairs: List[AlignedPair] = []
    i, j = n, m
    score = m - row.bit_count()
    while i > 0 or j > 0:
        if i > 0:
            above = rows[i - 1]
            up = j - (above & ((1 << j) - 1)).bit_count()
            if j > 0 and keys_a[i - 1] is not None and keys_a[i - 1] == keys_b[j - 1]:
                diagonal = up - 1 + (above >> (j - 1) & 1)
                if score == diagonal + 1:
                    pairs.append(AlignedPair(sequence_a[i - 1], sequence_b[j - 1]))
                    score = diagonal
                    i -= 1
                    j -= 1
                    continue
            if score == up:
                pairs.append(AlignedPair(sequence_a[i - 1], None))
                i -= 1
                continue
        score -= 1 - (rows[i] >> (j - 1) & 1)
        pairs.append(AlignedPair(None, sequence_b[j - 1]))
        j -= 1
    pairs.reverse()

    matches = m - rows[n].bit_count()
    return AlignmentResult(pairs, matches, n, m, (n + 1) * (m + 1))
