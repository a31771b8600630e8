"""The full-scan candidate ranking, kept as the tests' reference.

``repro.search.CandidateIndex`` prunes its scan with the size bound; this
class scores every candidate and sorts the lot, so any answer the index gives
can be checked against it.  It uses the plain :class:`Fingerprint` methods,
not the index's inlined distance, so the two share no ranking code.
"""

from typing import Dict, List, Optional

from repro.analysis.fingerprint import Fingerprint, RankedCandidate


class CandidateRanking:
    """Ranks candidate merge partners by a full scan of the population.

    For a function, the ``threshold`` candidates nearest by fingerprint
    distance are returned, ordered by ``(distance, -size, name)``.
    ``fingerprints`` replaces the computed ones (synthetic populations).
    """

    def __init__(self, module, min_size: int = 2,
                 fingerprints: Optional[Dict] = None) -> None:
        if fingerprints is None:
            fingerprints = {function: Fingerprint.of(function)
                            for function in module.defined_functions()
                            if function.num_instructions() >= min_size}
        self.fingerprints: Dict = dict(fingerprints)

    def functions_by_size(self) -> List:
        """Candidate functions ordered from largest to smallest."""
        return sorted(self.fingerprints, key=lambda f: -self.fingerprints[f].size)

    def candidates_for(self, function, threshold: int,
                       exclude: Optional[set] = None) -> List[RankedCandidate]:
        """The top-``threshold`` most similar candidates for ``function``."""
        fingerprint = self.fingerprints.get(function)
        if fingerprint is None or threshold <= 0:
            return []
        exclude = exclude or set()
        scored = []
        for other, other_fingerprint in self.fingerprints.items():
            if other is function or other in exclude:
                continue
            distance = fingerprint.distance(other_fingerprint)
            scored.append(((distance, -other_fingerprint.size, other.name),
                           RankedCandidate(other, distance,
                                           fingerprint.similarity(
                                               other_fingerprint))))
        scored.sort(key=lambda item: item[0])
        return [candidate for _, candidate in scored[:threshold]]
