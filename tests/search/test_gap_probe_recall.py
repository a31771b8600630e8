"""Recall tests for data-driven (gap-ordered) LSH multi-probe (ISSUE 7).

Multi-probe masks one row of a band key to also reach members that differ
from the query in exactly that row.  The probe *budget* is ``multiprobe``
positions per band; the data-driven order spends it on the rows whose
MinHash minimum was nearly beaten (smallest gap between the best and
second-best hash) — the rows a near-duplicate is most likely to have
flipped — instead of the first ``multiprobe`` positions in fixed order.
"""

from repro.harness.experiments import search_workload
from repro.search import SearchStrategy, make_index, topk_recall
from repro.search.index import (
    MinHashLSHIndex,
    compute_probe_gaps,
    valid_probe_gaps,
)

#: Deliberately starved banding (as in ``test_adaptive_multiprobe``): few
#: bands, so probing has recall headroom; no scan fallback, so the measured
#: recall is the probe's own.
_FEW_BANDS = SearchStrategy(name="minhash_lsh", num_bands=2, rows_per_band=4,
                            fingerprint_bands=2, fingerprint_rows=12,
                            fallback_to_scan=False)


def _mean_recall(module, strategy, fixed_order=False, top_k=2):
    """Mean top-k recall against the exhaustive reference.

    ``fixed_order=True`` disables the gap information (every query falls
    back to masking the first ``multiprobe`` positions), which is exactly
    the pre-gap-ordering behaviour — the A/B baseline.
    """
    reference = make_index(module, "exhaustive", min_size=3)
    original = MinHashLSHIndex._probe_gaps_for
    if fixed_order:
        MinHashLSHIndex._probe_gaps_for = \
            lambda self, function, fingerprint: None
    try:
        index = make_index(module, strategy, min_size=3)
        queries = reference.functions_by_size()
        total = 0.0
        for function in queries:
            expected = [c.function
                        for c in reference.candidates_for(function, top_k)]
            observed = [c.function
                        for c in index.candidates_for(function, top_k)]
            total += topk_recall(expected, observed)
        return total / len(queries)
    finally:
        MinHashLSHIndex._probe_gaps_for = original


class TestGapOrderedRecall:
    def test_gap_order_beats_fixed_order(self):
        """Same probe budget, better-spent: gap order recovers more recall
        than fixed masked-row order on clone-family workloads."""
        strategy = _FEW_BANDS.with_options(multiprobe=2)
        wins = []
        for seed, size in ((13, 128), (9, 192)):
            module = search_workload(size, seed=seed)
            gap_recall = _mean_recall(module, strategy)
            fixed_recall = _mean_recall(module, strategy, fixed_order=True)
            assert gap_recall >= fixed_recall + 0.02, \
                (seed, size, gap_recall, fixed_recall)
            wins.append(gap_recall - fixed_recall)
        assert all(win > 0 for win in wins)

    def test_gap_order_never_shrinks_the_budgeted_pool_size(self):
        """Gap order re-ranks which rows are probed, never how many."""
        module = search_workload(96, seed=9)
        budget = _FEW_BANDS.with_options(multiprobe=2)
        index = make_index(module, budget, min_size=3)
        for function in index.functions_by_size():
            gaps = index._probe_gaps.get(function)
            if gaps is None:
                continue
            signature = index._signatures[function]
            for _, start, key in index._band_keys(signature):
                positions = list(index._probe_positions(key, start, gaps))
                assert len(positions) == min(2, len(key))
                assert len(set(positions)) == len(positions)


class TestProbeGapArtifacts:
    def test_gaps_are_exported_and_validated(self):
        module = search_workload(64, seed=9)
        index = make_index(module, _FEW_BANDS.with_options(multiprobe=2),
                           min_size=3)
        function = index.functions_by_size()[0]
        artifacts = index.export_artifacts(function)
        gaps = artifacts.get("probe_gaps")
        assert gaps is not None
        assert valid_probe_gaps(gaps, len(index._hash_params))
        assert not valid_probe_gaps(list(gaps) + [0], len(index._hash_params))
        assert not valid_probe_gaps([True] * len(gaps),
                                    len(index._hash_params))

    def test_shipped_gaps_reproduce_local_probe_order(self):
        """An index warm-started from exported artifacts answers queries
        bit-identically to one that computed everything itself — the
        contract the incremental pipeline's state index relies on."""
        module = search_workload(96, seed=11)
        strategy = _FEW_BANDS.with_options(multiprobe=2)
        local = make_index(module, strategy, min_size=3)
        precomputed = {f: local.export_artifacts(f)
                       for f in local.functions_by_size()}
        warm = make_index(module, strategy, min_size=3,
                          precomputed=precomputed)
        for function in local.functions_by_size():
            assert [(c.function, c.distance)
                    for c in local.candidates_for(function, 3)] == \
                [(c.function, c.distance)
                 for c in warm.candidates_for(function, 3)]

    def test_compute_probe_gaps_aligns_with_signature_length(self):
        module = search_workload(32, seed=9)
        index = make_index(module, _FEW_BANDS.with_options(multiprobe=1),
                           min_size=3)
        function = index.functions_by_size()[0]
        gaps = compute_probe_gaps(function,
                                  index.fingerprints[function],
                                  index.strategy, index._hash_params)
        assert len(gaps) == len(index._signatures[function])
        assert all(gap >= 0 for gap in gaps)
