"""repro — a Python reproduction of *Effective Function Merging in the SSA Form*
(SalSSA, PLDI 2020).

The package is organised as follows:

* :mod:`repro.ir` — a self-contained SSA intermediate representation
  (the LLVM substrate the paper's passes run on).
* :mod:`repro.analysis` — CFG, dominance, liveness, fingerprints, size models.
* :mod:`repro.transforms` — reg2mem, mem2reg/SSA construction, simplification, DCE.
* :mod:`repro.merge` — sequence alignment, the FMSA baseline, the SalSSA merger
  (the paper's contribution) and the module-level function-merging pass.
* :mod:`repro.workloads` — deterministic synthetic SPEC-like and MiBench-like
  programs used in place of the proprietary benchmark suites.
* :mod:`repro.search` — scalable candidate-search indexes for the merge pass.
* :mod:`repro.persist` — a content-addressed on-disk artifact store that
  warm-starts repeated pipeline runs.
* :mod:`repro.obs` — the telemetry spine: a unified metrics registry,
  phase-scoped span tracing and Prometheus/JSON exporters.
* :mod:`repro.harness` — the experiment pipeline that regenerates every table
  and figure of the paper's evaluation section.
"""

__version__ = "1.0.0"

__all__ = ["ir", "analysis", "transforms", "merge", "workloads", "search",
           "persist", "obs", "harness"]
