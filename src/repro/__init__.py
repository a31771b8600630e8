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
* :mod:`repro.search` — the exact candidate index that ranks merge partners
  by fingerprint distance.
* :mod:`repro.incremental` — delta-driven re-merging of a live module,
  bit-identical to a cold run over the same input.
* :mod:`repro.persist` — the content-addressed on-disk store the run ledger
  keeps its records in.
* :mod:`repro.obs` — the telemetry spine: a unified metrics registry,
  phase-scoped span tracing, the decision-event recorder, the run ledger
  and Prometheus/JSON exporters.
* :mod:`repro.harness` — the experiment pipeline that regenerates every table
  and figure of the paper's evaluation section.
"""

__version__ = "1.0.0"

__all__ = ["ir", "analysis", "transforms", "merge", "workloads", "search",
           "incremental", "persist", "obs", "harness"]
