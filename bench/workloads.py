"""The benchmark's workloads: how inputs are built, what one timed operation
is, and how its output is checked.

Every module is ``search_workload(n, CONTENT_SEED)``; the run's seed picks
its link order (the order of the module's function list), and on
``live-256`` also the stream of edits.  Drawing the function bodies from the
run's seed instead moves compile time by about 30% between seeds, far more
than any regression bound could tolerate, while link order changes which of
two equally large functions is tried first and so which merges win.

Runs are serial with exhaustive search, as ``run_pipeline`` does by
default; the persist, parallel and service layers stay off.

Each operation is repeated, and its time is its fastest repetition: the
host's slow phases only ever add time, and they last seconds, long enough
to swallow a median of a few reps.  A cold workload repeats one operation,
a compile of a freshly built module; the live workload replays the same
stream of deltas in fresh sessions, and reports the median over deltas.
Building the inputs again for every rep or pass is the set-up, so its
samples are spread over the whole run too.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from repro.analysis.counters import track_constructions
from repro.harness.experiments import search_workload
from repro.harness.pipeline import run_pipeline, run_pipeline_incremental
from repro.incremental import copy_module
from repro.obs import MetricsRegistry, attach_events
from repro.obs.runs import report_digest_hex
from repro.workloads.mutate import random_delta

from oracle import call_arguments, observe, output_problems
from tracing import ROOT, Tracer, self_times, traced_layers

#: The function bodies of every module; see the module docstring.
CONTENT_SEED = 7
#: Size of the untimed warm-up run that precedes every measurement.
WARM_UP_FUNCTIONS = 32
#: Cold runs make at least this many reps, live runs this many passes.
MIN_REPS = 3
#: Deltas per live pass, and in the traced live run.
LIVE_DELTAS = 20

#: ``report_digest_hex`` at full size for seed 7.  A change that alters
#: which merges the pass commits must update these deliberately.
PINNED_DIGESTS = {
    "salssa-256":
        "8479eb04aef10b527c6cecf5a8c735381152edf61a16744181914f2a19f81fc0",
    "fmsa-256":
        "dfe53de9ce20309ab7dab9166a191b059d395fc32d7753e7cab86c8650c3b938",
    "salssa-1024":
        "7036d78d0c77986012d2829867198a76dc58dfee8ad1ed207b737a2337922147",
    # After LIVE_DELTAS deltas.
    "live-256":
        "f977a11e3461ce9e031015db1be9353db3016e8093150d2c57f31b1155000591",
}


@dataclass(frozen=True)
class Workload:
    name: str
    technique: str
    functions: int
    live: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("salssa-256", "salssa", 256),
    Workload("fmsa-256", "fmsa", 256),
    Workload("salssa-1024", "salssa", 1024),
    Workload("live-256", "salssa", 256, live=True),
)}


@dataclass
class Settings:
    """How much one run measures."""

    seed: int
    seconds: float
    functions: int
    #: Cold reps, or live passes.
    min_reps: int
    #: Deltas per live pass.
    deltas: int
    #: The digest the run must reproduce, when one is pinned.
    pinned: Optional[str] = None


def settings_for(workload: Workload, seed: int, seconds: float,
                 smoke: bool) -> Settings:
    if smoke:
        return Settings(seed, 0.0, WARM_UP_FUNCTIONS, 1, 5)
    pinned = PINNED_DIGESTS[workload.name] if seed == 7 else None
    return Settings(seed, seconds, workload.functions, MIN_REPS, LIVE_DELTAS,
                    pinned)


def median_of_fastest(per_op: List[List[float]]) -> float:
    """The median over operations of each operation's fastest repetition."""
    return statistics.median(min(reps) for reps in per_op)


@dataclass
class Outcome:
    """What one run measured and which of its operations failed."""

    #: Per distinct operation, the wall time of each of its repetitions.
    compile_s: List[List[float]] = field(default_factory=list)
    #: The same for ``PipelineResult.merge_seconds``.
    merge_s: List[List[float]] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    reduction_pct: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)

    def record(self, operation: str, problems: List[str]) -> None:
        """Count one attempted operation, failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{operation}: {problem}"
                                 for problem in problems)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "compile_s": median_of_fastest(self.compile_s),
            "merge_s": median_of_fastest(self.merge_s),
            "reduction_pct": self.reduction_pct,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": statistics.median(self.setup_s),
        }

    def samples(self) -> Dict[str, int]:
        """How many measurements each end-to-end metric summarizes."""
        return {"compile_s": sum(map(len, self.compile_s)),
                "merge_s": sum(map(len, self.merge_s)),
                "reduction_pct": 1, "peak_rss_mb": 1,
                "setup_s": len(self.setup_s)}


def build_module(functions: int, seed: int):
    """``search_workload(functions, CONTENT_SEED)`` in the link order
    ``seed`` picks."""
    module = search_workload(functions, CONTENT_SEED)
    random.Random(seed).shuffle(module.functions)
    return module


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Collect garbage and freeze what survives, before each operation.

    The program leaks: ``copy_module`` and the incremental state share
    ``Constant`` objects between a module and its copies, and their use
    lists keep every copy alive, so a live session's heap grows with every
    delta.  Freezing keeps the collections inside an operation from
    rescanning that heap, whose size depends on how many deltas the session
    has already taken.
    """
    gc.collect()
    gc.freeze()


def release() -> None:
    """Let the collector free what earlier operations froze."""
    gc.unfreeze()
    gc.collect()


def repeat(seconds: float, minimum: int, step: Callable[[], bool]) -> None:
    """Call ``step`` ``minimum`` times, then while another call still fits
    in ``seconds``; stop early when ``step`` returns False."""
    started = perf_counter()
    longest = 0.0
    done = 0
    while done < minimum or perf_counter() - started + longest <= seconds:
        began = perf_counter()
        if not step():
            return
        longest = max(longest, perf_counter() - began)
        done += 1


def _digest_problems(digest: str, expected: Optional[str],
                     pinned: Optional[str]) -> List[str]:
    problems = []
    if expected is not None and digest != expected:
        problems.append(f"report digest {digest} differs from the first "
                        f"repetition's {expected}")
    if pinned is not None and digest != pinned:
        problems.append(f"report digest {digest} differs from the pinned "
                        f"{pinned}")
    return problems


@contextmanager
def maybe_traced(tracer: Optional[Tracer]) -> Iterator[Optional[object]]:
    """Trace the block as one operation when ``tracer`` is given, yielding
    the analysis-construction tracker; otherwise yield None."""
    if tracer is None:
        yield None
        return
    with traced_layers(tracer), track_constructions() as constructions, \
            tracer.operation():
        yield constructions


# ---------------------------------------------------------------- cold runs

def _cold_inputs(workload: Workload, settings: Settings):
    """Warm up; then the oracle's arguments and the unmerged behaviour."""
    run_pipeline(build_module(WARM_UP_FUNCTIONS, settings.seed),
                 workload.name, technique=workload.technique)
    module = build_module(settings.functions, settings.seed)
    arguments = call_arguments(module, settings.seed)
    return arguments, observe(module, arguments)


def _cold_rep(workload: Workload, settings: Settings,
              tracer: Optional[Tracer] = None):
    """Build a fresh module, then compile it.

    Returns the compiled module, the result, the set-up and compile wall
    times, and the construction tracker when traced.
    """
    settle()
    started = perf_counter()
    module = build_module(settings.functions, settings.seed)
    setup = perf_counter() - started
    with maybe_traced(tracer) as constructions:
        started = perf_counter()
        result = run_pipeline(module, workload.name,
                              technique=workload.technique)
        elapsed = perf_counter() - started
    return module, result, setup, elapsed, constructions


def measure_cold(workload: Workload, settings: Settings) -> Outcome:
    """Reps of a cold ``run_pipeline``, each on a freshly built module."""
    outcome = Outcome(compile_s=[[]], merge_s=[[]])
    arguments, expected = _cold_inputs(workload, settings)
    digests: List[str] = []

    def rep() -> bool:
        try:
            module, result, setup, seconds, _ = _cold_rep(workload, settings)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            outcome.record("run_pipeline", [repr(error)])
            return True
        outcome.setup_s.append(setup)
        outcome.compile_s[0].append(seconds)
        outcome.merge_s[0].append(result.merge_seconds)
        if len(outcome.compile_s[0]) == settings.min_reps:
            outcome.reduction_pct = result.reduction_percent
            outcome.peak_rss_mb = peak_rss_mb()
        digest = report_digest_hex(result.report)
        problems = _digest_problems(digest, digests[0] if digests else None,
                                    settings.pinned)
        digests.append(digest)
        problems += output_problems(module, arguments, expected)
        outcome.record("run_pipeline", problems)
        return True

    repeat(settings.seconds, settings.min_reps, rep)
    return outcome


# ---------------------------------------------------------------- live runs

class LiveSession:
    """One client's resident session: the live module, the incremental
    state, and one registry with the flight recorder attached for the
    whole stream, as ``repro-serve`` keeps by default."""

    def __init__(self, workload: Workload, functions: int, seed: int) -> None:
        self.name = workload.name
        self.module = build_module(functions, seed)
        self.rng = random.Random(seed)
        self.registry = MetricsRegistry()
        attach_events(self.registry, True)
        self.run = run_pipeline_incremental(
            self.module, benchmark=self.name, metrics=self.registry)

    def edit(self) -> None:
        """Apply one seeded edit (change, add or remove), retrying picks
        that changed nothing."""
        while not random_delta(self.module, self.rng, edits=1):
            pass

    def recompile(self, tracer: Optional[Tracer] = None):
        """Re-merge after the last edit; returns the wall time and, when
        traced, the analysis-construction tracker."""
        settle()
        with maybe_traced(tracer) as constructions:
            started = perf_counter()
            self.run = run_pipeline_incremental(
                self.module, self.run.state, benchmark=self.name,
                metrics=self.registry)
            elapsed = perf_counter() - started
        return elapsed, constructions

    def check(self, seed: int) -> List[str]:
        """The session's last report must equal a cold run's over the same
        module, and that cold run's output must behave like its input."""
        reference = copy_module(self.module)
        arguments = call_arguments(reference, seed)
        expected = observe(reference, arguments)
        cold = run_pipeline(reference, self.name)
        problems = output_problems(reference, arguments, expected)
        live_digest = report_digest_hex(self.run.report)
        cold_digest = report_digest_hex(cold.report)
        if live_digest != cold_digest:
            problems.append(f"session digest {live_digest} differs from a "
                            f"cold run's {cold_digest}")
        return problems


def _warm_up_live(workload: Workload, seed: int) -> None:
    session = LiveSession(workload, WARM_UP_FUNCTIONS, seed)
    session.edit()
    session.recompile()


def _live_pass(workload: Workload, settings: Settings, outcome: Outcome,
               tracer: Optional[Tracer] = None):
    """Set up a fresh session and apply the run's delta stream to it.

    Returns the session and, per delta, ``(wall seconds, merge seconds,
    report digest, layer counts when traced)``; None when a delta raised.
    """
    release()
    started = perf_counter()
    session = LiveSession(workload, settings.functions, settings.seed)
    outcome.setup_s.append(perf_counter() - started)
    deltas = []
    for _ in range(settings.deltas):
        session.edit()
        try:
            seconds, constructions = session.recompile(tracer)
        except Exception as error:  # noqa: BLE001 - the session is lost
            outcome.record("delta", [repr(error)])
            return None
        run = session.run
        counts = None if tracer is None else _result_counts(
            run.result, constructions, run.stats)
        deltas.append((seconds, run.result.merge_seconds,
                       report_digest_hex(run.report), counts))
    return session, deltas


def measure_live(workload: Workload, settings: Settings) -> Outcome:
    """A closed loop of one client: edit, re-merge, repeat; the same
    stream replayed in fresh sessions, pass after pass."""
    outcome = Outcome()
    _warm_up_live(workload, settings.seed)
    first: List[str] = []
    last: List[LiveSession] = []

    def one_pass() -> bool:
        last.clear()  # so the new pass can free the previous session
        applied = _live_pass(workload, settings, outcome)
        if applied is None:
            return False
        session, deltas = applied
        if not first:
            outcome.compile_s = [[] for _ in deltas]
            outcome.merge_s = [[] for _ in deltas]
            outcome.reduction_pct = session.run.result.reduction_percent
            outcome.peak_rss_mb = peak_rss_mb()
        for index, (seconds, merge_seconds, digest, _) in enumerate(deltas):
            outcome.compile_s[index].append(seconds)
            outcome.merge_s[index].append(merge_seconds)
            expected = first[index] if first else None
            pinned = settings.pinned if index == len(deltas) - 1 else None
            outcome.record("delta", _digest_problems(digest, expected, pinned))
        if not first:
            first.extend(digest for _, _, digest, _ in deltas)
        last[:] = [session]
        return True

    repeat(settings.seconds, settings.min_reps, one_pass)
    if last:
        outcome.record("final state", last[0].check(settings.seed))
    return outcome


# -------------------------------------------------------------- traced runs

def _result_counts(result, constructions, stats=None) -> Dict[str, float]:
    report = result.report
    counts = {
        "merge.align_dp_cells": report.total_alignment_cells,
        "merge.attempts": report.attempts,
        "merge.commit_ratio": report.profitable_merges / report.attempts
        if report.attempts else 0.0,
        "analysis.domtrees_built": constructions.delta("DominatorTree"),
    }
    if stats is not None:
        counts.update({
            "incremental.pairs_rescored": stats.pairs_rescored,
            "incremental.reuse_ratio": stats.pair_reuse_fraction,
            "incremental.merges_spliced": stats.merges_spliced,
            "incremental.merges_recomputed": stats.merges_recomputed,
        })
    return counts


def layer_metrics(tracer: Tracer, counts: List[Dict[str, float]],
                  traced_seconds: float, untraced_seconds: float
                  ) -> Dict[str, float]:
    """Per-layer metrics, each the mean over the traced operations."""
    per_op = self_times(tracer.spans)
    totals: Dict[str, float] = {}
    for layers in per_op.values():
        for name, (seconds, calls) in layers.items():
            key = "trace.unattributed" if name == ROOT else name
            totals[f"{key}_s"] = totals.get(f"{key}_s", 0.0) + seconds
            totals[f"{key}_calls"] = totals.get(f"{key}_calls", 0) + calls
    for op_counts in counts:
        for name, value in op_counts.items():
            totals[name] = totals.get(name, 0.0) + value
    metrics = {name: value / len(per_op) for name, value in totals.items()}
    metrics["trace.overhead"] = traced_seconds / untraced_seconds
    return metrics


def trace_cold(workload: Workload, settings: Settings,
               tracer: Tracer) -> Outcome:
    """Pairs of one untraced and one traced rep, each on a fresh module."""
    outcome = Outcome()
    arguments, expected = _cold_inputs(workload, settings)
    seconds = {False: 0.0, True: 0.0}
    counts: List[Dict[str, float]] = []

    def pair() -> bool:
        digests = {}
        for traced in (False, True):
            module, result, _, elapsed, constructions = _cold_rep(
                workload, settings, tracer if traced else None)
            seconds[traced] += elapsed
            digests[traced] = report_digest_hex(result.report)
            problems = output_problems(module, arguments, expected)
            if traced:
                counts.append(_result_counts(result, constructions))
                problems += _digest_problems(digests[True], digests[False],
                                             None)
            outcome.record("run_pipeline", problems)
        return True

    repeat(settings.seconds, 1, pair)
    outcome.layers = layer_metrics(tracer, counts, seconds[True],
                                   seconds[False])
    return outcome


def trace_live(workload: Workload, settings: Settings,
               tracer: Tracer) -> Outcome:
    """The delta stream twice, in fresh sessions: untraced, then traced."""
    outcome = Outcome()
    _warm_up_live(workload, settings.seed)
    untraced = _live_pass(workload, settings, outcome)
    traced = _live_pass(workload, settings, outcome, tracer)
    if untraced is None or traced is None:
        return outcome
    session, deltas = traced
    for (_, _, expected, _), (_, _, digest, _) in zip(untraced[1], deltas):
        outcome.record("delta", _digest_problems(digest, expected, None))
    outcome.record("final state", session.check(settings.seed))
    outcome.layers = layer_metrics(
        tracer, [delta[3] for delta in deltas],
        sum(delta[0] for delta in deltas),
        sum(delta[0] for delta in untraced[1]))
    return outcome
