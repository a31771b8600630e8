"""Layer spans for the traced benchmark run, recorded from outside the program.

:func:`traced_layers` temporarily replaces each layer entry point listed in
:data:`LAYERS` with a wrapper that takes a ``perf_counter`` pair and records
the span ``(op, name, start, end, parent)`` in memory.  Nothing under
``src/`` knows about it, and the untraced runs never install it.

A layer's *self time* is its span's duration minus the time its child spans
cover, so nested layers (SSA repair inside codegen, naming inside almost
everything) are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

#: (span name, module, attribute path).  Functions are patched in the module
#: that *calls* them, because the callers bound them by name at import time.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("baseline.mem2reg", "repro.harness.pipeline", "promote_module"),
    ("baseline.simplify", "repro.harness.pipeline", "simplify_module"),
    ("baseline.verify", "repro.harness.pipeline", "verify_module"),
    ("baseline.emit", "repro.harness.pipeline", "print_module"),
    ("search.build", "repro.merge.pass_manager", "make_index"),
    ("search.query", "repro.search.index", "CandidateIndex.candidates_for"),
    ("merge.linearize", "repro.merge.salssa.codegen", "linearize"),
    ("merge.linearize", "repro.merge.fmsa", "linearize"),
    ("merge.align", "repro.merge.salssa.codegen", "align"),
    ("merge.align", "repro.merge.fmsa", "align"),
    ("merge.codegen", "repro.merge.salssa.codegen", "SalSSAMerger.merge"),
    ("merge.codegen", "repro.merge.fmsa", "FMSAMerger.merge"),
    ("merge.ssa_repair", "repro.merge.salssa.codegen", "_MergeState.repair_ssa"),
    ("merge.simplify", "repro.merge.salssa.codegen", "simplify_function"),
    ("merge.simplify", "repro.merge.fmsa", "simplify_function"),
    ("merge.cost", "repro.merge.cost_model", "CostModel.evaluate"),
    ("merge.cost", "repro.merge.cost_model", "CostModel.function_size"),
    ("merge.commit", "repro.merge.pass_manager", "replace_with_thunk"),
    ("merge.other", "repro.merge.pass_manager", "FunctionMergingPass.run"),
    ("ir.unique_name", "repro.ir.function", "Function.unique_name"),
    ("fmsa.clone", "repro.merge.fmsa", "clone_function"),
    ("fmsa.reg2mem", "repro.merge.fmsa", "demote_function"),
    ("fmsa.mem2reg", "repro.merge.fmsa", "promote_allocas"),
    ("fmsa.residue", "repro.merge.pass_manager",
     "FunctionMergingPass._apply_fmsa_residue"),
    ("incremental.detect", "repro.incremental.state", "PipelineState.detect_delta"),
    ("incremental.apply_delta", "repro.incremental.state", "PipelineState.apply_delta"),
    ("incremental.assemble", "repro.incremental.state", "PipelineState.assemble"),
    ("incremental.splice", "repro.merge.pass_manager", "parse_named_function"),
    ("obs.emit", "repro.obs.events", "EventLog.emit"),
)

#: The span around a whole operation; its self time is what no layer claims.
ROOT = "op"

Span = Tuple[int, str, float, float, Optional[int]]


class Tracer:
    """Spans of every traced operation, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1

    def _open(self) -> Tuple[int, Optional[int]]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # filled in when the span closes
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: float,
               parent: Optional[int]) -> None:
        self.spans[index] = (self._op, name, start, perf_counter(), parent)
        self._stack.pop()

    def wrap(self, name: str, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index, parent = tracer._open()
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(index, name, start, parent)
        return traced

    @contextmanager
    def operation(self) -> Iterator[None]:
        """One operation: a root span that every layer span inside shares."""
        self._op += 1
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, ROOT, start, parent)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (op, name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"op": op, "span": index, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute


@contextmanager
def traced_layers(tracer: Tracer) -> Iterator[Tracer]:
    """Install the layer wrappers for the duration of the block."""
    originals = []
    try:
        for name, module_name, path in LAYERS:
            owner, attribute = _resolve(module_name, path)
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def self_times(spans: List[Span]) -> Dict[int, Dict[str, List[float]]]:
    """Per operation and span name: ``[self seconds, calls]``."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: Dict[int, Dict[str, List[float]]] = {}
    for index, (op, name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(op, {}).setdefault(name, [0.0, 0])
        entry[0] += end - start - covered[index]
        entry[1] += 1
    return totals
