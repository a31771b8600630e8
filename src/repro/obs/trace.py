"""Phase-scoped span records: the queryable trace of one pipeline run.

A *span* is one timed region of the pipeline (``baseline_compile``,
``merge.index_build``, ``merge.rank``, ...) opened with
:meth:`repro.obs.MetricsRegistry.span`.  Spans nest; every completed span
becomes an immutable :class:`SpanRecord` on the registry's ``trace`` list, in
completion order (children before parents, exactly like profiler call trees
flush).  The trace answers "where did this run spend its time and memory"
without any sampling: phases are instrumented explicitly at the points the
pipeline already considers phase boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SpanRecord:
    """One completed phase span."""

    #: Leaf name of the span (``"merge.rank"``).
    name: str
    #: Nesting path root -> self (``("merge", "merge.rank")``).
    path: Tuple[str, ...]
    #: Nesting depth (0 = top level).
    depth: int
    #: Start offset in seconds from the owning registry's creation.  Records
    #: merged in from another registry (e.g. a replayed snapshot) keep *their*
    #: registry's offsets — starts are comparable within one source only.
    start: float
    #: Wall-clock duration of the span.
    seconds: float
    #: Peak traced memory observed while the span was open (0 when
    #: ``tracemalloc`` was not tracing).  Includes every child span's peak.
    peak_bytes: int
    #: Position in the owning registry's trace (completion order).
    index: int
    #: Net traced allocation across the span (``metrics="deep"`` only, else
    #: 0).  Children included; negative when the span freed more than it
    #: allocated.
    alloc_bytes: int = 0

    def as_dict(self) -> dict:
        """A plain-data rendering (what snapshots and exporters ship)."""
        return {
            "name": self.name,
            "path": list(self.path),
            "depth": self.depth,
            "start": self.start,
            "seconds": self.seconds,
            "peak_bytes": self.peak_bytes,
            "index": self.index,
            "alloc_bytes": self.alloc_bytes,
        }


class _SpanFrame:
    """Mutable bookkeeping for one *open* span (on the registry's stack)."""

    __slots__ = ("name", "path", "peak_bytes")

    def __init__(self, name: str, path: Tuple[str, ...]) -> None:
        self.name = name
        self.path = path
        self.peak_bytes = 0


def format_trace(records) -> str:
    """An indented plain-text rendering of a span trace (debug helper)."""
    lines = []
    for record in sorted(records, key=lambda r: (r.start, r.index)):
        indent = "  " * record.depth
        memory = f"  peak={record.peak_bytes / 1e6:.2f}MB" \
            if record.peak_bytes else ""
        alloc = f"  alloc={record.alloc_bytes / 1e6:+.2f}MB" \
            if record.alloc_bytes else ""
        lines.append(f"{indent}{record.name}: {record.seconds * 1e3:.2f}ms"
                     f"{memory}{alloc}")
    return "\n".join(lines)
