"""The flight recorder: a bounded, schema-versioned log of decision events.

Metrics (:mod:`repro.obs.registry`) answer *how much* — counts, durations,
distributions.  The :class:`EventLog` answers *why*: the merge pass and the
incremental replay emit one :class:`Event` per decision they take — pair considered, alignment scored, profitability verdict with a
:data:`REASON_CODES` reason, commit/rollback, cache provenance — so "why
was/wasn't this pair merged" is answerable after the fact from the recorded
log alone (see :mod:`repro.obs.explain`).

Design constraints, matching the registry's:

* **Zero effect on results.**  Events only observe; every emission site is
  guarded on ``events is None``, and reports are bit-identical with the
  recorder on or off.
* **Bounded.**  The log is a ring buffer: when ``capacity`` is reached the
  oldest event is dropped and counted (exposed as
  ``repro_events_dropped_total`` when a registry is attached), so a long
  session can record forever without unbounded growth.
* **Deterministic merge.**  A log's payload (inside a registry snapshot or
  on its own) folds into another log with :meth:`EventLog.merge_payload`,
  re-sequencing as it goes — exactly how metric snapshots fold.
* **Schema-versioned wire format.**  JSONL export starts with a header line
  carrying :data:`EVENT_SCHEMA`; import refuses anything else rather than
  silently mis-reading a log from a different code version.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

#: Version of the event record shape; bump on incompatible changes so the
#: explain tooling never mis-reads a log written by different code.
EVENT_SCHEMA = 1

#: Default ring capacity.  Decision events are small dicts; 64k of them
#: comfortably covers the largest benchmark runs while bounding a long
#: session's memory.
DEFAULT_CAPACITY = 65536

# --------------------------------------------------------------------------
# Reason codes: the closed vocabulary of profitability verdicts and
# rollback/provenance causes.  ``docs/events.md`` carries the same table.
# --------------------------------------------------------------------------

#: The cost model judged the merge profitable (benefit >= minimum_benefit).
REASON_PROFITABLE = "profitable"
#: The cost model's size delta was insufficient (the common rejection).
REASON_COST_MODEL = "cost_model_delta"
#: The pair never reached alignment: differing return types.
REASON_TYPE_MISMATCH = "return_type_mismatch"
#: The merger raised ``MergeError`` (alignment/codegen constraint, e.g. the
#: SalSSA phi-coalescing guard refusing an unmergeable control flow).
REASON_MERGE_ERROR = "merge_error"
#: A profitable attempt lost its ranking round to a higher-benefit candidate.
REASON_OUTRANKED = "outranked"
#: The candidate was already consumed by an earlier commit when its turn came.
REASON_CANDIDATE_CONSUMED = "candidate_consumed"
#: The function never entered the candidate index (below min_function_size).
REASON_BELOW_MIN_SIZE = "below_min_size"
#: Incremental splice guard: the recorded merged body was produced from
#: inputs with different local value names (``named_key`` mismatch), so the
#: pair was deterministically re-merged instead of spliced.
REASON_NAMED_KEY_MISMATCH = "named_key_mismatch"
#: The attempt cache knew the decision but had no recorded merged body yet.
REASON_NO_RECORDED_BODY = "no_recorded_body"

#: Reason code -> one-line description (the explain CLI's legend).
REASON_CODES: Dict[str, str] = {
    REASON_PROFITABLE: "cost model benefit met the minimum; merge committed "
                       "unless outranked",
    REASON_COST_MODEL: "estimated size delta below the minimum benefit",
    REASON_TYPE_MISMATCH: "return types differ; pair skipped before alignment",
    REASON_MERGE_ERROR: "merger raised MergeError (e.g. phi-coalescing guard)",
    REASON_OUTRANKED: "profitable but beaten by a better candidate this round",
    REASON_CANDIDATE_CONSUMED: "candidate already merged away when considered",
    REASON_BELOW_MIN_SIZE: "function smaller than min_function_size; "
                           "never indexed",
    REASON_NAMED_KEY_MISMATCH: "incremental splice refused: recorded body "
                               "was generated from differently-named inputs",
    REASON_NO_RECORDED_BODY: "attempt cache hit without a recorded merged "
                             "body; merge re-run deterministically",
}


@dataclass(frozen=True)
class Event:
    """One recorded decision: a monotonic sequence id, a kind, plain data."""

    #: Monotonic id within the owning log (gaps mean dropped events).
    seq: int
    #: Event kind (``"pair_considered"``, ``"verdict"``, ``"commit"``, ...).
    kind: str
    #: JSON-safe payload; keys depend on the kind (see ``docs/events.md``).
    data: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "kind": self.kind, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Event":
        return cls(seq=int(payload["seq"]), kind=str(payload["kind"]),
                   data=dict(payload.get("data", {})))


class EventLog:
    """A bounded ring buffer of :class:`Event` records.

    Appending past ``capacity`` drops the oldest event and bumps
    :attr:`dropped` (and the ``repro_events_dropped_total`` counter when a
    registry is attached via :func:`attach_events`) — recent history wins,
    which is the right trade for a long delta stream.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"EventLog capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque()
        self.next_seq = 0
        #: Events evicted by the ring bound (never silently: exposed as
        #: ``repro_events_dropped_total`` on an attached registry).
        self.dropped = 0
        self._registry = None
        self._sink = None
        # Guards the ring against a concurrent reader serializing it while
        # the pipeline (or a snapshot fold) is still emitting.
        self._lock = threading.RLock()

    # ------------------------------------------------------------- recording
    def emit(self, kind: str, **data: Any) -> Event:
        """Record one event (cheap: one dict, one append)."""
        with self._lock:
            event = Event(seq=self.next_seq, kind=kind, data=data)
            self.next_seq += 1
            # Write-ahead: the sink sees the event before the ring can evict
            # it, so disk-side history is complete even when `dropped` grows.
            if self._sink is not None:
                self._sink.append_event(event)
            if len(self._events) >= self.capacity:
                self._events.popleft()
                self.dropped += 1
                if self._registry is not None:
                    self._registry.counter(
                        "repro_events_dropped_total",
                        help="Events evicted from the flight-recorder ring "
                             "buffer (oldest first).").inc()
            self._events.append(event)
        return event

    def attach_sink(self, sink) -> None:
        """Attach a durable sink (an :class:`~repro.obs.sink.EventSink`).

        Every subsequent :meth:`emit` — including events folded through
        :meth:`merge_payload` — is written through to the sink
        *before* ring eviction, so the disk-side history never drops even
        when the in-memory ring does.  Events still retained at attach time
        are spilled immediately (history already evicted is gone — attach
        the sink before the run for completeness).  ``None`` detaches.
        """
        with self._lock:
            self._sink = sink
            if sink is not None:
                for event in self._events:
                    sink.append_event(event)

    @property
    def sink(self):
        """The attached durable sink, or ``None``."""
        return self._sink

    def attach_metrics(self, registry) -> None:
        """Expose drop accounting on ``registry`` (None detaches)."""
        self._registry = registry
        if registry is not None and self.dropped:
            registry.counter(
                "repro_events_dropped_total",
                help="Events evicted from the flight-recorder ring buffer "
                     "(oldest first).").inc(self.dropped)

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        with self._lock:
            return iter(list(self._events))

    def records(self, kind: Optional[str] = None) -> List[Event]:
        """Retained events in sequence order, optionally one kind only."""
        with self._lock:
            retained = list(self._events)
        if kind is None:
            return retained
        return [event for event in retained if event.kind == kind]

    # ----------------------------------------------------------------- merge
    def merge_payload(self, payload: Dict[str, Any]) -> "EventLog":
        """Fold a :meth:`as_payload` envelope (e.g. from a registry snapshot)
        into this log, re-sequencing in arrival order.

        Deterministic: payloads folded in the same order give the same log —
        the contract metric snapshots follow.  Schema mismatches raise; a
        log must never silently mis-fold another version's events.
        """
        if payload.get("schema") != EVENT_SCHEMA:
            raise ValueError(
                f"unsupported event-log schema {payload.get('schema')!r} "
                f"(expected {EVENT_SCHEMA})")
        for entry in payload.get("events", ()):
            self.emit(str(entry["kind"]), **dict(entry.get("data", {})))
        with self._lock:
            self.dropped += int(payload.get("dropped", 0))
        return self

    def merge(self, other: "EventLog") -> "EventLog":
        """Fold another log's retained events into this one (re-sequenced)."""
        return self.merge_payload(other.as_payload())

    # --------------------------------------------------------- serialization
    def as_payload(self) -> Dict[str, Any]:
        """A JSON-safe envelope: schema, drop count, retained events."""
        with self._lock:
            retained = list(self._events)
            dropped = self.dropped
        return {
            "schema": EVENT_SCHEMA,
            "dropped": dropped,
            "events": [event.as_dict() for event in retained],
        }

    def to_jsonl(self) -> str:
        """The log as JSONL: one schema header line, then one event a line."""
        with self._lock:
            retained = list(self._events)
            dropped, next_seq = self.dropped, self.next_seq
        lines = [json.dumps({"repro_events_schema": EVENT_SCHEMA,
                             "dropped": dropped,
                             "next_seq": next_seq}, sort_keys=True)]
        lines.extend(json.dumps(event.as_dict(), sort_keys=True)
                     for event in retained)
        return "\n".join(lines) + "\n"

    def history_jsonl(self) -> str:
        """Full recorded history as JSONL, preferring the durable sink.

        With a sink attached the rendered stream replays every event ever
        emitted (rotated segments included) with a disk-side drop count of
        zero, so nothing is lost once the ring has overflowed.  Without a
        sink this is just :meth:`to_jsonl`.
        """
        with self._lock:
            sink = self._sink
        if sink is None:
            return self.to_jsonl()
        from .sink import sink_history_jsonl
        sink.flush()
        return sink_history_jsonl(sink.directory, sink.prefix)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str,
                   capacity: int = DEFAULT_CAPACITY) -> "EventLog":
        """Parse a :meth:`to_jsonl` rendering back into a log.

        The header line is mandatory and its schema must match — a log
        written by an incompatible version is refused loudly, never
        half-read.  Event ``seq`` ids are preserved (the explain tooling
        relies on recorded order), so the returned log continues numbering
        after the highest recorded id.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty event log (missing schema header)")
        header = json.loads(lines[0])
        if not isinstance(header, dict) \
                or header.get("repro_events_schema") != EVENT_SCHEMA:
            raise ValueError(
                f"unsupported event-log schema "
                f"{header.get('repro_events_schema') if isinstance(header, dict) else header!r} "
                f"(expected {EVENT_SCHEMA})")
        log = cls(capacity=max(capacity, len(lines) - 1, 1))
        for line in lines[1:]:
            event = Event.from_dict(json.loads(line))
            log._events.append(event)
            log.next_seq = max(log.next_seq, event.seq + 1)
        log.dropped = int(header.get("dropped", 0))
        log.next_seq = max(log.next_seq, int(header.get("next_seq", 0)))
        return log

    @classmethod
    def read_jsonl(cls, path: str,
                   capacity: int = DEFAULT_CAPACITY) -> "EventLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read(), capacity=capacity)


def as_event_log(events: Union[None, bool, EventLog]) -> Optional[EventLog]:
    """Normalise an ``events=`` argument: None stays None (recorder off),
    ``True`` creates a fresh log, a log passes through."""
    if events is None or events is False:
        return None
    if isinstance(events, EventLog):
        return events
    if events is True:
        return EventLog()
    raise TypeError(f"events must be None, True or an EventLog, "
                    f"got {type(events).__name__}")


def attach_events(registry, events: Union[None, bool, EventLog]):
    """Attach an event log to ``registry`` (the registry+log pair is what the
    snapshot wire format carries together).

    Returns the attached log (or None).  Idempotent for the same log; a new
    log replaces the old one.  Snapshots of a registry with an attached log
    include the retained events, and :meth:`MetricsRegistry.merge_snapshot`
    folds them back, so events ride the same snapshot channel as metrics.
    """
    log = as_event_log(events)
    if registry is None:
        return log
    registry.events = log
    if log is not None:
        log.attach_metrics(registry)
    return log
