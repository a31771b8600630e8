"""``repro-explain`` — answer "why was/wasn't this pair merged" from a log.

The merge pass records one decision-level event per pair it looks at (see
:mod:`repro.obs.events`); this CLI turns a recorded ``events.jsonl`` back
into answers without re-running anything:

.. code-block:: console

    $ python -m repro.obs.explain run.events.jsonl                 # summary
    $ python -m repro.obs.explain run.events.jsonl --pair f,g      # one pair
    $ python -m repro.obs.explain run.events.jsonl --slowest 10    # hot spots
    $ python -m repro.obs.explain run.events.jsonl --diff old.jsonl

Wherever a log path is accepted, a durable :class:`~repro.obs.EventSink`
directory works too — rotated segments are replayed in order, so the
reconstructed log contains every event even when the in-memory ring
dropped some (see :mod:`repro.obs.sink`).

``--pair`` prints the pair's full decision timeline — consideration (query
rank and fingerprint distance), alignment score, profitability verdict with its
reason code and cost-model numbers, cache provenance, and whether the merge
committed, was outranked or rolled back.  ``--slowest`` ranks attempts by
recorded alignment + codegen wall-clock.  ``--diff`` compares the final
per-pair verdicts of two logs (e.g. before/after a cost-model change).

Everything here is read-only over the recorded log; the library surface
(:func:`pair_events`, :func:`explain_pair`, :func:`slowest_attempts`,
:func:`diff_logs`, :func:`summarize`) is what the tests drive.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter as TallyCounter
from typing import Dict, List, Optional, Tuple

from .events import Event, EventLog, REASON_CODES

#: Event kinds that carry a (function, candidate) pair in their data.
_PAIR_KINDS = ("pair_considered", "pair_skipped", "alignment_scored",
               "verdict", "outranked", "rollback")
#: Event kinds that carry (first, second) instead.
_COMMIT_KINDS = ("commit", "materialize")


def _event_pair(event: Event) -> Optional[Tuple[str, str]]:
    """The (unordered) function pair an event is about, if any."""
    data = event.data
    if event.kind in _PAIR_KINDS:
        return (str(data.get("function")), str(data.get("candidate")))
    if event.kind in _COMMIT_KINDS:
        return (str(data.get("first")), str(data.get("second")))
    return None


def pair_events(log: EventLog, first: str, second: str) -> List[Event]:
    """All retained events about the pair ``{first, second}``, either order."""
    wanted = {first, second}
    return [event for event in log
            if (lambda pair: pair is not None and set(pair) == wanted)
            (_event_pair(event))]


def explain_pair(log: EventLog, first: str, second: str) -> Dict[str, object]:
    """The recorded decision story of one pair, reduced to a verdict.

    Returns ``{"events", "verdict", "reason", "committed", "outcome"}`` —
    ``verdict`` is the *last* recorded verdict event for the pair (replays
    append, so the last one reflects the final run), ``outcome`` a one-line
    human answer.  ``verdict``/``reason`` are ``None`` when the log never
    saw the pair reach a verdict (e.g. skipped as consumed).
    """
    timeline = pair_events(log, first, second)
    verdicts = [event for event in timeline if event.kind == "verdict"]
    last = verdicts[-1] if verdicts else None
    committed = any(event.kind == "commit" for event in timeline)
    outranked = any(event.kind == "outranked" for event in timeline)
    rolled_back = any(event.kind == "rollback" for event in timeline)
    skipped = [event for event in timeline if event.kind == "pair_skipped"]
    reason = str(last.data.get("reason")) if last is not None else None
    if committed:
        outcome = "merged (committed)"
    elif last is not None and last.data.get("profitable"):
        outcome = "profitable but not committed" \
            + (" — outranked by a better candidate" if outranked else "")
    elif last is not None:
        outcome = f"not merged — {REASON_CODES.get(reason, reason)}"
    elif skipped:
        skip_reason = str(skipped[-1].data.get("reason"))
        outcome = "never attempted — " \
            + REASON_CODES.get(skip_reason, skip_reason)
        reason = skip_reason
    elif timeline:
        outcome = "considered but no verdict recorded"
    else:
        outcome = "pair never considered (not in this log)"
    if rolled_back and not committed:
        outcome += " (trial merge rolled back)"
    return {"events": timeline, "verdict": last, "reason": reason,
            "committed": committed, "outcome": outcome}


def slowest_attempts(log: EventLog, top: int = 10
                     ) -> List[Tuple[float, Event]]:
    """The ``top`` alignment_scored events by alignment + codegen seconds."""
    scored = [(float(event.data.get("alignment_seconds", 0.0))
               + float(event.data.get("codegen_seconds", 0.0)), event)
              for event in log.records("alignment_scored")]
    scored.sort(key=lambda pair: (-pair[0], pair[1].seq))
    return scored[:top]


def _final_verdicts(log: EventLog) -> Dict[Tuple[str, str], Event]:
    """Last verdict per unordered pair (replays overwrite earlier runs)."""
    verdicts: Dict[Tuple[str, str], Event] = {}
    for event in log.records("verdict"):
        key = tuple(sorted((str(event.data.get("function")),
                            str(event.data.get("candidate")))))
        verdicts[key] = event
    return verdicts


def diff_logs(ours: EventLog, theirs: EventLog) -> Dict[str, list]:
    """Compare two logs' final per-pair verdicts.

    Returns ``{"changed": [(pair, ours, theirs)], "only_ours": [...],
    "only_theirs": [...]}`` where a pair counts as *changed* when its
    profitability or reason code differs — the wall-clock and size numbers
    may drift run to run without the decision changing.
    """
    mine = _final_verdicts(ours)
    other = _final_verdicts(theirs)
    changed, only_ours, only_theirs = [], [], []
    for key in sorted(set(mine) | set(other)):
        a, b = mine.get(key), other.get(key)
        if a is None:
            only_theirs.append((key, b))
        elif b is None:
            only_ours.append((key, a))
        elif (bool(a.data.get("profitable")) != bool(b.data.get("profitable"))
              or a.data.get("reason") != b.data.get("reason")):
            changed.append((key, a, b))
    return {"changed": changed, "only_ours": only_ours,
            "only_theirs": only_theirs}


def summarize(log: EventLog) -> Dict[str, object]:
    """Headline counts: events by kind, verdicts by reason, commits."""
    kinds = TallyCounter(event.kind for event in log)
    reasons = TallyCounter(str(event.data.get("reason"))
                           for event in log.records("verdict"))
    return {
        "events": len(log),
        "dropped": log.dropped,
        "kinds": dict(sorted(kinds.items())),
        "verdict_reasons": dict(sorted(reasons.items())),
        "commits": kinds.get("commit", 0),
    }


# ---------------------------------------------------------------------------
# CLI rendering
# ---------------------------------------------------------------------------

def _format_event(event: Event) -> str:
    data = " ".join(f"{key}={value}" for key, value
                    in sorted(event.data.items()))
    return f"  [{event.seq:>6}] {event.kind:<18} {data}"


def _print_pair(log: EventLog, pair: str) -> int:
    names = [name.strip() for name in pair.split(",")]
    if len(names) != 2 or not all(names):
        print(f"--pair wants 'first,second', got {pair!r}", file=sys.stderr)
        return 2
    story = explain_pair(log, names[0], names[1])
    print(f"pair {names[0]} , {names[1]}: {story['outcome']}")
    if story["reason"]:
        print(f"reason code: {story['reason']} — "
              f"{REASON_CODES.get(story['reason'], '(unknown code)')}")
    verdict = story["verdict"]
    if verdict is not None and "benefit" in verdict.data:
        print(f"cost model: original={verdict.data.get('original_size')} "
              f"merged={verdict.data.get('merged_size')} "
              f"overhead={verdict.data.get('overhead')} "
              f"benefit={verdict.data.get('benefit')} "
              f"(provenance: {verdict.data.get('provenance')})")
    print("timeline:")
    for event in story["events"]:
        print(_format_event(event))
    if not story["events"]:
        print("  (no recorded events for this pair)")
    return 0


def _print_slowest(log: EventLog, top: int) -> int:
    ranked = slowest_attempts(log, top)
    print(f"slowest {len(ranked)} attempts (alignment + codegen seconds):")
    for seconds, event in ranked:
        print(f"  {seconds * 1e3:9.3f}ms  {event.data.get('function')} , "
              f"{event.data.get('candidate')} "
              f"(matched={event.data.get('matched_instructions')}, "
              f"dp_cells={event.data.get('dp_cells')})")
    if not ranked:
        print("  (no alignment_scored events in this log)")
    return 0


def _print_diff(log: EventLog, other_path: str) -> int:
    from .sink import load_events_path
    other = load_events_path(other_path)
    delta = diff_logs(log, other)
    print(f"verdict diff vs {other_path}: {len(delta['changed'])} changed, "
          f"{len(delta['only_ours'])} only here, "
          f"{len(delta['only_theirs'])} only there")
    for key, a, b in delta["changed"]:
        print(f"  {key[0]} , {key[1]}: "
              f"{a.data.get('reason')} -> {b.data.get('reason')}")
    for key, event in delta["only_ours"]:
        print(f"  only here: {key[0]} , {key[1]} ({event.data.get('reason')})")
    for key, event in delta["only_theirs"]:
        print(f"  only there: {key[0]} , {key[1]} "
              f"({event.data.get('reason')})")
    return 0


def _print_summary(log: EventLog) -> int:
    summary = summarize(log)
    print(f"{summary['events']} events retained, "
          f"{summary['dropped']} dropped, {summary['commits']} commits")
    print("by kind:")
    for kind, count in summary["kinds"].items():
        print(f"  {kind:<18} {count}")
    if summary["verdict_reasons"]:
        print("verdicts by reason:")
        for reason, count in summary["verdict_reasons"].items():
            print(f"  {reason:<22} {count:<6} "
                  f"{REASON_CODES.get(reason, '')}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-explain",
        description="Explain merge decisions from a recorded events.jsonl "
                    "(see docs/events.md).")
    parser.add_argument("log", help="events.jsonl written by "
                                    "EventLog.write_jsonl or served at "
                                    "/events.jsonl, or an EventSink "
                                    "directory of rotated segments")
    parser.add_argument("--pair", metavar="FIRST,SECOND",
                        help="explain why this pair was or wasn't merged")
    parser.add_argument("--slowest", type=int, metavar="K",
                        help="print the K slowest recorded attempts")
    parser.add_argument("--diff", metavar="OTHER.JSONL",
                        help="diff final per-pair verdicts against another "
                             "log (file or sink directory)")
    args = parser.parse_args(argv)
    from .sink import load_events_path
    try:
        log = load_events_path(args.log)
    except (OSError, ValueError) as error:
        print(f"cannot read {args.log}: {error}", file=sys.stderr)
        return 2
    if args.pair is not None:
        return _print_pair(log, args.pair)
    if args.slowest is not None:
        return _print_slowest(log, args.slowest)
    if args.diff is not None:
        return _print_diff(log, args.diff)
    return _print_summary(log)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
