"""``repro-serve`` — the resident merge service.

One long-lived process owns everything a cold ``run_pipeline`` pays for on
every invocation, and keeps it hot across jobs:

* a per-session **pipeline state** (:class:`~repro.incremental.PipelineState`)
  routing every repeat submission through
  :func:`~repro.harness.run_pipeline_incremental` — near-O(|delta|) replay,
  attempt cache and index artifacts retained, reports bit-identical to a
  cold batch run over the same module;
* one open **artifact store** (``--store``) shared by every session: state
  snapshots, persistent analyses and the run ledger all land in it;
* one resident **observability endpoint**: the session registry mounted on
  an :class:`~repro.obs.ObsHTTPServer` (``/metrics``, ``/events.jsonl``,
  ``/runs``, …) with optional periodic
  :class:`~repro.obs.SnapshotSink` captures outliving the process.

Jobs arrive over the NDJSON socket protocol of
:mod:`repro.service.protocol`.  All merge work is serialized through one
executor thread — pipeline state is single-threaded by design — while the
:class:`~socketserver.ThreadingTCPServer` front keeps every client
connection responsive (``ping`` / ``sessions`` never queue behind a job).

Sessions are bounded: each attempt cache gets an LRU cap (``--cache-cap``)
and is compacted against the session's live digests every
``--compact-every`` jobs, so a week-long daemon does not accrete every pair
it ever scored.

Run it::

    repro-serve --port 7337 --store .cache --obs-port 9100

and drive it with :class:`~repro.service.protocol.ServiceClient` or
``python -m repro.service.loadgen``.  See ``docs/service.md`` for the
protocol catalogue and the ops runbook.
"""

from __future__ import annotations

import argparse
import json
import queue
import socketserver
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from ..harness.pipeline import run_pipeline_incremental
from ..incremental.delta import remap_references, replace_function_body
from ..ir.module import Module
from ..ir.parser import parse_module, parse_named_function
from ..obs import MetricsRegistry, ObsHTTPServer, SnapshotSink, \
    attach_events, attach_run_ledger, report_digest_hex
from ..persist import ArtifactStore
from .protocol import FATAL_CODES, MAX_MESSAGE_BYTES, ProtocolError, \
    encode_message, error_response, ok_response, read_message

#: Option fields a ``submit`` may carry; fixed per session at creation.
SESSION_OPTIONS = ("technique", "threshold", "target", "phi_coalescing",
                   "search_strategy")

_SESSION_DEFAULTS: Dict[str, Any] = {
    "technique": "salssa", "threshold": 1, "target": "x86_64",
    "phi_coalescing": True, "search_strategy": "exhaustive"}


class _Session:
    """One named module the service keeps resident between submissions."""

    def __init__(self, name: str, module: Module,
                 options: Dict[str, Any]) -> None:
        self.name = name
        self.module = module
        self.options = options
        self.state = None  # PipelineState, owned by run_pipeline_incremental
        self.jobs = 0


class _Job:
    """One queued unit of executor work (a submit, a drain barrier, …)."""

    def __init__(self, kind: str, message: Dict[str, Any]) -> None:
        self.kind = kind
        self.message = message
        self.done = threading.Event()
        self.response: Dict[str, Any] = error_response(
            "internal", "job abandoned (service stopped)")


_STOP = object()


class _ServiceTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: "MergeService"


class _ServiceHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of NDJSON request/response pairs."""

    def handle(self) -> None:
        service = self.server.service
        while True:
            try:
                message = read_message(self.rfile,
                                       service.max_request_bytes)
            except ProtocolError as error:
                if not self._send(error_response(error.code, error.detail)):
                    return
                if error.code in FATAL_CODES:
                    return  # stream integrity is gone; drop this connection
                continue
            except (ConnectionError, OSError):
                return  # peer vanished mid-request; nothing to answer
            if message is None:
                return  # clean EOF between messages
            op = message.get("op")
            op_name = op if isinstance(op, str) else None
            try:
                response = service.dispatch(message)
            except ProtocolError as error:
                response = error_response(error.code, error.detail, op_name)
            except Exception as error:  # noqa: BLE001 — a job must never
                # take the serving loop down with it.
                response = error_response(
                    "internal", f"{type(error).__name__}: {error}", op_name)
            if not self._send(response):
                return

    def _send(self, response: Dict[str, Any]) -> bool:
        try:
            self.wfile.write(encode_message(response))
            self.wfile.flush()
            return True
        except (ConnectionError, OSError):
            return False


class MergeService:
    """The resident daemon: sessions, executor, sockets, telemetry.

    Constructing one binds the job socket (and the observability endpoint
    unless ``obs_port=None``) and starts serving; ``close()`` — idempotent,
    exception-safe — tears everything down.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 store: Optional[str] = None,
                 obs_port: Optional[int] = 0,
                 snapshot_dir: Optional[str] = None,
                 snapshot_interval: float = 30.0,
                 cache_cap: Optional[int] = 65536,
                 compact_every: int = 64,
                 max_request_bytes: int = MAX_MESSAGE_BYTES) -> None:
        self.cache_cap = cache_cap
        self.compact_every = compact_every
        self.max_request_bytes = max_request_bytes
        self.started = time.time()
        self.jobs_completed = 0
        self.sessions: Dict[str, _Session] = {}
        self._lock = threading.Lock()
        self._draining = False
        self._closed = False
        self.closed_event = threading.Event()

        # --- resident telemetry: one registry for the daemon's lifetime.
        self.registry = MetricsRegistry()
        attach_events(self.registry, True)
        self.store = ArtifactStore(store) if store is not None else None
        if self.store is not None:
            attach_run_ledger(self.registry, self.store)
            self.store.attach_metrics(self.registry)
        self.obs: Optional[ObsHTTPServer] = None
        if obs_port is not None:
            self.obs = ObsHTTPServer(self.registry, host=host, port=obs_port)
        self.snapshots: Optional[SnapshotSink] = None
        self._snapshot_stop = threading.Event()
        self._snapshot_thread: Optional[threading.Thread] = None
        if snapshot_dir is not None:
            self.snapshots = SnapshotSink(snapshot_dir)
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop, args=(snapshot_interval,),
                name="repro-serve-snapshots", daemon=True)
            self._snapshot_thread.start()

        # --- the single merge executor (pipeline state is not thread-safe).
        self._queue: "queue.Queue" = queue.Queue()
        self._executor = threading.Thread(target=self._executor_loop,
                                          name="repro-serve-executor",
                                          daemon=True)
        self._executor.start()

        # --- the job socket.
        self._tcp = _ServiceTCPServer((host, port), _ServiceHandler)
        self._tcp.service = self
        self.host, self.port = self._tcp.server_address[:2]
        self._serve_thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-serve-accept", daemon=True)
        self._serve_thread.start()

    # ------------------------------------------------------------- dispatch
    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request envelope; called from connection threads."""
        op = message.get("op")
        if op == "ping":
            with self._lock:
                return ok_response(
                    "ping", sessions=len(self.sessions),
                    jobs_completed=self.jobs_completed,
                    uptime_seconds=time.time() - self.started,
                    draining=self._draining)
        if op == "sessions":
            return ok_response("sessions", sessions=self._session_infos())
        if op == "submit":
            if self._draining:
                return error_response(
                    "shutting_down", "service is draining; no new jobs",
                    "submit")
            return self._run_job(_Job("submit", message))
        if op == "drain":
            return self._run_job(_Job("drain", message))
        if op == "shutdown":
            self._draining = True
            response = self._run_job(_Job("drain", message))
            response["op"] = "shutdown"
            threading.Thread(target=self.close, name="repro-serve-close",
                             daemon=True).start()
            return response
        raise ProtocolError("bad_request", f"unknown op {op!r} "
                                           f"(known: ping, submit, sessions,"
                                           f" drain, shutdown)")

    def _run_job(self, job: _Job) -> Dict[str, Any]:
        if self._closed:
            return error_response("shutting_down", "service is closed",
                                  job.message.get("op"))
        self._queue.put(job)
        job.done.wait()
        return job.response

    def _session_infos(self) -> List[Dict[str, Any]]:
        with self._lock:
            sessions = list(self.sessions.values())
        infos = []
        for session in sessions:
            state = session.state
            infos.append({
                "name": session.name,
                "jobs": session.jobs,
                "options": dict(session.options),
                "functions": len(session.module.functions),
                "deltas_applied": getattr(state, "deltas_applied", 0),
                "cache_entries": len(state.cache.entries)
                if state is not None else 0,
                "cache_evicted": state.cache.evicted
                if state is not None else 0,
            })
        return infos

    # ------------------------------------------------------------- executor
    def _executor_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                break
            try:
                if job.kind == "drain":
                    job.response = ok_response(
                        "drain", jobs_completed=self.jobs_completed)
                else:
                    job.response = self._execute_submit(job.message)
            except ProtocolError as error:
                job.response = error_response(error.code, error.detail,
                                              "submit")
            except Exception as error:  # noqa: BLE001 — the session may be
                # wedged but the daemon must keep serving other sessions.
                job.response = error_response(
                    "internal", f"{type(error).__name__}: {error}", "submit")
            finally:
                job.done.set()

    def _execute_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        name = message.get("session")
        if not isinstance(name, str) or not name:
            raise ProtocolError("bad_request",
                                "submit requires a non-empty 'session'")
        session = self.sessions.get(name)
        if session is None:
            session = self._create_session(name, message)
        else:
            self._check_options(session, message)
            self._patch_session(session, message)

        # Per-job telemetry slices off the resident registry.
        self.registry.last_run_id = None
        trace_before = len(self.registry.trace)
        started = time.perf_counter()
        run = run_pipeline_incremental(
            session.module, session.state,
            benchmark=name,
            technique=session.options["technique"],
            threshold=session.options["threshold"],
            target=session.options["target"],
            phi_coalescing=session.options["phi_coalescing"],
            search_strategy=session.options["search_strategy"],
            artifact_store=self.store,
            metrics=self.registry)
        seconds = time.perf_counter() - started
        session.state = run.state
        if self.cache_cap is not None:
            session.state.cache.max_entries = self.cache_cap
        session.jobs += 1
        if self.compact_every and session.jobs % self.compact_every == 0:
            session.state.compact_cache()
        self.jobs_completed += 1

        phase_seconds: Dict[str, float] = {}
        for span in self.registry.trace[trace_before:]:
            phase_seconds[span.name] = \
                phase_seconds.get(span.name, 0.0) + span.seconds
        return ok_response(
            "submit",
            session=name,
            job=session.jobs,
            warm=run.stats.delta_index > 0,
            digest=report_digest_hex(run.report),
            reduction_percent=run.result.reduction_percent,
            attempts=run.report.attempts if run.report is not None else 0,
            profitable_merges=run.report.profitable_merges
            if run.report is not None else 0,
            seconds=seconds,
            phase_seconds=phase_seconds,
            run_id=getattr(self.registry, "last_run_id", None),
            incremental=run.stats.as_dict(),
        )

    def _create_session(self, name: str,
                        message: Dict[str, Any]) -> _Session:
        text = message.get("module")
        if not isinstance(text, str):
            raise ProtocolError(
                "bad_request",
                f"unknown session {name!r}: the first submit must carry "
                f"the full module text in 'module'")
        options = dict(_SESSION_DEFAULTS)
        for key in SESSION_OPTIONS:
            if key in message:
                options[key] = message[key]
        try:
            module = parse_module(text, name=name)
        except Exception as error:  # parser raises plain ValueErrors
            raise ProtocolError("bad_request",
                                f"unparseable module: {error}")
        session = _Session(name, module, options)
        with self._lock:
            self.sessions[name] = session
        return session

    @staticmethod
    def _check_options(session: _Session, message: Dict[str, Any]) -> None:
        for key in SESSION_OPTIONS:
            if key in message and message[key] != session.options[key]:
                raise ProtocolError(
                    "bad_request",
                    f"session {session.name!r} is pinned to "
                    f"{key}={session.options[key]!r}; submit with "
                    f"{key}={message[key]!r} needs a new session")

    @staticmethod
    def _patch_session(session: _Session, message: Dict[str, Any]) -> None:
        """Apply a full-module replacement or a named-function patch.

        All or nothing: every entry is parsed and every removal checked
        before the module changes, so a rejected patch leaves the session
        exactly as it was.
        """
        text = message.get("module")
        if isinstance(text, str):
            try:
                session.module = parse_module(text, name=session.name)
            except Exception as error:
                raise ProtocolError("bad_request",
                                    f"unparseable module: {error}")
            return
        functions = message.get("functions", [])
        removals = message.get("remove", [])
        if not isinstance(functions, list) or not isinstance(removals, list):
            raise ProtocolError("bad_request",
                                "'functions' and 'remove' must be lists")
        if not functions and not removals:
            raise ProtocolError(
                "bad_request",
                "submit carries neither 'module' text nor a "
                "'functions'/'remove' patch")
        module = session.module
        parsed = []
        for item in functions:
            if not isinstance(item, str):
                raise ProtocolError("bad_request",
                                    "'functions' entries must be function "
                                    "definition texts")
            try:
                parsed.append(parse_named_function(item))
            except Exception as error:
                raise ProtocolError("bad_request",
                                    f"unparseable function: {error}")
        # Removals run after the patch entries, as if applied in order.
        present = {function.name for function in module.functions}
        present.update(function.name for function in parsed)
        for name in removals:
            if str(name) not in present:
                raise ProtocolError("bad_request",
                                    f"cannot remove unknown function "
                                    f"@{name}")
            present.discard(str(name))
        for incoming in parsed:
            existing = module.get_function(incoming.name)
            if existing is not None and not existing.is_declaration() \
                    and existing.function_type == incoming.function_type:
                replace_function_body(existing, incoming)
            else:
                if existing is not None:
                    module.remove_function(existing)
                module.add_function(incoming)
        for name in removals:
            module.remove_function(module.get_function(str(name)))
        remap_references(module)

    # ------------------------------------------------------------ telemetry
    def _snapshot_loop(self, interval: float) -> None:
        while not self._snapshot_stop.wait(max(0.1, interval)):
            self.snapshots.append_registry(self.registry)

    # ------------------------------------------------------------- lifetime
    def close(self) -> None:
        """Tear the service down; safe to call twice or after a crash."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._draining = True
        try:
            self._queue.put(_STOP)
            self._executor.join(timeout=30.0)
        except Exception:
            pass
        try:
            self._tcp.shutdown()
            self._tcp.server_close()
        except Exception:
            pass
        try:
            self._snapshot_stop.set()
            if self._snapshot_thread is not None:
                self._snapshot_thread.join(timeout=5.0)
            if self.snapshots is not None:
                self.snapshots.append_registry(self.registry)
                self.snapshots.flush()
        except Exception:
            pass
        try:
            if self.obs is not None:
                self.obs.close()
        except Exception:
            pass
        try:
            self.registry.close()
        except Exception:
            pass
        self.closed_event.set()

    def __enter__(self) -> "MergeService":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Resident merge service (see docs/service.md).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="job-socket port (0: ephemeral, printed on "
                             "start)")
    parser.add_argument("--store", default=None,
                        help="artifact-store root: state snapshots, "
                             "persistent analyses and the run ledger")
    parser.add_argument("--obs-port", type=int, default=0,
                        help="observability HTTP port (0: ephemeral; "
                             "-1: disabled)")
    parser.add_argument("--snapshot-dir", default=None,
                        help="SnapshotSink directory for periodic registry "
                             "captures")
    parser.add_argument("--snapshot-interval", type=float, default=30.0)
    parser.add_argument("--cache-cap", type=int, default=65536,
                        help="per-session attempt-cache LRU cap "
                             "(0: unbounded)")
    parser.add_argument("--compact-every", type=int, default=64,
                        help="compact each session's attempt cache every N "
                             "jobs (0: never)")
    parser.add_argument("--max-request-bytes", type=int,
                        default=MAX_MESSAGE_BYTES)
    args = parser.parse_args(argv)

    service = MergeService(
        args.host, args.port, store=args.store,
        obs_port=None if args.obs_port < 0 else args.obs_port,
        snapshot_dir=args.snapshot_dir,
        snapshot_interval=args.snapshot_interval,
        cache_cap=args.cache_cap or None,
        compact_every=args.compact_every,
        max_request_bytes=args.max_request_bytes)
    banner = {"host": service.host, "port": service.port,
              "obs_url": service.obs.url if service.obs is not None
              else None}
    print(json.dumps(banner), flush=True)
    try:
        service.closed_event.wait()
    except KeyboardInterrupt:
        service.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
