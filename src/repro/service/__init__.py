"""repro.service — the resident merge daemon and its wire protocol.

The batch entry points (:func:`repro.harness.run_pipeline` and friends) pay
their whole setup cost — analysis warm-up, artifact-store open,
candidate-index build — on *every* invocation.  This package keeps all of
it resident: :class:`MergeService` owns one telemetry registry with a
mounted HTTP endpoint, one open artifact store, and a per-session :class:`~repro.incremental.PipelineState` that
routes repeat submissions through the incremental pipeline, so a warm job
costs near-O(|delta|) instead of O(module).

* :mod:`repro.service.protocol` — the newline-delimited-JSON envelopes,
  error codes and the blocking :class:`ServiceClient`.
* :mod:`repro.service.daemon` — the ``repro-serve`` daemon.
* :mod:`repro.service.loadgen` — the ``repro-loadgen`` open-loop load
  generator (Poisson arrivals, tidy latency records).

Digest contract: a service job's report digest is bit-identical to a cold
``run_pipeline`` over the same module text — the same parity bar the
incremental subsystem holds.  See ``docs/service.md``.
"""

from .protocol import (
    ERROR_CODES,
    MAX_MESSAGE_BYTES,
    OPS,
    PROTOCOL_SCHEMA,
    ProtocolError,
    ServiceClient,
    ServiceError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    read_message,
    request,
)
from .daemon import MergeService
from .loadgen import run_loadgen

__all__ = [
    "ERROR_CODES",
    "MAX_MESSAGE_BYTES",
    "OPS",
    "PROTOCOL_SCHEMA",
    "MergeService",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "decode_message",
    "encode_message",
    "error_response",
    "ok_response",
    "read_message",
    "request",
    "run_loadgen",
]
