"""The execution service's wire protocol: newline-delimited JSON.

One frame per line, UTF-8, ``\\n``-terminated.  Every frame is a JSON
object stamped with the package :data:`~repro.schema.SCHEMA_VERSION`;
a version mismatch in either direction is answered with an ``error``
frame of code ``"version"`` and the connection stays usable.

Client -> server frames (``"kind"`` field):

* ``{"kind": "submit", "id": ..., "request": {ExecutionRequest}}`` —
  enqueue one request; ``id`` is any client-chosen JSON scalar echoed
  on every response frame for that request.
* ``{"kind": "status", "id": ...}`` — service statistics snapshot.
* ``{"kind": "drain", "id": ...}`` — begin graceful drain (same as
  SIGTERM: finish in-flight and queued work, refuse new submits, exit).
* ``{"kind": "ping", "id": ...}`` — liveness probe.

Server -> client frames:

* ``{"kind": "result", "id": ..., "result": {ExecutionResult}}`` —
  terminal success frame for a submit.
* ``{"kind": "event", "id": ..., "event": ..., ...}`` — streaming
  progress (``queued``/``started``/``progress``/telemetry); zero or
  more before the terminal frame.
* ``{"kind": "error", "id": ..., "code": ..., "message": ...}`` —
  terminal failure frame.  Codes: ``version``, ``malformed``,
  ``invalid``, ``busy`` (queue full; carries ``retry_after`` seconds),
  ``shed`` (router-side load shedding below shard quorum; also
  carries ``retry_after``), ``deadline``, ``draining``,
  ``execution``, ``internal``.  A terminal frame over
  :data:`MAX_FRAME_BYTES` is sent as an ``execution`` error for the
  same ``id`` instead, and the connection stays usable.
* ``{"kind": "pong" | "status", "id": ..., ...}`` — control replies.

The payload schema inside ``request``/``result`` is exactly
:meth:`repro.api.ExecutionRequest.as_dict` /
:meth:`repro.api.ExecutionResult.as_dict` — the service adds no
private format; a cached replay read straight from disk and a served
result are the same JSON.
"""

import json

from repro.schema import SCHEMA_VERSION, mismatch, stamp

#: Hard cap on one frame's encoded size (a whole sweep result with
#: per-cell metrics fits comfortably; a runaway source blob does not).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Error codes carried by ``error`` frames.
ERR_VERSION = "version"
ERR_MALFORMED = "malformed"
ERR_INVALID = "invalid"
ERR_BUSY = "busy"
ERR_SHED = "shed"
ERR_DEADLINE = "deadline"
ERR_DRAINING = "draining"
ERR_EXECUTION = "execution"
ERR_INTERNAL = "internal"


class ProtocolError(ValueError):
    """A frame that cannot even be answered (oversize, not JSON)."""


def encode(frame):
    """Serialise one frame to its wire form (bytes, newline-terminated)."""
    stamp(frame)
    blob = json.dumps(frame, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError("frame exceeds %d bytes" % MAX_FRAME_BYTES)
    return blob


def decode(line):
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` for undecodable input and returns
    the frame otherwise; the *caller* is responsible for rejecting
    version mismatches (so it can still echo the frame's ``id``).
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError("frame exceeds %d bytes" % MAX_FRAME_BYTES)
    try:
        frame = json.loads(line.decode("utf-8") if isinstance(line, bytes)
                           else line)
    except (UnicodeDecodeError, ValueError) as err:
        raise ProtocolError("undecodable frame: %s" % err)
    if not isinstance(frame, dict):
        raise ProtocolError("frame is %s, not an object"
                            % type(frame).__name__)
    return frame


def version_mismatch(frame):
    """``None`` when ``frame`` speaks the current schema version, else
    the reason string for the ``version`` error frame."""
    return mismatch(frame)


def result_frame(request_id, result_dict):
    return {"kind": "result", "id": request_id, "result": result_dict}


def event_frame(request_id, event, **extra):
    frame = {"kind": "event", "id": request_id, "event": event}
    frame.update(extra)
    return frame


def error_frame(request_id, code, message, **extra):
    frame = {"kind": "error", "id": request_id, "code": code,
             "message": message}
    frame.update(extra)
    return frame


def status_frame(request_id, stats):
    return {"kind": "status", "id": request_id, "stats": stats}


def pong_frame(request_id):
    return {"kind": "pong", "id": request_id,
            "schema_version": SCHEMA_VERSION}
