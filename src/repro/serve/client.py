"""A small blocking client for the execution service.

Plain sockets, no asyncio: suitable for scripts, tests and the
``repro submit`` CLI verb.  One request is in flight per connection at
a time (the server multiplexes across connections, not within one).

Usage::

    from repro.serve.client import ServeClient

    with ServeClient(socket_path="/tmp/typedarch.sock") as client:
        result = client.run("lua", "print(1 + 2)", config="typed")
        print(result.output, result.counters.cycles)
"""

import json
import random
import socket
import time

from repro.api import ExecutionRequest, ExecutionResult
from repro.schema import SCHEMA_VERSION, stamp
from repro.serve import protocol
from repro.serve.server import default_socket_path


class ServeError(RuntimeError):
    """Terminal ``error`` frame from the service."""

    def __init__(self, code, message, retry_after=None):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.message = message
        self.retry_after = retry_after


class ServeBusy(ServeError):
    """Queue-full rejection; ``retry_after`` suggests when to retry."""


class ServeShed(ServeBusy):
    """Router-side load shedding: the tier is below shard quorum and
    deterministically rejected this request (lowest priority first)
    instead of letting it time out.  Subclasses :class:`ServeBusy`
    because the client-side contract is the same — back off for
    ``retry_after`` and resubmit — but the distinct ``shed`` code lets
    harnesses account for shed traffic separately from backpressure."""


class ServeClient:
    """Blocking NDJSON client; context-manager friendly."""

    def __init__(self, socket_path=None, host=None, port=None,
                 timeout=300.0):
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = None
        self._file = None
        self._ids = 0

    # -- connection --------------------------------------------------------

    def connect(self):
        if self._sock is not None:
            return self
        if self.host is not None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        else:
            path = self.socket_path or default_socket_path()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(path)
        self._sock = sock
        self._file = sock.makefile("rb")
        return self

    def close(self):
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc):
        self.close()

    # -- frame plumbing ----------------------------------------------------

    def _next_id(self):
        self._ids += 1
        return self._ids

    def _send(self, frame):
        self.connect()
        stamp(frame)
        self._sock.sendall(json.dumps(frame).encode("utf-8") + b"\n")

    def _recv(self):
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode(line)

    def _transact(self, frame, on_event=None):
        """Send one frame; collect events until the terminal frame."""
        request_id = frame.setdefault("id", self._next_id())
        self._send(frame)
        while True:
            reply = self._recv()
            if reply.get("id") != request_id:
                continue  # stale frame from an aborted exchange
            kind = reply.get("kind")
            if kind == "event":
                if on_event is not None:
                    on_event(reply)
                continue
            if kind == "error":
                code = reply.get("code")
                if code == protocol.ERR_BUSY:
                    cls = ServeBusy
                elif code == protocol.ERR_SHED:
                    cls = ServeShed
                else:
                    cls = ServeError
                raise cls(code, reply.get("message"),
                          retry_after=reply.get("retry_after"))
            return reply

    # -- public API --------------------------------------------------------

    def ping(self):
        reply = self._transact({"kind": "ping"})
        return reply.get("schema_version") == SCHEMA_VERSION

    def status(self):
        return self._transact({"kind": "status"})["stats"]

    def drain(self):
        """Ask the server to drain and exit (the polite SIGTERM)."""
        return self._transact({"kind": "drain"})["stats"]

    def submit(self, request, on_event=None, retries=0, backoff=0.25,
               max_backoff=10.0, rng=None):
        """Submit an :class:`ExecutionRequest` (or its dict form);
        blocks until the terminal frame and returns the
        :class:`ExecutionResult`.  ``on_event`` receives each
        streaming event frame.

        ``retries`` bounds how many *additional* attempts are made
        after a ``busy``/``shed`` rejection.  Each retry sleeps for
        the server's ``retry_after`` hint when one was sent (clamped
        to ``max_backoff``); otherwise it uses **decorrelated
        jitter** — ``uniform(backoff, 3 * previous_delay)``, clamped
        to ``max_backoff`` — so a thousand clients bouncing off one
        saturated shard spread their retries instead of marching back
        in deterministic ``backoff * 2**attempt`` lockstep.  ``rng``
        injects the randomness source (tests); it defaults to the
        module-level :mod:`random` generator.  Only ``busy``-family
        rejections are retried; every other error stays terminal.
        """
        payload = request.as_dict() \
            if isinstance(request, ExecutionRequest) else dict(request)
        draw = (rng or random).uniform
        attempt = 0
        previous = backoff
        while True:
            try:
                reply = self._transact(
                    {"kind": "submit", "request": payload},
                    on_event=on_event)
            except ServeBusy as err:
                if attempt >= retries:
                    raise
                if err.retry_after is not None:
                    delay = float(err.retry_after)
                else:
                    delay = draw(backoff, max(backoff, previous * 3.0))
                delay = min(max(delay, 0.0), max_backoff)
                previous = max(delay, backoff)
                time.sleep(delay)
                attempt += 1
                continue
            return ExecutionResult.from_dict(reply["result"])

    def run(self, engine, source, *, config="baseline", scale=None,
            deadline=None, priority=None, on_event=None, retries=0,
            **fields):
        """Convenience mirror of :func:`repro.api.run` over the wire."""
        from repro.api import DEFAULT_PRIORITY
        from repro.bench.workloads import WORKLOADS
        priority = DEFAULT_PRIORITY if priority is None else priority
        if source in WORKLOADS:
            request = ExecutionRequest(
                op="bench", engine=engine, benchmark=source,
                config=config, scale=scale, deadline=deadline,
                priority=priority, **fields)
        else:
            request = ExecutionRequest(
                op="run", engine=engine, source=source, config=config,
                deadline=deadline, priority=priority, **fields)
        return self.submit(request, on_event=on_event, retries=retries)
