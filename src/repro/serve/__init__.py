"""The persistent execution service: warm workers behind a socket,
and the scale-out tier in front of it.

``repro serve`` keeps a pool of warm forked workers (interpreters
pre-assembled at fork time) behind a localhost unix/TCP socket and
serves :class:`repro.api.ExecutionRequest` payloads over a
newline-delimited JSON protocol — ``run`` (arbitrary Lua/JS source),
``bench`` (one cached benchmark cell) and ``sweep`` (the full matrix,
with streamed per-cell progress).  Requests carry priorities and
wall-clock deadlines; identical in-flight requests are deduplicated
and coalesced; ``bench`` hits in the persistent result cache are
answered without ever building the pool; a full queue pushes back with
a ``busy`` + ``retry_after`` rejection; SIGTERM drains in-flight work
before exit.

* :mod:`repro.serve.server` — the asyncio daemon
  (:class:`ExecutionService`) and the socket front end both roles
  share (:class:`SocketFrontEnd`),
* :mod:`repro.serve.client` — a small blocking client
  (:class:`ServeClient`), used by ``repro submit``,
* :mod:`repro.serve.protocol` — the wire format,
* :mod:`repro.serve.pool` — the lazy warm worker pool,
* :mod:`repro.serve.router` — the ``repro route`` consistent-hash
  front router over N shards (:class:`Router`, :class:`ShardManager`),
* :mod:`repro.serve.hashring` — the deterministic placement ring,
* :mod:`repro.serve.loadgen` — the ``repro loadgen`` traffic harness
  behind ``BENCH_serve.json`` and the CI SLO gate,
* :mod:`repro.serve.supervisor` — shard supervision: dead-shard
  detection, backed-off respawn, crash-loop circuit breaker
  (:class:`ShardSupervisor`),
* :mod:`repro.serve.chaos` — the ``repro chaos`` seeded fault-injection
  harness behind ``BENCH_chaos.json`` and the CI chaos SLO gate.

See docs/API.md for the protocol specification, docs/SERVING.md for
the sharded tier and docs/RELIABILITY.md for the chaos harness.
"""

from repro.serve.client import ServeBusy, ServeClient, ServeError, ServeShed
from repro.serve.hashring import HashRing
from repro.serve.server import (
    ExecutionService,
    SocketFrontEnd,
    default_socket_path,
    free_socket_path,
    serve,
)

__all__ = ["ExecutionService", "SocketFrontEnd", "ServeClient",
           "ServeError", "ServeBusy", "ServeShed", "HashRing", "Router",
           "ShardManager", "ShardSpec",
           "ShardSupervisor", "supervised", "ChaosSpec", "run_chaos",
           "default_socket_path", "free_socket_path", "serve", "route"]


def __getattr__(name):
    # Router, supervision and chaos machinery are imported lazily: the
    # daemon itself never needs them, and keeping them out of the hot
    # import path keeps forked shard workers lean.
    if name in ("Router", "ShardManager", "ShardSpec", "route"):
        from repro.serve import router as _router
        return getattr(_router, name)
    if name in ("ShardSupervisor", "supervised"):
        from repro.serve import supervisor as _supervisor
        return getattr(_supervisor, name)
    if name in ("ChaosSpec", "run_chaos"):
        from repro.serve import chaos as _chaos
        return getattr(_chaos, name)
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))
