"""The persistent execution service: an asyncio daemon around the
warm worker pool.

Design (see docs/API.md for the wire protocol):

* **One code path** — every request is a
  :class:`repro.api.ExecutionRequest`; workers run
  :func:`repro.api.execute_payload`, exactly what an in-process call
  runs, so served counters are byte-identical to local ones.
* **Cache first** — ``bench`` requests are probed against the
  persistent result cache *in the parent*, by the same
  :func:`repro.api.cached_bench` an in-process call uses; a hit is
  answered without touching (or even building) the worker pool.
  Results computed by workers are published back to the cache by the
  parent alone (single-writer, like :mod:`repro.bench.parallel`).
* **Dedup + coalescing** — requests are keyed by
  :meth:`~repro.api.ExecutionRequest.key` (the work, not the
  scheduling metadata); an identical queued/running request is joined
  rather than re-executed, and every subscriber gets the one result
  (flagged ``coalesced`` for the joiners).
* **Backpressure** — a bounded priority queue; submits beyond
  ``queue_depth`` are rejected with a ``busy`` error frame carrying a
  ``retry_after`` estimate (the NDJSON analogue of HTTP 429).
* **Deadlines** — per-request wall-clock budgets; a request that
  expires in the queue is rejected, one that expires mid-run has its
  worker pool killed and rebuilt (the hung-worker machinery of
  :mod:`repro.bench.parallel`).
* **Graceful drain** — SIGTERM (or a ``drain`` frame) stops admission,
  finishes queued and in-flight work, flushes every reply, then exits.
* **One front end** — :class:`SocketFrontEnd` serves this service and
  the ``repro route`` router alike; each backend handles only submits.
"""

import asyncio
import contextlib
import functools
import logging
import os
import signal
import socket
import tempfile
import threading
import time

from repro.api import ExecutionRequest, cached_bench
from repro.schema import SCHEMA_VERSION, SchemaError
from repro.serve import protocol
from repro.serve.pool import WarmPool

_LOG = logging.getLogger("repro.serve")

#: Environment variable overriding the default unix-socket path.
SOCKET_ENV = "REPRO_SERVE_SOCKET"

#: Fallback estimate of one job's duration before any has finished,
#: used for ``retry_after`` hints.
_DEFAULT_JOB_SECONDS = 2.0


def default_socket_path():
    """``$REPRO_SERVE_SOCKET`` when set, else a per-user path under
    the system temp directory."""
    env = os.environ.get(SOCKET_ENV)
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(),
                        "typedarch-serve-%d.sock" % uid)


def free_socket_path(prefix="typedarch-serve"):
    """A collision-free unix-socket path, picked *atomically*.

    The per-user :func:`default_socket_path` is a fixed name, so two
    daemons started by the same user (parallel CI jobs on one runner)
    would race to bind it.  Here the enclosing directory is created by
    ``mkdtemp`` — an atomic, kernel-arbitrated operation — so every
    caller gets a distinct path with no check-then-bind window.  TCP
    mode gets the same property from ``--port 0`` (the kernel assigns
    a free port at bind time).  ``repro serve --socket auto``,
    ``repro route`` and the load-generation harness all use this.
    """
    directory = tempfile.mkdtemp(prefix=prefix + "-")
    return os.path.join(directory, "serve.sock")


async def start_front_end(handler, socket_path=None, host=None,
                          port=None):
    """Start a front end's listener; returns ``(server, bound_port)``.

    A unix socket listens under a short temporary name in the same
    directory (paths are limited to ~107 bytes) before it is renamed to
    ``socket_path``, so whoever sees the path can connect at once."""
    if socket_path is None:
        server = await asyncio.start_server(
            handler, host=host or "127.0.0.1", port=port or 0,
            limit=protocol.MAX_FRAME_BYTES)
        return server, server.sockets[0].getsockname()[1]
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    temp = os.path.join(os.path.dirname(socket_path),
                        ".%d-%x" % (os.getpid(), id(sock)))
    try:
        sock.bind(temp)
    except OSError:
        sock.close()
        raise
    server = await asyncio.start_unix_server(
        handler, sock=sock, limit=protocol.MAX_FRAME_BYTES)
    os.replace(temp, socket_path)
    return server, None


class _Job:
    """One deduplicated unit of queued/running work."""

    __slots__ = ("request", "payload", "key", "priority", "deadline_at",
                 "subscribers", "completed", "final", "started",
                 "enqueued_at")

    def __init__(self, request, key, deadline_at):
        self.request = request
        self.payload = request.as_dict()
        self.key = key
        self.priority = int(request.priority)
        self.deadline_at = deadline_at
        self.subscribers = []   # asyncio.Queue per waiting connection
        self.completed = False
        self.final = None       # ("result", dict) | ("error", code, msg)
        self.started = False
        self.enqueued_at = time.monotonic()


class ExecutionService:
    """The daemon's engine room; owns the queue, the pool and the
    bookkeeping.  All methods must run on the service's event loop
    (single-threaded by construction)."""

    def __init__(self, *, workers=2, queue_depth=32,
                 default_deadline=None, retries=1,
                 warm_engines=("lua", "js"), warm_configs=None,
                 inline_fn=None):
        self.workers = max(0, int(workers))
        self.queue_depth = queue_depth
        self.default_deadline = default_deadline
        self.retries = retries
        self.pool = WarmPool(workers=self.workers,
                             warm_engines=warm_engines,
                             warm_configs=warm_configs,
                             inline_fn=inline_fn)
        self._queue = None          # created on the loop in start()
        self._loop = None
        self._seq = 0
        self._queued = 0
        self._inflight = 0
        self._replies_pending = 0
        self._jobs_by_key = {}
        self._dispatchers = []
        self._sweep_threads = 0
        self._draining = False
        self._stopped = None
        self._durations = []        # recent job seconds, for retry_after
        self.stats_counters = {
            "submitted": 0, "completed": 0, "failed": 0,
            "cache_hits": 0, "coalesced": 0, "deduped": 0,
            "busy_rejected": 0, "deadline_rejected": 0,
            "drain_rejected": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self, loop):
        self._loop = loop
        self._queue = asyncio.PriorityQueue()
        self._stopped = asyncio.Event()
        for _ in range(max(1, self.workers)):
            self._dispatchers.append(
                loop.create_task(self._dispatch_loop()))

    async def stop(self):
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._dispatchers.clear()
        self.pool.shutdown()

    def begin_drain(self):
        """Stop admitting work; once everything in flight has been
        answered, :attr:`stopped` fires and the server exits."""
        if self._draining:
            return
        self._draining = True
        _LOG.info("drain requested: %d queued, %d in flight",
                  self._queued, self._inflight)
        self._maybe_finish_drain()

    @property
    def draining(self):
        return self._draining

    @property
    def stopped(self):
        return self._stopped

    def _maybe_finish_drain(self):
        if (self._draining and not self._jobs_by_key
                and self._inflight == 0 and self._queued == 0
                and self._sweep_threads == 0
                and self._replies_pending == 0
                and self._stopped is not None):
            self._stopped.set()

    # -- submission --------------------------------------------------------

    def _deadline_at(self, request):
        deadline = request.deadline or self.default_deadline
        return time.monotonic() + deadline if deadline else None

    def _avg_seconds(self):
        if not self._durations:
            return _DEFAULT_JOB_SECONDS
        return sum(self._durations) / len(self._durations)

    def retry_after(self):
        """Seconds a rejected client should wait before retrying."""
        backlog = self._queued + self._inflight
        return round(max(0.1, backlog * self._avg_seconds()
                         / max(1, self.workers or 1)), 3)

    def submit(self, payload):
        """Admit one request payload.

        Returns ``(job, error_frame_args, immediate_result)`` — exactly
        one of the three is meaningful: an admitted (or joined) job, a
        rejection ``(code, message, extra)`` tuple, or an
        :class:`ExecutionResult` served from the cache.
        """
        if self._draining:
            self.stats_counters["drain_rejected"] += 1
            return None, (protocol.ERR_DRAINING,
                          "service is draining; resubmit elsewhere",
                          {}), None
        try:
            request = ExecutionRequest.from_dict(payload)
        except SchemaError as err:
            return None, (protocol.ERR_INVALID, str(err), {}), None
        self.stats_counters["submitted"] += 1

        cached = cached_bench(request)
        if cached is not None:
            self.stats_counters["cache_hits"] += 1
            return None, None, cached

        key = request.key()
        job = self._jobs_by_key.get(key)
        if job is not None and not job.completed:
            self.stats_counters["deduped"] += 1
            return job, None, None

        if self._queued >= self.queue_depth:
            self.stats_counters["busy_rejected"] += 1
            return None, (protocol.ERR_BUSY,
                          "queue full (%d deep); retry later"
                          % self.queue_depth,
                          {"retry_after": self.retry_after()}), None

        job = _Job(request, key, self._deadline_at(request))
        self._jobs_by_key[key] = job
        self._seq += 1
        self._queued += 1
        self._queue.put_nowait((job.priority, self._seq, job))
        return job, None, None

    async def handle_submit(self, request_id, payload, send):
        """Answer one submit frame: a rejection or cache hit at once,
        else ``queued``, the job's events and its terminal frame.
        ``send`` writes one frame to the submitting connection."""
        job, rejection, cached = self.submit(payload)
        if rejection is not None:
            code, message, extra = rejection
            await send(protocol.error_frame(
                request_id, code, message, **extra))
            return
        if cached is not None:
            await send(protocol.result_frame(request_id, cached.as_dict()))
            return

        coalesced = job.started or bool(job.subscribers)
        if coalesced:
            self.stats_counters["coalesced"] += 1
        queue = asyncio.Queue()
        job.subscribers.append(queue)
        await send(protocol.event_frame(
            request_id, "queued", key=job.key, coalesced=coalesced,
            priority=job.priority))
        if job.completed:
            # Completed between submit() and subscription — impossible
            # on one loop iteration, but cheap to guard.
            self._replies_pending += 1
            queue.put_nowait(job.final)
        replied = False
        try:
            while True:
                item = await queue.get()
                if item[0] == "event":
                    _kind, event, extra = item
                    await send(protocol.event_frame(
                        request_id, event, **extra))
                    continue
                if item[0] == "result":
                    result = dict(item[1])
                    if coalesced:
                        result["coalesced"] = True
                    if await send(protocol.result_frame(request_id,
                                                        result)):
                        self._failed_on_send(job)
                else:
                    _kind, code, message = item
                    await send(protocol.error_frame(
                        request_id, code, message))
                replied = True
                self.reply_done()
                return
        finally:
            if not job.completed:
                with contextlib.suppress(ValueError):
                    job.subscribers.remove(queue)
            elif not replied and queue in job.subscribers:
                # We were counted at completion but never delivered.
                job.subscribers.remove(queue)
                self.reply_done()

    # -- execution ---------------------------------------------------------

    async def _dispatch_loop(self):
        while True:
            _priority, _seq, job = await self._queue.get()
            self._queued -= 1
            self._inflight += 1
            try:
                await self._run_job(job)
            except Exception as err:  # noqa: BLE001 — never kill the loop
                _LOG.exception("dispatcher error for %s", job.key)
                self._finish(job, ("error", protocol.ERR_INTERNAL,
                                   "%s: %s" % (type(err).__name__, err)))
            finally:
                self._inflight -= 1
                self._maybe_finish_drain()

    async def _run_job(self, job):
        if job.deadline_at is not None:
            remaining = job.deadline_at - time.monotonic()
            if remaining <= 0:
                self.stats_counters["deadline_rejected"] += 1
                self._finish(job, ("error", protocol.ERR_DEADLINE,
                                   "deadline expired after %.3fs in queue"
                                   % (time.monotonic() - job.enqueued_at)))
                return
        job.started = True
        self._broadcast_event(job, "started",
                              queue_seconds=round(
                                  time.monotonic() - job.enqueued_at, 4))
        started = time.monotonic()
        if job.request.op == "sweep":
            final = await self._run_sweep(job)
        else:
            final = await self._run_pooled(job)
        if final[0] == "result":
            self._durations.append(time.monotonic() - started)
            del self._durations[:-32]
        self._finish(job, final)

    def _remaining(self, job):
        if job.deadline_at is None:
            return None
        return max(0.001, job.deadline_at - time.monotonic())

    async def _run_pooled(self, job):
        """Run one ``run``/``bench`` request on the warm pool, with
        deadline enforcement and hung-pool rebuild."""
        payload = dict(job.payload)
        publish = False
        if job.request.op == "bench" and job.request.use_cache \
                and job.request.attribute:
            # Workers never write the caches; the parent is the single
            # writer (mirrors repro.bench.parallel).
            payload["use_cache"] = False
            publish = True
        attempts = 0
        while True:
            attempts += 1
            future = self.pool.submit(payload)
            try:
                result_payload = await asyncio.wait_for(
                    asyncio.wrap_future(future), self._remaining(job))
            except asyncio.TimeoutError:
                self.stats_counters["deadline_rejected"] += 1
                self.pool.kill_rebuild()
                return ("error", protocol.ERR_DEADLINE,
                        "deadline expired mid-run; worker killed")
            except Exception as err:  # noqa: BLE001 — worker outcome
                if "Broken" in type(err).__name__ \
                        and attempts <= self.retries + 1:
                    _LOG.warning("worker pool died (%s); rebuilding "
                                 "(attempt %d)", type(err).__name__,
                                 attempts)
                    self.pool.kill_rebuild()
                    continue
                return ("error", protocol.ERR_EXECUTION,
                        "%s: %s" % (type(err).__name__, err))
            if publish:
                self._publish(result_payload)
            return ("result", result_payload)

    def _publish(self, result_payload):
        """Parent-side cache publication of a worker-computed bench
        cell."""
        from repro.bench import cache as result_cache
        from repro.bench.runner import RunRecord, publish
        from repro.uarch.counters import Counters
        try:
            record = RunRecord(
                engine=result_payload["engine"],
                benchmark=result_payload["benchmark"],
                config=result_payload["config"],
                scale=result_payload["scale"],
                output=result_payload["output"],
                counters=Counters.from_dict(result_payload["counters"]),
                wall_seconds=result_payload.get("wall_seconds", 0.0),
                simulated_mips=result_payload.get("simulated_mips", 0.0))
        except (KeyError, TypeError, ValueError):
            return
        publish(record, disk=result_cache.active_cache())

    async def _run_sweep(self, job):
        """Sweeps run on a parent-side thread (they own their own
        process pool via ``run_matrix_parallel``) so per-cell progress
        can stream back as events."""
        from repro import api
        loop = asyncio.get_running_loop()

        def on_progress(cell):
            # call_soon_threadsafe takes positional args only; bind
            # the event fields with a partial.
            loop.call_soon_threadsafe(functools.partial(
                self._broadcast_event, job, "progress",
                cell="%s/%s/%s" % cell.key, cached=cell.cached,
                completed=cell.completed, total=cell.total))

        def work():
            return api.execute(ExecutionRequest.from_dict(job.payload),
                               progress=on_progress).as_dict()

        self._sweep_threads += 1
        try:
            # One thread per sweep; sweeps are rare and own their
            # parallelism internally.
            thread_result = {}
            done = asyncio.Event()

            def runner():
                try:
                    thread_result["result"] = work()
                except Exception as err:  # noqa: BLE001
                    thread_result["error"] = err
                loop.call_soon_threadsafe(done.set)

            threading.Thread(target=runner, name="repro-serve-sweep",
                             daemon=True).start()
            try:
                await asyncio.wait_for(done.wait(), self._remaining(job))
            except asyncio.TimeoutError:
                self.stats_counters["deadline_rejected"] += 1
                return ("error", protocol.ERR_DEADLINE,
                        "deadline expired mid-sweep")
            if "error" in thread_result:
                err = thread_result["error"]
                return ("error", protocol.ERR_EXECUTION,
                        "%s: %s" % (type(err).__name__, err))
            return ("result", thread_result["result"])
        finally:
            self._sweep_threads -= 1
            self._maybe_finish_drain()

    # -- completion fan-out ------------------------------------------------

    def _broadcast_event(self, job, event, **extra):
        for queue in job.subscribers:
            queue.put_nowait(("event", event, extra))

    def _finish(self, job, final):
        job.completed = True
        job.final = final
        if final[0] == "result":
            self.stats_counters["completed"] += 1
        else:
            self.stats_counters["failed"] += 1
        self._jobs_by_key.pop(job.key, None)
        for queue in job.subscribers:
            self._replies_pending += 1
            queue.put_nowait(final)
        self._maybe_finish_drain()

    def _failed_on_send(self, job):
        """The front end sent ``job``'s result as an error (it was over
        the frame cap): count the job ``failed``, not ``completed``,
        once however many subscribers it has."""
        if job.final[0] == "result":
            job.final = ("error", protocol.ERR_EXECUTION,
                         "reply too large")
            self.stats_counters["completed"] -= 1
            self.stats_counters["failed"] += 1

    def reply_done(self):
        """A connection finished (or abandoned) delivering a final
        frame; drain can complete once all replies are out."""
        self._replies_pending -= 1
        self._maybe_finish_drain()

    # -- introspection -----------------------------------------------------

    def stats(self):
        return {
            "schema_version": SCHEMA_VERSION,
            # Role and pid let the router's health loop and the shard
            # supervisor verify *what* answered a probe: a respawned
            # shard shows a fresh pid, a chaos decoy shows nothing.
            "role": "shard",
            "pid": os.getpid(),
            "draining": self._draining,
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "queued": self._queued,
            "inflight": self._inflight,
            "jobs": dict(self.stats_counters),
            "pool": self.pool.stats(),
            "cache": cache_tier_stats(),
            "avg_seconds": round(self._avg_seconds(), 4),
            "retry_after": self.retry_after(),
        }


def cache_tier_stats():
    """Describe this process's view of the shared result-cache tier.

    Every shard of a routed deployment must point at the same
    content-addressed cache root (same ``root`` and ``tree`` here) for
    a hit on any shard to be a hit everywhere; the router's aggregated
    status uses these fields to verify the tier is actually coherent.
    """
    from repro.bench import cache as result_cache
    active = result_cache.active_cache()
    if active is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "root": str(active.root),
        "tree": active.tree_hash,
        "hits": active.hits,
        "misses": active.misses,
        "stores": active.stores,
    }


class SocketFrontEnd:
    """The socket front end of ``repro serve`` and ``repro route``.

    Accepts NDJSON connections and answers ``ping``, ``status``,
    ``drain`` and malformed frames itself; a ``submit`` goes to the
    backend (an :class:`ExecutionService` or a
    :class:`repro.serve.router.Router`).  A backend provides
    ``start(loop)``, ``stop()``, ``stopped``, ``begin_drain()``,
    ``stats()`` and ``handle_submit(request_id, payload, send)``, where
    ``send`` is a coroutine function that writes one frame back to the
    submitting connection."""

    def __init__(self, backend, *, socket_path=None, host=None,
                 port=None):
        self.backend = backend
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.bound_port = None
        self._server = None
        self._connections = set()

    async def start(self):
        self.backend.start(asyncio.get_running_loop())
        self._server, self.bound_port = await start_front_end(
            self._handle_connection, self.socket_path, self.host,
            self.port)
        return self

    def install_signal_handlers(self):
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, self.backend.begin_drain)

    async def serve_until_stopped(self):
        """Serve until a drain completes, then shut down cleanly."""
        await self.backend.stopped.wait()
        await self.close()

    async def close(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        for task in list(self._connections):
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._connections.clear()
        await self.backend.stop()
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)

    # -- per-connection protocol -------------------------------------------

    async def _send(self, writer, frame):
        """Write one frame; returns ``True`` when a terminal reply over
        the frame cap went out as an ``execution`` error instead."""
        replaced = False
        try:
            blob = protocol.encode(frame)
        except protocol.ProtocolError as err:
            if frame["kind"] not in ("result", "error"):
                raise
            # A terminal reply over the frame cap still answers its
            # submit, and the connection stays usable.
            blob = protocol.encode(protocol.error_frame(
                frame["id"], protocol.ERR_EXECUTION,
                "reply too large: %s" % err))
            replaced = True
        writer.write(blob)
        await writer.drain()
        return replaced

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversize or torn frame: drop the connection
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = protocol.decode(line)
                except protocol.ProtocolError as err:
                    await self._send(writer, protocol.error_frame(
                        None, protocol.ERR_MALFORMED, str(err)))
                    continue
                await self._handle_frame(frame, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_frame(self, frame, writer):
        request_id = frame.get("id")
        reason = protocol.version_mismatch(frame)
        if reason is not None:
            await self._send(writer, protocol.error_frame(
                request_id, protocol.ERR_VERSION, reason))
            return
        kind = frame.get("kind")
        if kind == "ping":
            await self._send(writer, protocol.pong_frame(request_id))
        elif kind == "status":
            await self._send(writer, protocol.status_frame(
                request_id, self.backend.stats()))
        elif kind == "drain":
            self.backend.begin_drain()
            await self._send(writer, protocol.status_frame(
                request_id, self.backend.stats()))
        elif kind != "submit":
            await self._send(writer, protocol.error_frame(
                request_id, protocol.ERR_MALFORMED,
                "unknown frame kind %r" % (kind,)))
        elif not isinstance(frame.get("request"), dict):
            await self._send(writer, protocol.error_frame(
                request_id, protocol.ERR_MALFORMED,
                "submit frame has no request object"))
        else:
            await self.backend.handle_submit(
                request_id, frame["request"],
                functools.partial(self._send, writer))


async def serve(service=None, *, socket_path=None, host=None, port=None,
                signals=True, ready=None, **service_kwargs):
    """Run the daemon until drained (the ``repro serve`` body).

    ``ready`` is an optional callback invoked with the started
    :class:`SocketFrontEnd` (tests and the smoke harness use it to
    learn the bound address)."""
    if host is None and socket_path is None:
        socket_path = default_socket_path()
    service = service or ExecutionService(**service_kwargs)
    server = SocketFrontEnd(service, socket_path=socket_path, host=host,
                            port=port)
    if signals:  # before the socket path appears: SIGTERM must drain
        server.install_signal_handlers()
    await server.start()
    if ready is not None:
        ready(server)
    _LOG.info("serving on %s",
              server.socket_path or "%s:%s" % (server.host,
                                               server.bound_port))
    await server.serve_until_stopped()
    return service
