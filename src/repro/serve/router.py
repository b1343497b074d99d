"""``repro route`` — the consistent-hash front router of the serve tier.

One router process fronts N ``repro serve`` shards behind the *same*
socket front end as a single daemon
(:class:`~repro.serve.server.SocketFrontEnd`), so every existing client
(``repro submit``, :class:`~repro.serve.client.ServeClient`, the load
generator) works against either unchanged.  What the router adds:

* **Placement** — each submit is consistent-hashed by its canonical
  work key (:func:`repro.api.request_key`) onto a shard
  (:mod:`repro.serve.hashring`), so repeats of a popular request
  always meet the same shard's dedup/coalescing machinery and warm
  state, and a shard set change remaps only ~1/N of the key space.
* **Health + rebalancing** — a background loop pings every shard;
  consecutive failures evict it from the ring (its keys flow to the
  ring successors), recovery re-adds it.  A connection error during a
  forward fails over to the next shard in ring order immediately,
  without waiting for the health loop.
* **In-flight recovery** — a :class:`RequestJournal` tracks every
  forwarded request by its canonical work key.  When a shard dies (or
  stalls past ``attempt_timeout``) mid-request, the router re-dispatches
  to the ring-failover shard and the client sees a ``retried`` event
  instead of an error; the work key is already the dedup/coalescing
  identity, so re-dispatch is idempotent.  The journal proves the
  terminal-frame contract: one terminal frame per submit, ever — its
  ``duplicated`` counter must stay zero (the chaos gate asserts it).
* **Quorum + load shedding** — when fewer than ``quorum`` shards are
  healthy the router sheds deterministically, lowest priority first
  (numerically largest ``priority``), with a typed ``shed`` error
  carrying ``retry_after`` — bounded, honest rejection instead of
  letting everything time out.  With zero healthy shards *all* new
  work is shed (still typed, still fast).
* **Backpressure** — per-shard ``busy`` rejections are retried with
  bounded backoff honouring the server's ``retry_after`` hint (the
  :meth:`ServeClient.submit` retry machinery), then failed over once;
  only when every eligible shard is saturated does the client see the
  ``busy`` frame.
* **Shared cache tier** — all shards and the router point at one
  content-addressed result-cache root; the router probes it before
  forwarding, so a ``bench`` cell computed by *any* shard is a router
  cache hit for every later client.  The aggregated ``status`` frame
  reports whether the tier is coherent (every member on the same root
  and source tree).
* **Graceful drain** — a ``drain`` frame (or SIGTERM) stops admission,
  lets every forwarded in-flight request finish and flush its reply
  (zero dropped — the SLO gate asserts this), then exits.

See docs/SERVING.md for topology and operations.
"""

import asyncio
import collections
import contextlib
import logging
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro import api
from repro.schema import SCHEMA_VERSION, SchemaError
from repro.serve import protocol
from repro.serve.client import ServeBusy, ServeClient, ServeError
from repro.serve.hashring import DEFAULT_REPLICAS, HashRing
from repro.serve.server import (
    SocketFrontEnd,
    cache_tier_stats,
    free_socket_path,
)

_LOG = logging.getLogger("repro.serve.router")

#: Seconds between health probes of each shard.
DEFAULT_HEALTH_INTERVAL = 2.0

#: Consecutive failed probes before a shard is evicted from the ring.
DEFAULT_FAIL_THRESHOLD = 2

#: Per-shard busy retries (on top of the first attempt) before the
#: router fails the request over to the next shard in ring order.
DEFAULT_BUSY_RETRIES = 2


class RequestJournal:
    """In-flight forward journal keyed by the canonical work key.

    Runs entirely on the router's event loop (no locking).  An entry
    is opened per submit, records every shard attempt and re-dispatch,
    and is closed exactly once with the terminal outcome; closing an
    already-closed entry increments ``duplicated`` — the counter the
    chaos SLO pins to zero, because a nonzero value would mean one
    submit produced two terminal frames.
    """

    def __init__(self, capacity=256):
        self.active = {}            # key -> open entry (refcounted)
        self.recent = collections.deque(maxlen=capacity)
        self.counters = {
            "opened": 0, "completed": 0, "failed": 0,
            "redispatched": 0, "duplicated": 0,
        }

    def open(self, key, priority):
        entry = self.active.get(key)
        if entry is None:
            entry = {"key": key, "priority": priority, "inflight": 0,
                     "attempts": [], "retries": 0}
            self.active[key] = entry
        entry["inflight"] += 1
        self.counters["opened"] += 1
        return entry

    def attempt(self, entry, shard_id):
        entry["attempts"].append(shard_id)

    def redispatch(self, entry, reason):
        entry["retries"] += 1
        self.counters["redispatched"] += 1

    def close(self, entry, ok):
        if entry["inflight"] <= 0:
            self.counters["duplicated"] += 1
            return
        entry["inflight"] -= 1
        self.counters["completed" if ok else "failed"] += 1
        if entry["inflight"] == 0:
            self.active.pop(entry["key"], None)
            if entry["retries"]:
                self.recent.append({"key": entry["key"],
                                    "retries": entry["retries"],
                                    "attempts": list(entry["attempts"])})

    def stats(self):
        return {
            "counters": dict(self.counters),
            "active": len(self.active),
            "recent_retried": list(self.recent)[-8:],
        }


class ShardSpec:
    """Address of one shard: a unix socket path or ``host:port``."""

    __slots__ = ("shard_id", "socket_path", "host", "port")

    def __init__(self, socket_path=None, host=None, port=None):
        if socket_path is None and (host is None or port is None):
            raise ValueError("a shard needs a socket path or host:port")
        self.socket_path = socket_path
        self.host = host
        self.port = int(port) if port is not None else None
        self.shard_id = "unix:%s" % socket_path if socket_path \
            else "%s:%d" % (host, self.port)

    @classmethod
    def parse(cls, text):
        """``unix:/path/to.sock``, a bare ``/path/to.sock``, or
        ``host:port``."""
        if text.startswith("unix:"):
            return cls(socket_path=text[len("unix:"):])
        if text.startswith(("/", ".")):
            return cls(socket_path=text)
        host, sep, port = text.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError("unparseable shard address %r (expected "
                             "unix:/path, /path or host:port)" % text)
        return cls(host=host or "127.0.0.1", port=int(port))

    def client(self, timeout=600.0):
        return ServeClient(socket_path=self.socket_path, host=self.host,
                           port=self.port, timeout=timeout)

    def __repr__(self):
        return "ShardSpec(%s)" % self.shard_id


class _ShardState:
    """Router-side bookkeeping for one shard."""

    __slots__ = ("spec", "healthy", "fails", "stats", "last_probe")

    def __init__(self, spec):
        self.spec = spec
        self.healthy = True
        self.fails = 0
        self.stats = None       # last status snapshot from the shard
        self.last_probe = None


class Router:
    """Placement, health and forwarding over a set of shards.

    Forwards run on a dedicated thread pool (the blocking
    :class:`ServeClient` with its busy-retry machinery), bridged back
    to the event loop; everything else is single-threaded asyncio.
    """

    def __init__(self, shards, *, replicas=DEFAULT_REPLICAS,
                 health_interval=DEFAULT_HEALTH_INTERVAL,
                 fail_threshold=DEFAULT_FAIL_THRESHOLD,
                 busy_retries=DEFAULT_BUSY_RETRIES, backoff=0.25,
                 forward_timeout=600.0,
                 attempt_timeout=None, probe_timeout=None,
                 quorum=None, shed_priority=None,
                 max_forward_threads=32):
        specs = [shard if isinstance(shard, ShardSpec)
                 else ShardSpec.parse(shard) for shard in shards]
        if not specs:
            raise ValueError("a router needs at least one shard")
        self.shards = {spec.shard_id: _ShardState(spec) for spec in specs}
        self.ring = HashRing(self.shards, replicas=replicas)
        self.health_interval = health_interval
        self.fail_threshold = fail_threshold
        self.busy_retries = busy_retries
        self.backoff = backoff
        self.forward_timeout = forward_timeout
        #: Per-shard-attempt socket timeout: a stalled (SIGSTOPped or
        #: black-holed) shard costs at most this long before the
        #: router marks it down and re-dispatches.  ``None`` falls
        #: back to ``forward_timeout`` (the pre-recovery behaviour).
        self.attempt_timeout = attempt_timeout
        self.probe_timeout = probe_timeout
        #: Below this many healthy shards, new work is shed lowest
        #: priority first.  Default: a majority of the configured set.
        self.quorum = max(1, len(specs) // 2 + 1) if quorum is None \
            else max(1, int(quorum))
        self.shed_priority = api.DEFAULT_PRIORITY if shed_priority is None \
            else int(shed_priority)
        self.journal = RequestJournal()
        self.supervisor = None      # attached by route()/LocalTier
        self.counters = {
            "submitted": 0, "forwarded": 0, "completed": 0, "failed": 0,
            "router_cache_hits": 0, "failovers": 0, "retried": 0,
            "busy_rejected": 0, "shed": 0, "drain_rejected": 0,
            "shards_evicted": 0, "shards_restored": 0,
        }
        self.inflight = 0
        self.draining = False
        self._stopped = None
        self._health_task = None
        self._last_retry_after = 1.0
        self._executor = ThreadPoolExecutor(
            max_workers=max_forward_threads,
            thread_name_prefix="repro-route-fwd")

    # -- lifecycle ---------------------------------------------------------

    def start(self, loop):
        self._stopped = asyncio.Event()
        self._health_task = loop.create_task(self._health_loop())

    async def stop(self):
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        self._executor.shutdown(wait=False)

    @property
    def stopped(self):
        return self._stopped

    def begin_drain(self):
        """Stop admission; :attr:`stopped` fires once every forwarded
        in-flight request has been answered."""
        if self.draining:
            return
        self.draining = True
        _LOG.info("router drain requested: %d forwards in flight",
                  self.inflight)
        self.maybe_finish_drain()

    def maybe_finish_drain(self):
        if self.draining and self.inflight == 0 \
                and self._stopped is not None:
            self._stopped.set()

    # -- health ------------------------------------------------------------

    async def _health_loop(self):
        loop = asyncio.get_running_loop()
        while True:
            for state in list(self.shards.values()):
                try:
                    stats = await loop.run_in_executor(
                        self._executor, self._probe_shard, state.spec)
                except (ServeError, ConnectionError, OSError) as err:
                    self._note_failure(state, err)
                else:
                    self._note_success(state, stats)
            await asyncio.sleep(self.health_interval)

    def _probe_shard(self, spec):
        timeout = self.probe_timeout if self.probe_timeout is not None \
            else max(5.0, self.health_interval * 5)
        with spec.client(timeout=timeout) as client:
            return client.status()

    def _note_failure(self, state, err):
        state.fails += 1
        state.last_probe = time.monotonic()
        if state.healthy and state.fails >= self.fail_threshold:
            state.healthy = False
            self.ring.remove(state.spec.shard_id)
            self.counters["shards_evicted"] += 1
            _LOG.warning("shard %s evicted after %d failed probes (%s); "
                         "ring now %s", state.spec.shard_id, state.fails,
                         err, self.ring.nodes)

    def _note_success(self, state, stats):
        state.fails = 0
        state.stats = stats
        state.last_probe = time.monotonic()
        retry_after = stats.get("retry_after")
        if retry_after:
            self._last_retry_after = float(retry_after)
        if not state.healthy:
            state.healthy = True
            self.ring.add(state.spec.shard_id)
            self.counters["shards_restored"] += 1
            _LOG.info("shard %s restored; ring now %s",
                      state.spec.shard_id, self.ring.nodes)

    def mark_down(self, shard_id):
        """Immediate eviction on a forwarding connection error (the
        health loop restores the shard when it answers again)."""
        state = self.shards.get(shard_id)
        if state is None or not state.healthy:
            return
        state.healthy = False
        state.fails = self.fail_threshold
        self.ring.remove(shard_id)
        self.counters["shards_evicted"] += 1
        _LOG.warning("shard %s marked down mid-forward; ring now %s",
                     shard_id, self.ring.nodes)

    # -- the shared cache tier ---------------------------------------------

    def cache_tier(self):
        """Coherence summary of the shared cache tier: the router and
        every shard must agree on (root, tree) for a hit anywhere to
        be a hit everywhere."""
        members = {"router": cache_tier_stats()}
        for shard_id, state in self.shards.items():
            if isinstance(state.stats, dict):
                members[shard_id] = state.stats.get("cache",
                                                    {"enabled": False})
        identities = {
            (member.get("root"), member.get("tree"))
            for member in members.values() if member.get("enabled")}
        coherent = len(identities) == 1 and all(
            member.get("enabled") for member in members.values())
        return {"coherent": coherent, "members": members}

    # -- forwarding --------------------------------------------------------

    def pick(self, key, exclude=()):
        """The shard for ``key``: ring owner first, unhealthy and
        already-tried shards skipped."""
        down = {shard_id for shard_id, state in self.shards.items()
                if not state.healthy}
        return self.ring.node_for(key, exclude=set(exclude) | down)

    def healthy_count(self):
        return sum(1 for state in self.shards.values() if state.healthy)

    def _shed_retry_after(self):
        """How long a shed client should wait: long enough for the
        supervisor respawn + health-probe restore cycle to complete."""
        return round(max(self.health_interval * 2.0, 0.5), 3)

    def _maybe_shed(self, priority):
        """Deterministic load shedding below shard quorum.

        Shedding order is by priority, numerically largest (= least
        urgent) first: below quorum, requests with ``priority >
        shed_priority`` are shed; at zero healthy shards everything
        is.  Returns the typed error outcome or ``None`` to admit.
        """
        healthy = self.healthy_count()
        if healthy >= self.quorum:
            return None
        if healthy > 0 and priority <= self.shed_priority:
            return None
        self.counters["shed"] += 1
        self.counters["failed"] += 1
        if healthy == 0:
            message = ("no healthy shard available; shedding all new "
                       "work until the tier recovers")
        else:
            message = ("tier below quorum (%d/%d healthy); shedding "
                       "priority > %d" % (healthy, self.quorum,
                                          self.shed_priority))
        return ("error", protocol.ERR_SHED, message,
                {"retry_after": self._shed_retry_after()})

    async def forward(self, payload, emit_event):
        """Place and forward one submit payload.

        Returns ``("result", result_dict)`` or
        ``("error", code, message, extra)``.  ``emit_event`` receives
        each relayed shard event frame (called on the event loop).
        """
        self.counters["submitted"] += 1
        try:
            request, key = api.request_key(payload)
        except SchemaError as err:
            return ("error", protocol.ERR_INVALID, str(err), {})

        shed = self._maybe_shed(request.priority)
        if shed is not None:
            return shed

        cached = api.cached_bench(request)
        if cached is not None:
            self.counters["router_cache_hits"] += 1
            return ("result", cached.as_dict())

        loop = asyncio.get_running_loop()

        def emit_threadsafe(frame):
            loop.call_soon_threadsafe(emit_event, frame)

        entry = self.journal.open(key, request.priority)
        outcome = None
        try:
            outcome = await self._forward_attempts(
                payload, key, entry, emit_event, emit_threadsafe, loop)
            return outcome
        finally:
            self.journal.close(
                entry, outcome is not None and outcome[0] == "result")

    async def _forward_attempts(self, payload, key, entry, emit_event,
                                emit_threadsafe, loop):
        tried = []
        busy = None
        retry_reason = None
        while True:
            shard_id = self.pick(key, exclude=tried)
            if shard_id is None:
                break
            state = self.shards[shard_id]
            if retry_reason is not None:
                # The previous attempt already reached a shard; this
                # re-dispatch is transparent to the client — it sees
                # a ``retried`` event, not an error.
                self.journal.redispatch(entry, retry_reason)
                self.counters["retried"] += 1
                emit_event({"event": "retried", "shard": shard_id,
                            "from": tried[-1], "reason": retry_reason,
                            "key": key})
            emit_event({"event": "routed", "shard": shard_id,
                        "key": key, "attempt": len(tried) + 1})
            self.counters["forwarded"] += 1
            self.journal.attempt(entry, shard_id)
            try:
                result = await loop.run_in_executor(
                    self._executor, self._forward_blocking, state.spec,
                    payload, emit_threadsafe)
            except ServeBusy as err:
                busy = err
                tried.append(shard_id)
                retry_reason = "busy"
                self.counters["failovers"] += 1
                _LOG.info("shard %s saturated for %s; failing over",
                          shard_id, key)
                continue
            except ServeError as err:
                if err.code == protocol.ERR_DRAINING:
                    tried.append(shard_id)
                    retry_reason = "draining"
                    self.counters["failovers"] += 1
                    continue
                self.counters["failed"] += 1
                return ("error", err.code or protocol.ERR_EXECUTION,
                        err.message, {})
            except (ConnectionError, OSError) as err:
                self.mark_down(shard_id)
                tried.append(shard_id)
                retry_reason = "stalled" \
                    if isinstance(err, TimeoutError) else "unreachable"
                self.counters["failovers"] += 1
                _LOG.warning("shard %s %s for %s (%s); re-dispatching",
                             shard_id, retry_reason, key, err)
                continue
            self.counters["completed"] += 1
            return ("result", result)

        self.counters["failed"] += 1
        if busy is not None:
            self.counters["busy_rejected"] += 1
            return ("error", protocol.ERR_BUSY,
                    "every eligible shard is saturated; retry later",
                    {"retry_after": busy.retry_after
                     or self._last_retry_after})
        self.counters["shed"] += 1
        return ("error", protocol.ERR_SHED,
                "no healthy shard available for this request; "
                "retry after the tier recovers",
                {"retry_after": self._shed_retry_after()})

    def _forward_blocking(self, spec, payload, emit):
        """One shard attempt on an executor thread: the blocking
        client with bounded busy-retry honouring ``retry_after``.

        The socket timeout is ``attempt_timeout`` when set, so a
        stalled shard surfaces as :class:`TimeoutError` (an
        ``OSError``) and flows into the re-dispatch path above."""
        timeout = self.attempt_timeout if self.attempt_timeout \
            is not None else self.forward_timeout
        with spec.client(timeout=timeout) as client:
            result = client.submit(payload, on_event=emit,
                                   retries=self.busy_retries,
                                   backoff=self.backoff)
            return result.as_dict()

    # -- the front end's submit --------------------------------------------

    async def handle_submit(self, request_id, payload, send):
        """Answer one submit frame: relay the forward's events as they
        arrive, then its terminal frame.  ``send`` writes one frame to
        the submitting connection."""
        if self.draining:
            self.counters["drain_rejected"] += 1
            await send(protocol.error_frame(
                request_id, protocol.ERR_DRAINING,
                "router is draining; resubmit elsewhere"))
            return

        self.inflight += 1
        events = asyncio.Queue()
        forward = asyncio.ensure_future(
            self.forward(payload, events.put_nowait))
        try:
            while True:
                getter = asyncio.ensure_future(events.get())
                done, _pending = await asyncio.wait(
                    {getter, forward},
                    return_when=asyncio.FIRST_COMPLETED)
                if getter in done:
                    await self._relay_event(send, request_id,
                                            getter.result())
                    continue
                getter.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await getter
                while not events.empty():
                    await self._relay_event(send, request_id,
                                            events.get_nowait())
                outcome = forward.result()
                if outcome[0] == "result":
                    await send(protocol.result_frame(
                        request_id, outcome[1]))
                else:
                    _kind, code, message, extra = outcome
                    await send(protocol.error_frame(
                        request_id, code, message, **extra))
                return
        finally:
            if not forward.done():
                forward.cancel()
                with contextlib.suppress(asyncio.CancelledError,
                                         Exception):
                    await forward
            self.inflight -= 1
            self.maybe_finish_drain()

    async def _relay_event(self, send, request_id, frame):
        extra = {key: value for key, value in frame.items()
                 if key not in ("kind", "id", "event", "version")}
        await send(protocol.event_frame(
            request_id, frame.get("event"), **extra))

    # -- introspection -----------------------------------------------------

    def stats(self):
        shard_view = {}
        for shard_id, state in self.shards.items():
            shard_view[shard_id] = {
                "healthy": state.healthy,
                "fails": state.fails,
                "stats": state.stats,
            }
        stats = {
            "schema_version": SCHEMA_VERSION,
            "role": "router",
            "draining": self.draining,
            "inflight": self.inflight,
            "jobs": dict(self.counters),
            "ring": {"nodes": self.ring.nodes,
                     "replicas": self.ring.replicas},
            "shards": shard_view,
            "cache_tier": self.cache_tier(),
            "retry_after": self._last_retry_after,
            "quorum": self.quorum,
            "healthy": self.healthy_count(),
            "journal": self.journal.stats(),
        }
        if self.supervisor is not None:
            stats["supervisor"] = self.supervisor.stats()
        return stats


class ShardManager:
    """Spawn and own N ``repro serve`` shard subprocesses.

    Every shard gets a collision-free unix socket under one
    ``mkdtemp`` directory and the same ``REPRO_CACHE_DIR`` (the shared
    cache tier).  Used by ``repro route --shards N``, the loadgen
    smoke harness and the CI ``serve-load`` job.
    """

    def __init__(self, count, *, jobs=1, queue_depth=32, cache_dir=None,
                 warm_engines=("lua",), warm_configs=None, log_dir=None,
                 deadline=None):
        if count < 1:
            raise ValueError("need at least one shard")
        self.count = int(count)
        self.jobs = jobs
        self.queue_depth = queue_depth
        self.cache_dir = cache_dir
        self.warm_engines = tuple(warm_engines)
        self.warm_configs = tuple(warm_configs) if warm_configs else None
        self.log_dir = log_dir
        self.deadline = deadline
        self.base_dir = None
        self.procs = []
        self.specs = []
        self._logs = []
        self._env = None

    def start(self, timeout=90.0):
        import tempfile

        import repro
        self.base_dir = tempfile.mkdtemp(prefix="typedarch-shards-")
        pkg_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = pkg_root + os.pathsep \
            + env.get("PYTHONPATH", "")
        if self.cache_dir:
            env["REPRO_CACHE_DIR"] = str(self.cache_dir)
        self._env = env
        try:
            for index in range(self.count):
                sock = os.path.join(self.base_dir,
                                    "shard-%d.sock" % index)
                self.specs.append(ShardSpec(socket_path=sock))
                self.procs.append(None)
                self._logs.append(None)
                self._spawn(index)
            deadline_at = time.monotonic() + timeout
            for spec, proc in zip(self.specs, self.procs):
                while not os.path.exists(spec.socket_path):
                    if proc.poll() is not None:
                        raise RuntimeError(
                            "shard %s exited %d before binding its "
                            "socket" % (spec.shard_id, proc.returncode))
                    if time.monotonic() > deadline_at:
                        raise RuntimeError("shard %s never came up"
                                           % spec.shard_id)
                    time.sleep(0.05)
        except Exception:
            # No leaked children or log handles on a failed boot.
            self.stop()
            raise
        return self

    def _argv(self, index):
        argv = [sys.executable, "-m", "repro", "serve",
                "--socket", self.specs[index].socket_path,
                "--jobs", str(self.jobs),
                "--queue-depth", str(self.queue_depth)]
        if self.deadline:
            argv += ["--deadline", str(self.deadline)]
        for engine in self.warm_engines:
            argv += ["--warm-engine", engine]
        for config in self.warm_configs or ():
            argv += ["--warm-config", config]
        return argv

    def _spawn(self, index):
        """(Re)spawn shard ``index``; appends to its log so a respawn
        keeps the crash history in one file."""
        log_path = os.path.join(self.log_dir or self.base_dir,
                                "shard-%d.log" % index)
        log = open(log_path, "ab")
        self._logs[index] = log
        self.procs[index] = subprocess.Popen(
            self._argv(index), env=self._env, stdout=log,
            stderr=subprocess.STDOUT)

    def alive(self):
        return [proc is not None and proc.poll() is None
                for proc in self.procs]

    def kill(self, index):
        """Hard-kill one shard (tests: shard-loss rebalancing)."""
        proc = self.procs[index]
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        self._close_log(index)
        with contextlib.suppress(OSError):
            os.unlink(self.specs[index].socket_path)

    def respawn(self, index, timeout=30.0):
        """Re-spawn one *dead* shard on its original socket path (so
        its ring identity — and therefore its key ownership — is
        unchanged).  Raises if the shard is still running or the
        respawn never binds its socket.  Used by
        :class:`repro.serve.supervisor.ShardSupervisor`."""
        proc = self.procs[index]
        if proc is not None and proc.poll() is None:
            raise RuntimeError("shard %d is still running" % index)
        spec = self.specs[index]
        self._close_log(index)
        with contextlib.suppress(OSError):
            os.unlink(spec.socket_path)
        self._spawn(index)
        proc = self.procs[index]
        deadline_at = time.monotonic() + timeout
        while not os.path.exists(spec.socket_path):
            if proc.poll() is not None:
                raise RuntimeError(
                    "respawned shard %s exited %d before binding"
                    % (spec.shard_id, proc.returncode))
            if time.monotonic() > deadline_at:
                proc.kill()
                proc.wait()
                raise RuntimeError("respawned shard %s never came up"
                                   % spec.shard_id)
            time.sleep(0.05)
        return spec

    def drain(self, timeout=120.0):
        """Politely drain every live shard; returns their exit codes."""
        for spec, proc in zip(self.specs, self.procs):
            if proc is None or proc.poll() is not None:
                continue
            try:
                with spec.client(timeout=30.0) as client:
                    client.drain()
            except (ServeError, ConnectionError, OSError):
                proc.terminate()
        codes = []
        for proc in self.procs:
            if proc is None:
                codes.append(None)
                continue
            try:
                codes.append(proc.wait(timeout=timeout))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
        self._close_logs()
        return codes

    def stop(self):
        """Hard stop (error paths); prefer :meth:`drain`."""
        for proc in self.procs:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        self._close_logs()

    def _close_log(self, index):
        log = self._logs[index]
        if log is not None:
            with contextlib.suppress(OSError):
                log.close()
            self._logs[index] = None

    def _close_logs(self):
        for index in range(len(self._logs)):
            self._close_log(index)


async def route(shards, *, socket_path=None, host=None, port=None,
                signals=True, ready=None, supervisor=None,
                **router_kwargs):
    """Run the router until drained (the ``repro route`` body)."""
    if host is None and socket_path is None:
        socket_path = free_socket_path("typedarch-route")
    router = Router(shards, **router_kwargs)
    router.supervisor = supervisor
    server = SocketFrontEnd(router, socket_path=socket_path, host=host,
                            port=port)
    if signals:  # before the socket path appears: SIGTERM must drain
        server.install_signal_handlers()
    await server.start()
    if ready is not None:
        ready(server)
    _LOG.info("routing on %s across %d shard(s): %s",
              server.socket_path or "%s:%s" % (server.host,
                                               server.bound_port),
              len(router.shards), ", ".join(router.shards))
    await server.serve_until_stopped()
    return router
