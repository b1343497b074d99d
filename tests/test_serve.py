"""The execution service: protocol conformance, concurrent clients,
dedup/coalescing, backpressure, deadlines and graceful drain.

Most tests run the daemon in-process on a background thread with the
pool in inline mode (``workers=0``) so execution is deterministic and
gateable; one test exercises a real forked worker pool.
"""

import asyncio
import dataclasses
import json
import os
import socket
import threading
import time

import pytest

from repro import api
from repro.bench import cache as result_cache
from repro.bench.runner import clear_cache
from repro.schema import SCHEMA_VERSION
from repro.serve import protocol
from repro.serve.client import ServeBusy, ServeClient, ServeError
from repro.serve.router import Router, ShardSpec, route
from repro.serve.server import ExecutionService, SocketFrontEnd, serve


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path):
    clear_cache()
    with result_cache.temporary(tmp_path / "cache"):
        yield
    clear_cache()


class Harness:
    """A :class:`SocketFrontEnd` over ``backend`` on a background
    thread; the backend defaults to an inline-pool
    :class:`ExecutionService` built from ``service_kwargs``."""

    def __init__(self, tmp_path, backend=None, **service_kwargs):
        if backend is None:
            service_kwargs.setdefault("workers", 0)
            backend = ExecutionService(**service_kwargs)
        self.backend = backend
        self.socket_path = str(tmp_path / "front.sock")
        self._ready = threading.Event()
        self.exited = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            server = SocketFrontEnd(self.backend,
                                    socket_path=self.socket_path)
            await server.start()
            self._ready.set()
            await server.serve_until_stopped()
        asyncio.run(main())
        self.exited.set()

    def start(self):
        self._thread.start()
        assert self._ready.wait(10), "front end never came up"
        return self

    def client(self, timeout=120.0):
        return ServeClient(socket_path=self.socket_path, timeout=timeout)

    def stop(self):
        if not self.exited.is_set():
            try:
                with self.client(10) as client:
                    client.drain()
            except (OSError, ServeError):
                pass
        assert self.exited.wait(30), "front end never drained"


@pytest.fixture
def harness(tmp_path):
    instance = Harness(tmp_path)
    yield instance.start()
    instance.stop()


def gated_harness(tmp_path, release, calls, **kwargs):
    """A harness whose inline executor blocks until ``release`` is set,
    so tests can observe queued/in-flight states deterministically."""
    def gated(payload):
        calls.append(payload)
        assert release.wait(60), "test never released the executor"
        return api.execute_payload(payload)
    return Harness(tmp_path, inline_fn=gated, **kwargs).start()


def router_harness(tmp_path, shards, **router_kwargs):
    """A :class:`Harness` routing over already-started shard
    harnesses."""
    router_kwargs.setdefault("health_interval", 0.2)
    router_kwargs.setdefault("backoff", 0.05)
    specs = [ShardSpec(socket_path=shard.socket_path) for shard in shards]
    return Harness(tmp_path, Router(specs, **router_kwargs))


#: A program whose output alone is one byte over the frame cap.
OVER_CAP_SOURCE = ('local s = string.rep("x", %d)\nprint(s .. s .. s)\n'
                   % (protocol.MAX_FRAME_BYTES // 3 + 1))


# -- basics ------------------------------------------------------------------

def test_ping_and_status(harness):
    with harness.client() as client:
        assert client.ping()
        stats = client.status()
    assert stats["schema_version"] == SCHEMA_VERSION
    assert not stats["draining"]
    assert stats["pool"]["mode"] == "inline"


def test_served_run_matches_in_process(harness):
    source = "local s = 0\nfor i = 1, 100 do s = s + i end\nprint(s)\n"
    expected = api.run("lua", source, config="typed")
    with harness.client() as client:
        served = client.run("lua", source, config="typed")
    assert served.ok and served.output == expected.output == "5050\n"
    assert json.dumps(served.counters.as_dict(), sort_keys=True) \
        == json.dumps(expected.counters.as_dict(), sort_keys=True)


def test_three_concurrent_clients_identical_counters(harness):
    source = "print(6 * 7)\n"
    expected = json.dumps(
        api.run("lua", source, config="typed").counters.as_dict(),
        sort_keys=True)
    results, errors = [None] * 3, []

    def one(index):
        try:
            with harness.client() as client:
                results[index] = client.run("lua", source, config="typed")
        except Exception as err:  # noqa: BLE001 - surfaced in assert
            errors.append(err)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not errors
    assert all(r is not None and r.ok for r in results)
    assert all(json.dumps(r.counters.as_dict(), sort_keys=True)
               == expected for r in results)


def test_streaming_events_arrive_in_order(harness):
    events = []
    with harness.client() as client:
        result = client.run("lua", "print(1)", config="typed",
                            on_event=lambda f: events.append(f["event"]))
    assert result.ok
    assert events[0] == "queued"
    assert "started" in events


def test_invalid_request_rejected(harness):
    with harness.client() as client:
        with pytest.raises(ServeError) as excinfo:
            client.submit({"op": "teleport", "version": SCHEMA_VERSION})
    assert excinfo.value.code == protocol.ERR_INVALID


# -- raw-socket protocol edges -----------------------------------------------

def _raw_exchange(path, line):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(path)
    sock.sendall(line)
    reply = sock.makefile("rb").readline()
    sock.close()
    return json.loads(reply)


def test_version_mismatch_answered_not_dropped(harness):
    frame = {"kind": "ping", "id": 9, "version": SCHEMA_VERSION + 1}
    reply = _raw_exchange(harness.socket_path,
                          json.dumps(frame).encode() + b"\n")
    assert reply["kind"] == "error"
    assert reply["code"] == protocol.ERR_VERSION
    assert reply["id"] == 9


def test_malformed_frame_answered(harness):
    reply = _raw_exchange(harness.socket_path, b"this is not json\n")
    assert reply["kind"] == "error"
    assert reply["code"] == protocol.ERR_MALFORMED


def _frame_line(**fields):
    fields.setdefault("version", SCHEMA_VERSION)
    return json.dumps(fields).encode() + b"\n"


@pytest.mark.parametrize("role", ("serve", "route"))
def test_protocol_edges_answered_on_one_connection(tmp_path, role):
    """Each bad frame gets its typed error, and the connection still
    answers a ping afterwards, on either front end."""
    exchanges = [
        (b"this is not json\n", ("error", protocol.ERR_MALFORMED, None)),
        (_frame_line(kind="ping", id=9, version=SCHEMA_VERSION + 1),
         ("error", protocol.ERR_VERSION, 9)),
        (_frame_line(kind="teleport", id=10),
         ("error", protocol.ERR_MALFORMED, 10)),
        (_frame_line(kind="submit", id=11),
         ("error", protocol.ERR_MALFORMED, 11)),
        (_frame_line(kind="ping", id=12), ("pong", None, 12)),
    ]
    shard_dir = tmp_path / "shard"
    shard_dir.mkdir()
    shard = Harness(shard_dir).start()
    front = router_harness(tmp_path, [shard]).start() \
        if role == "route" else shard
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    try:
        sock.connect(front.socket_path)
        with sock.makefile("rb") as replies:
            for line, expected in exchanges:
                sock.sendall(line)
                reply = json.loads(replies.readline())
                assert (reply["kind"], reply.get("code"), reply["id"]) \
                    == expected, line
    finally:
        sock.close()
        if front is not shard:
            front.stop()
        shard.stop()


# -- replies over the frame cap ----------------------------------------------

def test_over_cap_reply_is_an_execution_error(harness):
    with harness.client() as client:
        with pytest.raises(ServeError) as excinfo:
            client.run("lua", OVER_CAP_SOURCE)
        # The same connection still serves the next request.
        assert client.run("lua", "print(1)\n").output == "1\n"
    assert excinfo.value.code == protocol.ERR_EXECUTION
    assert str(protocol.MAX_FRAME_BYTES) in excinfo.value.message


# -- dedup / coalescing ------------------------------------------------------

def test_identical_inflight_requests_coalesce(tmp_path):
    release, calls = threading.Event(), []
    harness = gated_harness(tmp_path, release, calls)
    try:
        source = "print('coalesce me')\n"
        results, errors = [None] * 2, []

        def one(index):
            try:
                with harness.client() as client:
                    results[index] = client.run("lua", source,
                                                config="typed")
            except Exception as err:  # noqa: BLE001
                errors.append(err)

        first = threading.Thread(target=one, args=(0,))
        first.start()
        deadline = time.monotonic() + 30
        while not calls and time.monotonic() < deadline:
            time.sleep(0.01)
        assert calls, "first request never reached the executor"

        second = threading.Thread(target=one, args=(1,))
        second.start()
        deadline = time.monotonic() + 30
        while harness.backend.stats_counters["deduped"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        first.join(60)
        second.join(60)

        assert not errors
        assert len(calls) == 1, "identical request executed twice"
        assert all(r is not None and r.ok for r in results)
        assert sorted(r.coalesced for r in results) == [False, True]
        assert results[0].counters.as_dict() \
            == results[1].counters.as_dict()
    finally:
        release.set()
        harness.stop()


# -- backpressure and deadlines ----------------------------------------------

def test_full_queue_rejects_busy_with_retry_after(tmp_path):
    release, calls = threading.Event(), []
    harness = gated_harness(tmp_path, release, calls, queue_depth=1)
    try:
        box = {}

        def blocker():
            with harness.client() as client:
                box["a"] = client.run("lua", "print('A')", config="typed")

        def queued():
            with harness.client() as client:
                box["b"] = client.run("lua", "print('B')", config="typed")

        thread_a = threading.Thread(target=blocker)
        thread_a.start()
        deadline = time.monotonic() + 30
        while not calls and time.monotonic() < deadline:
            time.sleep(0.01)
        assert calls, "first request never started"

        thread_b = threading.Thread(target=queued)
        thread_b.start()
        deadline = time.monotonic() + 30
        while harness.backend.stats()["queued"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)

        with harness.client() as client:
            with pytest.raises(ServeBusy) as excinfo:
                client.run("lua", "print('C')", config="typed")
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after >= 0

        release.set()
        thread_a.join(60)
        thread_b.join(60)
        assert box["a"].ok and box["b"].ok
    finally:
        release.set()
        harness.stop()


def test_expired_deadline_rejected_before_execution(tmp_path):
    release, calls = threading.Event(), []
    harness = gated_harness(tmp_path, release, calls)
    try:
        def blocker():
            with harness.client() as client:
                client.run("lua", "print('slow')", config="typed")

        blocking = threading.Thread(target=blocker)
        blocking.start()
        deadline = time.monotonic() + 30
        while not calls and time.monotonic() < deadline:
            time.sleep(0.01)

        box = {}

        def hurried():
            try:
                with harness.client() as client:
                    box["result"] = client.run(
                        "lua", "print('too late')", config="typed",
                        deadline=0.05)
            except ServeError as err:
                box["error"] = err

        hurry = threading.Thread(target=hurried)
        hurry.start()
        time.sleep(0.3)  # let the tiny deadline lapse while queued
        release.set()
        blocking.join(60)
        hurry.join(60)

        assert "error" in box, "expired request was executed anyway"
        assert box["error"].code == protocol.ERR_DEADLINE
        executed = {json.loads(json.dumps(p))["source"] for p in calls}
        assert "print('too late')" not in executed
    finally:
        release.set()
        harness.stop()


# -- the cache path ----------------------------------------------------------

def test_bench_cache_hit_skips_the_pool(tmp_path, harness):
    seeded = api.run("lua", "fibo", scale=5, config="typed")
    assert not seeded.cached
    with harness.client() as client:
        hit = client.run("lua", "fibo", scale=5, config="typed")
        stats = client.status()
    assert hit.ok and hit.cached
    assert hit.counters.as_dict() == seeded.counters.as_dict()
    assert stats["jobs"]["cache_hits"] == 1
    assert stats["pool"]["executed"] == 0
    assert not stats["pool"]["warm"], "cache hit built the pool"


def test_bench_miss_executes_then_populates_cache(harness):
    with harness.client() as client:
        cold = client.run("lua", "fibo", scale=4, config="baseline")
        warm = client.run("lua", "fibo", scale=4, config="baseline")
    assert cold.ok and not cold.cached
    assert warm.ok and warm.cached
    assert warm.counters.as_dict() == cold.counters.as_dict()


def test_unattributed_bench_served_like_in_process(harness):
    """A shard answers an ``attribute=False`` bench request with what an
    in-process ``api.execute`` returns, not the cached attributed
    record, and never caches its attribution-free result."""
    api.run("lua", "fibo", scale=6, config="typed")
    request = api.ExecutionRequest(op="bench", engine="lua",
                                   benchmark="fibo", scale=6,
                                   config="typed", attribute=False)
    with harness.client() as client:
        served = client.submit(request)
        client.submit(dataclasses.replace(request, scale=5))
        attributed = client.run("lua", "fibo", scale=5, config="typed")
    assert not served.cached
    assert served.counters.as_dict() \
        == api.execute(request).counters.as_dict()
    assert attributed.counters.bytecode_counts


# -- graceful drain ----------------------------------------------------------

def test_drain_finishes_inflight_and_rejects_new(tmp_path):
    release, calls = threading.Event(), []
    harness = gated_harness(tmp_path, release, calls)
    try:
        box = {}

        def inflight():
            with harness.client() as client:
                box["result"] = client.run("lua", "print('drain me')",
                                           config="typed")

        thread = threading.Thread(target=inflight)
        thread.start()
        deadline = time.monotonic() + 30
        while not calls and time.monotonic() < deadline:
            time.sleep(0.01)
        assert calls, "request never started"

        with harness.client() as client:
            stats = client.drain()
        assert stats["draining"]

        with harness.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.run("lua", "print('rejected')", config="typed")
        assert excinfo.value.code == protocol.ERR_DRAINING

        release.set()
        thread.join(60)
        assert box["result"].ok, "in-flight request lost during drain"
        assert box["result"].output == "drain me\n"
        assert harness.exited.wait(30), "server never exited after drain"
    finally:
        release.set()
        harness.stop()


# -- a real forked pool ------------------------------------------------------

def test_process_pool_round_trip(tmp_path):
    harness = Harness(tmp_path, workers=1, warm_engines=("lua",),
                      warm_configs=("typed",))
    harness.start()
    try:
        expected = api.run("lua", "print(16 * 16)", config="typed")
        with harness.client() as client:
            served = client.run("lua", "print(16 * 16)", config="typed")
            stats = client.status()
        assert served.ok and served.output == expected.output
        assert served.counters.as_dict() == expected.counters.as_dict()
        if stats["pool"]["mode"] == "process":  # sandboxes may fall back
            assert stats["pool"]["builds"] == 1
        assert stats["pool"]["executed"] == 1
    finally:
        harness.stop()


# -- client busy-retry (the router's per-shard backoff machinery) ------------

class FlakyBusyServer:
    """Protocol-speaking fake: rejects the first ``busy_count`` submit
    frames with ``busy`` + a ``retry_after`` hint, then answers with a
    canned result.  Exercises :meth:`ServeClient.submit` retries
    without any real execution service."""

    def __init__(self, tmp_path, busy_count, result_payload,
                 retry_after=0.02):
        self.socket_path = str(tmp_path / "flaky.sock")
        self.busy_count = busy_count
        self.result_payload = result_payload
        self.retry_after = retry_after
        self.attempts = 0
        self.attempt_times = []
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.socket_path)
        self._sock.listen(4)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _handle(self, conn):
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                frame = protocol.decode(line)
                if frame.get("kind") != "submit":
                    continue
                self.attempts += 1
                self.attempt_times.append(time.monotonic())
                if self.attempts <= self.busy_count:
                    reply = protocol.error_frame(
                        frame.get("id"), protocol.ERR_BUSY,
                        "queue full", retry_after=self.retry_after)
                else:
                    reply = protocol.result_frame(
                        frame.get("id"), self.result_payload)
                try:
                    conn.sendall(protocol.encode(reply))
                except OSError:
                    return

    def close(self):
        self._sock.close()


@pytest.fixture
def canned_result():
    return api.run("lua", "print(3)\n", config="baseline").as_dict()


def test_submit_without_retries_raises_busy(tmp_path, canned_result):
    server = FlakyBusyServer(tmp_path, busy_count=99,
                             result_payload=canned_result)
    try:
        with ServeClient(socket_path=server.socket_path) as client:
            with pytest.raises(ServeBusy) as excinfo:
                client.run("lua", "print(3)\n")
        assert excinfo.value.retry_after == server.retry_after
        assert server.attempts == 1
    finally:
        server.close()


def test_submit_retries_until_the_queue_frees(tmp_path, canned_result):
    server = FlakyBusyServer(tmp_path, busy_count=2,
                             result_payload=canned_result)
    try:
        with ServeClient(socket_path=server.socket_path) as client:
            result = client.run("lua", "print(3)\n", retries=2)
        assert result.ok and result.output == "3\n"
        assert server.attempts == 3
    finally:
        server.close()


def test_submit_retry_budget_is_bounded(tmp_path, canned_result):
    server = FlakyBusyServer(tmp_path, busy_count=99,
                             result_payload=canned_result)
    try:
        with ServeClient(socket_path=server.socket_path) as client:
            with pytest.raises(ServeBusy):
                client.run("lua", "print(3)\n", retries=3)
        assert server.attempts == 4  # first attempt + 3 retries
    finally:
        server.close()


def test_submit_retry_honours_server_retry_after(tmp_path,
                                                 canned_result):
    # backoff would be 10s/attempt; the 0.02s server hint must win.
    server = FlakyBusyServer(tmp_path, busy_count=2,
                             result_payload=canned_result)
    try:
        start = time.monotonic()
        with ServeClient(socket_path=server.socket_path) as client:
            result = client.submit(
                {"op": "run", "engine": "lua", "source": "print(3)\n"},
                retries=2, backoff=10.0)
        elapsed = time.monotonic() - start
        assert result.ok
        assert elapsed < 5.0, "retry ignored retry_after"
        gaps = [b - a for a, b in zip(server.attempt_times,
                                      server.attempt_times[1:])]
        assert all(gap >= server.retry_after * 0.5 for gap in gaps)
    finally:
        server.close()


class RecordingRng:
    """``random``-module stand-in: records each ``uniform`` call's
    bounds and returns the upper bound (worst-case draw)."""

    def __init__(self):
        self.calls = []

    def uniform(self, lo, hi):
        self.calls.append((lo, hi))
        return hi


def _always_busy_client(monkeypatch, sleeps, retry_after=None):
    """A client whose transport always answers busy; sleeps are
    captured instead of taken."""
    client = ServeClient(socket_path="/nonexistent.sock")
    monkeypatch.setattr(
        client, "_transact",
        lambda *a, **k: (_ for _ in ()).throw(
            ServeBusy("busy", "queue full", retry_after=retry_after)))
    monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)
    return client


def test_retry_backoff_uses_decorrelated_jitter(monkeypatch):
    # Retry delays are drawn uniform(backoff, 3 * previous), not
    # computed as deterministic backoff * 2**attempt lockstep.
    sleeps, rng = [], RecordingRng()
    client = _always_busy_client(monkeypatch, sleeps)
    with pytest.raises(ServeBusy):
        client.submit({"op": "run", "engine": "lua", "source": "x"},
                      retries=3, backoff=0.25, rng=rng)
    assert rng.calls == [(0.25, 0.75), (0.25, 2.25), (0.25, 6.75)]
    assert sleeps == [0.75, 2.25, 6.75]


def test_retry_backoff_is_clamped_to_max_backoff(monkeypatch):
    sleeps, rng = [], RecordingRng()
    client = _always_busy_client(monkeypatch, sleeps)
    with pytest.raises(ServeBusy):
        client.submit({"op": "run", "engine": "lua", "source": "x"},
                      retries=3, backoff=0.25, max_backoff=1.0, rng=rng)
    assert sleeps == [0.75, 1.0, 1.0]          # ceiling holds
    # The jitter window keeps widening off the *clamped* delay.
    assert rng.calls == [(0.25, 0.75), (0.25, 2.25), (0.25, 3.0)]


def test_retry_after_hint_bypasses_the_jitter(monkeypatch):
    sleeps, rng = [], RecordingRng()
    client = _always_busy_client(monkeypatch, sleeps, retry_after=0.02)
    with pytest.raises(ServeBusy):
        client.submit({"op": "run", "engine": "lua", "source": "x"},
                      retries=2, backoff=10.0, rng=rng)
    assert sleeps == [0.02, 0.02]   # the server's hint wins
    assert rng.calls == []          # jitter never consulted


def test_retry_jitter_spreads_two_clients(monkeypatch):
    # The point of the jitter: two clients bouncing off the same
    # saturated shard do not march back in lockstep.
    import random
    schedules = []
    for seed in (1, 2):
        sleeps = []
        client = _always_busy_client(monkeypatch, sleeps)
        with pytest.raises(ServeBusy):
            client.submit({"op": "run", "engine": "lua", "source": "x"},
                          retries=3, backoff=0.25,
                          rng=random.Random(seed))
        schedules.append(tuple(sleeps))
    assert schedules[0] != schedules[1]


# -- atomic socket-path pick (parallel CI jobs must not collide) -------------

def test_free_socket_path_is_collision_free_across_threads():
    from repro.serve.server import free_socket_path
    paths, errors = [], []
    lock = threading.Lock()

    def grab():
        try:
            path = free_socket_path()
            with lock:
                paths.append(path)
        except Exception as err:  # noqa: BLE001 - collected below
            errors.append(err)

    threads = [threading.Thread(target=grab) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not errors
    assert len(set(paths)) == 16


def test_two_concurrent_servers_bind_without_colliding(tmp_path):
    """Two daemons booted at the same instant (as parallel CI jobs
    do) must each get their own socket and both answer pings."""
    from repro.serve.server import free_socket_path

    servers, errors = [], []
    ready = threading.Barrier(3, timeout=30)

    def boot():
        async def main():
            service = ExecutionService(workers=0)
            server = SocketFrontEnd(service, socket_path=free_socket_path())
            await server.start()
            stop = asyncio.Event()
            servers.append((server.socket_path, stop,
                            asyncio.get_running_loop()))
            ready.wait()
            await stop.wait()
            await server.close()
        try:
            asyncio.run(main())
        except Exception as err:  # noqa: BLE001 - collected below
            errors.append(err)

    threads = [threading.Thread(target=boot, daemon=True)
               for _ in range(2)]
    for thread in threads:
        thread.start()
    ready.wait()
    try:
        assert not errors
        paths = [path for path, _stop, _loop in servers]
        assert len(set(paths)) == 2
        for path in paths:
            with ServeClient(socket_path=path, timeout=30) as client:
                assert client.ping()
    finally:
        for _path, stop, loop in servers:
            loop.call_soon_threadsafe(stop.set)
        for thread in threads:
            thread.join(30)


@pytest.mark.parametrize("front_end", ("serve", "route"))
def test_socket_path_appears_listening_with_drain_installed(
        tmp_path, monkeypatch, front_end):
    """Waiters treat an existing socket path as "ready" and may connect
    or send SIGTERM at once, so the socket must already listen and the
    drain handlers must already be installed when the path appears."""
    path = str(tmp_path / "front.sock")
    seen = []
    real_listen = socket.socket.listen

    def listen(sock, *args):
        seen.append(("listen", os.path.exists(path)))
        return real_listen(sock, *args)

    monkeypatch.setattr(socket.socket, "listen", listen)

    def add_signal_handler(signum, callback, *args):
        seen.append(("signal", os.path.exists(path)))

    def ready(server):
        assert os.path.exists(path)
        server.backend.begin_drain()

    async def main():
        asyncio.get_running_loop().add_signal_handler = add_signal_handler
        if front_end == "serve":
            await serve(socket_path=path, ready=ready, workers=0)
        else:
            await route([ShardSpec(socket_path=str(tmp_path / "x.sock"))],
                        socket_path=path, ready=ready)

    asyncio.run(main())
    assert {kind for kind, _exists in seen} == {"listen", "signal"}
    assert not any(exists for _kind, exists in seen), seen
