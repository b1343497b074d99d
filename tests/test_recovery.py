"""In-flight recovery and load shedding at the router: transparent
re-dispatch with a ``retried`` event when a shard dies mid-request,
the request journal's exactly-once accounting, quorum-based shedding
(lowest priority first), and fast typed rejection + clean drain under
total shard loss."""

import socket
import threading

import pytest

from repro import api
from repro.bench import cache as result_cache
from repro.bench.runner import clear_cache
from repro.serve.client import ServeBusy, ServeShed
from repro.serve.hashring import HashRing
from repro.serve.router import ShardSpec
from tests.test_serve import Harness, router_harness


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path):
    clear_cache()
    with result_cache.temporary(tmp_path / "cache"):
        yield
    clear_cache()


class AbruptShard:
    """A shard that accepts a connection, reads one frame and slams
    the connection shut — the mid-request death the journal exists
    for."""

    def __init__(self, tmp_path):
        self.socket_path = str(tmp_path / "abrupt.sock")
        self.hits = 0
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
            with conn, conn.makefile("rb") as reader:
                reader.readline()
                self.hits += 1

    def close(self):
        self._sock.close()


def _source_owned_by(shard_id, shard_ids):
    """A lua source whose canonical work key the ring places on
    ``shard_id`` (placement is deterministic, so just scan)."""
    ring = HashRing(shard_ids)
    for value in range(256):
        source = "print(%d)\n" % value
        request = api.ExecutionRequest(op="run", engine="lua",
                                       source=source, config="baseline")
        if ring.node_for(request.key()) == shard_id:
            return source
    raise AssertionError("no key landed on %s" % shard_id)


def test_midflight_shard_death_redispatches_with_retried_event(tmp_path):
    shard_dir = tmp_path / "shard-real"
    shard_dir.mkdir()
    real = Harness(shard_dir).start()
    abrupt = AbruptShard(tmp_path)
    # Huge health interval: eviction must come from the forward path
    # (mark_down), not from a lucky probe racing the submit.
    router = router_harness(tmp_path, [abrupt, real],
                            health_interval=60.0).start()
    abrupt_id = ShardSpec(socket_path=abrupt.socket_path).shard_id
    real_id = ShardSpec(socket_path=real.socket_path).shard_id
    source = _source_owned_by(abrupt_id, router.backend.shards)
    events = []
    try:
        with router.client() as client:
            result = client.run("lua", source, config="baseline",
                                on_event=lambda f: events.append(f))
        assert result.ok              # the client saw recovery, not loss
        assert abrupt.hits >= 1       # the submit (plus startup probes)
        retried = [f for f in events if f.get("event") == "retried"]
        assert len(retried) == 1
        assert retried[0]["from"] == abrupt_id
        assert retried[0]["shard"] == real_id
        assert retried[0]["reason"] == "unreachable"
        routed = [f["shard"] for f in events
                  if f.get("event") == "routed"]
        assert routed == [abrupt_id, real_id]
        with router.client() as client:
            stats = client.status()
        assert stats["jobs"]["retried"] == 1
        journal = stats["journal"]["counters"]
        assert journal["duplicated"] == 0
        assert journal["redispatched"] == 1
        assert journal["opened"] == journal["completed"] == 1
        assert stats["journal"]["recent_retried"][0]["attempts"] \
            == [abrupt_id, real_id]
        assert not stats["shards"][abrupt_id]["healthy"]
    finally:
        router.stop()
        abrupt.close()
        real.stop()


def test_total_shard_loss_sheds_typed_error_and_drains_clean(tmp_path):
    shard_dir = tmp_path / "shard-0"
    shard_dir.mkdir()
    shard = Harness(shard_dir).start()
    router = router_harness(tmp_path, [shard], health_interval=0.1,
                            fail_threshold=1).start()
    try:
        with router.client() as client:
            assert client.run("lua", "print(1)\n").ok
        shard.stop()
        _wait_for(lambda: router.backend.healthy_count() == 0)
        # New work is rejected fast with a typed error, not a hang.
        with router.client(timeout=10.0) as client:
            with pytest.raises(ServeShed) as excinfo:
                client.run("lua", "print(2)\n")
        assert excinfo.value.code == "shed"
        assert excinfo.value.retry_after is not None
        with router.client() as client:
            stats = client.status()
        assert stats["healthy"] == 0
        assert stats["jobs"]["shed"] == 1
    finally:
        # Drain must still complete with every shard gone.
        router.stop()
        assert router.exited.is_set()


def test_below_quorum_sheds_lowest_priority_first(tmp_path):
    shard_dirs = [tmp_path / ("shard-%d" % i) for i in range(2)]
    for directory in shard_dirs:
        directory.mkdir()
    shards = [Harness(directory).start() for directory in shard_dirs]
    # Majority quorum of 2 shards is 2: one loss puts us below it.
    router = router_harness(tmp_path, shards, health_interval=0.1,
                            fail_threshold=1, quorum=2).start()
    try:
        shards[1].stop()
        _wait_for(lambda: router.backend.healthy_count() == 1)
        with router.client(timeout=10.0) as client:
            # Least urgent traffic is shed...
            with pytest.raises(ServeShed):
                client.run("lua", "print(9)\n", priority=9)
            # ...while default-priority work still lands on the
            # survivor (shedding order is deterministic, not random).
            assert client.run("lua", "print(5)\n").ok
            stats = client.status()
        assert stats["quorum"] == 2 and stats["healthy"] == 1
        assert stats["jobs"]["shed"] == 1
        assert stats["jobs"]["completed"] >= 1
    finally:
        router.stop()
        shards[0].stop()


def test_shed_is_a_busy_subclass_for_retry_compat():
    # Existing retry/backoff handling written against ServeBusy must
    # treat shed rejections the same way.
    assert issubclass(ServeShed, ServeBusy)


def _wait_for(predicate, timeout=15.0):
    import time
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)
