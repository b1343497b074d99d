"""The consistent-hash router: deterministic placement/affinity,
failover on shard loss, the router-side shared-cache probe, graceful
drain with zero dropped forwards, and aggregated status.

Shards and the router run on :class:`tests.test_serve.Harness`
threads; shards use the inline pool, so execution is deterministic."""

import json
import threading
import time

import pytest

from repro import api
from repro.bench import cache as result_cache
from repro.bench.runner import clear_cache
from repro.serve.client import ServeBusy, ServeError
from repro.serve.hashring import HashRing
from tests.test_serve import (
    OVER_CAP_SOURCE,
    Harness,
    gated_harness,
    router_harness,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path):
    clear_cache()
    with result_cache.temporary(tmp_path / "cache"):
        yield
    clear_cache()


@pytest.fixture
def tier(tmp_path):
    shard_dirs = [tmp_path / ("shard-%d" % i) for i in range(2)]
    for directory in shard_dirs:
        directory.mkdir()
    shards = [Harness(directory).start() for directory in shard_dirs]
    router = router_harness(tmp_path, shards).start()
    yield router, shards
    router.stop()
    for shard in shards:
        shard.stop()


def _routed_shards(client, source, repeats=1):
    """Submit ``source`` ``repeats`` times; return the shard ids from
    the streamed ``routed`` events."""
    shards = []

    def on_event(frame):
        if frame.get("event") == "routed":
            shards.append(frame["shard"])

    for _ in range(repeats):
        result = client.run("lua", source, config="baseline",
                            on_event=on_event)
        assert result.ok
    return shards


def test_routed_submit_matches_in_process(tier):
    router, _shards = tier
    source = "local s = 0\nfor i = 1, 64 do s = s + i end\nprint(s)\n"
    expected = api.run("lua", source, config="baseline")
    with router.client() as client:
        served = client.run("lua", source, config="baseline")
    assert served.ok and served.output == expected.output
    assert json.dumps(served.counters.as_dict(), sort_keys=True) \
        == json.dumps(expected.counters.as_dict(), sort_keys=True)


def test_placement_is_deterministic_and_matches_the_ring(tier):
    router, _shards = tier
    sources = ["print(%d)\n" % value for value in range(8)]
    ring = HashRing(router.backend.shards)
    with router.client() as client:
        for source in sources:
            request = api.ExecutionRequest(op="run", engine="lua",
                                           source=source,
                                           config="baseline")
            seen = _routed_shards(client, source, repeats=2)
            # Same key -> same shard, and exactly the ring's owner.
            assert seen == [ring.node_for(request.key())] * 2


def test_both_shards_participate(tier):
    router, _shards = tier
    sources = ["print(%d)\n" % value for value in range(16)]
    with router.client() as client:
        seen = {shard for source in sources
                for shard in _routed_shards(client, source)}
    assert seen == set(router.backend.shards)


def test_failover_on_shard_loss_and_ring_eviction(tier):
    router, shards = tier
    # Kill shard 0 abruptly: connection errors must fail over to the
    # survivor immediately, without waiting for the health loop.
    shards[0].stop()
    lost, survivor = router.backend.shards
    with router.client() as client:
        for value in range(8):
            seen = _routed_shards(client, "print(%d)\n" % value)
            assert seen[-1] == survivor
        stats = client.status()
    assert stats["jobs"]["completed"] == 8
    assert not stats["shards"][lost]["healthy"]
    assert stats["ring"]["nodes"] == [survivor]


def test_health_loop_restores_a_returning_shard(tmp_path):
    shard_dir = tmp_path / "shard-0"
    shard_dir.mkdir()
    shard = Harness(shard_dir).start()
    router = router_harness(tmp_path, [shard],
                            fail_threshold=1).start()
    [shard_id] = router.backend.shards
    try:
        shard.stop()
        deadline = time.monotonic() + 10
        while router.backend.shards[shard_id].healthy:
            assert time.monotonic() < deadline, "never evicted"
            time.sleep(0.05)
        # Same socket path, fresh daemon: the probe loop must re-add it.
        shard = Harness(shard_dir).start()
        while not router.backend.shards[shard_id].healthy:
            assert time.monotonic() < deadline, "never restored"
            time.sleep(0.05)
        with router.client() as client:
            assert client.run("lua", "print(7)\n").ok
    finally:
        router.stop()
        shard.stop()


def test_router_cache_probe_answers_without_forwarding(tier):
    router, _shards = tier
    # A bench cell computed by *anyone* on the shared root (here: this
    # process) is a router-side hit; no shard sees the request.
    seeded = api.run("lua", "fibo", scale=4, config="typed")
    with router.client() as client:
        result = client.run("lua", "fibo", scale=4, config="typed")
        stats = client.status()
    assert result.ok and result.cached
    assert result.counters.as_dict() == seeded.counters.as_dict()
    assert stats["jobs"]["router_cache_hits"] == 1
    assert stats["jobs"]["forwarded"] == 0


def test_status_aggregates_shards_and_cache_tier(tier):
    router, _shards = tier
    deadline = time.monotonic() + 10
    while True:  # wait for one health-probe cycle to gather stats
        with router.client() as client:
            stats = client.status()
        if all(view["stats"] is not None
               for view in stats["shards"].values()):
            break
        assert time.monotonic() < deadline, "no shard stats gathered"
        time.sleep(0.05)
    assert stats["role"] == "router"
    assert stats["cache_tier"]["coherent"]
    members = stats["cache_tier"]["members"]
    assert set(members) == {"router"} | set(router.backend.shards)
    roots = {member["root"] for member in members.values()}
    assert len(roots) == 1


def test_drain_finishes_inflight_and_rejects_new(tmp_path):
    release, calls = threading.Event(), []
    shard_dir = tmp_path / "shard-0"
    shard_dir.mkdir()
    shard = gated_harness(shard_dir, release, calls)
    router = router_harness(tmp_path, [shard]).start()
    routed = threading.Event()
    box = {}

    def inflight():
        def on_event(frame):
            if frame.get("event") == "routed":
                routed.set()
        try:
            with router.client() as client:
                box["result"] = client.run("lua", "print(11)\n",
                                           on_event=on_event)
        except ServeError as err:
            box["error"] = err

    thread = threading.Thread(target=inflight, daemon=True)
    thread.start()
    assert routed.wait(10)
    while not calls:  # forwarded request has reached the shard
        time.sleep(0.01)
    try:
        with router.client() as control:
            stats = control.drain()
        assert stats["draining"] and stats["inflight"] == 1
        # New work is refused while the in-flight forward drains.
        with pytest.raises(ServeError) as excinfo:
            with router.client() as late:
                late.run("lua", "print(12)\n")
        assert excinfo.value.code == "draining"
    finally:
        release.set()
    thread.join(30)
    assert "error" not in box and box["result"].ok
    assert router.exited.wait(30), "router kept running after drain"
    router.stop()
    shard.stop()


def test_saturated_single_shard_surfaces_busy_with_retry_after(tmp_path):
    release, calls = threading.Event(), []
    shard_dir = tmp_path / "shard-0"
    shard_dir.mkdir()
    shard = gated_harness(shard_dir, release, calls, queue_depth=1)
    router = router_harness(tmp_path, [shard], busy_retries=0).start()
    outcomes = []

    def submit(index):
        try:
            with router.client() as client:
                outcomes.append(client.run(
                    "lua", "print(%d)\n" % index))
        except ServeBusy as err:
            outcomes.append(err)

    threads = []
    try:
        # One executing + one queued fills the shard; the next submit
        # must come back as a busy frame with a retry hint.
        thread = threading.Thread(target=submit, args=(0,), daemon=True)
        thread.start()
        threads.append(thread)
        deadline = time.monotonic() + 30
        while not calls:
            assert time.monotonic() < deadline, "first never started"
            time.sleep(0.01)
        thread = threading.Thread(target=submit, args=(1,), daemon=True)
        thread.start()
        threads.append(thread)
        while shard.backend.stats()["queued"] < 1:
            assert time.monotonic() < deadline, "second never queued"
            time.sleep(0.01)
        with pytest.raises(ServeBusy) as excinfo:
            with router.client() as client:
                client.run("lua", "print(99)\n")
        assert excinfo.value.retry_after is not None
    finally:
        release.set()
    for thread in threads:
        thread.join(30)
    assert all(not isinstance(outcome, Exception)
               for outcome in outcomes)
    router.stop()
    shard.stop()


def test_over_cap_reply_is_relayed_without_evicting_the_shard(tmp_path):
    shard_dir = tmp_path / "shard-0"
    shard_dir.mkdir()
    shard = Harness(shard_dir).start()
    router = router_harness(tmp_path, [shard]).start()
    try:
        with shard.client() as client:
            with pytest.raises(ServeError) as direct:
                client.run("lua", OVER_CAP_SOURCE)
        with router.client() as client:
            with pytest.raises(ServeError) as routed:
                client.run("lua", OVER_CAP_SOURCE)
            assert client.run("lua", "print(1)\n").output == "1\n"
            stats = client.status()
    finally:
        router.stop()
        shard.stop()
    assert (routed.value.code, routed.value.message) \
        == (direct.value.code, direct.value.message)
    assert stats["jobs"]["shards_evicted"] == 0
    assert stats["ring"]["nodes"] == list(router.backend.shards)
