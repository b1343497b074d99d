"""Shard supervision: dead-shard detection, respawn with exponential
backoff, the crash-loop circuit breaker, probe-confirmed recovery and
hold/release — all deterministic against a fake manager with an
injected clock — plus the real ``ShardManager`` respawn/kill paths
against live shard subprocesses."""

import os
import signal
import time

import pytest

from repro.serve.supervisor import ShardSupervisor


class FakeProc:
    """A subprocess stand-in with a controllable liveness."""

    def __init__(self, alive=True, returncode=-9):
        self.alive = alive
        self.returncode = None if alive else returncode

    def poll(self):
        return self.returncode

    def die(self, returncode=-9):
        self.alive = False
        self.returncode = returncode


class FakeSpec:
    """Shard address whose probe outcome the test scripts."""

    def __init__(self):
        self.shard_id = "unix:/fake.sock"
        self.probe_ok = True

    def client(self, timeout=None):
        spec = self

        class _Client:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def status(self):
                if not spec.probe_ok:
                    raise ConnectionError("not up yet")
                return {"role": "shard"}

        return _Client()


class FakeManager:
    """Duck-typed :class:`ShardManager`: procs, specs, respawn()."""

    def __init__(self, count=1, respawn_error=None):
        self.procs = [FakeProc() for _ in range(count)]
        self.specs = [FakeSpec() for _ in range(count)]
        self.respawn_calls = []
        self.respawn_error = respawn_error

    def respawn(self, index):
        self.respawn_calls.append(index)
        if self.respawn_error is not None:
            raise self.respawn_error
        self.procs[index] = FakeProc(alive=True)
        return self.specs[index]


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_supervisor(manager, clock, **kwargs):
    kwargs.setdefault("backoff", 0.25)
    kwargs.setdefault("max_backoff", 8.0)
    kwargs.setdefault("breaker_threshold", 3)
    kwargs.setdefault("breaker_window", 30.0)
    kwargs.setdefault("breaker_cooldown", 10.0)
    # Never started: tests drive poll_once() deterministically.
    return ShardSupervisor(manager, clock=clock, **kwargs)


def test_dead_shard_is_respawned_and_probe_confirms_recovery():
    manager = FakeManager()
    clock = Clock()
    supervisor = make_supervisor(manager, clock)

    supervisor.poll_once()          # everyone alive: nothing happens
    assert manager.respawn_calls == []

    manager.procs[0].die(returncode=-signal.SIGKILL)
    supervisor.poll_once()
    assert manager.respawn_calls == [0]
    watch = supervisor.watches[0]
    assert watch.respawns == 1 and watch.awaiting_probe

    # Probe fails: still awaiting, failure state untouched.
    manager.specs[0].probe_ok = False
    supervisor.poll_once()
    assert watch.awaiting_probe

    # Probe answers: recovered, backoff state reset.
    manager.specs[0].probe_ok = True
    supervisor.poll_once()
    assert not watch.awaiting_probe
    assert watch.consecutive_failures == 0
    kinds = [event[1] for event in supervisor.events]
    assert kinds == ["died", "respawned", "recovered"]


def test_failed_respawns_back_off_exponentially():
    manager = FakeManager(respawn_error=RuntimeError("no exec"))
    clock = Clock()
    supervisor = make_supervisor(manager, clock)
    manager.procs[0].die()
    watch = supervisor.watches[0]

    delays = []
    for _ in range(5):
        clock.now = watch.next_attempt_at  # jump past the backoff
        before = clock.now
        supervisor.poll_once()
        delays.append(watch.next_attempt_at - before)
    # First attempt is immediate; each failure doubles the delay.
    assert delays == [0.25, 0.5, 1.0, 2.0, 4.0]
    assert watch.consecutive_failures == 5
    # ... and the delay is capped at max_backoff.
    for _ in range(4):
        clock.now = watch.next_attempt_at
        before = clock.now
        supervisor.poll_once()
    assert watch.next_attempt_at - before == 8.0


def test_crash_loop_opens_the_breaker_then_half_opens():
    manager = FakeManager()
    clock = Clock()
    supervisor = make_supervisor(manager, clock, breaker_threshold=3)
    watch = supervisor.watches[0]

    # Each respawn succeeds but the fresh process dies immediately.
    while watch.breaker_open_until is None:
        manager.procs[0].die()
        clock.now = max(clock.now + 0.01, watch.next_attempt_at)
        supervisor.poll_once()
        assert clock.now < 20.0, "breaker never opened"
    trips_respawns = len(manager.respawn_calls)
    assert watch.breaker_trips == 1
    assert len(watch.deaths) > 3

    # While open: deaths are ignored, nothing is respawned.
    clock.now += 1.0
    supervisor.poll_once()
    assert len(manager.respawn_calls) == trips_respawns

    # Past the cooldown: one half-open attempt goes through.
    clock.now = watch.breaker_open_until + 0.1
    supervisor.poll_once()
    assert watch.breaker_open_until is None
    assert len(manager.respawn_calls) == trips_respawns + 1


def test_hold_suppresses_respawn_until_release():
    manager = FakeManager()
    clock = Clock()
    supervisor = make_supervisor(manager, clock)
    supervisor.hold(0)
    manager.procs[0].die()
    supervisor.poll_once()
    assert manager.respawn_calls == []
    supervisor.release(0)
    supervisor.poll_once()
    assert manager.respawn_calls == [0]


def test_stats_shape():
    manager = FakeManager(count=2)
    clock = Clock()
    supervisor = make_supervisor(manager, clock)
    manager.procs[1].die()
    supervisor.poll_once()
    stats = supervisor.stats()
    assert stats["respawns"] == 1
    assert stats["shards"]["1"]["respawns"] == 1
    assert stats["shards"]["0"]["respawns"] == 0
    assert any(event[1] == "respawned" for event in stats["events"])


# -- against real shard subprocesses -----------------------------------------

@pytest.fixture
def manager(tmp_path):
    from repro.serve.router import ShardManager
    instance = ShardManager(1, cache_dir=str(tmp_path / "cache"),
                            log_dir=str(tmp_path))
    instance.start()
    yield instance
    instance.stop()


def test_kill_closes_the_shard_log_handle(manager):
    # Regression: kill() used to leak the shard's log file handle.
    handle = manager._logs[0]
    assert handle is not None and not handle.closed
    manager.kill(0)
    assert handle.closed


def test_respawn_rebinds_the_original_socket(manager):
    spec = manager.specs[0]
    pid = manager.procs[0].pid
    manager.kill(0)
    assert not os.path.exists(spec.socket_path)
    respawned = manager.respawn(0)
    assert respawned is spec                # same ring identity
    assert os.path.exists(spec.socket_path)
    assert manager.procs[0].pid != pid
    with spec.client(timeout=30.0) as client:
        stats = client.status()
    assert stats["role"] == "shard" and stats["pid"] \
        == manager.procs[0].pid


def test_respawn_refuses_a_live_shard(manager):
    with pytest.raises(RuntimeError, match="still running"):
        manager.respawn(0)


@pytest.mark.parametrize("finish", ["drain", "stop"])
def test_manager_removes_its_socket_directory(tmp_path, finish):
    from repro.serve.router import ShardManager
    instance = ShardManager(1, cache_dir=str(tmp_path / "cache"),
                            log_dir=str(tmp_path)).start()
    base_dir = instance.base_dir
    assert os.path.isdir(base_dir)
    getattr(instance, finish)()
    assert not os.path.exists(base_dir)
    assert (tmp_path / "shard-0.log").is_file()


def test_manager_keeps_its_directory_when_the_logs_are_in_it():
    import shutil

    from repro.serve.router import ShardManager
    instance = ShardManager(1).start()
    try:
        instance.drain()
        assert os.listdir(instance.base_dir) == ["shard-0.log"]
    finally:
        shutil.rmtree(instance.base_dir, ignore_errors=True)


def test_supervisor_heals_a_sigkilled_shard(manager):
    supervisor = ShardSupervisor(manager, poll_interval=0.05,
                                 backoff=0.1, probe_timeout=2.0).start()
    try:
        victim = manager.procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()
        deadline = time.monotonic() + 30
        while True:
            watch = supervisor.watches[0]
            if watch.respawns >= 1 and not watch.awaiting_probe:
                break
            assert time.monotonic() < deadline, "never healed"
            time.sleep(0.05)
        with manager.specs[0].client(timeout=30.0) as client:
            assert client.status()["role"] == "shard"
        assert supervisor.stats()["respawns"] >= 1
    finally:
        supervisor.stop()


# -- pool workers do not outlive their shard ---------------------------------

_SPIN = "local s = 0\nfor i = 1, 100000000 do s = s + i end\nprint(s)\n"


def _ppid(pid):
    """Parent pid of a running process; ``None`` once it has exited
    (a zombie counts as exited)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return None if state in "ZX" else int(ppid)


def _gone_within(pids, seconds):
    deadline = time.monotonic() + seconds
    while any(_ppid(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)
    return True


@pytest.fixture
def workers(manager):
    """Pids of shard 0's warm pool workers (SIGKILLed at teardown if a
    test leaves them running)."""
    with manager.specs[0].client(timeout=60.0) as client:
        assert client.run("lua", "print(1)").output == "1\n"
    shard = manager.procs[0].pid
    pids = [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and _ppid(int(entry)) == shard]
    assert pids
    yield pids
    for pid in pids:
        if _ppid(pid):
            os.kill(pid, signal.SIGKILL)


def test_deadline_kill_stops_the_old_worker(manager, workers):
    from repro.serve.client import ServeError
    with manager.specs[0].client(timeout=60.0) as client:
        with pytest.raises(ServeError, match="worker killed"):
            client.run("lua", _SPIN, deadline=1.0)
    assert _gone_within(workers, 10), "worker outlived its kill"


def test_killed_shard_takes_its_workers_along(manager, workers):
    manager.kill(0)
    assert _gone_within(workers, 10), "workers outlived their shard"
