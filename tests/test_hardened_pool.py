"""The hardened executor: hung workers, dying workers, deterministic
failures, and the serial quarantine path.

Worker-side misbehaviour is keyed on the process id: under the fork
start method the module-global ``_PARENT_PID`` captured here stays the
parent's pid inside every pool worker, so the same (picklable) function
hangs or dies in the pool yet completes instantly when the executor
quarantines it to serial execution in the parent.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.bench.parallel import run_hardened

_PARENT_PID = os.getpid()

FAST = dict(timeout=5.0, retries=1, backoff=0.01)


def _square(task):
    return task * task


def _hang_in_worker(task):
    if task == "hang" and os.getpid() != _PARENT_PID:
        time.sleep(3600)
    return ("ok", task)


def _die_in_worker(task):
    if task == "die" and os.getpid() != _PARENT_PID:
        os._exit(13)
    return ("ok", task)


def _always_raises(task):
    raise ValueError("deterministic failure on %r" % (task,))


def test_empty_task_list():
    assert run_hardened(_square, [], max_workers=4) == {}


def test_plain_parallel_map():
    results = run_hardened(_square, [1, 2, 3, 4, 5], max_workers=2,
                           **FAST)
    assert results == {n: n * n for n in (1, 2, 3, 4, 5)}


def test_single_worker_runs_serially_in_parent():
    seen = []
    results = run_hardened(_hang_in_worker, ["hang", "a"], max_workers=1,
                           on_result=lambda t, r: seen.append(t), **FAST)
    # max_workers=1 never builds a pool, so the "hang" task runs in the
    # parent (where it does not hang) in submission order.
    assert results == {"hang": ("ok", "hang"), "a": ("ok", "a")}
    assert seen == ["hang", "a"]


def test_hung_worker_is_killed_and_task_quarantined():
    tasks = ["a", "hang", "b", "c"]
    start = time.monotonic()
    results = run_hardened(_hang_in_worker, tasks, max_workers=2,
                           timeout=1.0, retries=1, backoff=0.01)
    elapsed = time.monotonic() - start
    # Two timed-out attempts, then the parent runs it serially — the
    # sweep completes with every result present and correct.
    assert results == {task: ("ok", task) for task in tasks}
    assert elapsed < 60, "hung worker wedged the executor"


def test_dying_worker_is_retried_then_quarantined():
    tasks = ["a", "die", "b", "c"]
    results = run_hardened(_die_in_worker, tasks, max_workers=2, **FAST)
    assert results == {task: ("ok", task) for task in tasks}


def test_deterministic_failure_raises_cleanly_in_parent():
    # A task that fails identically on every attempt must not be
    # retried forever: after the retry budget it runs serially in the
    # parent, where the real exception finally propagates.
    with pytest.raises(ValueError, match="deterministic failure"):
        run_hardened(_always_raises, ["x"], max_workers=2, **FAST)


def test_on_result_fires_once_per_task():
    seen = []
    results = run_hardened(_square, [3, 4, 5], max_workers=2,
                           on_result=lambda t, r: seen.append((t, r)),
                           **FAST)
    assert sorted(seen) == [(3, 9), (4, 16), (5, 25)]
    assert len(seen) == len(results) == 3


# A serving shard runs a ``sweep`` request in a pool forked from a
# thread while its asyncio loop handles SIGTERM (as drain).  The probe
# rebuilds that shape in a fresh interpreter, hangs the worker, kills
# the pool the way the hardened executor does, and reports the
# worker's exit code and whether the loop's SIGTERM handler ran.
_SHARD_PROBE = """
import asyncio, json, signal, time
from concurrent.futures import ProcessPoolExecutor
from repro.bench.parallel import _kill_pool, _warm_worker

def sweep():
    pool = ProcessPoolExecutor(max_workers=1, initializer=_warm_worker,
                               initargs=((), ()))
    pool.submit(int).result()      # the worker is up and initialised
    pool.submit(time.sleep, 60)    # a hung sweep cell
    time.sleep(0.3)
    processes = list(pool._processes.values())
    # The executor's manager thread reaps the killed worker as well:
    # let it finish first, so a second waitpid cannot lose the code.
    manager = pool._executor_manager_thread
    _kill_pool(pool)
    manager.join(10)
    codes = []
    for process in processes:
        process.join(5)
        codes.append(process.exitcode)
        if process.is_alive():
            process.kill()
            process.join()
    return codes

async def main():
    loop = asyncio.get_running_loop()
    drained = []
    loop.add_signal_handler(signal.SIGTERM, drained.append, "drain")
    codes = await loop.run_in_executor(None, sweep)
    await asyncio.sleep(0.3)
    print(json.dumps({"codes": codes, "drained": drained}))

asyncio.run(main())
"""


def test_kill_stops_worker_forked_under_a_signal_handling_loop():
    """Terminating a hung worker must stop it, not forward the SIGTERM
    through the inherited wakeup fd and drain the forking shard."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = subprocess.run([sys.executable, "-c", _SHARD_PROBE],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == {"codes": [-signal.SIGTERM],
                                        "drained": []}
