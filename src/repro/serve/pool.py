"""The service's warm worker pool.

A thin lifecycle wrapper around :class:`ProcessPoolExecutor` that
reuses the hardening machinery of :mod:`repro.bench.parallel`: the
same ``_warm_worker`` initializer (fork-time interpreter assembly, so
the first served request doesn't pay it), the same ``_kill_pool``
teardown for hung workers, and the same graceful degradation — when a
process pool cannot be built at all (sandboxed semaphores, missing
``/dev/shm``) the pool falls back to a single *inline* thread that
executes requests in-process with identical results.

The pool is **lazy**: no worker process exists until the first
:meth:`submit`.  A request satisfied from the persistent result cache
therefore never spawns a worker — the acceptance contract of
``repro serve``'s cache path — and ``builds`` in :meth:`stats` stays
at zero until real work arrives.
"""

import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.bench.parallel import _kill_pool, _warm_worker
from repro.engines import all_configs

_LOG = logging.getLogger("repro.serve.pool")

#: Seconds between a worker's checks that its shard is still alive.
_PARENT_POLL_S = 0.5


def _shard_worker_init(warm_engines, warm_configs):
    """Worker initializer: watch the shard, warm the interpreters (which
    also undoes the shard's signal handling, see ``_warm_worker``),
    then drop the disk cache the ``fork`` inherited from the parent.

    SIGINT keeps the shard loop's no-op handler, so Ctrl-C leaves
    in-flight work to the draining shard.  A SIGKILLed shard cannot
    reap its pool, so a watchdog thread exits the worker after it.

    The shared result-cache tier is strictly single-writer per shard:
    only the shard *parent* publishes records (mirroring
    :mod:`repro.bench.parallel`), so a forked worker must never hold a
    live handle to the shared cache root — with N shards over one
    root, worker-side writes would multiply the writers per cell from
    N to N x pool size for no benefit.
    """
    threading.Thread(target=_exit_with_parent,
                     args=(multiprocessing.parent_process().pid,),
                     name="repro-serve-parent-watch", daemon=True).start()
    _warm_worker(warm_engines, warm_configs)
    from repro.bench import cache as result_cache
    result_cache.disable()


def _exit_with_parent(parent_pid):
    """Watchdog body: end this worker once it is re-parented, i.e. once
    the shard that forked it has died."""
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(0)


class WarmPool:
    """Lazily-built pool of warm forked workers.

    ``workers=0`` selects *inline* mode outright: requests run on one
    background thread in this process (fast to start, fully
    deterministic — used by tests and ``--jobs 0``).  ``inline_fn``
    is the callable run for each submitted payload; it defaults to
    :func:`repro.api.execute_payload` and is swappable in inline mode
    so tests can gate execution.
    """

    def __init__(self, workers=2, warm_engines=("lua", "js"),
                 warm_configs=None, inline_fn=None):
        self.workers = max(0, int(workers))
        self.warm_engines = tuple(warm_engines)
        self.warm_configs = tuple(
            all_configs() if warm_configs is None else warm_configs)
        from repro import api
        self.inline_fn = inline_fn or api.execute_payload
        self._pool = None
        self._lock = threading.Lock()
        self._inline = self.workers == 0
        self.builds = 0      # process-pool constructions (0 = still cold)
        self.executed = 0    # tasks handed to a worker (cache hits skip)

    @property
    def mode(self):
        return "inline" if self._inline else "process"

    def _ensure(self):
        with self._lock:
            if self._pool is not None:
                return self._pool
            if self._inline:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(1, self.workers),
                    thread_name_prefix="repro-serve-inline")
                return self._pool
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_shard_worker_init,
                    initargs=(self.warm_engines, self.warm_configs))
                self.builds += 1
            except Exception:
                _LOG.warning("process pool unavailable; executing "
                             "requests inline in this process")
                self._inline = True
                self._pool = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix="repro-serve-inline")
            return self._pool

    def submit(self, payload):
        """Submit one request payload; returns a
        :class:`concurrent.futures.Future` of the result payload."""
        from repro import api
        pool = self._ensure()
        self.executed += 1
        if self._inline:
            return pool.submit(self.inline_fn, payload)
        try:
            return pool.submit(api.execute_payload, payload)
        except Exception:
            # The pool died between jobs (worker OOM-killed, shutdown
            # race): rebuild once and let the caller's retry logic
            # handle anything further.
            self.kill_rebuild()
            return self._ensure().submit(api.execute_payload, payload)

    def kill_rebuild(self):
        """Tear the current pool down *now* (hung-worker path: reuses
        :func:`repro.bench.parallel._kill_pool`); the next submit
        builds a fresh one."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if isinstance(pool, ThreadPoolExecutor):
            # Threads cannot be killed; orphan the executor and let
            # any wedged task finish in the background.
            pool.shutdown(wait=False)
        else:
            _kill_pool(pool)

    def shutdown(self):
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            if isinstance(pool, ThreadPoolExecutor):
                pool.shutdown(wait=False)
            else:
                pool.shutdown(wait=False, cancel_futures=True)

    def stats(self):
        return {"mode": self.mode, "workers": self.workers,
                "builds": self.builds, "executed": self.executed,
                "warm": self._pool is not None}
