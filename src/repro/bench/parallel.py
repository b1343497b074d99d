"""Shard the benchmark matrix (and fault campaigns) across cores.

The (engine x benchmark x config) sweep is embarrassingly parallel:
every cell is an independent, deterministic simulation.
:func:`run_matrix_parallel` resolves cache hits in the parent (memory
first, then the disk cache of :mod:`repro.bench.cache`), ships only
the misses to a :class:`~concurrent.futures.ProcessPoolExecutor`, and
falls back to the in-process serial path when one worker (or no pool
at all) is available — results are identical either way, cell by
cell, because the simulator is deterministic.

The pool itself is *hardened* (:func:`run_hardened`): every in-flight
task carries a deadline, a worker that hangs past it is killed with the
pool and its task retried with exponential backoff, a task whose worker
dies repeatedly is quarantined to serial execution in the parent, and a
broken pool (sandboxed semaphores, missing ``/dev/shm``) degrades to
the serial path.  A single wedged or crashing worker therefore slows a
sweep down but can never wedge or kill it.  The fault-injection
campaign runner (:mod:`repro.faults.campaign`) fans its injections
through the same executor.

Workers run each cell with ``use_cache=False``; the parent alone
publishes results to the memory and disk caches, so cache writes are
single-writer regardless of pool size (the disk cache's atomic
rename makes even racing processes safe).
"""

import contextlib
import logging
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro.bench import cache as result_cache
from repro.bench import runner
from repro.bench.runner import ENGINES
from repro.bench.workloads import BENCHMARK_ORDER
from repro.engines import all_configs

_LOG = logging.getLogger("repro.bench.parallel")

#: Per-task wall-clock budget inside the pool; a worker that exceeds it
#: is presumed hung, killed with its pool, and the task retried.
DEFAULT_TIMEOUT = 120.0

#: Failed attempts (death, hang or exception) before a task is
#: quarantined to serial execution in the parent process.
DEFAULT_RETRIES = 2

#: Base of the exponential backoff slept before rebuilding a pool after
#: a death or hang (``backoff * 2**(attempt-1)`` seconds).
DEFAULT_BACKOFF = 0.5


@dataclass
class CellProgress:
    """One progress/metrics event, emitted per completed cell."""

    key: tuple        #: (engine, benchmark, config)
    scale: int
    cached: bool      #: satisfied from the memory/disk cache
    seconds: float    #: wall-clock simulation time (0.0 for hits)
    instructions: int  #: total dynamic instructions of the cell
    completed: int    #: cells finished so far, this sweep
    total: int        #: cells in the sweep
    cache_hits: int   #: cache hits so far, this sweep
    mips: float = 0.0  #: the record's simulated MIPS (survives caching)

    @property
    def throughput(self):
        """Simulated instructions per second (0.0 for cache hits)."""
        return self.instructions / self.seconds if self.seconds else 0.0


def matrix_cells(engines=ENGINES, benchmarks=BENCHMARK_ORDER,
                 configs=None, scales=None):
    """The sweep's cells as (engine, benchmark, config, scale) tuples,
    in the canonical (serial ``run_matrix``) order.  ``configs``
    defaults to the live tagging-scheme registry."""
    configs = all_configs() if configs is None else configs
    cells = []
    for engine in engines:
        for benchmark in benchmarks:
            scale = runner.resolve_scale(benchmark,
                                         (scales or {}).get(benchmark))
            for config in configs:
                cells.append((engine, benchmark, config, scale))
    return cells


def _warm_worker(engines, configs):
    """Pool initializer: undo the parent's signal handling, then
    assemble the interpreter text for every (engine, config) this
    worker will run, so the one-time per-process setup cost is paid up
    front instead of inside the first cell.

    A pool forked by a process whose asyncio loop handles SIGTERM (a
    serving shard) inherits the loop's no-op Python handler and its
    wakeup fd: a SIGTERM to the worker would not stop it but would run
    the *parent's* handler instead.  SIGTERM gets its default action
    back, so ``_kill_pool``'s ``terminate()`` stops a hung worker.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    for engine in engines:
        if engine == "lua":
            from repro.engines.lua import vm as engine_vm
        else:
            from repro.engines.js import vm as engine_vm
        for config in configs:
            engine_vm.interpreter_program(config)


def _simulate_cell(cell):
    """Worker body: simulate one cell, uncached; returns
    (record, wall_seconds).  Must stay module-level (picklable)."""
    engine, benchmark, config, scale = cell
    start = time.perf_counter()
    record = runner.run_benchmark(engine, benchmark, config, scale=scale,
                                  use_cache=False)
    return record, time.perf_counter() - start


# -- hardened executor -------------------------------------------------------

def _kill_pool(pool):
    """Tear a pool down *now*: cancel queued work, then terminate the
    worker processes (a hung worker never honours a graceful join).

    The process handles must be snapshotted *before* ``shutdown``:
    CPython drops ``_processes`` to ``None`` on shutdown even with
    ``wait=False``, and an unterminated hung worker would keep the
    executor's management thread — and the interpreter's atexit join —
    alive forever."""
    processes = dict(getattr(pool, "_processes", None) or {})
    with contextlib.suppress(Exception):
        pool.shutdown(wait=False, cancel_futures=True)
    for process in processes.values():
        with contextlib.suppress(Exception):
            process.terminate()


def run_hardened(fn, tasks, max_workers=None, timeout=DEFAULT_TIMEOUT,
                 retries=DEFAULT_RETRIES, backoff=DEFAULT_BACKOFF,
                 initializer=None, initargs=(), on_result=None):
    """Map ``fn`` over ``tasks`` in a process pool that survives hung,
    crashing and failing workers; returns ``{task: result}``.

    * Each in-flight task has a ``timeout``-second deadline; a task
      still running past it is presumed hung — the pool is killed, the
      hung task charged one attempt, and innocent in-flight tasks are
      requeued free of charge.
    * A dead pool (:class:`BrokenProcessPool`) charges every in-flight
      task one attempt and is rebuilt after ``backoff * 2**(attempt-1)``
      seconds.
    * A task that fails more than ``retries`` times — and any task left
      when no pool can be built at all — runs *serially* in the parent,
      where a genuine deterministic error finally raises with a clean
      traceback instead of being retried forever.

    ``fn`` and every task must be picklable; ``fn`` must be
    deterministic for retries to be sound.  ``on_result(task, result)``
    fires in completion order; the returned dict is unordered.
    """
    tasks = list(tasks)
    results = {}

    def emit(task, value):
        results[task] = value
        if on_result is not None:
            on_result(task, value)

    workers = min(max_workers or os.cpu_count() or 1, len(tasks))
    pending = deque(tasks)
    serial = []
    if workers > 1:
        attempts = {}

        def charge(task, reason):
            """One failed attempt; route to retry or serial quarantine."""
            attempts[task] = attempts.get(task, 0) + 1
            if attempts[task] > retries:
                _LOG.warning("task %r %s; quarantined to serial "
                             "execution after %d attempts",
                             task, reason, attempts[task])
                serial.append(task)
            else:
                _LOG.warning("task %r %s; retrying (attempt %d/%d)",
                             task, reason, attempts[task] + 1, retries + 1)
                pending.append(task)
            return attempts[task]

        pool = None
        in_flight = {}  # future -> (task, deadline)
        try:
            while pending or in_flight:
                if pool is None:
                    try:
                        pool = ProcessPoolExecutor(
                            max_workers=workers, initializer=initializer,
                            initargs=initargs)
                    except Exception:
                        # Pool unavailable (sandboxed semaphores,
                        # missing /dev/shm...): everything left runs
                        # serially below.
                        _LOG.warning("process pool unavailable; running "
                                     "%d task(s) serially", len(pending))
                        break
                while pending and len(in_flight) < workers:
                    task = pending.popleft()
                    try:
                        future = pool.submit(fn, task)
                    except Exception:  # pool died between polls
                        pending.appendleft(task)
                        break
                    deadline = time.monotonic() + timeout \
                        if timeout else None
                    in_flight[future] = (task, deadline)
                if not in_flight:
                    if pending:  # submission failed: rebuild the pool
                        _kill_pool(pool)
                        pool = None
                    continue

                interval = None
                if timeout:
                    now = time.monotonic()
                    interval = max(0.01, min(
                        deadline - now
                        for _, deadline in in_flight.values()))
                done, _ = wait(list(in_flight), timeout=interval,
                               return_when=FIRST_COMPLETED)

                broken = False
                worst = 0
                for future in done:
                    task, _deadline = in_flight.pop(future)
                    try:
                        emit(task, future.result())
                    except Exception as err:
                        if isinstance(err, BaseException) and \
                                type(err).__name__ == "BrokenProcessPool" \
                                or "Broken" in type(err).__name__:
                            broken = True
                            worst = max(worst,
                                        charge(task, "lost its worker"))
                        else:
                            worst = max(worst, charge(
                                task, "failed (%s: %s)"
                                % (type(err).__name__, err)))
                if broken:
                    # The whole pool is dead: every other in-flight task
                    # died with it.
                    for task, _deadline in in_flight.values():
                        worst = max(worst,
                                    charge(task, "lost its worker"))
                    in_flight.clear()
                    _kill_pool(pool)
                    pool = None
                elif timeout:
                    now = time.monotonic()
                    overdue = [future for future, (_t, deadline)
                               in in_flight.items()
                               if deadline and now >= deadline]
                    if overdue:
                        for future in overdue:
                            task, _deadline = in_flight.pop(future)
                            worst = max(worst, charge(
                                task,
                                "exceeded the %gs timeout" % timeout))
                        # Innocent in-flight work is requeued without a
                        # charge — only the hung task pays.
                        for task, _deadline in in_flight.values():
                            pending.appendleft(task)
                        in_flight.clear()
                        _kill_pool(pool)
                        pool = None
                if pool is None and (pending or serial) and worst:
                    time.sleep(backoff * (2 ** (worst - 1)))
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    # Serial tail: quarantined tasks, everything left when no pool could
    # be built, and the whole workload when only one worker is allowed.
    for task in serial + list(pending):
        emit(task, fn(task))
    return results


def run_matrix_parallel(engines=ENGINES, benchmarks=BENCHMARK_ORDER,
                        configs=None, scales=None, max_workers=None,
                        use_cache=True, progress=None,
                        timeout=DEFAULT_TIMEOUT, retries=DEFAULT_RETRIES,
                        backoff=DEFAULT_BACKOFF):
    """Run the sweep across processes; returns the same
    ``{(engine, benchmark, config): record}`` dict as
    :func:`repro.bench.runner.run_matrix`, in the same order.

    ``max_workers`` defaults to the CPU count; ``1`` (or an
    unavailable pool) degrades gracefully to the serial in-process
    path.  ``progress`` receives one :class:`CellProgress` per
    completed cell, in completion order; the returned dict is ordered
    canonically regardless.  ``timeout``/``retries``/``backoff`` tune
    the hardened executor (see :func:`run_hardened`).
    """
    configs = all_configs() if configs is None else configs
    cells = matrix_cells(engines, benchmarks, configs, scales)
    total = len(cells)
    state = {"completed": 0, "hits": 0}
    results = {}

    def report(cell, record, cached, seconds):
        state["completed"] += 1
        if cached:
            state["hits"] += 1
        if progress is not None:
            progress(CellProgress(
                key=cell[:3], scale=cell[3], cached=cached,
                seconds=seconds,
                instructions=record.counters.instructions,
                completed=state["completed"], total=total,
                cache_hits=state["hits"],
                mips=record.simulated_mips))

    disk = result_cache.active_cache() if use_cache else None
    pending = []
    for cell in cells:
        record = runner.cached_record(*cell) if use_cache else None
        if record is not None:
            results[cell] = record
            report(cell, record, True, 0.0)
        else:
            pending.append(cell)

    # Dispatch misses grouped by (engine, config) so consecutive cells
    # landing on one worker share the assembled interpreter, predecoded
    # program and block/trace tables instead of interleaving cold
    # pairs.  The returned dict is re-ordered canonically below either
    # way.
    group_order = {}
    for cell in pending:
        group_order.setdefault((cell[0], cell[2]), len(group_order))
    pending.sort(key=lambda cell: group_order[(cell[0], cell[2])])

    def finish(cell, payload):
        record, seconds = payload
        if use_cache:
            runner.publish(record, disk=disk)
        results[cell] = record
        report(cell, record, False, seconds)

    workers = min(max_workers or os.cpu_count() or 1, len(pending))
    if pending and workers > 1:
        run_hardened(_simulate_cell, pending, max_workers=workers,
                     timeout=timeout, retries=retries, backoff=backoff,
                     initializer=_warm_worker,
                     initargs=(tuple(engines), tuple(configs)),
                     on_result=finish)
    else:
        for cell in pending:
            finish(cell, _simulate_cell(cell))

    return {cell[:3]: results[cell] for cell in cells}
