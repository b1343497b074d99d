"""The three workloads, each driving the program strictly from outside.

A workload object lives in one fresh workload process.  ``setup()`` does
everything users pay before their first request; ``schedule()`` yields
the seed's op sequence; ``execute(spec)`` is the timed call;
``check(spec, outcome)`` verifies the outcome and returns an
:class:`OpRecord`; the rest has defaults in :class:`Workload`.  Failed
checks count as failed ops, never as exceptions.
"""

import hashlib
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import common
import inputs


@dataclass
class OpRecord:
    """What one timed op did; ``latency`` is filled in by the caller."""

    ok: bool
    counters: object = None     # repro Counters of the op, if any
    cached: bool = False        # served from the result cache
    latency: float = 0.0
    queue_wait: float = 0.0     # serve only: shard queue wait (s)
    execute: float = 0.0        # serve only: the reply's wall_seconds
    label: str = ""
    traced: bool = False        # ran with the layer wrappers installed

    @property
    def instructions(self):
        """Simulated instructions this op actually executed."""
        if self.counters is None or self.cached:
            return 0
        return self.counters.instructions

    @property
    def cycles(self):
        return self.counters.cycles if self.counters is not None else 0


def _complain(label, why):
    print("hostbench: op %s failed: %s" % (label, why), file=sys.stderr)


def _fail(label, why):
    _complain(label, why)
    return OpRecord(ok=False, label=label)


class Workload:
    """What the three workloads share; each overrides what it needs."""

    #: Ops per round; a timed phase stops only at the end of a round.
    round_ops = 1

    def __init__(self, seed, run_dir):
        self.seed = seed
        self.run_dir = run_dir
        #: Calibration kernel timings taken between set-up steps, and
        #: the wall time spent taking them (left out of ``setup_s``).
        self.setup_calib = []
        self.calib_spent = 0.0

    def sample(self):
        """Run the calibration kernel between two set-up steps, at a
        moment when nothing else of the workload is at work."""
        started = time.monotonic()
        self.setup_calib.append(common.calibrate())
        self.calib_spent += time.monotonic() - started

    def begin(self, index, spec):
        """Per-op bookkeeping, outside the timed region."""

    def layer_metrics(self, records, factor):
        """Workload-specific per-layer figures of a traced phase; host
        times are scaled by the phase's drift ``factor``."""
        return {}

    def accuracy(self):
        """Simulated results compared against the paper, if any."""
        return {}

    def peak_rss_kb(self):
        return common.vm_hwm_kb()

    def finish(self):
        """End-of-run checks, after the timed phase; may mark ops
        failed.  Returns ``{"checks_ok": bool}``."""
        return {"checks_ok": True}

    def close(self):
        """Release everything set-up started."""


class SweepCold(Workload):
    """Serial figure sweep into an empty result cache, attribution on.

    One op is one cell.  Every pass over the 44 cells starts from a new,
    empty cache directory and a cleared in-process memo, so every op
    simulates on the attributed reference loop and writes the cache.
    """

    name = "sweep-cold"
    round_ops = len(inputs.SWEEP_CELLS)

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.passes = 0
        self.pass_results = {}
        self._pass_dir = None
        self.consistent = True
        self.first_pass = None

    def setup(self):
        from repro import api
        from repro.bench import cache, runner
        self.api, self.cache, self.runner = api, cache, runner
        # Hashes the source tree, as a user's first cached run does.
        self._new_pass()

    def _new_pass(self):
        if self.pass_results:
            self._close_pass()
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)
        self.passes += 1
        self._pass_dir = os.path.join(self.run_dir, "cache-%d" % self.passes)
        self.cache.configure(root=self._pass_dir)
        self.runner.clear_cache()
        self.pass_results = {}

    def _close_pass(self):
        """Cross-config agreement over a finished pass."""
        if len(self.pass_results) != len(inputs.SWEEP_CELLS):
            return
        keyed = {cell[:3]: result
                 for cell, result in self.pass_results.items()}
        if self.runner.verify_outputs_match(keyed):
            self.consistent = False
        if self.first_pass is None:
            self.first_pass = dict(self.pass_results)

    def schedule(self):
        return inputs.sweep_order(self.seed)

    def begin(self, index, cell):
        if index % self.round_ops == 0 and self.pass_results:
            self._new_pass()
        self._stores = self.cache.active_cache().stores

    def execute(self, cell):
        engine, benchmark, config, scale = cell
        return self.api.run(engine, benchmark, config=config, scale=scale)

    def check(self, cell, result):
        engine, benchmark, config, scale = cell
        label = "/".join(map(str, cell))
        stores = self.cache.active_cache().stores
        self.pass_results[cell] = result
        counters = result.counters
        if not result.ok or result.cached:
            return _fail(label, "ok=%s cached=%s" % (result.ok, result.cached))
        if result.output != inputs.answer(engine, benchmark, scale):
            return _fail(label, "output %r" % result.output)
        flat = counters.bytecode_flat_instructions
        if not counters.bytecode_counts \
                or sum(flat.values()) != counters.core_instructions:
            return _fail(label, "no per-bytecode attribution")
        if stores != self._stores + 1:
            return _fail(label, "result cache not written")
        return OpRecord(ok=True, counters=counters, label=label)

    def layer_metrics(self, records, factor):
        return self.accuracy()

    def accuracy(self):
        """Typed speedups of the first full pass against the paper."""
        if self.first_pass is None:
            self._close_pass()
        figures = {}
        paper = {"lua": 9.9, "js": 11.2}
        for engine in inputs.ENGINES:
            ratios = []
            for (eng, benchmark, config, scale), result \
                    in (self.first_pass or {}).items():
                typed = self.first_pass.get((eng, benchmark, "typed", scale))
                if eng == engine and config == "baseline" and typed.ok \
                        and result.ok:
                    ratios.append(result.counters.cycles
                                  / typed.counters.cycles)
            speedup = common.geomean(ratios)
            figures["bench.typed_speedup_%s" % engine] = speedup
            figures["bench.typed_speedup_err_%s_pp" % engine] = \
                abs(100.0 * (speedup - 1.0) - paper[engine]) \
                if speedup else 0.0
        return figures

    def finish(self):
        self._close_pass()
        return {"checks_ok": self.consistent}

    def close(self):
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)


class RunHot(Workload):
    """A long-lived process re-running six warmed cells, attribution off.

    The warm pass is set-up: a cold run per cell pays interpreter
    assembly and the cold block/trace compile, and its counters are the
    reference every later repeat must reproduce exactly; a second run
    lets profile-driven trace formation settle before timing starts.
    The calibration kernel runs after every set-up run, so the drift
    correction of this multi-second set-up samples it throughout.
    """

    name = "run-hot"
    round_ops = len(inputs.RUN_HOT_CELLS)

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.reference = {}

    def setup(self):
        from repro import api
        self.api = api
        for cell in inputs.RUN_HOT_CELLS:
            result = self.execute(cell)
            engine, benchmark, _config, scale = cell
            if not result.ok or \
                    result.output != inputs.answer(engine, benchmark, scale):
                raise RuntimeError("run-hot cold run of %s printed %r"
                                   % (cell, result.output))
            self.reference[cell] = (result.output,
                                    result.counters.as_dict())
            self.sample()
        for cell in inputs.RUN_HOT_CELLS:
            if not self.check(cell, self.execute(cell)).ok:
                raise RuntimeError("run-hot warm run of %s differs from "
                                   "its cold run" % (cell,))
            self.sample()

    def schedule(self):
        return inputs.run_hot_order(self.seed)

    def execute(self, cell):
        engine, benchmark, config, scale = cell
        return self.api.run(engine, benchmark, config=config, scale=scale,
                            attribute=False)

    def check(self, cell, result):
        label = "/".join(map(str, cell))
        output, counters = self.reference[cell]
        if not result.ok or result.output != output:
            return _fail(label, "output %r" % result.output)
        if result.counters.as_dict() != counters:
            return _fail(label, "counters differ from the cold run")
        return OpRecord(ok=True, counters=result.counters, label=label)

    def engine_report(self):
        """``{cell: (traces formed, compile failures)}`` read from the
        trace engine's tables, which the cells' runs filled."""
        from repro.bench.workloads import workload
        from repro.sim.traces import trace_table
        from repro.uarch.config import DEFAULT_CONFIG
        report = {}
        for cell in inputs.RUN_HOT_CELLS:
            engine, benchmark, config, scale = cell
            vm = importlib.import_module("repro.engines.%s.vm" % engine)
            source = getattr(workload(benchmark),
                             "%s_source" % engine)(scale)
            table = trace_table(vm.interpreter_program(config)[0],
                                DEFAULT_CONFIG, source)
            report[cell] = (table.traces, table.trace_failures
                            + table.blocks.compile_failures)
        return report

    def finish(self):
        report = self.engine_report()
        bad = {cell: figures for cell, figures in report.items()
               if figures[0] < 1 or figures[1] != 0}
        if bad:
            print("hostbench: trace engine did not run cleanly: %s" % bad,
                  file=sys.stderr)
        return {"checks_ok": not bad}


#: A tiny program sent once during set-up so the shard builds its warm
#: worker pool before the first timed request.
_WARMUP = "print(0)\n"


def _digest(result):
    """What a reply must reproduce: its output and counters."""
    return hashlib.sha256(json.dumps(
        [result.output, result.counters.as_dict()],
        sort_keys=True).encode()).hexdigest()


class ServeZipf(Workload):
    """A ``repro route --shards 1 --jobs 1`` tier over an empty cache,
    driven by one closed-loop client on one connection.

    Every reply is checked against an in-process ``api.execute`` of the
    same payload.  Those reference runs are made after the timed phase
    (:meth:`finish`), not in set-up: they are the benchmark's own work,
    so they stay out of ``setup_s`` and out of the client's peak RSS.
    """

    name = "serve-zipf"
    round_ops = inputs.BLOCK

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.router = None
        self.client = None
        self.replies = []       # (record, kind, item, reply digest)

    # -- set-up ---------------------------------------------------------------

    def setup(self):
        from repro import api
        from repro.serve.client import ServeClient
        self.api = api
        self.runs, self.benches = inputs.serve_population(self.seed)
        # The kernel runs only while the tier waits for this client:
        # before it boots and once it answers.
        self.sample()
        self._boot()
        self._wait_ready()
        self.client = ServeClient(
            socket_path=os.path.relpath(self.socket), timeout=120.0)
        self.client.connect()
        if not self.client.ping():
            raise RuntimeError("router answered ping with another schema")
        self.sample()
        warm = self.client.submit(api.ExecutionRequest(
            op="run", engine="lua", source=_WARMUP))
        if not warm.ok or warm.output != "0\n":
            raise RuntimeError("warm-up request failed: %r" % warm)

    def _boot(self):
        # Unix socket paths are limited to ~107 bytes and the checkout
        # may sit deep: the tier runs in the run directory and names
        # its sockets relative to it.  The shards' sockets live under
        # mkdtemp(), i.e. $TMPDIR, which is kept inside the checkout.
        self.socket = os.path.join(self.run_dir, "router.sock")
        self.cache_dir = os.path.join(self.run_dir, "serve-cache")
        env = dict(os.environ)
        env["TMPDIR"] = self.run_dir if len(self.run_dir) < 60 else "."
        argv = [sys.executable, "-m", "repro", "route",
                "--shards", "1", "--jobs", "1",
                "--cache-dir", self.cache_dir, "--socket", "router.sock",
                "--warm-engine", "lua", "--warm-engine", "js",
                "--warm-config", "baseline", "--warm-config", "typed"]
        self._log = open(os.path.join(self.run_dir, "router.log"), "wb")
        self.router = subprocess.Popen(
            argv, cwd=self.run_dir, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)

    def _wait_ready(self, timeout=90.0):
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.socket):
            if self.router.poll() is not None:
                raise RuntimeError("router exited %d during boot"
                                   % self.router.returncode)
            if time.monotonic() > deadline:
                raise RuntimeError("router never bound its socket")
            time.sleep(0.02)

    @staticmethod
    def _label(kind, item):
        if kind == "run":
            digest = hashlib.sha256(item[3].encode()).hexdigest()[:12]
            return "run:%s:%s:%s" % (item[0], item[2], digest)
        return "bench:%s" % "/".join(map(str, item))

    @staticmethod
    def _key(kind, item):
        return (kind,) + tuple(item[:4])

    def _request(self, kind, item):
        if kind == "run":
            _label, engine, config, source, _expected = item
            return self.api.ExecutionRequest(
                op="run", engine=engine, config=config, source=source)
        engine, benchmark, config, scale = item
        return self.api.ExecutionRequest(
            op="bench", engine=engine, benchmark=benchmark, config=config,
            scale=scale)

    # -- timed ops ------------------------------------------------------------

    def schedule(self):
        for kind, item in inputs.serve_order(self.seed, self.runs,
                                             self.benches):
            yield kind, item, self._request(kind, item).as_dict()

    def execute(self, spec):
        from repro.serve.client import ServeError
        events = []
        try:
            result = self.client.submit(spec[2], on_event=events.append)
        except (ServeError, ConnectionError, OSError) as err:
            return err, events
        return result, events

    def check(self, spec, outcome):
        kind, item, _payload = spec
        result, events = outcome
        label = self._label(kind, item)
        if isinstance(result, Exception):
            return _fail(label, "%s: %s" % (type(result).__name__, result))
        if not result.ok or result.counters is None:
            return _fail(label, "error %r" % (result.error,))
        waits = [frame.get("queue_seconds", 0.0) for frame in events
                 if frame.get("event") == "started"]
        record = OpRecord(ok=True, counters=result.counters,
                          cached=result.cached, label=label,
                          queue_wait=sum(waits),
                          execute=0.0 if result.cached
                          else result.wall_seconds)
        self.replies.append((record, kind, item, _digest(result)))
        return record

    def finish(self):
        """Each reply's output and counters must equal an in-process
        ``api.execute`` of the same payload, whose output in turn must
        equal the answer table or the program's Python-computed output;
        a reply that does not counts as a failed op."""
        expected = {}
        for record, kind, item, digest in self.replies:
            key = self._key(kind, item)
            if key not in expected:
                expected[key] = self._reference(kind, item)
            if digest != expected[key]:
                record.ok = False
                _complain(record.label, "reply differs from the "
                          "in-process run")
        return {"checks_ok": True}

    def _reference(self, kind, item):
        result = self.api.execute(self._request(kind, item))
        answer = item[4] if kind == "run" else \
            inputs.answer(item[0], item[1], item[3])
        if not result.ok or result.output != answer:
            _complain(self._label(kind, item), "in-process run printed %r"
                      % result.output)
            return None
        return _digest(result)

    # -- reports --------------------------------------------------------------

    def _status(self):
        """Router counters, plus the shard's own ``status`` (the copy in
        the router's is only as fresh as its last health probe)."""
        from repro.serve.client import ServeClient
        stats = self.client.status()
        (shard_id,) = stats["shards"]
        # "unix:<path>", the path relative to the tier's directory.
        path = os.path.join(self.run_dir, shard_id[len("unix:"):])
        with ServeClient(socket_path=os.path.relpath(path),
                         timeout=30.0) as shard:
            pool = shard.status()["pool"]
        return {"forwarded": stats["jobs"]["forwarded"],
                "router_cache_hits": stats["jobs"]["router_cache_hits"],
                "pool_builds": pool["builds"]}

    def layer_metrics(self, records, factor):
        status = self._status()
        pings = []
        for _ in range(20):
            started = time.perf_counter()
            self.client.ping()
            pings.append(time.perf_counter() - started)
        simulated = [r for r in records if r.ok and not r.cached]
        hits = [r for r in records if r.ok and r.cached]
        ms = factor * 1e3
        return {
            "serve.ping_ms": common.median(pings) * ms,
            "serve.queue_wait_ms": common.median(
                [r.queue_wait for r in simulated]) * ms,
            "serve.execute_ms": common.median(
                [r.execute for r in simulated]) * ms,
            "serve.overhead_ms": common.median(
                [r.latency - r.queue_wait - r.execute
                 for r in simulated]) * ms,
            "serve.hit_ms": common.median([r.latency for r in hits]) * ms,
            "serve.forwarded": status["forwarded"],
            "serve.router_cache_hits": status["router_cache_hits"],
            "serve.pool_builds": status["pool_builds"],
            "bench.cache_hit_ratio":
                len(hits) / len(records) if records else 0.0,
        }

    def peak_rss_kb(self):
        """Largest ``VmHWM`` of this client and every tier process."""
        tier = [self.router.pid] + common.descendants(self.router.pid)
        peaks = [common.vm_hwm_kb()] + [common.vm_hwm_kb(p) for p in tier]
        return max(p for p in peaks if p is not None)

    def close(self):
        if self.router is None:
            return
        tier = [self.router.pid] + common.descendants(self.router.pid)
        drained = False
        if self.client is not None:
            try:
                self.client.drain()
                drained = True
            except (OSError, RuntimeError):
                pass
            self.client.close()
        if not drained:
            self.router.terminate()     # SIGTERM drains the router too
        try:
            self.router.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.router.kill()
            self.router.wait()
        deadline = time.monotonic() + 30
        while any(common.alive(pid) for pid in tier[1:]):
            if time.monotonic() > deadline:
                for pid in tier[1:]:
                    if common.alive(pid):
                        os.kill(pid, signal.SIGKILL)
                break
            time.sleep(0.05)
        self._log.close()


WORKLOADS = {cls.name: cls for cls in (SweepCold, RunHot, ServeZipf)}
