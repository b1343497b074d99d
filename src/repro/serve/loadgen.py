"""``repro loadgen`` — synthetic traffic for the serve tier.

Replays a mixed ``run``/``bench``/``sweep`` workload against a router
(or a single ``repro serve`` daemon — same protocol) at a target QPS
and measures what the ROADMAP's serving story needs measured:
sustained QPS, p50/p95/p99 latency, cache hit rate and rejection rate,
written as a schema-stamped ``BENCH_serve.json`` artifact that
``repro.bench.gate``'s SLO mode holds the line on in CI.

Traffic model:

* A fixed *population* of request keys is derived deterministically
  from the seed — little Lua/JS programs, benchmark cells across the
  tagging-scheme registry, and (optionally) tiny sweeps.
* Arrivals are open-loop at ``1/qps`` spacing; each request picks its
  key by **zipf-skewed popularity** (rank ``r`` drawn with probability
  proportional to ``1/(r+1)^s``), the canonical shape of scripting
  traffic — a few hot requests and a long cold tail — which is exactly
  what exercises the tier's dedup/coalescing and the shared cache.
* A ``busy`` rejection is *counted*, not retried: the harness measures
  the tier's backpressure instead of hiding it.

Two acceptance probes ride along:

* **Identity** — a sampled subset of served replies is compared
  byte-for-byte (sorted-JSON counters) against an in-process
  :func:`repro.api.execute` of the same payload.
* **Drain** — with in-flight requests outstanding, the target is asked
  to drain; every one of them must still complete (zero dropped).
"""

import json
import logging
import threading
import time
from dataclasses import dataclass, field

from repro import api
from repro.schema import artifact
from repro.serve.client import (ServeBusy, ServeClient, ServeError,
                                ServeShed)

_LOG = logging.getLogger("repro.serve.loadgen")

#: Artifact family of ``BENCH_serve.json``.
ARTIFACT_KIND = "serve-load"

#: Default op mix (must sum to 1; ``sweep`` is deliberately rare —
#: one sweep costs hundreds of requests' worth of work).
DEFAULT_MIX = {"run": 0.55, "bench": 0.40, "sweep": 0.05}

#: Benchmark cells the ``bench`` slice cycles through (kept tiny so a
#: load run is traffic-bound, not simulation-bound).
BENCH_SCALES = (3, 4, 5, 6)


@dataclass
class LoadSpec:
    """One load run's knobs (all deterministic given ``seed``)."""

    qps: float = 10.0
    duration: float = 8.0
    keys: int = 16
    zipf_s: float = 1.1
    mix: dict = field(default_factory=lambda: dict(DEFAULT_MIX))
    engines: tuple = ("lua",)
    configs: tuple = None       # default: the live registry
    seed: int = 1234
    threads: int = 16
    timeout: float = 120.0
    sample: int = 3             # identity-checked population entries
    drain_inflight: int = 3     # in-flight requests during the drain
    benchmark: str = "fibo"

    def resolved_configs(self):
        if self.configs:
            return tuple(self.configs)
        from repro.engines import all_configs
        return tuple(all_configs())


class ZipfSampler:
    """Draw ranks ``0..n-1`` with probability ~ ``1/(rank+1)**s``."""

    def __init__(self, n, s=1.1):
        weights = [1.0 / ((rank + 1) ** s) for rank in range(n)]
        total = sum(weights)
        self.cdf = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self.cdf.append(acc)

    def draw(self, uniform):
        """Map one uniform [0,1) draw to a rank."""
        import bisect
        return min(bisect.bisect_right(self.cdf, uniform),
                   len(self.cdf) - 1)


def _run_source(engine, rank):
    """A deterministic little guest program, distinct per rank."""
    iterations = 200 + 97 * rank
    if engine == "js":
        return ("var s = 0;\n"
                "for (var i = 1; i <= %d; i = i + 1) { s = s + i * i; }\n"
                "print(s);\n" % iterations)
    return ("local s = 0\n"
            "for i = 1, %d do s = s + i * i end\n"
            "print(s)\n" % iterations)


def build_population(spec):
    """The request population: ``spec.keys`` distinct payloads, op mix
    and config mix drawn deterministically from the seed.

    Rank 0 is the most popular key under the zipf draw, so the
    ordering here *is* the popularity ordering.
    """
    import random
    rng = random.Random(spec.seed)
    configs = spec.resolved_configs()
    ops = list(spec.mix)
    weights = [spec.mix[op] for op in ops]
    population = []
    for rank in range(spec.keys):
        op = rng.choices(ops, weights=weights)[0]
        engine = spec.engines[rank % len(spec.engines)]
        config = configs[rank % len(configs)]
        if op == "run":
            request = api.ExecutionRequest(
                op="run", engine=engine,
                source=_run_source(engine, rank), config=config)
        elif op == "bench":
            request = api.ExecutionRequest(
                op="bench", engine=engine, benchmark=spec.benchmark,
                config=config,
                scale=BENCH_SCALES[rank % len(BENCH_SCALES)])
        else:
            request = api.ExecutionRequest(
                op="sweep", engines=(engine,),
                benchmarks=(spec.benchmark,), configs=(config,),
                scales={spec.benchmark: BENCH_SCALES[0]}, jobs=1)
        population.append({
            "rank": rank,
            "op": op,
            "payload": request.as_dict(),
            "key": request.key(),
        })
    return population


def build_schedule(spec, population):
    """The open-loop arrival schedule: ``(offset_seconds, entry)``
    pairs, zipf-skewed over the population, deterministic for a seed.
    Shared by :func:`run_load` and the chaos harness
    (:mod:`repro.serve.chaos`), which replays the *same* traffic under
    a fault schedule."""
    import random
    sampler = ZipfSampler(len(population), spec.zipf_s)
    rng = random.Random(spec.seed + 1)
    offered = max(1, int(spec.qps * spec.duration))
    return [(index / spec.qps,
             population[sampler.draw(rng.random())])
            for index in range(offered)]


def percentile(values, q):
    """The ``q``-quantile (0..1) of ``values`` by rank selection;
    0.0 for an empty list."""
    if not values:
        return 0.0
    import math
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1,
                       math.ceil(q * len(ordered)) - 1))
    return ordered[index]


class _Collector:
    """Thread-safe accumulation of per-request outcomes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies = []
        self.completed = 0
        self.cached = 0
        self.coalesced = 0
        self.rejected = 0
        self.shed = 0
        self.errors = []
        self.first_result = {}   # rank -> result dict (first completion)
        self.first_sent = None
        self.last_done = None

    def note_sent(self, now):
        with self.lock:
            if self.first_sent is None:
                self.first_sent = now

    def note_result(self, rank, result, latency, now):
        with self.lock:
            self.completed += 1
            self.latencies.append(latency)
            self.cached += bool(result.cached)
            self.coalesced += bool(result.coalesced)
            self.first_result.setdefault(rank, result)
            self.last_done = now

    def note_rejected(self, now):
        with self.lock:
            self.rejected += 1
            self.last_done = now

    def note_shed(self, now):
        with self.lock:
            self.shed += 1
            self.last_done = now

    def note_error(self, err, now):
        with self.lock:
            self.errors.append("%s: %s" % (type(err).__name__, err))
            self.last_done = now


def _client_kwargs(socket_path, host, port, timeout):
    if host is not None:
        return {"host": host, "port": port, "timeout": timeout}
    return {"socket_path": socket_path, "timeout": timeout}


def run_load(spec, *, socket_path=None, host=None, port=None,
             drain_check=True, progress=None):
    """Run one load campaign against the tier at the given address;
    returns the (unstamped) report dict — see :func:`make_report` for
    the artifact form."""
    population = build_population(spec)
    schedule = build_schedule(spec, population)
    offered = len(schedule)
    collector = _Collector()
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    start = time.monotonic()

    def worker():
        while True:
            with cursor_lock:
                index = cursor["next"]
                if index >= len(schedule):
                    return
                cursor["next"] = index + 1
            offset, entry = schedule[index]
            delay = start + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            collector.note_sent(sent)
            try:
                with ServeClient(**_client_kwargs(
                        socket_path, host, port, spec.timeout)) as client:
                    result = client.submit(entry["payload"])
            except ServeShed:
                collector.note_shed(time.monotonic())
            except ServeBusy:
                collector.note_rejected(time.monotonic())
            except (ServeError, ConnectionError, OSError) as err:
                collector.note_error(err, time.monotonic())
            else:
                done = time.monotonic()
                collector.note_result(entry["rank"], result,
                                      done - sent, done)
            if progress is not None:
                progress(collector)

    threads = [threading.Thread(target=worker, name="loadgen-%d" % i,
                                daemon=True)
               for i in range(max(1, min(spec.threads, offered)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    elapsed = (collector.last_done or time.monotonic()) \
        - (collector.first_sent or start)
    identity = check_identity(spec, population, collector.first_result)
    drain = {"checked": False, "inflight_at_drain": 0, "dropped": 0}
    drain_stats = None
    if drain_check:
        drain, drain_stats = run_drain_check(
            spec, socket_path=socket_path, host=host, port=port)

    latencies_ms = [latency * 1000.0 for latency in collector.latencies]
    attempts = collector.completed + collector.rejected \
        + collector.shed + len(collector.errors)
    report = {
        "spec": {
            "qps": spec.qps, "duration": spec.duration,
            "keys": spec.keys, "zipf_s": spec.zipf_s,
            "mix": dict(spec.mix), "engines": list(spec.engines),
            "configs": list(spec.resolved_configs()),
            "seed": spec.seed, "threads": spec.threads,
            "benchmark": spec.benchmark,
        },
        "traffic": {
            "offered": offered,
            "completed": collector.completed,
            "rejected": collector.rejected,
            "shed": collector.shed,
            "errors": len(collector.errors),
            "error_samples": collector.errors[:5],
            "cached": collector.cached,
            "coalesced": collector.coalesced,
        },
        "sustained_qps": round(collector.completed / elapsed, 3)
        if elapsed > 0 else 0.0,
        "elapsed_seconds": round(elapsed, 3),
        "latency_ms": {
            "p50": round(percentile(latencies_ms, 0.50), 2),
            "p95": round(percentile(latencies_ms, 0.95), 2),
            "p99": round(percentile(latencies_ms, 0.99), 2),
            "mean": round(sum(latencies_ms) / len(latencies_ms), 2)
            if latencies_ms else 0.0,
            "max": round(max(latencies_ms), 2) if latencies_ms else 0.0,
        },
        "cache_hit_rate": round(collector.cached
                                / max(1, collector.completed), 4),
        "coalesced_rate": round(collector.coalesced
                                / max(1, collector.completed), 4),
        "rejection_rate": round(collector.rejected / max(1, attempts), 4),
        "shed_rate": round(collector.shed / max(1, attempts), 4),
        "error_rate": round(len(collector.errors) / max(1, attempts), 4),
        "identity": identity,
        "drain": drain,
    }
    if drain_stats is not None:
        report["router"] = drain_stats
    return report


def check_identity(spec, population, first_result):
    """Re-execute a sampled subset in-process and compare counters
    byte-for-byte (sorted JSON) with the served replies."""
    candidates = [entry for entry in population
                  if entry["op"] in ("run", "bench")
                  and entry["rank"] in first_result]
    sampled = candidates[:max(0, spec.sample)]
    matched, mismatched = 0, []
    for entry in sampled:
        payload = dict(entry["payload"])
        if entry["op"] == "bench":
            # Fresh local execution — the point is to cross-check the
            # tier against the simulator, not against its own cache.
            payload["use_cache"] = False
        local = api.execute(api.ExecutionRequest.from_dict(payload))
        served = first_result[entry["rank"]]
        local_blob = json.dumps(local.counters.as_dict(), sort_keys=True)
        served_blob = json.dumps(
            served.counters.as_dict() if served.counters else None,
            sort_keys=True)
        if local_blob == served_blob and served.output == local.output:
            matched += 1
        else:
            mismatched.append(entry["key"])
    return {"sampled": len(sampled), "matched": matched,
            "mismatched_keys": mismatched}


def run_drain_check(spec, *, socket_path=None, host=None, port=None):
    """With ``spec.drain_inflight`` requests in flight, ask the target
    to drain; every in-flight request must still complete.

    Returns ``(drain_section, stats_from_drain_reply)``.  After this
    the target is gone — it's the load run's final act.
    """
    count = max(1, spec.drain_inflight)
    admitted = [threading.Event() for _ in range(count)]
    outcomes = [None] * count

    def one(index):
        # Unique sources so the requests can't coalesce into one job.
        source = ("local s = 0\n"
                  "for i = 1, %d do s = s + i end\n"
                  "print(s)\n" % (40000 + index))

        def on_event(frame):
            if frame.get("event") in ("queued", "routed", "started"):
                admitted[index].set()

        try:
            with ServeClient(**_client_kwargs(
                    socket_path, host, port, spec.timeout)) as client:
                outcomes[index] = client.run("lua", source,
                                             config="baseline",
                                             on_event=on_event)
        except (ServeError, ConnectionError, OSError) as err:
            admitted[index].set()
            outcomes[index] = err

    threads = [threading.Thread(target=one, args=(index,), daemon=True)
               for index in range(count)]
    for thread in threads:
        thread.start()
    for event in admitted:
        event.wait(spec.timeout)
    stats = None
    try:
        with ServeClient(**_client_kwargs(
                socket_path, host, port, spec.timeout)) as client:
            stats = client.drain()
    except (ServeError, ConnectionError, OSError) as err:
        _LOG.warning("drain control request failed: %s", err)
    for thread in threads:
        thread.join(spec.timeout)
    completed = sum(1 for outcome in outcomes
                    if isinstance(outcome, api.ExecutionResult)
                    and outcome.ok)
    return ({"checked": True, "inflight_at_drain": count,
             "dropped": count - completed}, stats)


def make_report(report):
    """Stamp a :func:`run_load` report as the ``BENCH_serve.json``
    artifact."""
    return artifact(ARTIFACT_KIND, report)


class LocalTier:
    """A self-booted routed tier: N subprocess shards sharing one
    cache root, fronted by an in-process router thread.

    The loadgen smoke harness (CI's ``serve-load`` job) and the
    integration tests both drive their traffic through this.  Use as a
    context manager; on a *drained* exit (the load run's drain check
    already stopped the router) :meth:`shutdown` just reaps shards.
    """

    def __init__(self, shards=2, *, jobs=1, queue_depth=16,
                 cache_dir=None, warm_engines=("lua",),
                 warm_configs=None, log_dir=None, socket_path=None,
                 health_interval=1.0, busy_retries=2,
                 supervise=False, supervisor_kwargs=None,
                 router_kwargs=None):
        from repro.serve.router import ShardManager
        self.manager = ShardManager(
            shards, jobs=jobs, queue_depth=queue_depth,
            cache_dir=cache_dir, warm_engines=warm_engines,
            warm_configs=warm_configs, log_dir=log_dir)
        # None: route() picks a path and :meth:`start` reads it back.
        self.socket_path = socket_path
        self.health_interval = health_interval
        self.busy_retries = busy_retries
        self.supervise = supervise
        self.supervisor_kwargs = dict(supervisor_kwargs or {})
        self.router_kwargs = dict(router_kwargs or {})
        self.router = None
        self.supervisor = None
        self.shard_exit_codes = None
        self._thread = None
        self._ready = threading.Event()
        self._error = None

    def start(self, timeout=120.0):
        import asyncio
        self.manager.start()
        if self.supervise:
            from repro.serve.supervisor import ShardSupervisor
            self.supervisor = ShardSupervisor(
                self.manager, **self.supervisor_kwargs).start()

        def ready(server):
            self.socket_path = server.socket_path
            self._ready.set()

        def main():
            from repro.serve.router import route
            try:
                self.router = asyncio.run(route(
                    self.manager.specs, socket_path=self.socket_path,
                    signals=False, ready=ready,
                    health_interval=self.health_interval,
                    busy_retries=self.busy_retries,
                    supervisor=self.supervisor,
                    **self.router_kwargs))
            except Exception as err:  # noqa: BLE001 — surfaced below
                self._error = err
                self._ready.set()
        self._thread = threading.Thread(target=main,
                                        name="repro-route",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout) or self._error is not None:
            if self.supervisor is not None:
                self.supervisor.stop()
            self.manager.stop()
            raise RuntimeError("router never came up: %s" % self._error)
        return self

    def shutdown(self, timeout=120.0):
        """Stop supervision (so the drain is not fought by respawns),
        drain the router (idempotent: a no-op if the load run's drain
        check already stopped it), then drain the shards."""
        if self.supervisor is not None:
            self.supervisor.stop()
        if self._thread is not None and self._thread.is_alive():
            try:
                with ServeClient(socket_path=self.socket_path,
                                 timeout=30.0) as client:
                    client.drain()
            except (ServeError, ConnectionError, OSError):
                pass
            self._thread.join(timeout)
        self.shard_exit_codes = self.manager.drain(timeout=timeout)
        return self.shard_exit_codes

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        try:
            self.shutdown()
        except Exception:  # noqa: BLE001 — teardown must not mask
            if self.supervisor is not None:
                self.supervisor.stop()
            self.manager.stop()
