"""Run benchmarks over the (engine, workload, config) matrix.

Results are memoised at two levels: a per-process dict (``_CACHE``)
and, when configured, the content-addressed disk cache of
:mod:`repro.bench.cache` — the figures of Section 7 all derive from
the same sweep, and with the disk cache enabled that sweep survives
across processes.  For the multi-core sharded sweep see
:func:`repro.bench.parallel.run_matrix_parallel`.
"""

from dataclasses import dataclass

from repro.bench import cache as result_cache
from repro.bench.workloads import BENCHMARK_ORDER, workload
from repro.engines import all_configs

ENGINES = ("lua", "js")

_CACHE = {}


@dataclass
class RunRecord:
    """One simulated benchmark run.

    ``telemetry`` holds the event-bus summary dict for runs executed
    with telemetry attached (``None`` for plain runs); it round-trips
    through the disk cache so sweep-level attribution reports can name
    what a cached run observed.

    ``wall_seconds``/``simulated_mips`` record the host-side cost of
    the simulation itself (simulated instructions per host second in
    millions); they describe the run that produced the record, so they
    round-trip through the disk cache unchanged.
    """

    engine: str
    benchmark: str
    config: str
    scale: int
    output: str
    counters: object
    telemetry: dict = None
    wall_seconds: float = 0.0
    simulated_mips: float = 0.0

    @property
    def total_bytecodes(self):
        return sum(self.counters.bytecode_counts.values())


def resolve_scale(benchmark, scale=None):
    """The effective input scale for one cell."""
    return scale or workload(benchmark).default_scale


def cached_record(engine, benchmark, config, scale=None):
    """Look one cell up in the memory cache, then the disk cache;
    returns the record or ``None`` without ever simulating."""
    scale = resolve_scale(benchmark, scale)
    key = (engine, benchmark, config, scale)
    if key in _CACHE:
        return _CACHE[key]
    disk = result_cache.active_cache()
    if disk is not None:
        record = disk.load(*key)
        if record is not None:
            _CACHE[key] = record
            return record
    return None


def publish(record, disk=None):
    """Insert an externally computed record (e.g. from a pool worker)
    into the memory cache and, when given, the disk cache."""
    key = (record.engine, record.benchmark, record.config, record.scale)
    _CACHE[key] = record
    if disk is not None:
        disk.store(record)
    return record


def run_benchmark(engine, benchmark, config, scale=None, use_cache=True,
                  telemetry=None, attribute=True):
    """Run one benchmark on one engine/config; returns a RunRecord.

    ``use_cache=False`` bypasses (and leaves untouched) both the
    per-process memoisation and the disk cache.  ``telemetry``
    attaches an event bus to the run; a telemetry-enabled cell is
    always simulated fresh (the bus must observe the actual run) and
    its summary is carried in ``record.telemetry`` through the caches.

    ``attribute=False`` skips per-bytecode attribution — the fastest
    way to run a cell, on the trace engine — and forces the cell to
    bypass the caches, since attribution-free counters would starve the
    figure pipeline if they were ever served from cache.
    """
    from repro import api

    spec = workload(benchmark)
    scale = scale or spec.default_scale
    if not attribute:
        use_cache = False
    if use_cache and telemetry is None:
        record = cached_record(engine, benchmark, config, scale)
        if record is not None:
            return record
    result = api._engine_run(engine, spec.source(engine, scale),
                             config=config, telemetry=telemetry,
                             attribute=attribute)
    record = RunRecord(engine=engine, benchmark=benchmark, config=config,
                       scale=scale, output=result.output,
                       counters=result.counters,
                       telemetry=telemetry.summary()
                       if telemetry is not None else None,
                       wall_seconds=result.wall_seconds,
                       simulated_mips=result.simulated_mips)
    if use_cache:
        publish(record, disk=result_cache.active_cache())
    return record


def run_matrix(engines=ENGINES, benchmarks=BENCHMARK_ORDER,
               configs=None, scales=None, progress=None,
               use_cache=True):
    """Run the full sweep serially; returns
    {(engine, benchmark, config): record}.

    ``scales`` optionally overrides the per-benchmark input scale;
    ``progress`` is an optional callback invoked with each key;
    ``use_cache`` is forwarded to every :func:`run_benchmark` call so
    callers can force an uncached sweep.
    """
    configs = all_configs() if configs is None else configs
    records = {}
    for engine in engines:
        for benchmark in benchmarks:
            scale = (scales or {}).get(benchmark)
            for config in configs:
                if progress is not None:
                    progress((engine, benchmark, config))
                records[(engine, benchmark, config)] = run_benchmark(
                    engine, benchmark, config, scale=scale,
                    use_cache=use_cache)
    return records


def verify_outputs_match(records):
    """Check every benchmark produced identical output on all configs.

    Returns the list of mismatching (engine, benchmark) pairs (empty when
    everything agrees) — the architectural-equivalence sanity gate for
    every experiment.
    """
    mismatches = []
    seen = {}
    for (engine, benchmark, _config), record in records.items():
        key = (engine, benchmark)
        if key in seen and seen[key] != record.output:
            mismatches.append(key)
        seen.setdefault(key, record.output)
    return sorted(set(mismatches))


def clear_cache():
    _CACHE.clear()
