"""The unified public facade: one typed request/response schema for
every way of executing guest code.

Every entry point — the in-process quickstart, the benchmark runner,
the cached sweep and the :mod:`repro.serve` daemon — speaks the same
two dataclasses:

* :class:`ExecutionRequest` — what to run (``op`` is ``"run"`` for
  arbitrary Lua/JS source, ``"bench"`` for one benchmark cell,
  ``"sweep"`` for the full matrix) plus scheduling metadata
  (``deadline``, ``priority``) used by the execution service.
* :class:`ExecutionResult` — the outcome: guest output, the
  :class:`~repro.uarch.counters.Counters` of the run, cache
  provenance and host-side cost.

Both serialise to version-stamped JSON (:mod:`repro.schema`), so a
local call, a cached replay and a served request are literally the
same payload on one code path (:func:`execute`).

Quickstart::

    from repro.api import run

    result = run("lua", "print(1 + 2)", config="typed")
    print(result.output, result.counters.cycles)

    result = run("lua", "fibo", scale=10, config="typed")  # benchmark

:func:`run` is the single documented entry point;
``repro.engines.lua.run_lua`` / ``repro.engines.js.run_js`` remain as
thin keyword-only adapters over it (see docs/API.md).
"""

import hashlib
import json
import time
from copy import deepcopy
from dataclasses import asdict, dataclass, field, fields

from repro.engines import BASELINE, all_configs, is_registered
from repro.schema import SchemaError, require, stamp
from repro.uarch.config import (
    BranchConfig,
    CacheConfig,
    DramConfig,
    LatencyConfig,
    MachineConfig,
)
from repro.uarch.counters import Counters

#: Request kinds the facade (and the wire protocol) understands.
OPS = ("run", "bench", "sweep")

#: Default instruction budget for one guest program.
DEFAULT_MAX_INSTRUCTIONS = 200_000_000

#: Default service priority (0 = most urgent, 9 = least).
DEFAULT_PRIORITY = 5


def machine_config_as_dict(config):
    """Serialise a :class:`MachineConfig` (``None`` passes through)."""
    return None if config is None else asdict(config)


def machine_config_from_dict(payload):
    """Rebuild a :class:`MachineConfig` from its dict form."""
    if payload is None:
        return None
    if isinstance(payload, MachineConfig):
        return payload
    try:
        return MachineConfig(
            clock_mhz=payload["clock_mhz"],
            pipeline_stages=payload["pipeline_stages"],
            icache=CacheConfig(**payload["icache"]),
            dcache=CacheConfig(**payload["dcache"]),
            branch=BranchConfig(**payload["branch"]),
            dram=DramConfig(**payload["dram"]),
            latency=LatencyConfig(**payload["latency"]))
    except (KeyError, TypeError) as err:
        raise SchemaError("machine_config: %s: %s"
                          % (type(err).__name__, err))


@dataclass(frozen=True)
class ExecutionRequest:
    """One unit of work, local or served.

    ``op="run"`` executes ``source`` on ``engine``; ``op="bench"``
    runs one ``benchmark`` cell (cache-aware); ``op="sweep"`` runs the
    (engines x benchmarks x configs) matrix.  ``deadline`` (seconds)
    and ``priority`` only matter to :mod:`repro.serve`; they are
    excluded from :meth:`key`, so two requests for the same work
    coalesce regardless of their scheduling metadata.
    """

    op: str = "run"
    engine: str = None
    source: str = None
    benchmark: str = None
    config: str = BASELINE
    scale: int = None
    machine_config: object = None
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    attribute: bool = True
    use_cache: bool = True
    engines: tuple = None       # sweep
    benchmarks: tuple = None    # sweep
    configs: tuple = None       # sweep
    scales: dict = None         # sweep
    jobs: int = None            # sweep worker count
    deadline: float = None      # serve only
    priority: int = DEFAULT_PRIORITY  # serve only

    def validate(self):
        """Raise :class:`~repro.schema.SchemaError` on nonsense."""
        if self.op not in OPS:
            raise SchemaError("unknown op %r (expected one of %s)"
                              % (self.op, "/".join(OPS)))
        if self.op in ("run", "bench") and self.engine not in ("lua", "js"):
            raise SchemaError("op %r needs engine 'lua' or 'js', got %r"
                              % (self.op, self.engine))
        if self.op == "run" and not isinstance(self.source, str):
            raise SchemaError("op 'run' needs a source string")
        if self.op == "bench" and not isinstance(self.benchmark, str):
            raise SchemaError("op 'bench' needs a benchmark name")
        if self.op in ("run", "bench") \
                and not is_registered(self.config):
            # Checked against the live tagging-scheme registry so
            # late-registered configs are accepted everywhere the
            # request schema is (CLI, serve daemon, API callers).
            raise SchemaError("unknown config %r (expected one of %s)"
                              % (self.config, "/".join(all_configs())))
        if self.deadline is not None and self.deadline <= 0:
            raise SchemaError("deadline must be positive seconds")
        if not 0 <= int(self.priority) <= 9:
            raise SchemaError("priority must be 0..9")
        return self

    def as_dict(self):
        payload = asdict(self)
        payload["machine_config"] = machine_config_as_dict(
            self.machine_config)
        for name in ("engines", "benchmarks", "configs"):
            if payload[name] is not None:
                payload[name] = list(payload[name])
        return stamp(payload)

    @classmethod
    def from_dict(cls, payload):
        require(payload, "ExecutionRequest")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known - {"version"}
        if unknown:
            raise SchemaError("ExecutionRequest: unknown field(s) %s"
                              % ", ".join(sorted(unknown)))
        kwargs = {key: value for key, value in payload.items()
                  if key in known}
        kwargs["machine_config"] = machine_config_from_dict(
            kwargs.get("machine_config"))
        for name in ("engines", "benchmarks", "configs"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs).validate()

    def key(self):
        """Canonical identity of the *work* (scheduling metadata
        excluded) — the service's dedup/coalescing key."""
        payload = self.as_dict()
        for name in ("deadline", "priority", "version"):
            payload.pop(name, None)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ExecutionResult:
    """Outcome of one :class:`ExecutionRequest`.

    ``ok`` is ``False`` only for abnormal completion (compile error,
    simulation error, sweep output mismatch, service rejection);
    ``error`` then carries ``{"type", "message"}``.  ``cached`` marks
    results served from the persistent result cache without
    simulating; ``coalesced`` marks served results piggybacked on an
    identical in-flight request.
    """

    ok: bool = True
    op: str = "run"
    engine: str = None
    benchmark: str = None
    config: str = None
    scale: int = None
    output: str = ""
    counters: object = None
    exit_code: int = 0
    cached: bool = False
    coalesced: bool = False
    wall_seconds: float = 0.0
    simulated_mips: float = 0.0
    error: dict = None
    cells: dict = field(default_factory=dict)  # sweep: gate metrics

    def as_dict(self):
        # Built field by field: ``asdict`` would deep-copy the counters
        # only for them to be replaced by their own flat view.  The
        # ``error`` and ``cells`` dicts are copied, so the payload
        # never aliases the result.
        payload = {spec.name: getattr(self, spec.name)
                   for spec in fields(self)}
        payload["counters"] = self.counters.as_dict() \
            if self.counters is not None else None
        payload["error"] = deepcopy(self.error)
        payload["cells"] = deepcopy(self.cells)
        return stamp(payload)

    @classmethod
    def from_dict(cls, payload):
        require(payload, "ExecutionResult")
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in payload.items()
                  if key in known}
        if kwargs.get("counters") is not None:
            kwargs["counters"] = Counters.from_dict(kwargs["counters"])
        return cls(**kwargs)


# -- the single execution path ----------------------------------------------

def _vm(engine):
    if engine == "lua":
        from repro.engines.lua import vm
        return vm
    if engine == "js":
        from repro.engines.js import vm
        return vm
    raise SchemaError("unknown engine %r" % (engine,))


def _prepare(engine, source, *, config=BASELINE, machine_config=None,
             attribute=True, telemetry=None):
    """Compile ``source`` and build the simulated machine that runs it;
    returns ``(machine, runtime)``, the guest's output collecting in
    ``runtime.output``.  The one run set-up behind :func:`_engine_run`,
    ``repro profile``, fault campaigns and perfbench.

    ``attribute`` attaches the interpreter's per-bytecode attribution
    map; ``telemetry`` attaches an event bus to the CPU and the
    machine."""
    from repro.uarch.pipeline import Machine

    vm = _vm(engine)
    cpu, runtime, _program = vm.prepare(source, config)
    attribution = vm.interpreter_program(config)[1] if attribute else None
    if telemetry is not None:
        from repro.telemetry import attach_cpu
        attach_cpu(telemetry, cpu)
    machine = Machine(cpu, config=machine_config, attribution=attribution,
                      telemetry=telemetry)
    return machine, runtime


def _engine_run(engine, source, *, config=BASELINE, machine_config=None,
                max_instructions=DEFAULT_MAX_INSTRUCTIONS, attribute=True,
                telemetry=None):
    """Compile and execute ``source`` on the simulated machine — the
    one implementation behind ``run_lua``, ``run_js``,
    ``run_benchmark`` and the served ``run`` op."""
    started = time.perf_counter()
    machine, runtime = _prepare(
        engine, source, config=config, machine_config=machine_config,
        attribute=attribute, telemetry=telemetry)
    counters = machine.run(max_instructions=max_instructions)
    elapsed = time.perf_counter() - started
    if telemetry is not None:
        telemetry.close()
    mips = counters.instructions / elapsed / 1e6 if elapsed else 0.0
    return ExecutionResult(
        op="run", engine=engine, config=config,
        output="".join(runtime.output), counters=counters,
        exit_code=machine.cpu.exit_code, wall_seconds=elapsed,
        simulated_mips=mips)


def _bench_result(request, record, cached=False):
    return ExecutionResult(
        op="bench", engine=request.engine, benchmark=request.benchmark,
        config=request.config, scale=record.scale, output=record.output,
        counters=record.counters, cached=cached,
        wall_seconds=record.wall_seconds,
        simulated_mips=record.simulated_mips)


def cached_bench(request):
    """The cached :class:`ExecutionResult` for a ``bench`` request, or
    ``None`` — the one cache probe of :func:`execute`, the shards and the
    router.  Only ``use_cache`` *and* ``attribute`` requests hit: an
    attribution-free cell is always simulated afresh (``run_benchmark``)."""
    if not (request.op == "bench" and request.use_cache
            and request.attribute):
        return None
    from repro.bench import runner
    try:
        scale = runner.resolve_scale(request.benchmark, request.scale)
    except KeyError:
        return None  # let execution raise the real error
    record = runner.cached_record(request.engine, request.benchmark,
                                  request.config, scale)
    if record is None:
        return None
    return _bench_result(request, record, cached=True)


def _execute_bench(request, telemetry=None):
    from repro.bench import runner

    cached = cached_bench(request) if telemetry is None else None
    if cached is not None:
        return cached
    record = runner.run_benchmark(
        request.engine, request.benchmark, request.config,
        scale=request.scale, use_cache=request.use_cache,
        telemetry=telemetry, attribute=request.attribute)
    return _bench_result(request, record)


def _execute_sweep(request, progress=None):
    from repro.bench import gate
    from repro.bench.parallel import run_matrix_parallel
    from repro.bench.runner import ENGINES, verify_outputs_match
    from repro.bench.workloads import BENCHMARK_ORDER

    started = time.perf_counter()
    records = run_matrix_parallel(
        engines=request.engines or ENGINES,
        benchmarks=request.benchmarks or BENCHMARK_ORDER,
        configs=request.configs or all_configs(),
        scales=request.scales, max_workers=request.jobs,
        use_cache=request.use_cache, progress=progress)
    mismatches = verify_outputs_match(records)
    result = ExecutionResult(
        op="sweep", ok=not mismatches,
        cells=gate.collect_metrics(records),
        wall_seconds=time.perf_counter() - started)
    if mismatches:
        result.error = {"type": "OutputMismatch",
                        "message": "configs disagree on %s" % (mismatches,)}
    return result


def execute(request, *, telemetry=None, progress=None):
    """Execute one :class:`ExecutionRequest`; returns an
    :class:`ExecutionResult` (exceptions from the guest program or the
    compiler propagate — the service layer is what turns them into
    error frames).

    ``telemetry`` optionally attaches an event bus to ``run``/``bench``
    ops; ``progress`` receives per-cell
    :class:`~repro.bench.parallel.CellProgress` events for ``sweep``.
    """
    request.validate()
    if request.op == "run":
        return _engine_run(
            request.engine, request.source, config=request.config,
            machine_config=request.machine_config,
            max_instructions=request.max_instructions,
            attribute=request.attribute, telemetry=telemetry)
    if request.op == "bench":
        return _execute_bench(request, telemetry=telemetry)
    return _execute_sweep(request, progress=progress)


def execute_payload(payload):
    """Wire-protocol worker body: dict in, dict out (both
    version-stamped).  Module-level and import-light so it pickles
    into :mod:`repro.serve`'s forked workers."""
    return execute(ExecutionRequest.from_dict(payload)).as_dict()


def request_key(payload):
    """Validate a wire payload and return ``(request, key)``.

    The key is the canonical identity of the *work* — the same value
    the execution service dedups on — and is what the router
    consistent-hashes to place the request on a shard, so a request's
    shard affinity and its coalescing identity can never disagree.
    """
    request = ExecutionRequest.from_dict(payload)
    return request, request.key()


def run(engine, source, *, config=BASELINE, scale=None,
        machine_config=None, max_instructions=DEFAULT_MAX_INSTRUCTIONS,
        attribute=True, telemetry=None, use_cache=True):
    """Run ``source`` on ``engine`` — the single documented entry point.

    ``source`` is Lua/JS program text; when it instead names a
    registered benchmark (``"fibo"``, ``"n-sieve"``, ...) the call
    becomes a cache-aware benchmark run at ``scale`` (the cell's
    default scale when ``None``).  Returns an
    :class:`ExecutionResult`; see the class docs for the fields.

    ``machine_config`` overrides the Table 6 machine parameters
    (:class:`~repro.uarch.config.MachineConfig`); ``telemetry``
    attaches an event bus (:mod:`repro.telemetry`).  The simulator
    picks its engine from what is attached: the trace engine, the
    block engine under attribution alone, or the reference loop under
    telemetry (counters are bit-identical whichever engine runs).
    """
    from repro.bench.workloads import WORKLOADS

    if source in WORKLOADS:
        request = ExecutionRequest(
            op="bench", engine=engine, benchmark=source, config=config,
            scale=scale, attribute=attribute, use_cache=use_cache)
    else:
        request = ExecutionRequest(
            op="run", engine=engine, source=source, config=config,
            machine_config=machine_config,
            max_instructions=max_instructions, attribute=attribute,
            use_cache=use_cache)
    return execute(request, telemetry=telemetry)

