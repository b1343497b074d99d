"""Top-level MiniLua runner: compile, image, assemble, simulate.

:func:`run_lua` is the engine's public API.  It returns a
:class:`LuaResult` with the program's textual output and the timing
model's performance counters.
"""

from dataclasses import dataclass

from repro.engines import BASELINE, configs
from repro.engines.lua import layout
from repro.engines.lua.compiler import compile_source
from repro.engines.lua.handlers import build_interpreter
from repro.engines.lua.image import build_image, fill_jump_table
from repro.engines.lua.opcodes import NUM_OPCODES, Op
from repro.engines.lua.runtime import LuaHost, LuaRuntime
from repro.isa.assembler import assemble
from repro.sim.cpu import Cpu
from repro.sim.memory import Memory
from repro.sim.tagio import TagCodec
from repro.uarch.pipeline import Attribution

# Labels that delimit attribution buckets besides the h_* handlers.
_EXTRA_BUCKETS = ("startup", "dispatch", "arith_slow_common",
                  "compare_slow_common", "table_get_slow_common",
                  "table_set_slow_common", "vm_error", "vm_exit")


@dataclass
class LuaResult:
    """Outcome of one MiniLua run."""

    output: str
    counters: object
    config: str
    exit_code: int = 0

    @property
    def lines(self):
        return self.output.splitlines()


def build_attribution(program, extra_ops=None):
    """Bucket ranges (per handler label) and bytecode entry points.
    ``extra_ops`` (quickened opcode -> variant name) registers the
    elided family's guard-free handlers so their executions land in the
    bytecode histogram instead of vanishing."""
    marks = []
    for label, addr in program.labels.items():
        if label.startswith("h_") or label in _EXTRA_BUCKETS:
            marks.append((addr, label))
    marks.sort()
    ranges = []
    for index, (addr, label) in enumerate(marks):
        end = marks[index + 1][0] if index + 1 < len(marks) else program.end
        ranges.append((label, addr, end))
    entry_points = {}
    for opcode in Op:
        label = "h_%s" % opcode.name
        if label in program.labels:
            entry_points[program.labels[label]] = opcode.name
    for name in (extra_ops or {}).values():
        label = "h_%s" % name
        if label in program.labels:
            entry_points[program.labels[label]] = name
    return Attribution(program, ranges, entry_points)


def _policy(config):
    return configs.family_policy(configs.get_scheme(config).family)


# The interpreter text is program-independent, so the assembled program
# and its attribution map are cached per configuration.
_PROGRAM_CACHE = {}


def interpreter_program(config):
    """The assembled interpreter for ``config`` (cached)."""
    cached = _PROGRAM_CACHE.get(config)
    if cached is None:
        program = assemble(build_interpreter(config),
                           base=layout.CODE_BASE)
        if program.end > layout.BOOT_BLOCK:
            raise ValueError("interpreter text overflows the code region")
        policy = _policy(config)
        extra_ops = (policy.quickened_ops("lua")
                     if policy.quickened_ops else None)
        cached = (program, build_attribution(program, extra_ops))
        _PROGRAM_CACHE[config] = cached
    return cached


def prepare(source, config=BASELINE):
    """Compile + image + assemble; returns (cpu, runtime, program)."""
    scheme = configs.get_scheme(config)
    policy = configs.family_policy(scheme.family)
    chunk = compile_source(source)
    # Chunks are compiled fresh per prepare(), so the in-place bytecode
    # quickening (elided family) cannot leak into other configurations.
    if policy.quicken is not None:
        policy.quicken("lua", chunk)
    extra_ops = policy.quickened_ops("lua") if policy.quickened_ops else None
    slots = (max(NUM_OPCODES, max(extra_ops) + 1) if extra_ops
             else NUM_OPCODES)
    memory = Memory(size=layout.MEMORY_SIZE)
    runtime = LuaRuntime(memory)
    image = build_image(chunk, runtime, slots=slots)
    program, _attribution = interpreter_program(config)
    fill_jump_table(image, program, memory, extra_ops=extra_ops)
    host = LuaHost(runtime)
    # The F/I-bit table must hold the tags as this scheme's extractor
    # window reports them (identical to the layout tags for every
    # shipped Lua geometry, but kept symmetric with the TRT transform).
    codec = TagCodec(fp_tags=frozenset(
        scheme.extracted_tag("lua", layout.SPR_SETTINGS, tag)
        for tag in layout.FP_TAGS))
    cpu = Cpu(program, memory, host=host.interface, tag_codec=codec,
              overflow_bits=None)
    # Trace profiles are guest-specific (the hot paths through the
    # interpreter depend on the bytecode it runs); the trace engine
    # keys its tables on this token (see repro.sim.traces.trace_table).
    cpu.workload = source
    return cpu, runtime, program


def run_lua(source, *, config=BASELINE, machine_config=None,
            max_instructions=None, attribute=True, telemetry=None):
    """Compile and execute MiniLua ``source`` on the simulated machine.

    Thin adapter over :func:`repro.api.run` — the unified signature is
    keyword-only after ``source``.  ``config`` selects the interpreter
    build (any registered scheme: ``"baseline"``, ``"typed"``,
    ``"chklb"``, ``"elided"``, ...).  ``telemetry`` optionally attaches
    an event bus (see :mod:`repro.telemetry`) to the CPU and timing
    model.
    """
    from repro import api
    result = api._engine_run(
        "lua", source, config=config, machine_config=machine_config,
        max_instructions=(api.DEFAULT_MAX_INSTRUCTIONS
                          if max_instructions is None
                          else max_instructions),
        attribute=attribute, telemetry=telemetry)
    return LuaResult(output=result.output, counters=result.counters,
                     config=result.config, exit_code=result.exit_code)
