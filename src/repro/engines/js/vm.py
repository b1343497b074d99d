"""Top-level MiniJS runner: compile, image, assemble, simulate."""

from dataclasses import dataclass

from repro.engines import BASELINE, configs
from repro.engines.js import layout
from repro.engines.js.compiler import compile_source
from repro.engines.js.handlers import build_interpreter
from repro.engines.js.image import build_image, fill_jump_table
from repro.engines.js.opcodes import JsOp
from repro.engines.js.runtime import JsHost, JsRuntime
from repro.isa.assembler import assemble
from repro.sim.cpu import Cpu
from repro.sim.memory import Memory
from repro.sim.tagio import TagCodec
from repro.uarch.pipeline import Attribution

_EXTRA_BUCKETS = ("startup", "dispatch", "arith_slow_common",
                  "arith_slow_unary", "compare_slow_common",
                  "elem_get_slow_common", "elem_set_slow_common",
                  "vm_error", "vm_exit")


@dataclass
class JsResult:
    """Outcome of one MiniJS run."""

    output: str
    counters: object
    config: str
    exit_code: int = 0

    @property
    def lines(self):
        return self.output.splitlines()


def build_attribution(program, extra_ops=None):
    """``extra_ops`` (quickened opcode -> variant name) registers the
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
    for opcode in JsOp:
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


# Cached, program-independent interpreter text per configuration.
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
        extra_ops = (policy.quickened_ops("js")
                     if policy.quickened_ops else None)
        cached = (program, build_attribution(program, extra_ops))
        _PROGRAM_CACHE[config] = cached
    return cached


def prepare(source, config=BASELINE):
    scheme = configs.get_scheme(config)
    policy = configs.family_policy(scheme.family)
    chunk = compile_source(source)
    # Chunks are compiled fresh per prepare(), so the in-place bytecode
    # quickening (elided family) cannot leak into other configurations.
    if policy.quicken is not None:
        policy.quicken("js", chunk)
    extra_ops = policy.quickened_ops("js") if policy.quickened_ops else None
    memory = Memory(size=layout.MEMORY_SIZE)
    runtime = JsRuntime(memory)
    image = build_image(chunk, runtime)
    program, _attribution = interpreter_program(config)
    fill_jump_table(image, program, memory, extra_ops=extra_ops)
    host = JsHost(runtime)
    # NaN boxing: the extractor needs the double pseudo-tag and the int
    # tag for payload sign extension (Section 4.2) — expressed in the
    # scheme's extractor window (e.g. the wide window reports
    # 0xF0 | tag, folding in the low NaN-prefix bits).
    codec = TagCodec(
        double_tag=scheme.extracted_tag(
            "js", layout.SPR_SETTINGS, layout.TAG_DOUBLE),
        int_tag=scheme.extracted_tag(
            "js", layout.SPR_SETTINGS, layout.TAG_INT32))
    # SpiderMonkey co-locates tag and value in one double-word, so integer
    # overflow must trigger a type misprediction (Section 3.2).
    cpu = Cpu(program, memory, host=host.interface, tag_codec=codec,
              overflow_bits=32)
    # Trace profiles are guest-specific (the hot paths through the
    # interpreter depend on the bytecode it runs); the trace engine
    # keys its tables on this token (see repro.sim.traces.trace_table).
    cpu.workload = source
    return cpu, runtime, program


def run_js(source, *, config=BASELINE, machine_config=None,
           max_instructions=None, attribute=True, telemetry=None):
    """Compile and execute MiniJS ``source`` on the simulated machine.

    Thin adapter over :func:`repro.api.run` with the same unified
    keyword-only signature as ``run_lua``.  ``telemetry`` optionally
    attaches an event bus (see :mod:`repro.telemetry`) to the CPU and
    timing model.
    """
    from repro import api
    result = api._engine_run(
        "js", source, config=config, machine_config=machine_config,
        max_instructions=(api.DEFAULT_MAX_INSTRUCTIONS
                          if max_instructions is None
                          else max_instructions),
        attribute=attribute, telemetry=telemetry)
    return JsResult(output=result.output, counters=result.counters,
                    config=result.config, exit_code=result.exit_code)
