"""The basic-block superinstruction engine (:mod:`repro.sim.blocks`),
the trace engine's cold path, and engine selection.

The contract is strict: counters, cycles and architectural state must
be bit-identical to the reference per-instruction loop for every
program, attributed runs included (every per-bytecode breakdown too),
and the compiled engines must silently stand aside whenever telemetry
needs per-instruction visibility.  The differential tests here enforce
the contract over the full benchmark matrix (at reduced input scales)
and over generated tagged programs with random attribution maps;
block-shape unit tests pin the discovery rules.
"""

import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import ENGINES, run_benchmark
from repro.bench.workloads import BENCHMARK_ORDER, WORKLOADS
from repro.engines import CONFIGS
from repro.engines.ir import K_CHECK, K_TAGGED_ALU, kind_of
from repro.engines.js import vm as js_vm
from repro.engines.lua import vm as lua_vm
from repro.isa.assembler import assemble
from repro.isa.extension import TypeRule, arithmetic_rules
from repro.sim import traces
from repro.sim.blocks import MAX_BLOCK_LEN, block_table
from repro.sim.cpu import Cpu
from repro.sim.errors import ExecutionLimitExceeded
from repro.sim.memory import Memory
from repro.sim.tagio import TagCodec
from repro.telemetry import Telemetry, attach_cpu
from repro.uarch.pipeline import DEFAULT_CONFIG, Attribution, Machine
from tests.test_traces import _BODY_OPS, _DIAMOND, PINNED_THRESHOLD


def _machine(text, **kwargs):
    cpu = Cpu(assemble(text), Memory(size=1 << 16))
    return cpu, Machine(cpu, **kwargs)


# -- block discovery -------------------------------------------------------------

_FOLLOW = """
    addi a0, zero, 1
    jal zero, over
    addi a0, a0, 99
over:
    jal ra, callee
    addi a2, zero, 3
    ebreak
callee:
    addi a1, zero, 2
    jalr zero, 0(ra)
"""


def test_blocks_follow_direct_jumps():
    """A block runs through ``jal`` and a call (``jal ra``) to their
    targets and ends at the callee's return ``jalr``; its path lists
    the instructions it runs, in order."""
    program = assemble(_FOLLOW)
    table = block_table(program, DEFAULT_CONFIG)
    assert len(table.blocks) == 8
    assert table.path_at(0) == [0, 1, 3, 6, 7]
    assert table.block_at(0)[1] == 5     # addi, jal, jal ra, addi, jalr
    assert table.block_at(4)[1] == 2     # addi, ebreak
    assert table.block_at(5)[1] == 1     # ebreak alone
    # A shorter block is a prefix of the same path.
    assert table.path_at(0, 3) == [0, 1, 3]
    (cpu_ref, ref), (cpu_blk, blk) = _run_both(_FOLLOW)
    assert blk.as_dict() == ref.as_dict()
    assert cpu_blk.regs.value == cpu_ref.regs.value
    assert cpu_blk.regs.value[11] == 2 and cpu_blk.regs.value[10] == 1


def test_jal_into_the_block_or_out_of_the_program_ends_it():
    program = assemble("""
    spin:
        addi a0, a0, 1
        jal zero, spin
        jal zero, out
        jal zero, spin
    out:
    """)
    table = block_table(program, DEFAULT_CONFIG)
    assert table.path_at(0) == [0, 1]    # back to its own head
    assert table.path_at(2) == [2]       # past the last instruction
    assert table.path_at(3) == [3, 0, 1]  # spin is not on the path yet
    assert table.block_at(3)[1] == 3


def test_block_capped_inside_a_followed_segment():
    """``MAX_BLOCK_LEN`` counts every instruction on the path, so the
    cut can fall past a followed ``jal``; the next block picks up at
    the fall-through of the last instruction."""
    text = "\n".join(["jal zero, body", "ebreak", "body:"]
                     + ["addi a0, a0, 1"] * (MAX_BLOCK_LEN + 10)
                     + ["ebreak"])
    table = block_table(assemble(text), DEFAULT_CONFIG)
    assert table.path_at(0) == [0] + list(range(2, MAX_BLOCK_LEN + 1))
    assert table.block_at(0)[1] == MAX_BLOCK_LEN
    assert table.block_at(MAX_BLOCK_LEN + 1)[1] == 12
    (cpu_ref, ref), (cpu_blk, blk) = _run_both(text)
    assert blk.as_dict() == ref.as_dict()
    assert cpu_blk.regs.value[10] == cpu_ref.regs.value[10] \
        == MAX_BLOCK_LEN + 10


def test_blocks_capped_at_max_len():
    text = "\n".join(["addi a0, a0, 1"] * (MAX_BLOCK_LEN + 20)) + "\nebreak"
    table = block_table(assemble(text), DEFAULT_CONFIG)
    assert table.block_at(0)[1] == MAX_BLOCK_LEN
    # A block starting mid-stream still runs to the real terminator.
    assert table.block_at(MAX_BLOCK_LEN)[1] == 21


def test_blocks_compiled_lazily_and_cached():
    program = assemble("addi a0, zero, 7\nebreak")
    table = block_table(program, DEFAULT_CONFIG)
    assert table.compiled == 0
    first = table.block_at(0)
    assert table.compiled == 1
    assert table.block_at(0) is first
    assert table.compiled == 1


def test_block_table_shared_per_program_and_config():
    program = assemble("addi a0, zero, 7\nebreak")
    assert block_table(program, DEFAULT_CONFIG) \
        is block_table(program, DEFAULT_CONFIG)


def test_single_at_is_one_instruction():
    program = assemble("addi a0, zero, 1\naddi a1, zero, 2\nebreak")
    table = block_table(program, DEFAULT_CONFIG)
    assert table.single_at(0)[1] == 1
    assert table.single_at(0) is table.single_at(0)


# -- engine selection ------------------------------------------------------------

_LOOP = """
    addi a0, zero, 50
    addi a1, zero, 0
loop:
    add a1, a1, a0
    addi a0, a0, -1
    bne a0, zero, loop
    ebreak
"""


def test_blocks_used_by_default(monkeypatch):
    _cpu, machine = _machine(_LOOP)
    monkeypatch.setattr(Machine, "run_reference", _boom)
    machine.run(max_instructions=1_000)


def test_attribution_forces_interpreter(monkeypatch):
    """Attribution never forms traces: attributed runs take the block
    engine (see ``test_attribution_alone_runs_blocks``)."""
    attribution = lua_vm.interpreter_program("baseline")[1]
    _cpu, machine = _machine(_LOOP, attribution=attribution)
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    machine.run(max_instructions=1_000)


def _loop_attribution(program):
    """One bucket over the loop body, with a handler entry at its head."""
    loop = program.labels["loop"]
    return Attribution(program, [("body", loop, loop + 12)],
                       {loop: "LOOP"})


def test_attribution_alone_runs_blocks(monkeypatch):
    program = assemble(_LOOP)
    machine = Machine(Cpu(program, Memory(size=1 << 16)),
                      attribution=_loop_attribution(program))
    monkeypatch.setattr(Machine, "run_reference", _boom)
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    counters = machine.run(max_instructions=1_000)
    assert counters.bytecode_counts == {"LOOP": 50}
    assert counters.bucket_instructions == {"body": 150}


def _machine_telemetry(_cpu):
    return {"telemetry": Telemetry(categories={"stall"})}


def _cpu_telemetry(cpu):
    cpu.telemetry = Telemetry(categories={"trap"})
    return {}


def _step_shadow(cpu):
    cpu.step = cpu.step  # an instance shadow, as tracers install
    return {}


def _trt_lookup_shadow(cpu):
    cpu.trt.lookup = cpu.trt.lookup  # instance shadow, telemetry-style
    return {}


@pytest.mark.parametrize("attach", [_machine_telemetry, _cpu_telemetry,
                                    _step_shadow, _trt_lookup_shadow],
                         ids=["machine-telemetry", "cpu-telemetry",
                              "step-shadow", "trt-lookup-shadow"])
def test_attribution_with_instrumentation_runs_reference(monkeypatch,
                                                          attach):
    """The compiled units inline the TRT probe and emit no events, so
    attribution plus any telemetry or tracer runs the reference loop."""
    program = assemble(_LOOP)
    cpu = Cpu(program, Memory(size=1 << 16))
    machine = Machine(cpu, attribution=_loop_attribution(program),
                      **attach(cpu))
    monkeypatch.setattr(Machine, "_run_blocks", _boom)
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    counters = machine.run(max_instructions=1_000)
    assert counters.bytecode_counts == {"LOOP": 50}


def test_cpu_step_shadow_forces_interpreter(monkeypatch):
    cpu, machine = _machine(_LOOP)
    cpu.step = cpu.step  # an instance shadow, as tracers install
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    machine.run(max_instructions=1_000)


def test_rebound_trt_lookup_forces_interpreter(monkeypatch):
    """Blocks and traces inline the TRT probe, so an instance-rebound
    ``trt.lookup`` (telemetry) selects the reference loop."""
    cpu, machine = _machine(_LOOP)
    cpu.trt.lookup = cpu.trt.lookup  # instance shadow, telemetry-style
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    machine.run(max_instructions=1_000)


def test_trt_only_telemetry_matches_plain_run():
    """``trt``-only telemetry rebinds ``trt.lookup`` but leaves
    ``cpu.telemetry`` unset and attaches nothing to the machine: the
    run must still see every TRT hit per key, with the counters of a
    plain (trace-engine) run."""
    source = ("local s = 0\n"
              "for i = 1, 200 do s = s + i * 2 end\n"
              "print(s)\n")
    runs = []
    for telemetry in (None, Telemetry(categories={"trt"})):
        cpu, runtime, _program = lua_vm.prepare(source, config="typed")
        attach_cpu(telemetry, cpu)
        counters = Machine(cpu).run(max_instructions=20_000_000)
        runs.append((cpu, counters, "".join(runtime.output)))
    (_, plain, plain_output), (cpu, counters, output) = runs
    assert cpu.telemetry is None
    assert output == plain_output
    assert counters.as_dict() == plain.as_dict()
    assert cpu.trt.hits > 0
    assert sum(cpu.trt.hit_keys.values()) == cpu.trt.hits


def _boom(*_args, **_kwargs):
    raise AssertionError("wrong engine selected")


# -- differential: simple programs ----------------------------------------------

def _run_both(text, max_instructions=1_000_000):
    cpu_ref, machine_ref = _machine(text)
    ref = machine_ref.run_reference(max_instructions=max_instructions)
    cpu_blk, machine_blk = _machine(text)
    blk = machine_blk.run(max_instructions=max_instructions)
    return (cpu_ref, ref), (cpu_blk, blk)


def test_differential_loop_program():
    (cpu_ref, ref), (cpu_blk, blk) = _run_both(_LOOP)
    assert blk.as_dict() == ref.as_dict()
    assert cpu_blk.regs.value == cpu_ref.regs.value
    assert bytes(cpu_blk.mem.data) == bytes(cpu_ref.mem.data)


def test_execution_limit_trips_identically():
    spin = "spin:\naddi a0, a0, 1\njal zero, spin"
    cpu_ref, machine_ref = _machine(spin)
    with pytest.raises(ExecutionLimitExceeded):
        machine_ref.run_reference(max_instructions=777)
    cpu_blk, machine_blk = _machine(spin)
    with pytest.raises(ExecutionLimitExceeded):
        machine_blk.run(max_instructions=777)
    assert cpu_blk.instret == cpu_ref.instret == 777
    assert cpu_blk.pc == cpu_ref.pc
    assert cpu_blk.regs.value == cpu_ref.regs.value


def test_thdl_deopt_differential():
    """The path selector mutates hot-site stats mid-run; the compiled
    engine must replicate its redirects and counter effects exactly."""
    outputs, counters, cpus = [], [], []
    for run in (Machine.run_reference, Machine.run):
        cpu, runtime, _program = lua_vm.prepare(
            "local s = 0\n"
            "local t = {}\n"
            "for i = 1, 60 do\n"
            "  if i % 2 == 0 then t[i] = i else t[i] = i + 0.5 end\n"
            "end\n"
            "for i = 1, 59 do s = s + (t[i] + t[i + 1]) end\n"
            "print(s)\n", config="typed")
        cpu.deopt_threshold = 0.5
        counters.append(run(Machine(cpu), max_instructions=20_000_000))
        outputs.append("".join(runtime.output))
        cpus.append(cpu)
    assert outputs[0] == outputs[1]
    assert counters[0].as_dict() == counters[1].as_dict()
    assert cpus[0].deopt_redirects == cpus[1].deopt_redirects
    assert cpus[1].deopt_redirects > 0  # the selector actually fired


# -- differential: attributed block engine --------------------------------------

def _attributed_outcome(run, text, attribution_of, max_instructions,
                        deopt=False, overflow_bits=None):
    """Run ``text`` with attribution under ``run``; returns everything
    an engine could get wrong: the limit message (``None`` when the run
    finished), the counters and the architectural state."""
    program = assemble(text)
    codec = TagCodec(fp_tags={3})
    codec.set_offset(0b001)  # tag dword right after the value
    cpu = Cpu(program, Memory(size=1 << 16), tag_codec=codec,
              overflow_bits=overflow_bits)
    cpu.trt.load_rules(_RULES)
    if deopt:
        # Sites miss every other iteration, so the path selector fires.
        cpu.deopt_threshold = 0.25
    machine = Machine(cpu, attribution=attribution_of(program))
    try:
        run(machine, max_instructions=max_instructions)
        limit = None
    except ExecutionLimitExceeded as err:
        limit = str(err)
    return (limit, machine.counters.as_dict(), cpu.instret, cpu.pc,
            cpu.regs.value, cpu.regs.type, cpu.regs.fbit,
            bytes(cpu.mem.data[:0x2000]), cpu.trt.hits, cpu.trt.misses,
            cpu.chk_hits, cpu.chk_misses, cpu.deopt_redirects)


def _assert_attributed_identical(text, attribution_of,
                                 max_instructions=1_000_000, **kwargs):
    reference, blocks = (
        _attributed_outcome(run, text, attribution_of, max_instructions,
                            **kwargs)
        for run in (Machine.run_reference, Machine.run))
    assert blocks == reference
    return reference


_RULES = arithmetic_rules(int_tag=19, float_tag=3) + \
    [TypeRule("tchk", 19, 19, 19)]

# Typed sites, each guarded by ``thdl`` whose slow path rejoins right
# after the site.  Both operands hold the loop counter (large enough to
# trap under 6-bit overflow detection); operand B's tag alternates
# 19/20 with it, so every site both hits and misses.  ``chklw`` is
# timed as a plain load and counts as neither.
_TYPED_SITES = (
    "tld t0, 0(s10)\n    tld t1, 0(s9)\n    thdl slow{n}\n"
    "    xadd t2, t0, t1",
    "tld t0, 0(s10)\n    tld t1, 0(s9)\n    thdl slow{n}\n"
    "    xmul t2, t1, t0",
    "tld t1, 0(s9)\n    thdl slow{n}\n    xsub t2, t1, t1",
    "tld t0, 0(s10)\n    tld t1, 0(s9)\n    thdl slow{n}\n"
    "    tchk t0, t1",
    "addi t4, zero, 19\n    settype t4\n    thdl slow{n}\n"
    "    chklb t5, 8(s9)",
    "addi t4, zero, 20\n    settype t4\n    thdl slow{n}\n"
    "    chklw t5, 8(s9)",
)


@st.composite
def _typed_loop_programs(draw):
    """Branchy loops mixing plain ALU work, diamonds and typed sites."""
    iters = draw(st.integers(min_value=1, max_value=60))
    segments = draw(st.lists(
        st.one_of(st.sampled_from(_BODY_OPS),
                  st.sampled_from(("diamond",)),
                  st.sampled_from(_TYPED_SITES)),
        min_size=1, max_size=10))
    body, slow = [], []
    for n, segment in enumerate(segments):
        if segment == "diamond":
            body.append(_DIAMOND.format(n=n))
        elif "{n}" in segment:
            body.append("    " + segment.format(n=n))
            body.append("resume%d:" % n)
            slow += ["slow%d:" % n, "    addi a2, a2, 1",
                     "    jal zero, resume%d" % n]
        else:
            body.append("    " + segment)
    return "\n".join(
        ["    li s10, 0x1000",
         "    li s9, 0x1010",
         "    addi t3, zero, 19",
         "    sd t3, 8(s10)",
         "    addi a0, zero, %d" % iters,
         "    addi a1, zero, 0",
         "loop:",
         "    sd a0, 0(s10)",
         "    sd a0, 0(s9)",
         "    andi t3, a0, 1",
         "    addi t3, t3, 19",
         "    sd t3, 8(s9)"] + body +
        ["    addi a0, a0, -1",
         "    bne a0, zero, loop",
         "    ebreak"] + slow)


def _random_attribution(data, program):
    """Random bucket ranges and entry points over ``program``, with an
    entry on a tagged ALU or check instruction when the program has
    one, and maybe one right after it, so that it ends its unit (most
    drawn entries fall mid-block)."""
    count = len(program.instructions)
    base = program.base
    index = st.integers(min_value=0, max_value=count - 1)
    ranges = []
    for name in data.draw(st.lists(st.sampled_from("ABC"), max_size=5)):
        start, end = sorted((data.draw(index), data.draw(index) + 1))
        ranges.append((name, base + 4 * start, base + 4 * end))
    entries = set(data.draw(st.lists(index, max_size=6)))
    typed = [i for i, instr in enumerate(program.instructions)
             if kind_of(instr.mnemonic) in (K_TAGGED_ALU, K_CHECK)]
    if typed:
        site = data.draw(st.sampled_from(typed))
        entries.add(site)
        if data.draw(st.booleans()):
            entries.add(site + 1)
    names = st.sampled_from(("ADD", "GET", "LOOP"))
    return ranges, {base + 4 * i: data.draw(names) for i in sorted(entries)}


@settings(max_examples=60, deadline=None)
@given(text=_typed_loop_programs(), data=st.data(),
       budget=st.one_of(st.none(), st.integers(min_value=20,
                                               max_value=1_500)),
       deopt=st.booleans(),
       overflow_bits=st.sampled_from((None, 6)))
def test_hypothesis_attributed_blocks_match_reference(
        text, data, budget, deopt, overflow_bits):
    spec = _random_attribution(data, assemble(text))
    _assert_attributed_identical(
        text, lambda program: Attribution(program, *spec),
        max_instructions=budget or 1_000_000, deopt=deopt,
        overflow_bits=overflow_bits)


def test_handler_entry_reached_through_a_jal_heads_its_own_unit():
    """A handler entry that the block reaches through a followed
    ``jal`` also cuts the attributed unit before it: the unit ends at
    that ``jal``, which then exits to the entry."""
    text = """
        addi a0, zero, 30
    loop:
        addi a1, a1, 1
        jal zero, handler
        addi a1, a1, 99
    handler:
        addi a2, a2, 1
        addi a0, a0, -1
        bne a0, zero, loop
        ebreak
    """
    program = assemble(text)

    def attribution_of(program):
        handler = program.labels["handler"]
        return Attribution(
            program, [("loop", program.labels["loop"], handler),
                      ("handler", handler, handler + 12)],
            {handler: "HANDLER"})

    table = block_table(program, DEFAULT_CONFIG)
    units = table.attributed(attribution_of(program))
    assert table.path_at(1) == [1, 2, 4, 5, 6, 7]
    assert units.unit_at(1)[1] == 2       # addi, jal | handler: ...
    assert units.unit_at(4)[1] == 4
    limit, counters, *_state = _assert_attributed_identical(
        text, attribution_of)
    assert limit is None
    assert counters["bytecode_counts"] == {"HANDLER": 30}
    assert counters["bucket_instructions"] == {"loop": 60, "handler": 90}
    assert counters["bytecode_flat_instructions"] == {"(startup)": 3,
                                                      "HANDLER": 149}


def test_handler_entry_inside_a_block_heads_its_own_unit():
    """An entry past a block's head cuts the attributed unit just
    before it, so flat spans close exactly; the shared block itself is
    left whole."""
    program = assemble(_LOOP)
    table = block_table(program, DEFAULT_CONFIG)
    units = table.attributed(_loop_attribution(program))
    assert units.unit_at(0)[1] == 2       # addi, addi | loop: ...
    assert table.block_at(0)[1] == 6
    assert units.unit_at(2)[1] == 4
    limit, counters, *_state = _assert_attributed_identical(
        _LOOP, _loop_attribution)
    assert limit is None
    assert counters["bytecode_flat_instructions"] == {"(startup)": 2,
                                                      "LOOP": 151}


def test_attributed_type_hits_and_misses_per_entry():
    """Hits and misses land on the entry that was current, whether the
    typed instruction ends its unit, exits it early, or follows an
    entry mid-block, and whether an entry heads its unit (the run folds
    them from its exit counts) or not (the loop charges them per call).
    The ``xadd`` ends its unit and hits right after a miss left
    ``cpu.redirect`` set: the exit the unit took tells the hit, not the
    flag.  The budget trips at the exact instruction."""
    text = "\n".join([
        "    li s10, 0x1000",
        "    li s9, 0x1010",
        "    addi t3, zero, 19",
        "    sd t3, 8(s10)",
        "    addi a0, zero, 40",
        "loop:",
        "    sd a0, 0(s10)",
        "    andi t3, a0, 1",
        "    addi t3, t3, 19",
        "    sd t3, 8(s9)",
        "entry:",
        "    " + _TYPED_SITES[0].format(n=0),
        "resume0:",
        "    " + _TYPED_SITES[2].format(n=1),
        "resume1:",
        "    " + _TYPED_SITES[3].format(n=2),
        "resume2:",
        "    addi a0, a0, -1",
        "    bne a0, zero, loop",
        "    ebreak",
        "slow0:",
        "    jal zero, resume0",
        "slow1:",
        "    jal zero, resume1",
        "slow2:",
        "    jal zero, resume2"])

    def attribution_of(program):
        entry = program.labels["entry"]
        return Attribution(
            program, [("site", entry, program.labels["resume2"])],
            {entry: "ADD", program.labels["resume0"]: "GET"})

    limit, counters, *_state = _assert_attributed_identical(
        text, attribution_of)
    assert limit is None
    assert counters["bytecode_type_hits"] == {"ADD": 20, "GET": 40}
    assert counters["bytecode_type_misses"] == {"ADD": 20, "GET": 40}
    for budget in (57, 58, 200, 301):
        limit, *_rest = _assert_attributed_identical(
            text, attribution_of, max_instructions=budget)
        assert limit is not None


# -- differential: the full benchmark matrix -------------------------------------
# Every guest engine x benchmark x registered config.  Reduced input
# scales keep the sweep tractable in tier-1; the full-scale version is
# tools/perfbench.py (which asserts the same counter identity on every
# cell it measures).

_SCALES = {
    "ackermann": 2,
    "binary-trees": 4,
    "fannkuch-redux": 4,
    "fibo": 8,
    "k-nucleotide": 30,
    "mandelbrot": 4,
    "n-body": 5,
    "n-sieve": 150,
    "pidigits": 5,
    "random": 200,
    "spectral-norm": 3,
}

_CELLS = [(engine, benchmark, config)
          for engine in ENGINES
          for benchmark in BENCHMARK_ORDER
          for config in CONFIGS]


#: The per-bytecode breakdowns only an attributed run fills in.
_ATTRIBUTION_FIELDS = ("bytecode_counts", "bucket_instructions",
                       "bytecode_type_hits", "bytecode_type_misses",
                       "bytecode_flat_instructions", "bytecode_flat_cycles")


# the arg is named "workload" because pytest-benchmark owns "benchmark"
@pytest.mark.parametrize(("engine", "workload", "config"), _CELLS,
                         ids=["%s-%s-%s" % cell for cell in _CELLS])
def test_differential_benchmark_matrix(engine, workload, config,
                                      monkeypatch):
    """The attributed reference loop, the trace engine and the
    attributed block engine agree on output and every counter (the
    trace engine runs attribution-free, so its breakdowns are empty).

    Traces form at the mechanism tests' pinned point, on fresh trace
    tables (a head already past it in a shared table never forms one),
    so every cell checks trace code, not just blocks."""
    monkeypatch.setattr(traces, "TRACE_THRESHOLD", PINNED_THRESHOLD)
    monkeypatch.setattr(traces, "_TABLES", weakref.WeakKeyDictionary())
    vm = lua_vm if engine == "lua" else js_vm
    source = getattr(WORKLOADS[workload],
                     "%s_source" % engine)(_SCALES[workload])
    program, attribution = vm.interpreter_program(config)
    cpu, runtime, _program = vm.prepare(source, config)
    reference = Machine(cpu, attribution=attribution).run_reference()
    output = "".join(runtime.output)
    expected = reference.as_dict()
    record = run_benchmark(engine, workload, config,
                           scale=_SCALES[workload], use_cache=False,
                           attribute=False)
    assert record.output == output
    assert record.counters.as_dict() == {
        **expected, **{name: {} for name in _ATTRIBUTION_FIELDS}}
    assert traces.trace_table(program, DEFAULT_CONFIG,
                              cpu.workload).traces >= 1
    cpu, runtime, _program = vm.prepare(source, config)
    attributed = Machine(cpu, attribution=attribution).run()
    assert "".join(runtime.output) == output
    assert attributed.as_dict() == expected


def test_blocks_do_not_perturb_attribution_runs():
    """An attributed run (on the block engine) still matches an
    attribution-free trace-engine run counter for counter."""
    attributed = run_benchmark("lua", "fibo", "typed", scale=8,
                               use_cache=False)
    plain = run_benchmark("lua", "fibo", "typed", scale=8,
                          use_cache=False, attribute=False)
    assert attributed.output == plain.output
    assert attributed.counters.cycles == plain.counters.cycles
    assert attributed.counters.instructions == plain.counters.instructions


def test_concurrent_runs_count_their_own_exits(monkeypatch):
    """One process may simulate the same program on two threads at once
    (a shard's inline pool thread and a sweep's).  Each run counts the
    exits its units take in a histogram of its own and folds it when it
    ends, so attributed runs on one interpreter's fresh tables,
    which all compile into while they run, each read the counters of
    a serial run.  The runs differ in length, so none can end with
    counts that the others' happen to make up, and there are more
    threads than a small host has cores."""
    from repro import api
    from repro.sim import blocks

    scales = (100, 115, 130)

    def run(scale, reference=False):
        machine, runtime = api._prepare(
            "lua", WORKLOADS["n-sieve"].lua_source(scale), config="typed")
        counters = machine.run_reference() if reference else machine.run()
        return "".join(runtime.output), counters.as_dict()

    monkeypatch.setattr(blocks, "_TABLES", weakref.WeakKeyDictionary())
    results = [None] * len(scales)

    def worker(slot):
        results[slot] = run(scales[slot])

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(len(scales))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [run(scale, reference=True) for scale in scales]


def test_exits_of_units_compiled_by_another_run_are_counted():
    """A unit that another run compiled into the table while this run
    was going (in a shard, another thread; here a run started from a
    host call) returns exit ids past the end of this run's histogram,
    which then grows to count them."""
    from repro.sim.hostcall import HostInterface

    text = """
        li a7, 5
        ecall
        addi a0, zero, 30
    loop:
        addi a1, a1, 1
        addi a0, a0, -1
        bne a0, zero, loop
        ebreak
    """
    program = assemble(text)
    loop = program.labels["loop"]
    attribution = Attribution(program, [("loop", loop, loop + 12)],
                              {loop: "LOOP"})
    started, inner = [], []

    def nest(cpu, *_):
        # The outer run's host call runs the inner one, which compiles
        # the units of the rest of the program.
        if not started:
            started.append(cpu)
            inner.append(run())
        return 0

    def run(reference=False):
        host = HostInterface()
        host.register(5, "nest", nest, 3)
        machine = Machine(Cpu(program, Memory(size=1 << 12), host=host),
                          attribution=attribution)
        counters = machine.run_reference() if reference else machine.run()
        return counters.as_dict()

    outer = run()
    assert outer == inner[0] == run(reference=True)
    assert outer["bytecode_counts"] == {"LOOP": 30}
