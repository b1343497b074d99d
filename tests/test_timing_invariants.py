"""Property tests on timing-model invariants over random programs.

Random straight-line programs (terminating by construction) exercise the
cycle-accounting bookkeeping: the counters must be internally consistent
no matter what instruction mix runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.sim.cpu import Cpu
from repro.sim.memory import Memory
from repro.uarch.pipeline import Machine

# Instruction templates over registers a0-a5 and a scratch memory window.
_TEMPLATES = (
    "addi {rd}, {rs}, {imm}",
    "add {rd}, {rs}, {rt}",
    "sub {rd}, {rs}, {rt}",
    "mul {rd}, {rs}, {rt}",
    "slli {rd}, {rs}, {sh}",
    "xor {rd}, {rs}, {rt}",
    "sd {rs}, {off}(s0)",
    "ld {rd}, {off}(s0)",
    "sltu {rd}, {rs}, {rt}",
)

_REGS = ("a0", "a1", "a2", "a3", "a4", "a5")


@st.composite
def straight_line_programs(draw):
    count = draw(st.integers(min_value=1, max_value=60))
    lines = ["li s0, 0x8000"]
    for _ in range(count):
        template = draw(st.sampled_from(_TEMPLATES))
        lines.append(template.format(
            rd=draw(st.sampled_from(_REGS)),
            rs=draw(st.sampled_from(_REGS)),
            rt=draw(st.sampled_from(_REGS)),
            imm=draw(st.integers(-100, 100)),
            sh=draw(st.integers(0, 31)),
            off=draw(st.integers(0, 15)) * 8,
        ))
    lines.append("ebreak")
    return "\n".join(lines)


def _run(text):
    cpu = Cpu(assemble(text), Memory(size=1 << 16))
    machine = Machine(cpu)
    return machine, machine.run(max_instructions=100_000)


@settings(max_examples=60, deadline=None)
@given(text=straight_line_programs())
def test_cycles_bound_instructions(text):
    _, counters = _run(text)
    assert counters.cycles >= counters.instructions
    # No instruction can cost more than a worst-case stack of penalties.
    assert counters.cycles < counters.instructions * 80 + 200


@settings(max_examples=60, deadline=None)
@given(text=straight_line_programs())
def test_icache_accessed_once_per_instruction(text):
    _, counters = _run(text)
    assert counters.icache_accesses == counters.core_instructions
    assert counters.icache_misses <= counters.icache_accesses


@settings(max_examples=60, deadline=None)
@given(text=straight_line_programs())
def test_dcache_accesses_match_memory_ops(text):
    machine, counters = _run(text)
    loads = text.count("ld ") + text.count("sd ")
    assert counters.dcache_accesses == loads
    assert counters.dcache_misses <= counters.dcache_accesses


@settings(max_examples=30, deadline=None)
@given(text=straight_line_programs())
def test_timing_is_deterministic(text):
    _, first = _run(text)
    _, second = _run(text)
    assert first.cycles == second.cycles
    assert first.as_dict() == second.as_dict()


@settings(max_examples=40, deadline=None)
@given(text=straight_line_programs())
def test_block_engine_matches_interpreter(text):
    """The superinstruction engine is an optimisation, not a model:
    counters, cycles and architectural state must be bit-identical to
    the per-instruction loop on arbitrary instruction mixes."""
    ref_cpu = Cpu(assemble(text), Memory(size=1 << 16))
    ref = Machine(ref_cpu).run_reference(max_instructions=100_000)
    blk_cpu = Cpu(assemble(text), Memory(size=1 << 16))
    blk = Machine(blk_cpu).run(max_instructions=100_000)
    assert blk.as_dict() == ref.as_dict()
    assert blk_cpu.regs.value == ref_cpu.regs.value
    assert bytes(blk_cpu.mem.data) == bytes(ref_cpu.mem.data)


@settings(max_examples=30, deadline=None)
@given(text=straight_line_programs())
def test_functional_state_independent_of_timing(text):
    """The timing layer must never change architectural results."""
    timed_cpu = Cpu(assemble(text), Memory(size=1 << 16))
    Machine(timed_cpu).run(max_instructions=100_000)
    pure_cpu = Cpu(assemble(text), Memory(size=1 << 16))
    pure_cpu.run(max_instructions=100_000)
    assert timed_cpu.regs.value == pure_cpu.regs.value
    assert bytes(timed_cpu.mem.data) == bytes(pure_cpu.mem.data)
