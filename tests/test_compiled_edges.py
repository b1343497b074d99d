"""The three engines at the edges of guest RAM and of the run.

Compiled units inline every integer, FP and tagged load and store,
bounds-checked against the size of guest RAM, and count retired
instructions in bulk at their exits.  These tests run the reference
loop (:meth:`Machine.run_reference`), traces (:meth:`Machine.run`, with
the formation point pinned low) and attributed blocks (:meth:`Machine.run`
with an attribution map) on the same programs and require the same
state on each:

* at the last valid address of a small RAM, for every inlined access
  width, and at an address that wraps past 2**64, the same registers,
  RAM bytes and counters;
* on a fault — an access past the end of RAM, inlined or made by a
  handler (``chklw``, ``chklb``, a host call), inside a block, a segment
  a block reached through a ``jal``, or a trace, or the instruction
  budget — the same error text, ``pc`` and ``mnemonic``, and the same
  ``cpu.pc`` and ``cpu.instret``; at the budget also the same cache,
  front-end and stall totals, which the compiled engines fold from
  the exits their units took when the run ends.
"""

import weakref

import pytest

from repro.isa.assembler import assemble
from repro.sim import traces
from repro.sim.cpu import Cpu
from repro.sim.errors import SimulationError
from repro.sim.hostcall import HostInterface
from repro.sim.memory import Memory
from repro.uarch.pipeline import Attribution, Machine
from tests.test_blocks import _ATTRIBUTION_FIELDS
from tests.test_traces import PINNED_THRESHOLD

RAM = 1 << 12

ENGINES = ("reference", "traces", "blocks")


@pytest.fixture(autouse=True)
def pinned_threshold(monkeypatch):
    """Traces form after 16 dispatches of a head, on fresh tables."""
    monkeypatch.setattr(traces, "TRACE_THRESHOLD", PINNED_THRESHOLD)
    monkeypatch.setattr(traces, "_TABLES", weakref.WeakKeyDictionary())


def _host():
    """Host service 5 loads the dword at ``a0``, as a host call that
    reads a guest string does."""
    host = HostInterface()
    host.register(5, "peek", lambda cpu, a0, *_: cpu.mem.load(a0, 8), 3)
    return host


def _run(text, engine, max_instructions=1_000_000):
    """Run ``text`` on ``engine`` over a :data:`RAM`-byte memory;
    returns ``(cpu, counters, error, machine)``."""
    program = assemble(text)
    cpu = Cpu(program, Memory(size=RAM), host=_host())
    attribution = None if engine == "traces" else Attribution(program)
    machine = Machine(cpu, attribution=attribution)
    counters = error = None
    try:
        if engine == "reference":
            counters = machine.run_reference(max_instructions)
        else:
            counters = machine.run(max_instructions)
    except SimulationError as err:
        error = err
    return cpu, counters, error, machine


def _outcomes(text, max_instructions=1_000_000):
    return {engine: _run(text, engine, max_instructions)
            for engine in ENGINES}


def _trace_count():
    """Traces formed on the fresh tables since the test began."""
    return sum(table.traces for per_program in traces._TABLES.values()
               for table in per_program.values())


# -- accesses at the last valid address -------------------------------------------

# Every inlined access width at the top of RAM (s0 = RAM), with values
# at the sign boundaries, then a load whose positive offset wraps its
# address past 2**64 to 8 (where t3 was stored).  The loop body is two
# blocks (the always taken ``beq`` splits it) and runs 40 times, so a
# trace forms.
_EDGES = """
    li s0, %(ram)d
    li s1, 40
    li t0, -1
    li t1, 0x80
    li t2, 0x8000
    lui t3, 0x80000
    sd t3, 8(zero)
loop:
    sd t0, -8(s0)
    ld a0, -8(s0)
    sw t3, -4(s0)
    lw a1, -4(s0)
    lwu a2, -4(s0)
    sh t2, -2(s0)
    lh a3, -2(s0)
    lhu a4, -2(s0)
    beq zero, zero, tail
    addi a0, a0, 99
tail:
    sb t1, -1(s0)
    lb a5, -1(s0)
    lbu a6, -1(s0)
    fld f1, -8(s0)
    fsd f1, -16(s0)
    ld a7, -16(s0)
    li s2, -8
    ld s3, 16(s2)
    sd s3, -24(s0)
    addi s1, s1, -1
    bne s1, zero, loop
    ebreak
""" % {"ram": RAM}


def test_every_inlined_width_at_the_last_valid_address():
    outcomes = _outcomes(_EDGES)
    assert _trace_count() >= 1
    ref_cpu, ref_counters, ref_error, _machine = outcomes["reference"]
    assert ref_error is None
    regs = ref_cpu.regs.value
    assert regs[10] == (1 << 64) - 1                      # ld a0
    assert regs[11] == (1 << 64) - (1 << 31)              # lw a1
    assert regs[12] == 1 << 31                            # lwu a2
    assert regs[13] == (1 << 64) - (1 << 15)              # lh a3
    assert regs[14] == 1 << 15                            # lhu a4
    assert regs[15] == (1 << 64) - (1 << 7)               # lb a5
    assert regs[16] == 1 << 7                             # lbu a6
    assert regs[17] == ref_cpu.fregs.bits[1]              # fsd/ld
    assert regs[19] == regs[28] != 0                      # wrapped ld
    expected = ref_counters.as_dict()
    for engine in ("traces", "blocks"):
        cpu, counters, error, _machine = outcomes[engine]
        assert error is None
        assert cpu.regs.value == ref_cpu.regs.value
        assert cpu.regs.type == ref_cpu.regs.type
        assert cpu.fregs.bits == ref_cpu.fregs.bits
        assert bytes(cpu.mem.data) == bytes(ref_cpu.mem.data)
        if engine == "traces":
            assert counters.as_dict() == {
                **expected, **{name: {} for name in _ATTRIBUTION_FIELDS}}
        else:
            assert counters.as_dict() == expected


# -- faults carry the reference loop's context ------------------------------------

def _assert_same_fault(outcomes):
    ref_cpu, _counters, ref_error, _machine = outcomes["reference"]
    assert ref_error is not None
    for engine in ("traces", "blocks"):
        cpu, _counters, error, _machine = outcomes[engine]
        assert type(error) is type(ref_error)
        assert str(error) == str(ref_error)
        assert error.pc == ref_error.pc
        assert error.mnemonic == ref_error.mnemonic
        assert cpu.pc == ref_cpu.pc
        assert cpu.instret == ref_cpu.instret
    return ref_cpu, ref_error


def _model_totals(machine):
    """The totals the compiled engines fold from their exit counts
    when a run ends, however it ends."""
    return (machine.icache.accesses, machine.dcache.accesses,
            machine.frontend.branches, machine.counters.load_use_stalls)


def _assert_same_model_totals(outcomes):
    expected = _model_totals(outcomes["reference"][3])
    for engine in ("traces", "blocks"):
        assert _model_totals(outcomes[engine][3]) == expected, engine


def test_fault_past_the_end_of_ram_in_a_block():
    outcomes = _outcomes("""
        li a0, 0xff8
        ld a1, 0(a0)
        li a0, 0xffc
        ld a1, 0(a0)
        ebreak
    """)
    cpu, error = _assert_same_fault(outcomes)
    assert str(error) == ("access of 8 bytes at 0xffc outside memory of "
                          "4096 bytes [pc=0x14 op=ld]")
    assert (error.pc, error.mnemonic) == (0x14, "ld")
    assert (cpu.pc, cpu.instret) == (0x14, 5)


_SPIN = """
    li a0, 0
loop:
    addi a0, a0, 1
    beq x0, x0, loop
"""


def test_budget_inside_a_loop_names_the_last_instruction():
    outcomes = _outcomes(_SPIN, max_instructions=500)
    cpu, error = _assert_same_fault(outcomes)
    assert str(error) == "exceeded 500 instructions at PC 0x8 " \
        "[pc=0x8 op=addi]"
    assert (cpu.pc, cpu.instret) == (0x8, 500)


def test_budget_on_every_instruction_around_trace_formation():
    # The trace engine records the head at ``loop`` on its 16th
    # dispatch, after 33 instructions; the recorded block ends at 35.
    # The cache, front-end and stall totals the compiled engines fold
    # at the end of a run are folded on the limit path too.
    for budget in range(2, 40):
        outcomes = _outcomes(_SPIN, max_instructions=budget)
        cpu, error = _assert_same_fault(outcomes)
        _assert_same_model_totals(outcomes)
        assert cpu.instret == budget
        assert error.mnemonic == ("beq" if budget % 2 else "addi")


# A two-block loop walking a pointer (a0) in 64-byte steps past the end
# of RAM; the access sits in the second block.  The entry block ends
# before ``loop``, so ``loop`` is dispatched first in every iteration,
# turns hot first and heads the trace, in which the access is not the
# first instruction.  Taken branches close the blocks: a block would
# run through a ``jal`` back to the head, and the loop would be one
# block that forms no trace.  RAM is zero, so ``chklw``/``chklb`` hit
# (``r_ctype`` is 0) until they fault.
_WALK = """
    li a0, 0
    li a2, 0
    bge zero, zero, loop
loop:
    addi a2, a2, 1
    beq zero, zero, access
    addi a2, a2, 99
access:
    %s
    add a2, a2, a1
    addi a0, a0, 64
    bge zero, zero, loop
"""


@pytest.mark.parametrize("access", [
    "ld a1, 0(a0)", "lbu a1, 0(a0)", "lh a1, 0(a0)", "sd a2, 0(a0)",
    "sb a2, 0(a0)", "fld f1, 0(a0)", "fsd f1, 0(a0)", "chklw a1, 0(a0)",
    "chklb a1, 0(a0)"])
def test_fault_past_the_end_of_ram_inside_a_trace(access):
    text = _WALK % access
    outcomes = _outcomes(text)
    assert _trace_count() >= 1
    cpu, error = _assert_same_fault(outcomes)
    assert error.pc == cpu.pc == assemble(text).labels["access"]
    assert error.mnemonic == access.split()[0]
    assert "at 0x%x outside memory" % RAM in str(error)


# -- units that run through direct jumps ------------------------------------------

@pytest.mark.parametrize("access", [
    "ld a2, 0(a0)", "sd a1, 0(a0)", "chklw a2, 0(a0)", "chklb a2, 0(a0)",
    "ecall"])
@pytest.mark.parametrize("follow", [False, True],
                         ids=["straight", "after-jal"])
def test_fault_counts_the_earlier_instructions_of_its_unit(access, follow):
    """A fault after earlier instructions of the same unit, straight
    or past a followed ``jal``, leaves ``cpu.instret`` at the count of
    the instructions before it, as the reference loop does; handler
    calls (``chklw``, ``chklb``, a host call) included."""
    jump = ["jal zero, next", "ebreak", "next:"] if follow else []
    text = "\n".join(["li a0, 0xff0", "li a7, 5", "addi a0, a0, 16"]
                     + jump + ["addi a1, a1, 1", access, "ebreak"])
    cpu, error = _assert_same_fault(_outcomes(text))
    assert cpu.instret == 5 + follow
    assert error.mnemonic == access.split()[0]
    assert "at 0x%x outside memory" % RAM in str(error)


# A loop that calls a subroutine: each block runs through the ``jal``
# and the call into ``callee``, and ends at its return ``jalr``.
_CALLS = """
    li a0, 0
loop:
    addi a0, a0, 1
    jal zero, body
    addi a0, a0, 99
body:
    jal ra, callee
    addi a1, a1, 2
    bge zero, zero, loop
callee:
    addi a2, a2, 3
    xor a3, a2, a0
    jalr zero, 0(ra)
"""


def test_budget_on_every_instruction_of_a_followed_segment():
    """The budget trips on every instruction of a unit that runs
    through a ``jal`` and a call, with the reference loop's pc and
    mnemonic: the limit's mnemonic is read from the unit's path.  The
    cache, front-end and stall totals match the reference loop's at
    every budget."""
    program = assemble(_CALLS)
    loop, body, callee = (program.labels[name]
                          for name in ("loop", "body", "callee"))
    # One iteration, in the order it runs.
    order = [program.instructions[(pc - program.base) >> 2].mnemonic
             for pc in (loop, loop + 4, body, callee, callee + 4,
                        callee + 8, body + 4, body + 8)]
    for budget in range(2, 2 + 3 * len(order)):
        outcomes = _outcomes(_CALLS, max_instructions=budget)
        cpu, error = _assert_same_fault(outcomes)
        _assert_same_model_totals(outcomes)
        assert cpu.instret == budget
        assert error.mnemonic == order[(budget - 2) % len(order)]
