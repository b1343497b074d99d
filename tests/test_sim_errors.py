"""The error hierarchy: location context and the exact-point watchdog."""

import pytest

from repro.faults.inject import FaultSession
from repro.faults.plan import FaultSpec
from repro.isa.assembler import assemble
from repro.sim.cpu import Cpu
from repro.sim.errors import (
    ExecutionLimitExceeded,
    HostCallError,
    IllegalInstruction,
    MemoryError_,
    SimulationError,
)
from repro.sim.memory import Memory

SUBCLASSES = (MemoryError_, IllegalInstruction, HostCallError,
              ExecutionLimitExceeded)


def make_cpu(text, size=1 << 16):
    return Cpu(assemble(text), Memory(size=size))


LOOP = """
    li a0, 0
loop:
    addi a0, a0, 1
    beq x0, x0, loop
    ebreak
"""


@pytest.mark.parametrize("cls", SUBCLASSES)
def test_every_subclass_carries_context(cls):
    err = cls("boom", pc=0x1040, mnemonic="xadd")
    assert isinstance(err, SimulationError)
    assert err.pc == 0x1040
    assert err.mnemonic == "xadd"
    assert "pc=0x1040" in str(err)
    assert "op=xadd" in str(err)


def test_with_context_fills_only_missing_fields():
    err = SimulationError("boom", pc=0x10)
    err.with_context(pc=0x999, mnemonic="ld")
    assert err.pc == 0x10  # original raise site wins
    assert err.mnemonic == "ld"
    assert err.with_context(mnemonic="sd") is err  # chainable
    assert err.mnemonic == "ld"


def test_str_without_context_is_plain():
    assert str(SimulationError("boom")) == "boom"


def test_watchdog_fires_at_exact_instruction():
    cpu = make_cpu(LOOP)
    with pytest.raises(ExecutionLimitExceeded) as excinfo:
        cpu.run(max_instructions=500)
    assert cpu.instret == 500
    assert excinfo.value.pc is not None
    assert excinfo.value.mnemonic in ("addi", "beq")


def test_watchdog_exact_with_fault_hook_attached():
    """The fault hook must not skew the watchdog: the budget trips at
    the same exact instruction with a (no-op) injection attached."""
    cpu = make_cpu(LOOP)
    spec = FaultSpec(target="reg_value", index=100, bits=(40,), reg=20)
    FaultSession(cpu, [spec]).attach()
    with pytest.raises(ExecutionLimitExceeded):
        cpu.run(max_instructions=500)
    assert cpu.instret == 500


def test_watchdog_exact_under_machine_with_hook():
    from repro.uarch.pipeline import Machine

    cpu = make_cpu(LOOP)
    FaultSession(cpu, [FaultSpec(target="reg_value", index=7,
                                 bits=(1,), reg=20)]).attach()
    machine = Machine(cpu)  # the hook forces the reference loop
    with pytest.raises(ExecutionLimitExceeded) as excinfo:
        machine.run(max_instructions=333)
    assert cpu.instret == 333
    assert excinfo.value.pc is not None


def test_memory_fault_gains_pc_and_mnemonic():
    cpu = make_cpu("""
        li a0, 0x100000
        ld a1, 0(a0)
        ebreak
    """, size=1 << 12)
    with pytest.raises(MemoryError_) as excinfo:
        cpu.run(max_instructions=100)
    assert excinfo.value.pc == cpu.pc
    assert excinfo.value.mnemonic == "ld"
    assert "op=ld" in str(excinfo.value)


def test_illegal_instruction_carries_pc():
    cpu = make_cpu("""
        li a0, 0x7000
        jalr x0, 0(a0)
        ebreak
    """)
    with pytest.raises(IllegalInstruction) as excinfo:
        cpu.run(max_instructions=100)
    assert excinfo.value.pc == 0x7000
