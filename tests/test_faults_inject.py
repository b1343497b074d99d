"""FaultSession mechanics on small hand-assembled programs."""

import pytest

from repro.faults.inject import FaultSession, TagGeometry, tag_geometry
from repro.faults.plan import FaultSpec
from repro.isa.assembler import assemble
from repro.sim.cpu import Cpu
from repro.sim.memory import Memory


def make_cpu(text):
    return Cpu(assemble(text), Memory(size=1 << 16))


COUNT_PROGRAM = """
    li a0, 0
    addi a0, a0, 1
    addi a0, a0, 1
    addi a0, a0, 1
    addi a0, a0, 1
    ebreak
"""


def test_fault_fires_before_exact_instruction():
    cpu = make_cpu(COUNT_PROGRAM)
    # a0 is x10; flip bit 6 (64) just before dynamic instruction 3
    # executes: two increments land before the flip, two after.
    spec = FaultSpec(target="reg_value", index=3, bits=(6,), reg=10)
    session = FaultSession(cpu, [spec]).attach()
    cpu.run(max_instructions=100)
    assert cpu.regs.value[10] == 2 + 64 + 2
    assert session.applied == [{"target": "reg_value", "kind": "",
                                "index": 3, "bits": [6], "reg": 10,
                                "slot": 0}]


def test_hook_forces_interpreted_loop():
    from repro.uarch.pipeline import Machine

    cpu = make_cpu(COUNT_PROGRAM)
    FaultSession(cpu, []).attach()
    assert "step" in cpu.__dict__  # what Machine.run checks to deopt
    machine = Machine(cpu)
    machine.run()
    assert cpu.regs.value[10] == 4


def test_hook_forces_trace_engine_deopt():
    """The superblock trace engine (the default) must also deopt to
    the per-instruction loop when a fault hook rebinds ``step`` —
    otherwise injection indices would be inexact — with counters
    bit-identical to an explicit interpreted run."""
    from repro.uarch.pipeline import Machine

    reference = make_cpu(COUNT_PROGRAM)
    ref_counters = Machine(reference).run_reference()

    cpu = make_cpu(COUNT_PROGRAM)
    FaultSession(cpu, []).attach()
    counters = Machine(cpu).run()
    assert cpu.regs.value[10] == reference.regs.value[10] == 4
    assert counters.as_dict() == ref_counters.as_dict()


def test_detach_restores_plain_step():
    cpu = make_cpu(COUNT_PROGRAM)
    session = FaultSession(cpu, []).attach()
    session.detach()
    assert "step" not in cpu.__dict__


def test_x0_fault_is_absorbed():
    cpu = make_cpu(COUNT_PROGRAM)
    spec = FaultSpec(target="reg_value", index=2, bits=(0,), reg=0)
    session = FaultSession(cpu, [spec]).attach()
    cpu.run(max_instructions=100)
    assert session.applied == []
    assert session.absorbed == 1
    assert cpu.regs.value[10] == 4  # run unaffected


def test_trt_fault_on_empty_table_is_absorbed():
    cpu = make_cpu(COUNT_PROGRAM)
    spec = FaultSpec(target="trt", index=1, bits=(0,), slot=5, kind="out")
    session = FaultSession(cpu, [spec]).attach()
    cpu.run(max_instructions=100)
    assert session.applied == []
    assert session.absorbed == 1


def test_trt_out_fault_changes_rule():
    from repro.isa.extension import TypeRule
    from repro.sim.trt import TRT_OPCODES

    cpu = make_cpu(COUNT_PROGRAM)
    cpu.trt.load_rules([TypeRule("xadd", 2, 2, 2)])
    spec = FaultSpec(target="trt", index=2, bits=(0,), slot=0, kind="out")
    FaultSession(cpu, [spec]).attach()
    cpu.run(max_instructions=100)
    assert cpu.trt.lookup(TRT_OPCODES["xadd"], 2, 2) == 3  # 2 ^ 1


def test_extractor_fault_reapplies_width_clamp():
    cpu = make_cpu(COUNT_PROGRAM)
    spec = FaultSpec(target="extractor", index=2, bits=(1,), kind="shift")
    FaultSession(cpu, [spec]).attach()
    cpu.run(max_instructions=100)
    assert cpu.codec.shift == 2
    assert cpu.codec.shift <= 0x3F


def test_reg_tag_fbit_flip():
    cpu = make_cpu(COUNT_PROGRAM)
    # a1 (x11) is never written by the program, so the flipped F/I bit
    # survives to the end of the run.
    spec = FaultSpec(target="reg_tag", index=2, bits=(), reg=11,
                     kind="fbit")
    FaultSession(cpu, [spec]).attach()
    cpu.run(max_instructions=100)
    assert cpu.regs.fbit[11] == 1


def test_mem_tag_defers_until_a_site_exists():
    cpu = make_cpu("""
        li a0, 0
        addi a0, a0, 1
        li a1, 0x8000
        sd a0, 0(a1)
        addi a0, a0, 1
        ebreak
    """)
    geometry = TagGeometry(displacement=8, shift=0, width=8,
                           slot_base=0x8000, slot_size=16)
    # Scheduled for index 1, but no value-region access has happened
    # yet; it must fire after the first store (instruction 4).
    spec = FaultSpec(target="mem_tag", index=1, bits=(1,))
    session = FaultSession(cpu, [spec], geometry=geometry).attach()
    cpu.run(max_instructions=100)
    assert len(session.applied) == 1
    assert session.applied[0]["index"] >= 4
    assert cpu.mem.load(0x8008, 1) == 0b10  # tag byte of the slot


def test_mem_tag_ignores_out_of_region_accesses():
    cpu = make_cpu("""
        li a1, 0x100
        sd a1, 0(a1)
        addi a0, a0, 1
        ebreak
    """)
    geometry = TagGeometry(displacement=8, shift=0, width=8,
                           slot_base=0x8000, slot_size=16)
    spec = FaultSpec(target="mem_tag", index=1, bits=(0,))
    session = FaultSession(cpu, [spec], geometry=geometry).attach()
    cpu.run(max_instructions=100)
    assert session.applied == []  # never found a tag-plane site


@pytest.mark.parametrize("engine", ["lua", "js"])
def test_tag_geometry_matches_layout(engine):
    geometry = tag_geometry(engine)
    if engine == "lua":
        assert geometry.displacement == 8  # tag byte in the next dword
        assert geometry.slot_size == 16
    else:
        assert geometry.displacement == 0  # NaN-boxed: tag in-place
        assert geometry.slot_size == 8
        assert geometry.shift == 47
    assert geometry.width >= 1
    # The tag address of a slot-interior access is the slot's tag word.
    base = geometry.slot_base
    assert geometry.tag_addr_for(base) == base + geometry.displacement
    assert geometry.tag_addr_for(base + geometry.slot_size - 1) \
        == base + geometry.displacement
    assert geometry.tag_addr_for(base - 1) is None


def test_tag_geometry_unknown_engine():
    with pytest.raises(ValueError):
        tag_geometry("forth")
