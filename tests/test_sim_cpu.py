"""Functional CPU tests: small assembled programs run to completion."""

import pytest

from repro.engines import ir
from repro.isa.assembler import Program, assemble
from repro.isa.extension import (
    LUA_SPR,
    SPIDERMONKEY_SPR,
    TYPE_UNTYPED,
    arithmetic_rules,
)
from repro.isa.instructions import Instruction
from repro.sim import nanbox
from repro.sim.cpu import Cpu, float_to_bits, to_signed
from repro.sim.errors import ExecutionLimitExceeded, IllegalInstruction
from repro.sim.memory import Memory
from repro.sim.tagio import TagCodec


def run(text, memory=None, setup=None, overflow_bits=None, codec=None,
        rules=None):
    program = assemble(text)
    cpu = Cpu(program, memory or Memory(size=1 << 16),
              tag_codec=codec, overflow_bits=overflow_bits)
    if rules:
        cpu.trt.load_rules(rules)
    if setup:
        setup(cpu)
    cpu.run(max_instructions=100_000)
    return cpu


def test_arithmetic_basics():
    cpu = run("""
        li a0, 40
        li a1, 2
        add a2, a0, a1
        sub a3, a0, a1
        mul a4, a0, a1
        ebreak
    """)
    assert cpu.regs.value[12] == 42
    assert cpu.regs.value[13] == 38
    assert cpu.regs.value[14] == 80


def test_64bit_wraparound():
    cpu = run("""
        li a0, -1
        li a1, 1
        add a2, a0, a1
        ebreak
    """)
    assert cpu.regs.value[12] == 0


def test_branch_loop_sums():
    cpu = run("""
        li a0, 0
        li a1, 10
    loop:
        add a0, a0, a1
        addi a1, a1, -1
        bnez a1, loop
        ebreak
    """)
    assert cpu.regs.value[10] == 55


def test_memory_loads_and_stores():
    cpu = run("""
        li a0, 0x100
        li a1, -7
        sd a1, 0(a0)
        ld a2, 0(a0)
        lw a3, 0(a0)
        lbu a4, 0(a0)
        ebreak
    """)
    assert to_signed(cpu.regs.value[12]) == -7
    assert to_signed(cpu.regs.value[13]) == -7
    assert cpu.regs.value[14] == 0xF9


def test_function_call_and_return():
    cpu = run("""
        li a0, 5
        call double_it
        ebreak
    double_it:
        slli a0, a0, 1
        ret
    """)
    assert cpu.regs.value[10] == 10


def test_fp_arithmetic():
    def setup(cpu):
        cpu.fregs.write(1, float_to_bits(1.5))
        cpu.fregs.write(2, float_to_bits(2.25))
    cpu = run("""
        fadd.d f3, f1, f2
        fmul.d f4, f1, f2
        flt.d a0, f1, f2
        ebreak
    """, setup=setup)
    from repro.sim.cpu import bits_to_float
    assert bits_to_float(cpu.fregs.bits[3]) == 3.75
    assert bits_to_float(cpu.fregs.bits[4]) == 3.375
    assert cpu.regs.value[10] == 1


def test_fcvt_round_trip():
    cpu = run("""
        li a0, -9
        fcvt.d.l f1, a0
        fcvt.l.d a1, f1
        ebreak
    """)
    assert to_signed(cpu.regs.value[11]) == -9


def test_division_by_zero_riscv_semantics():
    cpu = run("""
        li a0, 7
        li a1, 0
        div a2, a0, a1
        rem a3, a0, a1
        ebreak
    """)
    assert to_signed(cpu.regs.value[12]) == -1
    assert cpu.regs.value[13] == 7


def test_execution_limit():
    with pytest.raises(ExecutionLimitExceeded):
        run("loop: j loop")


def test_pc_outside_program_raises():
    program = assemble("jr a0")  # a0 = 0x5000, nothing there
    cpu = Cpu(program, Memory(size=1 << 16))
    cpu.regs.write(10, 0x5000)
    with pytest.raises(IllegalInstruction):
        cpu.run(max_instructions=10)


# -- Typed Architecture semantics ---------------------------------------------

def lua_codec():
    codec = TagCodec(fp_tags={3})
    codec.set_offset(LUA_SPR.offset)
    codec.set_shift(LUA_SPR.shift)
    codec.set_mask(LUA_SPR.mask)
    return codec


LUA_RULES = arithmetic_rules(int_tag=19, float_tag=3)


def test_tld_xadd_tsd_fast_path_int():
    """The paper's Figure 3 sequence on Lua-layout values."""
    mem = Memory(size=1 << 16)
    # Two Lua TValues at 0x100 and 0x110: value dword then tag dword.
    mem.store_u64(0x100, 30)
    mem.store_u64(0x108, 19)
    mem.store_u64(0x110, 12)
    mem.store_u64(0x118, 19)
    cpu = run("""
        li s10, 0x100
        li s9, 0x110
        li s11, 0x120
        tld t0, 0(s10)
        tld t1, 0(s9)
        thdl slow
        xadd t0, t0, t1
        tsd t0, 0(s11)
        ebreak
    slow:
        li a7, 99
        ebreak
    """, memory=mem, codec=lua_codec(), rules=LUA_RULES)
    assert cpu.regs.value[17] != 99  # fast path taken
    assert mem.load_u64(0x120) == 42
    assert mem.load_u8(0x128) == 19  # output tag stored
    assert cpu.trt.hits == 1


def test_xadd_float_binding():
    """xadd binds to FP add when the F/I bit says float."""
    mem = Memory(size=1 << 16)
    mem.store_u64(0x100, float_to_bits(1.5))
    mem.store_u64(0x108, 3)
    mem.store_u64(0x110, float_to_bits(2.0))
    mem.store_u64(0x118, 3)
    run("""
        li s10, 0x100
        li s9, 0x110
        tld t0, 0(s10)
        tld t1, 0(s9)
        thdl slow
        xadd t2, t0, t1
        tsd t2, 0(s10)
        ebreak
    slow:
        ebreak
    """, memory=mem, codec=lua_codec(), rules=LUA_RULES)
    from repro.sim.cpu import bits_to_float
    assert bits_to_float(mem.load_u64(0x100)) == 3.5
    assert mem.load_u8(0x108) == 3


def test_type_misprediction_redirects_to_handler():
    mem = Memory(size=1 << 16)
    mem.store_u64(0x100, 30)
    mem.store_u64(0x108, 19)  # int
    mem.store_u64(0x110, float_to_bits(1.0))
    mem.store_u64(0x118, 3)   # float: (int, float) misses the TRT
    cpu = run("""
        li s10, 0x100
        li s9, 0x110
        tld t0, 0(s10)
        tld t1, 0(s9)
        thdl slow
        xadd t0, t0, t1
        li a6, 1
        ebreak
    slow:
        li a7, 99
        ebreak
    """, memory=mem, codec=lua_codec(), rules=LUA_RULES)
    assert cpu.regs.value[17] == 99  # slow path ran
    assert cpu.regs.value[16] == 0   # fast path tail skipped
    assert cpu.trt.misses == 1


def test_overflow_triggers_misprediction_when_enabled():
    mem = Memory(size=1 << 16)
    mem.store_u64(0x100, (1 << 31) - 1)
    mem.store_u64(0x108, 19)
    mem.store_u64(0x110, 1)
    mem.store_u64(0x118, 19)
    text = """
        li s10, 0x100
        li s9, 0x110
        tld t0, 0(s10)
        tld t1, 0(s9)
        thdl slow
        xadd t0, t0, t1
        ebreak
    slow:
        li a7, 99
        ebreak
    """
    cpu = run(text, memory=mem, codec=lua_codec(), rules=LUA_RULES,
              overflow_bits=32)
    assert cpu.regs.value[17] == 99
    assert cpu.overflow_traps == 1
    # Same program with detection off takes the fast path (Section 3.2).
    mem2 = Memory(size=1 << 16)
    for addr, value in ((0x100, (1 << 31) - 1), (0x108, 19), (0x110, 1),
                        (0x118, 19)):
        mem2.store_u64(addr, value)
    cpu = run(text, memory=mem2, codec=lua_codec(), rules=LUA_RULES)
    assert cpu.overflow_traps == 0
    assert cpu.regs.value[17] != 99


def test_tchk_checks_without_calculation():
    from repro.isa.extension import table_access_rules
    rules = table_access_rules(table_tag=5, int_tag=19)
    mem = Memory(size=1 << 16)
    mem.store_u64(0x100, 0x2000)
    mem.store_u64(0x108, 5)   # Table
    mem.store_u64(0x110, 4)
    mem.store_u64(0x118, 19)  # Int
    cpu = run("""
        li s10, 0x100
        li s9, 0x110
        tld t0, 0(s10)
        tld t1, 0(s9)
        thdl slow
        tchk t0, t1
        li a6, 1
        ebreak
    slow:
        li a7, 99
        ebreak
    """, memory=mem, codec=lua_codec(), rules=rules)
    assert cpu.regs.value[16] == 1
    assert cpu.regs.value[17] != 99


def test_tget_tset_manipulate_tags():
    cpu = run("""
        li a0, 19
        li a1, 1234
        tset a0, a1
        tget a2, a1
        ebreak
    """, codec=lua_codec())
    assert cpu.regs.value[12] == 19
    assert cpu.regs.type[11] == 19


def test_untyped_write_marks_untyped():
    cpu = run("""
        li a0, 19
        li a1, 5
        tset a0, a1
        addi a1, a1, 0
        ebreak
    """, codec=lua_codec())
    assert cpu.regs.type[11] == TYPE_UNTYPED


def test_config_instructions_set_sprs():
    cpu = run("""
        li a0, 0b001
        setoffset a0
        li a0, 0xFF
        setmask a0
        li a0, 0
        setshift a0
        ebreak
    """)
    assert cpu.codec.offset == 0b001
    assert cpu.codec.mask == 0xFF
    assert cpu.codec.shift == 0


def test_set_trt_and_flush_from_assembly():
    from repro.sim.trt import TRT_OPCODES
    cpu = run("""
        li a0, 0x00131313   # xadd, 19, 19 -> 19
        set_trt a0
        ebreak
    """)
    assert cpu.trt.lookup(TRT_OPCODES["xadd"], 0x13, 0x13) == 0x13
    cpu = run("""
        li a0, 0x00131313
        set_trt a0
        flush_trt
        ebreak
    """)
    assert len(cpu.trt) == 0


def test_nanboxed_tld_tsd():
    codec = TagCodec(double_tag=0, int_tag=1)
    codec.set_offset(SPIDERMONKEY_SPR.offset)
    codec.set_shift(SPIDERMONKEY_SPR.shift)
    codec.set_mask(SPIDERMONKEY_SPR.mask)
    mem = Memory(size=1 << 16)
    mem.store_u64(0x100, nanbox.box_int32(1, -3))
    mem.store_u64(0x108, nanbox.box_int32(1, 10))
    run("""
        li s10, 0x100
        tld t0, 0(s10)
        tld t1, 8(s10)
        thdl slow
        xadd t0, t0, t1
        tsd t0, 16(s10)
        ebreak
    slow:
        ebreak
    """, memory=mem, codec=codec,
        rules=arithmetic_rules(int_tag=1, float_tag=0), overflow_bits=32)
    stored = mem.load_u64(0x110)
    assert nanbox.is_boxed(stored)
    assert nanbox.unbox_int32(stored) == 7


def test_checked_load_hit_and_miss():
    mem = Memory(size=1 << 16)
    mem.store_u64(0x100, 42)
    mem.store_u8(0x108, 19)
    cpu = run("""
        li a0, 19
        settype a0
        li s10, 0x100
        thdl slow
        chklb t0, 8(s10)
        ld t1, 0(s10)
        li a6, 1
        ebreak
    slow:
        li a7, 99
        ebreak
    """, memory=mem)
    assert cpu.regs.value[16] == 1
    assert cpu.chk_hits == 1
    # Now a mismatching tag byte.
    mem.store_u8(0x108, 3)
    cpu = run("""
        li a0, 19
        settype a0
        li s10, 0x100
        thdl slow
        chklb t0, 8(s10)
        li a6, 1
        ebreak
    slow:
        li a7, 99
        ebreak
    """, memory=mem)
    assert cpu.regs.value[17] == 99
    assert cpu.chk_misses == 1


def test_context_save_restore():
    codec = lua_codec()
    program = assemble("ebreak")
    cpu = Cpu(program, Memory(size=4096), tag_codec=codec)
    cpu.trt.load_rules(LUA_RULES)
    cpu.regs.write_typed(5, 42, 19, 0)
    cpu.r_hdl = 0x1234
    state = cpu.save_context()
    cpu.regs.write(5, 0)
    cpu.trt.flush()
    cpu.r_hdl = 0
    cpu.restore_context(state)
    assert cpu.regs.value[5] == 42
    assert cpu.regs.type[5] == 19
    assert cpu.r_hdl == 0x1234
    assert len(cpu.trt) == 6


# -- an oracle for the shared ALU/branch table -------------------------------
#
# The reference handlers and the block/trace code generator are both
# built from the templates in repro.engines.ir, so the three-engine
# differential cannot catch a wrong template; plain integer arithmetic
# can.

_EDGE_VALUES = [0, 1, 2**31 - 1, 2**31, 2**32 - 1, 2**63 - 1, 2**63,
                2**64 - 1, 0xA5C3_0F96_5A3C_F069]
_EDGE_IMMS = [0, 1, -1, 31, 32, 63, -2048, 2047]


def _s64(x):
    x %= 2**64
    return x - 2**64 if x >= 2**63 else x


def _s32(x):
    x %= 2**32
    return x - 2**32 if x >= 2**31 else x


_REG_ORACLE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a * 2 ** (b % 64),
    "slt": lambda a, b: int(_s64(a) < _s64(b)),
    "sltu": lambda a, b: int(a < b),
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a // 2 ** (b % 64),
    "sra": lambda a, b: _s64(a) // 2 ** (b % 64),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "addw": lambda a, b: _s32(a + b),
    "subw": lambda a, b: _s32(a - b),
    "sllw": lambda a, b: _s32(a * 2 ** (b % 32)),
    "srlw": lambda a, b: _s32((a % 2**32) // 2 ** (b % 32)),
    "sraw": lambda a, b: _s32(a) // 2 ** (b % 32),
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (_s64(a) * _s64(b)) // 2**64,
    "mulhsu": lambda a, b: (_s64(a) * b) // 2**64,
    "mulhu": lambda a, b: (a * b) // 2**64,
    "mulw": lambda a, b: _s32(a * b),
    # Upper immediates: ``b`` is the instruction's PC.
    "lui": lambda b, imm: _s32(imm * 2**12),
    "auipc": lambda b, imm: b + _s32(imm * 2**12),
}

#: An immediate op is its register op with ``rs2`` = the immediate.
_IMM_OF = {"addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor",
           "ori": "or", "andi": "and", "slli": "sll", "srli": "srl",
           "srai": "sra", "addiw": "addw", "slliw": "sllw",
           "srliw": "srlw", "sraiw": "sraw"}

_BRANCH_ORACLE = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _s64(a) < _s64(b),
    "bge": lambda a, b: _s64(a) >= _s64(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

_PC = 0x1000


def _step_one(mn, a=0, b=0, imm=0, rd=5):
    """Execute one ``mn rd, x6, x7`` / ``imm`` through ``Cpu.step``
    with ``x6 = a``, ``x7 = b`` and a stale typed value in ``x5``."""
    instr = Instruction(mn, rd=rd, rs1=6, rs2=7, imm=imm)
    cpu = Cpu(Program([instr], {}, base=_PC), Memory(size=64))
    cpu.regs.write(6, a)
    cpu.regs.write(7, b)
    cpu.regs.write_typed(5, 0x1234, 3, 1)
    cpu.step()
    return cpu


def test_oracles_cover_the_shared_table():
    assert set(ir.ALU) == set(_REG_ORACLE) | set(_IMM_OF)
    assert set(ir.BRANCH_COND) == set(_BRANCH_ORACLE)


def _alu_cases(mn):
    if mn in _IMM_OF:
        oracle = _REG_ORACLE[_IMM_OF[mn]]
        return [(a, 0, imm, oracle(a, imm % 2**64))
                for a in _EDGE_VALUES for imm in _EDGE_IMMS]
    if mn in ("lui", "auipc"):
        return [(0, 0, imm, _REG_ORACLE[mn](_PC, imm)) for imm in _EDGE_IMMS]
    return [(a, b, 0, _REG_ORACLE[mn](a, b))
            for a in _EDGE_VALUES for b in _EDGE_VALUES]


@pytest.mark.parametrize("mn", sorted(ir.ALU))
def test_alu_handler_matches_integer_oracle(mn):
    for a, b, imm, expected in _alu_cases(mn):
        cpu = _step_one(mn, a, b, imm)
        assert cpu.regs.value[5] == expected % 2**64, (mn, a, b, imm)
        assert (cpu.regs.type[5], cpu.regs.fbit[5]) == (TYPE_UNTYPED, 0)
        assert cpu.pc == _PC + 4
        cpu = _step_one(mn, a, b, imm, rd=0)
        assert cpu.regs.value[0] == 0
        assert (cpu.regs.type[0], cpu.regs.fbit[0]) == (TYPE_UNTYPED, 0)
        assert cpu.regs.value[5] == 0x1234  # untouched


@pytest.mark.parametrize("mn", sorted(ir.BRANCH_COND))
def test_branch_handler_matches_integer_oracle(mn):
    for a in _EDGE_VALUES:
        for b in _EDGE_VALUES:
            cpu = _step_one(mn, a, b, imm=-2048)
            taken = _BRANCH_ORACLE[mn](a, b)
            assert cpu.branch_taken is taken, (mn, a, b)
            assert cpu.pc == (_PC - 2048 if taken else _PC + 4)
            assert cpu.regs.value[5] == 0x1234  # no register write
