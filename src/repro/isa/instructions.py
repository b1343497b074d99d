"""Instruction specifications and the decoded-instruction container.

The simulator pre-decodes programs into :class:`Instruction` objects, so the
binary encoding is only exercised by :mod:`repro.isa.encoding` round-trips;
execution dispatches on the mnemonic.

The table below covers the RV64 subset needed by the interpreter handlers
(integer ALU, M-extension multiply/divide, D-extension floating point,
loads/stores, branches, jumps, system) plus the Typed Architecture extension
and the Checked Load comparator from Anderson et al. [HPCA'11] that the
paper re-implements as its state-of-the-art baseline.
"""

from dataclasses import dataclass, field

# Major opcodes (RISC-V base and the custom space used by the extension).
OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_IMM32 = 0b0011011
OP_REG = 0b0110011
OP_REG32 = 0b0111011
OP_FP_LOAD = 0b0000111
OP_FP_STORE = 0b0100111
OP_FP = 0b1010011
OP_SYSTEM = 0b1110011
OP_CUSTOM0 = 0b0001011  # tld / tsd
OP_CUSTOM1 = 0b0101011  # tagged ALU, tchk, tget/tset, config
OP_CUSTOM2 = 0b1011011  # thdl (J-format displacement)
OP_CUSTOM3 = 0b1111011  # Checked Load (chklb, settype)


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one mnemonic: format, encoding, syntax.

    ``syntax`` names the assembly operand shape; ``regclasses`` maps the
    operand slots (``rd``/``rs1``/``rs2``) to a register file (``x`` or
    ``f``).  ``fixed_rs2`` pins the rs2 field for encodings such as
    ``fcvt.d.l`` that reuse it as a sub-opcode.
    """

    mnemonic: str
    fmt: str  # 'R', 'I', 'S', 'B', 'U', 'J', 'SYS'
    opcode: int
    funct3: int = 0
    funct7: int = 0
    syntax: str = "r3"  # r3, r2, imm, shamt, load, store, branch, u, jal,
    #                     jalr, one_reg, none, label
    regclasses: dict = field(default_factory=dict)
    fixed_rs2: int = None

    def regclass(self, slot):
        """Register file ('x' or 'f') for operand ``slot``."""
        return self.regclasses.get(slot, "x")


@dataclass
class Instruction:
    """One decoded instruction.

    ``imm`` holds the sign-extended immediate; for branches/jumps it is the
    byte displacement relative to this instruction's PC.  ``label`` keeps
    the symbolic target when assembled from text (for disassembly and
    debugging only; execution uses ``imm``).
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    label: str = None
    addr: int = None  # byte address assigned by the assembler

    @property
    def spec(self):
        return INSTRUCTION_SPECS[self.mnemonic]


def _r(mn, opcode, funct3, funct7=0, syntax="r3", regclasses=None, fixed_rs2=None):
    return InstrSpec(mn, "R", opcode, funct3, funct7, syntax,
                     regclasses or {}, fixed_rs2)


def _i(mn, opcode, funct3, syntax="imm", regclasses=None, funct7=0):
    return InstrSpec(mn, "I", opcode, funct3, funct7, syntax, regclasses or {})


def _s(mn, opcode, funct3, regclasses=None):
    return InstrSpec(mn, "S", opcode, funct3, 0, "store", regclasses or {})


def _b(mn, funct3):
    return InstrSpec(mn, "B", OP_BRANCH, funct3, 0, "branch", {})


_SPEC_LIST = [
    # --- RV64I -----------------------------------------------------------
    InstrSpec("lui", "U", OP_LUI, syntax="u"),
    InstrSpec("auipc", "U", OP_AUIPC, syntax="u"),
    InstrSpec("jal", "J", OP_JAL, syntax="jal"),
    _i("jalr", OP_JALR, 0, syntax="jalr"),
    _b("beq", 0), _b("bne", 1), _b("blt", 4), _b("bge", 5),
    _b("bltu", 6), _b("bgeu", 7),
    _i("lb", OP_LOAD, 0, "load"), _i("lh", OP_LOAD, 1, "load"),
    _i("lw", OP_LOAD, 2, "load"), _i("ld", OP_LOAD, 3, "load"),
    _i("lbu", OP_LOAD, 4, "load"), _i("lhu", OP_LOAD, 5, "load"),
    _i("lwu", OP_LOAD, 6, "load"),
    _s("sb", OP_STORE, 0), _s("sh", OP_STORE, 1),
    _s("sw", OP_STORE, 2), _s("sd", OP_STORE, 3),
    _i("addi", OP_IMM, 0), _i("slti", OP_IMM, 2), _i("sltiu", OP_IMM, 3),
    _i("xori", OP_IMM, 4), _i("ori", OP_IMM, 6), _i("andi", OP_IMM, 7),
    _i("slli", OP_IMM, 1, syntax="shamt"),
    _i("srli", OP_IMM, 5, syntax="shamt"),
    _i("srai", OP_IMM, 5, syntax="shamt", funct7=0b0100000),
    _r("add", OP_REG, 0), _r("sub", OP_REG, 0, 0b0100000),
    _r("sll", OP_REG, 1), _r("slt", OP_REG, 2), _r("sltu", OP_REG, 3),
    _r("xor", OP_REG, 4), _r("srl", OP_REG, 5),
    _r("sra", OP_REG, 5, 0b0100000), _r("or", OP_REG, 6), _r("and", OP_REG, 7),
    _i("addiw", OP_IMM32, 0),
    _i("slliw", OP_IMM32, 1, syntax="shamt"),
    _i("srliw", OP_IMM32, 5, syntax="shamt"),
    _i("sraiw", OP_IMM32, 5, syntax="shamt", funct7=0b0100000),
    _r("addw", OP_REG32, 0), _r("subw", OP_REG32, 0, 0b0100000),
    _r("sllw", OP_REG32, 1), _r("srlw", OP_REG32, 5),
    _r("sraw", OP_REG32, 5, 0b0100000),
    # --- RV64M -----------------------------------------------------------
    _r("mul", OP_REG, 0, 1), _r("mulh", OP_REG, 1, 1),
    _r("mulhsu", OP_REG, 2, 1), _r("mulhu", OP_REG, 3, 1),
    _r("div", OP_REG, 4, 1), _r("divu", OP_REG, 5, 1),
    _r("rem", OP_REG, 6, 1), _r("remu", OP_REG, 7, 1),
    _r("mulw", OP_REG32, 0, 1), _r("divw", OP_REG32, 4, 1),
    _r("divuw", OP_REG32, 5, 1), _r("remw", OP_REG32, 6, 1),
    _r("remuw", OP_REG32, 7, 1),
    # --- RV64D (double-precision FP) --------------------------------------
    _i("fld", OP_FP_LOAD, 3, "load", {"rd": "f"}),
    _s("fsd", OP_FP_STORE, 3, {"rs2": "f"}),
    _r("fadd.d", OP_FP, 0, 0b0000001, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("fsub.d", OP_FP, 0, 0b0000101, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("fmul.d", OP_FP, 0, 0b0001001, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("fdiv.d", OP_FP, 0, 0b0001101, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("fsqrt.d", OP_FP, 0, 0b0101101, syntax="r2",
       regclasses={"rd": "f", "rs1": "f"}, fixed_rs2=0),
    _r("fsgnj.d", OP_FP, 0, 0b0010001, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("fsgnjn.d", OP_FP, 1, 0b0010001, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("fsgnjx.d", OP_FP, 2, 0b0010001, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("fmin.d", OP_FP, 0, 0b0010101, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("fmax.d", OP_FP, 1, 0b0010101, regclasses={"rd": "f", "rs1": "f", "rs2": "f"}),
    _r("feq.d", OP_FP, 2, 0b1010001, regclasses={"rs1": "f", "rs2": "f"}),
    _r("flt.d", OP_FP, 1, 0b1010001, regclasses={"rs1": "f", "rs2": "f"}),
    _r("fle.d", OP_FP, 0, 0b1010001, regclasses={"rs1": "f", "rs2": "f"}),
    _r("fcvt.l.d", OP_FP, 1, 0b1100001, syntax="r2",
       regclasses={"rs1": "f"}, fixed_rs2=2),
    _r("fcvt.w.d", OP_FP, 1, 0b1100001, syntax="r2",
       regclasses={"rs1": "f"}, fixed_rs2=0),
    _r("fcvt.d.l", OP_FP, 0, 0b1101001, syntax="r2",
       regclasses={"rd": "f"}, fixed_rs2=2),
    _r("fcvt.d.w", OP_FP, 0, 0b1101001, syntax="r2",
       regclasses={"rd": "f"}, fixed_rs2=0),
    _r("fmv.x.d", OP_FP, 0, 0b1110001, syntax="r2",
       regclasses={"rs1": "f"}, fixed_rs2=0),
    _r("fmv.d.x", OP_FP, 0, 0b1111001, syntax="r2",
       regclasses={"rd": "f"}, fixed_rs2=0),
    # --- System ----------------------------------------------------------
    InstrSpec("ecall", "SYS", OP_SYSTEM, syntax="none"),
    InstrSpec("ebreak", "SYS", OP_SYSTEM, funct3=0, funct7=1, syntax="none"),
    # --- Typed Architecture extension (Table 2 of the paper) --------------
    _i("tld", OP_CUSTOM0, 0, "load"),
    _s("tsd", OP_CUSTOM0, 1),
    _r("xadd", OP_CUSTOM1, 0), _r("xsub", OP_CUSTOM1, 1),
    _r("xmul", OP_CUSTOM1, 2),
    _r("tchk", OP_CUSTOM1, 3, syntax="rs_pair"),
    _r("tget", OP_CUSTOM1, 4, syntax="r2"),
    _r("tset", OP_CUSTOM1, 5, syntax="rs_pair"),
    _r("setoffset", OP_CUSTOM1, 6, 0, syntax="one_reg"),
    _r("setmask", OP_CUSTOM1, 6, 1, syntax="one_reg"),
    _r("setshift", OP_CUSTOM1, 6, 2, syntax="one_reg"),
    _r("set_trt", OP_CUSTOM1, 6, 3, syntax="one_reg"),
    _r("flush_trt", OP_CUSTOM1, 6, 4, syntax="none"),
    InstrSpec("thdl", "J", OP_CUSTOM2, syntax="label"),
    # --- Checked Load (comparator; Anderson et al. HPCA'11) ---------------
    # chklb fuses a byte load + tag compare + branch (Lua's byte tags);
    # chklw is the word-granularity variant the original paper also
    # proposes, needed for NaN-boxed layouts whose tag is not byte-aligned.
    _i("chklb", OP_CUSTOM3, 0, "load"),
    _i("chklw", OP_CUSTOM3, 2, "load"),
    _r("settype", OP_CUSTOM3, 1, syntax="one_reg"),
]

INSTRUCTION_SPECS = {spec.mnemonic: spec for spec in _SPEC_LIST}
