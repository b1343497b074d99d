"""Functional RV64 core with the Typed Architecture extension.

The CPU executes pre-decoded programs (see :mod:`repro.isa.assembler`).
Timing is layered on top by :class:`repro.uarch.pipeline.Machine`; this
module is purely architectural state plus per-step side-channel fields the
timing model inspects:

* ``mem_addr`` / ``mem_width`` / ``mem_store`` — first data access,
* ``mem_addr2`` / ``mem_width2`` — second access of ``tld``/``tsd``
  (separate tag double-word layouts),
* ``branch_taken`` — outcome of a conditional branch,
* ``redirect`` — ``True`` when a type/chk misprediction redirected the PC,
* ``pending_host_cost`` — native-library instructions charged by ``ecall``.

Type mispredictions (Section 3.2) redirect the PC to ``R_hdl`` and are
*not* exceptions: the slow path is the original software type-checking
code and execution never returns to the faulting instruction.
"""

import struct

from repro.engines.ir import ALU, BRANCH_COND, LOAD_ARGS, STORE_WIDTH
from repro.isa.extension import TYPE_UNTYPED
from repro.sim.errors import (
    ExecutionLimitExceeded,
    IllegalInstruction,
    MemoryError_,
)
from repro.sim.regfile import FpRegisterFile, UnifiedRegisterFile
from repro.sim.tagio import TagCodec
from repro.sim.trt import TRT_OPCODES, TypeRuleTable

MASK64 = (1 << 64) - 1
SIGN64 = 1 << 63
INT64_MIN = -(1 << 63)


def to_signed(value, bits=64):
    """Interpret ``value`` as a signed ``bits``-wide integer."""
    if bits == 64:  # the common case: constants precomputed
        return (value & (SIGN64 - 1)) - (value & SIGN64)
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def to_unsigned(value):
    return value & MASK64


_PACK_U64 = struct.Struct("<Q")
_PACK_F64 = struct.Struct("<d")


def bits_to_float(bits):
    return _PACK_F64.unpack(_PACK_U64.pack(bits & MASK64))[0]


def float_to_bits(value):
    try:
        return _PACK_U64.unpack(_PACK_F64.pack(value))[0]
    except (OverflowError, ValueError):
        # Infinity with the right sign for out-of-range magnitudes.
        return 0xFFF0000000000000 if value < 0 else 0x7FF0000000000000


class Cpu:
    """Architectural state and the instruction-semantics dispatch."""

    def __init__(self, program, memory, host=None, tag_codec=None,
                 overflow_bits=None, trt_capacity=None,
                 deopt_threshold=None, deopt_window=32):
        """``deopt_threshold`` enables Section 5's path-selector variant
        of ``thdl``: each ``thdl`` site tracks its recent type-miss rate
        and, once more than ``deopt_threshold`` of the last
        ``deopt_window`` executions mispredicted, redirects straight to
        the slow path instead of attempting the fast path."""
        self.program = program
        self.mem = memory
        self.host = host
        self.codec = tag_codec or TagCodec()
        self.regs = UnifiedRegisterFile()
        self.fregs = FpRegisterFile()
        self.trt = TypeRuleTable() if trt_capacity is None \
            else TypeRuleTable(trt_capacity)
        self.overflow_bits = overflow_bits

        self.pc = program.base
        self.r_hdl = 0
        self.r_ctype = 0
        self.halted = False
        self.exit_code = 0
        self.instret = 0
        self.overflow_traps = 0
        self.chk_hits = 0
        self.chk_misses = 0
        self.deopt_threshold = deopt_threshold
        self.deopt_window = deopt_window
        self.deopt_redirects = 0
        self._deopt_sites = {}  # thdl PC -> [executions, misses]
        self._active_thdl_site = None

        # Telemetry bus (repro.telemetry).  ``None`` keeps every
        # instrumentation point a dead branch on an already-rare path;
        # hot-path retire events attach by rebinding ``step`` instead
        # (see repro.telemetry.core.attach_cpu).
        self.telemetry = None

        # Per-step side channel for the timing layer.
        self.mem_addr = None
        self.mem_width = 0
        self.mem_store = False
        self.mem_addr2 = None
        self.mem_width2 = 0
        self.branch_taken = False
        self.redirect = False
        self.pending_host_cost = 0

        self._base = program.base
        dispatch = _DISPATCH
        try:
            self._ops = [(dispatch[i.mnemonic], i)
                         for i in program.instructions]
        except KeyError as err:
            raise IllegalInstruction("no semantics for %s" % err) from None

    # -- special registers -------------------------------------------------
    def save_context(self):
        """Save the extension state a context switch must preserve
        (Section 5): tags and F/I bits, the special registers and the TRT.
        """
        return {
            "regs": self.regs.snapshot(),
            "offset": self.codec.offset,
            "shift": self.codec.shift,
            "mask": self.codec.mask,
            "hdl": self.r_hdl,
            "trt": self.trt.snapshot(),
        }

    def restore_context(self, state):
        self.regs.restore(state["regs"])
        self.codec.offset = state["offset"]
        self.codec.shift = state["shift"]
        self.codec.mask = state["mask"]
        self.r_hdl = state["hdl"]
        self.trt.restore(state["trt"])

    # -- execution ----------------------------------------------------------
    def step(self):
        """Execute one instruction; returns the instruction executed."""
        self.mem_addr = None
        self.mem_addr2 = None
        self.branch_taken = False
        self.redirect = False
        index = (self.pc - self._base) >> 2
        try:
            op, instr = self._ops[index]
        except IndexError:
            raise IllegalInstruction("PC 0x%x outside program" % self.pc,
                                     pc=self.pc) from None
        try:
            op(self, instr)
        except MemoryError_ as err:
            raise err.with_context(pc=self.pc, mnemonic=instr.mnemonic)
        self.instret += 1
        return instr

    def run(self, max_instructions=100_000_000):
        """Run until ``ebreak``/exit or the instruction budget is hit."""
        while not self.halted:
            instr = self.step()
            if self.instret >= max_instructions:
                raise ExecutionLimitExceeded(
                    "exceeded %d instructions at PC 0x%x"
                    % (max_instructions, self.pc),
                    pc=self.pc, mnemonic=instr.mnemonic)
        return self.exit_code

    # -- fault injection ----------------------------------------------------
    def attach_fault_hook(self, hook):
        """Install a per-instruction fault hook (see :mod:`repro.faults`).

        ``hook(cpu)`` runs *before* each instruction executes, with
        ``cpu.instret`` identifying the upcoming instruction index —
        the hook corrupts architectural state (registers, tags, TRT,
        memory, extractor config) at exact, reproducible points.

        The hook attaches by rebinding ``step`` on the instance, the
        same idiom telemetry uses: the unfaulted path stays untouched,
        and :meth:`repro.uarch.pipeline.Machine.run` sees the shadowed
        ``step`` and deopts from the trace engine to the
        per-instruction reference loop, so timing counters and the
        watchdog stay honest under injection.
        """
        base_step = type(self).step

        def step():
            hook(self)
            return base_step(self)

        self.step = step

    def detach_fault_hook(self):
        """Undo :meth:`attach_fault_hook` (no-op when not attached)."""
        self.__dict__.pop("step", None)

    # -- helpers used by the semantic functions ------------------------------
    def _load(self, addr, width, signed):
        self.mem_addr = addr
        self.mem_width = width
        self.mem_store = False
        return self.mem.load(addr, width, signed=signed)

    def _store(self, addr, width, value):
        self.mem_addr = addr
        self.mem_width = width
        self.mem_store = True
        self.mem.store(addr, width, value)

    def _type_mispredict(self):
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit({"cat": "mispredict", "name": "type_mispredict",
                            "pc": self.pc, "target": self.r_hdl,
                            "instret": self.instret})
        self.pc = self.r_hdl
        self.redirect = True
        if self._active_thdl_site is not None:
            self._deopt_sites[self._active_thdl_site][1] += 1
            self._active_thdl_site = None


# ---------------------------------------------------------------------------
# Semantic functions.  Each takes (cpu, instr) and must set cpu.pc.
# ---------------------------------------------------------------------------

def _op_jal(cpu, i):
    cpu.regs.write(i.rd, cpu.pc + 4)
    cpu.pc = (cpu.pc + i.imm) & MASK64


def _op_jalr(cpu, i):
    target = (cpu.regs.value[i.rs1] + i.imm) & MASK64 & ~1
    cpu.regs.write(i.rd, cpu.pc + 4)
    cpu.pc = target


# The conditional branches and the integer ALU / upper-immediate ops are
# generated from their expression templates in repro.engines.ir, the
# same templates the block/trace code generator fills with constants.
_BRANCH_SOURCE = """
def _op_%(mn)s(cpu, i):
    V = cpu.regs.value
    if %(expr)s:
        cpu.pc = (cpu.pc + i.imm) & %(mask)d
        cpu.branch_taken = True
    else:
        cpu.pc += 4
"""

# Writes the untyped result as ``regs.write`` does, x0 guard included.
_ALU_SOURCE = """
def _op_%(mn)s(cpu, i):
    rd = i.rd
    if rd:
        r = cpu.regs
        V = r.value
        V[rd] = %(expr)s
        r.type[rd] = %(untyped)d
        r.fbit[rd] = 0
    cpu.pc += 4
"""


def _generated_ops():
    """``{mnemonic: handler}`` for every :data:`BRANCH_COND` and
    :data:`ALU` op, compiled in one ``exec``."""
    operands = {"a": "i.rs1", "b": "i.rs2", "imm": "i.imm", "pc": "cpu.pc"}
    source = []
    for template, table in ((_BRANCH_SOURCE, BRANCH_COND),
                            (_ALU_SOURCE, ALU)):
        for mn, expr in table.items():
            source.append(template % {"mn": mn, "expr": expr % operands,
                                      "mask": MASK64,
                                      "untyped": TYPE_UNTYPED})
    namespace = {}
    exec(compile("".join(source), "<repro.sim.cpu generated handlers>",
                 "exec"), namespace)
    return {mn: namespace["_op_" + mn] for mn in (*BRANCH_COND, *ALU)}


def _load_op(width, signed):
    def op(cpu, i):
        addr = (cpu.regs.value[i.rs1] + i.imm) & MASK64
        cpu.regs.write(i.rd, to_unsigned(cpu._load(addr, width, signed)))
        cpu.pc += 4
    return op


def _store_op(width):
    def op(cpu, i):
        addr = (cpu.regs.value[i.rs1] + i.imm) & MASK64
        cpu._store(addr, width, cpu.regs.value[i.rs2])
        cpu.pc += 4
    return op


def _alu_reg(fn):
    """Handler for a divide/remainder op (the one ALU family the code
    generator calls instead of inlining)."""
    def op(cpu, i):
        cpu.regs.write(
            i.rd, fn(cpu.regs.value[i.rs1], cpu.regs.value[i.rs2]) & MASK64)
        cpu.pc += 4
    return op


def _word(value):
    """Truncate to 32 bits then sign-extend (RV64 *W semantics)."""
    return to_unsigned(to_signed(value, 32))


def _trunc_div(a, b):
    """Truncating (toward-zero) integer division on exact ints."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _div(a, b):
    a, b = to_signed(a), to_signed(b)
    if b == 0:
        return MASK64  # -1
    if a == INT64_MIN and b == -1:
        return to_unsigned(INT64_MIN)
    return to_unsigned(_trunc_div(a, b))


def _rem(a, b):
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return a
    if sa == INT64_MIN and sb == -1:
        return 0
    return to_unsigned(sa - sb * _trunc_div(sa, sb))


def _fp_binary(fn):
    def op(cpu, i):
        a = bits_to_float(cpu.fregs.bits[i.rs1])
        b = bits_to_float(cpu.fregs.bits[i.rs2])
        try:
            result = fn(a, b)
        except ZeroDivisionError:
            result = float("inf") if a > 0 else float("-inf") if a < 0 \
                else float("nan")
        cpu.fregs.write(i.rd, float_to_bits(result))
        cpu.pc += 4
    return op


def _fp_compare(fn):
    def op(cpu, i):
        a = bits_to_float(cpu.fregs.bits[i.rs1])
        b = bits_to_float(cpu.fregs.bits[i.rs2])
        result = 0 if (a != a or b != b) else (1 if fn(a, b) else 0)
        cpu.regs.write(i.rd, result)
        cpu.pc += 4
    return op


def _op_fsqrt(cpu, i):
    value = bits_to_float(cpu.fregs.bits[i.rs1])
    result = value ** 0.5 if value >= 0 else float("nan")
    cpu.fregs.write(i.rd, float_to_bits(result))
    cpu.pc += 4


def _sign_inject(fn):
    def op(cpu, i):
        a, b = cpu.fregs.bits[i.rs1], cpu.fregs.bits[i.rs2]
        cpu.fregs.write(i.rd, (a & ~SIGN64) | (fn(a, b) & SIGN64))
        cpu.pc += 4
    return op


def _clamp_int(value, bits):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return max(lo, min(hi, value))


def _op_fcvt_l_d(cpu, i):
    value = bits_to_float(cpu.fregs.bits[i.rs1])
    if value != value:  # NaN converts to max per RISC-V
        result = (1 << 63) - 1
    else:
        result = _clamp_int(int(value), 64)
    cpu.regs.write(i.rd, to_unsigned(result))
    cpu.pc += 4


def _op_fcvt_w_d(cpu, i):
    value = bits_to_float(cpu.fregs.bits[i.rs1])
    if value != value:
        result = (1 << 31) - 1
    else:
        result = _clamp_int(int(value), 32)
    cpu.regs.write(i.rd, to_unsigned(result))
    cpu.pc += 4


def _op_fcvt_d_l(cpu, i):
    cpu.fregs.write(i.rd,
                    float_to_bits(float(to_signed(cpu.regs.value[i.rs1]))))
    cpu.pc += 4


def _op_fcvt_d_w(cpu, i):
    cpu.fregs.write(
        i.rd, float_to_bits(float(to_signed(cpu.regs.value[i.rs1], 32))))
    cpu.pc += 4


def _op_fmv_x_d(cpu, i):
    cpu.regs.write(i.rd, cpu.fregs.bits[i.rs1])
    cpu.pc += 4


def _op_fmv_d_x(cpu, i):
    cpu.fregs.write(i.rd, cpu.regs.value[i.rs1])
    cpu.pc += 4


def _op_fld(cpu, i):
    addr = (cpu.regs.value[i.rs1] + i.imm) & MASK64
    cpu.fregs.write(i.rd, cpu._load(addr, 8, False))
    cpu.pc += 4


def _op_fsd(cpu, i):
    addr = (cpu.regs.value[i.rs1] + i.imm) & MASK64
    cpu._store(addr, 8, cpu.fregs.bits[i.rs2])
    cpu.pc += 4


def _op_ecall(cpu, i):
    cost = cpu.host.dispatch(cpu)
    cpu.pending_host_cost += cost
    telemetry = cpu.telemetry
    if telemetry is not None:
        telemetry.emit({"cat": "hostcall", "name": "ecall", "pc": cpu.pc,
                        "cost": cost, "instret": cpu.instret})
    cpu.pc += 4


def _op_ebreak(cpu, i):
    cpu.halted = True
    cpu.pc += 4


# -- Typed Architecture extension -------------------------------------------

def _op_tld(cpu, i):
    codec = cpu.codec
    addr = (cpu.regs.value[i.rs1] + i.imm) & MASK64
    value_dword = cpu._load(addr, 8, False)
    tag_dword = value_dword
    displacement = codec.tag_displacement
    if not codec.nan_detect and displacement != 0:
        tag_addr = (addr + displacement) & MASK64
        tag_dword = cpu.mem.load(tag_addr, 8)
        cpu.mem_addr2 = tag_addr
        cpu.mem_width2 = 8
    value, tag, fbit = codec.extract(value_dword, tag_dword)
    if fbit and codec.self_tag and cpu.mem_addr2 is not None:
        # Float Self-Tagging: an FP value's tag is recoverable from the
        # float payload, so the tag-plane probe costs nothing.  The
        # functional read above keeps the architectural tag plane
        # coherent; only the timing charge is dropped.
        cpu.mem_addr2 = None
        cpu.mem_width2 = 0
    cpu.regs.write_typed(i.rd, value, tag, fbit)
    cpu.pc += 4


def _op_tsd(cpu, i):
    codec = cpu.codec
    regs = cpu.regs
    addr = (cpu.regs.value[i.rs1] + i.imm) & MASK64
    displacement = codec.tag_displacement
    old_tag_dword = 0
    tag_addr = (addr + displacement) & MASK64
    if not codec.nan_detect:
        old_tag_dword = cpu.mem.load(tag_addr, 8)
    value_dword, tag_dword = codec.insert(
        regs.value[i.rs2], regs.type[i.rs2], regs.fbit[i.rs2], old_tag_dword)
    cpu._store(addr, 8, value_dword)
    if tag_dword is not None:
        cpu.mem.store(tag_addr, 8, tag_dword)
        if not (codec.self_tag and regs.fbit[i.rs2]):
            # Under Float Self-Tagging the FP tag rides in the float
            # payload: the tag plane is kept coherent functionally but
            # the store costs no second memory access.
            cpu.mem_addr2 = tag_addr
            cpu.mem_width2 = 8
    cpu.pc += 4


def _tagged_alu(opcode_id, int_fn, float_fn):
    def op(cpu, i):
        regs = cpu.regs
        t1, t2 = regs.type[i.rs1], regs.type[i.rs2]
        out_tag = cpu.trt.lookup(opcode_id, t1, t2)
        if out_tag is None:
            cpu._type_mispredict()
            return
        if regs.fbit[i.rs1]:
            a = bits_to_float(regs.value[i.rs1])
            b = bits_to_float(regs.value[i.rs2])
            result = float_to_bits(float_fn(a, b))
            regs.write_typed(i.rd, result, out_tag, 1)
        else:
            a = to_signed(regs.value[i.rs1])
            b = to_signed(regs.value[i.rs2])
            result = int_fn(a, b)
            bits = cpu.overflow_bits
            if bits is not None and not \
                    -(1 << (bits - 1)) <= result < (1 << (bits - 1)):
                cpu.overflow_traps += 1
                telemetry = cpu.telemetry
                if telemetry is not None:
                    telemetry.emit({"cat": "trap", "name": "overflow",
                                    "pc": cpu.pc, "mnemonic": i.mnemonic,
                                    "instret": cpu.instret})
                cpu._type_mispredict()
                return
            regs.write_typed(i.rd, to_unsigned(result), out_tag, 0)
        cpu.pc += 4
    return op


def _op_tchk(cpu, i):
    regs = cpu.regs
    out = cpu.trt.lookup(TRT_OPCODES["tchk"], regs.type[i.rs1],
                         regs.type[i.rs2])
    if out is None:
        cpu._type_mispredict()
    else:
        cpu.pc += 4


def _op_tget(cpu, i):
    cpu.regs.write(i.rd, cpu.regs.type[i.rs1])
    cpu.pc += 4


def _op_tset(cpu, i):
    # tset Ra, Rb (rs1, rs2): Rb.t <- Ra.v[7:0]
    tag = cpu.regs.value[i.rs1] & 0xFF
    cpu.regs.set_tag(i.rs2, tag, cpu.codec.fbit_for(tag))
    cpu.pc += 4


def _op_thdl(cpu, i):
    cpu.r_hdl = (cpu.pc + i.imm) & MASK64
    if cpu.deopt_threshold is not None:
        # Path-selector variant (Section 5): revert to the slow path when
        # this site's recent miss rate is high.  Counters decay every
        # ``deopt_window`` executions so the site can re-optimise.
        stats = cpu._deopt_sites.get(cpu.pc)
        if stats is None:
            stats = [0, 0]
            cpu._deopt_sites[cpu.pc] = stats
        stats[0] += 1
        if stats[0] >= cpu.deopt_window:
            stats[0] >>= 1
            stats[1] >>= 1
        if stats[0] >= 8 and stats[1] > cpu.deopt_threshold * stats[0]:
            cpu.deopt_redirects += 1
            cpu._active_thdl_site = None
            cpu.pc = cpu.r_hdl
            return
        cpu._active_thdl_site = cpu.pc
    cpu.pc += 4


def _op_setoffset(cpu, i):
    cpu.codec.set_offset(cpu.regs.value[i.rs1])
    cpu.pc += 4


def _op_setmask(cpu, i):
    cpu.codec.set_mask(cpu.regs.value[i.rs1])
    cpu.pc += 4


def _op_setshift(cpu, i):
    cpu.codec.set_shift(cpu.regs.value[i.rs1])
    cpu.pc += 4


def _op_set_trt(cpu, i):
    cpu.trt.push(cpu.regs.value[i.rs1])
    cpu.pc += 4


def _op_flush_trt(cpu, i):
    cpu.trt.flush()
    cpu.pc += 4


# -- Checked Load (comparator) ------------------------------------------------

def _op_settype(cpu, i):
    cpu.r_ctype = cpu.regs.value[i.rs1] & 0xFFFFFFFF
    cpu.pc += 4


def _checked_load(width):
    def op(cpu, i):
        addr = (cpu.regs.value[i.rs1] + i.imm) & MASK64
        value = cpu._load(addr, width, False)
        cpu.regs.write(i.rd, value)
        if value != cpu.r_ctype:
            cpu.chk_misses += 1
            cpu._type_mispredict()
        else:
            cpu.chk_hits += 1
            cpu.pc += 4
    return op


_op_chklb = _checked_load(1)
_op_chklw = _checked_load(4)


def _build_dispatch():
    table = _generated_ops()
    for mn, (width, signed) in LOAD_ARGS.items():
        table[mn] = _load_op(width, signed)
    for mn, width in STORE_WIDTH.items():
        table[mn] = _store_op(width)
    table.update({
        "jal": _op_jal, "jalr": _op_jalr,
        "div": _alu_reg(_div),
        "divu": _alu_reg(lambda a, b: MASK64 if b == 0 else a // b),
        "rem": _alu_reg(_rem),
        "remu": _alu_reg(lambda a, b: a if b == 0 else a % b),
        "divw": _alu_reg(
            lambda a, b: to_unsigned(to_signed(_div_w(a, b), 32))),
        "divuw": _alu_reg(
            lambda a, b: _word(MASK64 if (b & 0xFFFFFFFF) == 0
                               else (a & 0xFFFFFFFF) // (b & 0xFFFFFFFF))),
        "remw": _alu_reg(
            lambda a, b: to_unsigned(to_signed(_rem_w(a, b), 32))),
        "remuw": _alu_reg(
            lambda a, b: _word((a & 0xFFFFFFFF) if (b & 0xFFFFFFFF) == 0
                               else (a & 0xFFFFFFFF) % (b & 0xFFFFFFFF))),
        "fld": _op_fld, "fsd": _op_fsd,
        "fadd.d": _fp_binary(lambda a, b: a + b),
        "fsub.d": _fp_binary(lambda a, b: a - b),
        "fmul.d": _fp_binary(lambda a, b: a * b),
        "fdiv.d": _fp_binary(lambda a, b: a / b),
        "fsqrt.d": _op_fsqrt,
        "fsgnj.d": _sign_inject(lambda a, b: b),
        "fsgnjn.d": _sign_inject(lambda a, b: ~b),
        "fsgnjx.d": _sign_inject(lambda a, b: a ^ b),
        "fmin.d": _fp_binary(min),
        "fmax.d": _fp_binary(max),
        "feq.d": _fp_compare(lambda a, b: a == b),
        "flt.d": _fp_compare(lambda a, b: a < b),
        "fle.d": _fp_compare(lambda a, b: a <= b),
        "fcvt.l.d": _op_fcvt_l_d, "fcvt.w.d": _op_fcvt_w_d,
        "fcvt.d.l": _op_fcvt_d_l, "fcvt.d.w": _op_fcvt_d_w,
        "fmv.x.d": _op_fmv_x_d, "fmv.d.x": _op_fmv_d_x,
        "ecall": _op_ecall, "ebreak": _op_ebreak,
        "tld": _op_tld, "tsd": _op_tsd,
        "xadd": _tagged_alu(TRT_OPCODES["xadd"], lambda a, b: a + b,
                            lambda a, b: a + b),
        "xsub": _tagged_alu(TRT_OPCODES["xsub"], lambda a, b: a - b,
                            lambda a, b: a - b),
        "xmul": _tagged_alu(TRT_OPCODES["xmul"], lambda a, b: a * b,
                            lambda a, b: a * b),
        "tchk": _op_tchk, "tget": _op_tget, "tset": _op_tset,
        "thdl": _op_thdl,
        "setoffset": _op_setoffset, "setmask": _op_setmask,
        "setshift": _op_setshift, "set_trt": _op_set_trt,
        "flush_trt": _op_flush_trt,
        "settype": _op_settype, "chklb": _op_chklb, "chklw": _op_chklw,
    })
    return table


def _div_w(a, b):
    a32, b32 = to_signed(a, 32), to_signed(b, 32)
    if b32 == 0:
        return -1
    if a32 == -(1 << 31) and b32 == -1:
        return -(1 << 31)
    return _trunc_div(a32, b32)


def _rem_w(a, b):
    a32, b32 = to_signed(a, 32), to_signed(b, 32)
    if b32 == 0:
        return a32
    if a32 == -(1 << 31) and b32 == -1:
        return 0
    return a32 - b32 * _trunc_div(a32, b32)


_DISPATCH = _build_dispatch()
