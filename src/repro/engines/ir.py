"""Shared instruction-level IR surface for analyses and sim engines.

Two layers live here, one per instruction set:

**Host-ISA table** — every per-mnemonic fact about the simulated RV64
text, written down once:

* the timing class of each mnemonic (:func:`kind_of`) and the extra
  execution-unit latency of each class (:data:`EXTRA_LATENCY`), read
  by both pipeline models (:mod:`repro.uarch`), the degraded-entry
  fallback and the code generator;
* one expression template per integer ALU, upper-immediate and
  conditional-branch op (:data:`ALU`, :data:`BRANCH_COND`) and the
  load/store shapes (:data:`LOAD_ARGS`, :data:`STORE_WIDTH`).  The
  reference CPU (:mod:`repro.sim.cpu`) generates its handlers for these
  ops from the tables, and the block/trace code generator
  (:mod:`repro.sim.blocks`) fills in the same templates with constant
  operands, so the two cannot drift;
* block formation: the terminators, the block length cap and the path
  walk that follows direct jumps (:func:`block_path`).

**Guest-bytecode views** — a uniform protocol over both engines'
predecoded programs.  :class:`LuaView` (register VM) and
:class:`JsView` (stack VM) decode a function's 32-bit code words once
and answer the queries every bytecode-level analysis needs without
re-deriving per-engine opcode knowledge:

* opcode metadata (``instrs[i].op`` / ``.name`` / ``.args``),
* control flow (:meth:`~BytecodeView.successors`,
  :meth:`~BytecodeView.is_jump_target` via :meth:`~BytecodeView.targets`),
* operand def/use accessors (:meth:`~BytecodeView.reads` /
  :meth:`~BytecodeView.writes`), expressed as ``(kind, index)``
  descriptors — ``"reg"``/``"const"``/``"global"`` slots for Lua,
  ``"local"``/``"const"``/``"global"``/``"stack"`` for JS — plus the
  static stack effect for the stack machine
  (:meth:`JsView.stack_effect`).

The tag-inference pass (:mod:`repro.analysis`) is the first bytecode
consumer; the sim engines and timing models consume the host layer.
"""

from collections import namedtuple

# -- host-ISA table ------------------------------------------------------------

#: 64-bit register/address mask of the simulated machine.
MASK64 = (1 << 64) - 1

#: Block growth stops after this many instructions even without a
#: terminator; longer blocks buy little and inflate the near-budget
#: single-step window.
MAX_BLOCK_LEN = 64

#: The instructions a block can end at.  ``jalr``, ``ecall`` and
#: ``ebreak`` always end it: indirect control flow lands at a fresh
#: dispatch anyway, ``ecall`` may touch arbitrary host state and
#: ``ebreak`` halts the machine.  :func:`block_path` follows a ``jal`` to
#: its target instead; a block ends at one only when the target lies
#: outside the program or on the path already, or the block is full.
TERMINATORS = frozenset(["jal", "jalr", "ecall", "ebreak"])

# Expression templates.  Operands are ``%(a)s``/``%(b)s`` (the rs1/rs2
# register numbers, read as ``V[%(a)s]``), ``%(imm)s`` and ``%(pc)s``;
# the reference CPU substitutes ``i.rs1``-style attribute reads, the
# code generator constants.  Register values are unsigned 64-bit ints,
# and every ALU template yields its ``rd`` value already reduced to
# 64 bits.  The masks below are spelled into the templates as literals.
_CONSTANTS = {"M": MASK64, "S": 1 << 63, "W": (1 << 32) - 1, "H": 1 << 31}
_A, _B, _I = "V[%(a)s]", "V[%(b)s]", "(%(imm)s)"


def _signed(x):
    """``x`` read as a two's-complement 64-bit value."""
    return "(%s - ((%s & {S}) << 1))" % (x, x)


def _signed32(x):
    """The low 32 bits of ``x`` read as a two's-complement value."""
    return "((((%s) + {H}) & {W}) - {H})" % x


def _word(x):
    """RV64 ``*W`` result: ``x`` truncated to 32 bits, sign-extended."""
    return _signed32(x) + " & {M}"


def _fill(templates):
    return {mn: text.format(**_CONSTANTS) for mn, text in templates.items()}


#: Conditional branch -> its taken condition.  Signed compares bias
#: both sides: ``to_signed(a) < to_signed(b)`` iff
#: ``(a ^ 2**63) < (b ^ 2**63)`` on the unsigned representations.
BRANCH_COND = _fill({
    "beq": "V[%(a)s] == V[%(b)s]",
    "bne": "V[%(a)s] != V[%(b)s]",
    "blt": "(V[%(a)s] ^ {S}) < (V[%(b)s] ^ {S})",
    "bge": "(V[%(a)s] ^ {S}) >= (V[%(b)s] ^ {S})",
    "bltu": "V[%(a)s] < V[%(b)s]",
    "bgeu": "V[%(a)s] >= V[%(b)s]",
})

#: Integer ALU / upper-immediate op -> the value it writes to ``rd``
#: (a pure expression: an ``rd = x0`` write may be dropped unevaluated).
ALU = _fill({
    "lui": _word(_I + " << 12"),
    "auipc": "(%(pc)s + " + _signed32(_I + " << 12") + ") & {M}",
    "addi": "(%s + %s) & {M}" % (_A, _I),
    "slti": "1 if (%s ^ {S}) < ((%s & {M}) ^ {S}) else 0" % (_A, _I),
    "sltiu": "1 if %s < (%s & {M}) else 0" % (_A, _I),
    "xori": "%s ^ (%s & {M})" % (_A, _I),
    "ori": "%s | (%s & {M})" % (_A, _I),
    "andi": "%s & (%s & {M})" % (_A, _I),
    "slli": "(%s << (%s & 63)) & {M}" % (_A, _I),
    "srli": "%s >> (%s & 63)" % (_A, _I),
    "srai": "(%s >> (%s & 63)) & {M}" % (_signed(_A), _I),
    "addiw": _word("%s + %s" % (_A, _I)),
    "slliw": _word("%s << (%s & 31)" % (_A, _I)),
    "srliw": _word("(%s & {W}) >> (%s & 31)" % (_A, _I)),
    "sraiw": "(%s >> (%s & 31)) & {M}" % (_signed32(_A), _I),
    "add": "(%s + %s) & {M}" % (_A, _B),
    "sub": "(%s - %s) & {M}" % (_A, _B),
    "sll": "(%s << (%s & 63)) & {M}" % (_A, _B),
    "slt": "1 if (%s ^ {S}) < (%s ^ {S}) else 0" % (_A, _B),
    "sltu": "1 if %s < %s else 0" % (_A, _B),
    "xor": "%s ^ %s" % (_A, _B),
    "srl": "%s >> (%s & 63)" % (_A, _B),
    "sra": "(%s >> (%s & 63)) & {M}" % (_signed(_A), _B),
    "or": "%s | %s" % (_A, _B),
    "and": "%s & %s" % (_A, _B),
    "addw": _word("%s + %s" % (_A, _B)),
    "subw": _word("%s - %s" % (_A, _B)),
    "sllw": _word("%s << (%s & 31)" % (_A, _B)),
    "srlw": _word("(%s & {W}) >> (%s & 31)" % (_A, _B)),
    "sraw": "(%s >> (%s & 31)) & {M}" % (_signed32(_A), _B),
    "mul": "(%s * %s) & {M}" % (_A, _B),
    "mulh": "((%s * %s) >> 64) & {M}" % (_signed(_A), _signed(_B)),
    "mulhsu": "((%s * %s) >> 64) & {M}" % (_signed(_A), _B),
    "mulhu": "(%s * %s) >> 64" % (_A, _B),
    "mulw": _word("%s * %s" % (_A, _B)),
})

#: ``mnemonic -> (width, signed)`` for the integer loads.
LOAD_ARGS = {"lb": (1, True), "lh": (2, True), "lw": (4, True),
             "ld": (8, False), "lbu": (1, False), "lhu": (2, False),
             "lwu": (4, False)}

#: ``mnemonic -> width`` for the integer stores.
STORE_WIDTH = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

# Timing classes: what the timing models charge beyond the base cycle
# (``K_CHECK`` is tchk/chklb: a redirect only).
(K_NORMAL, K_BRANCH, K_JAL, K_JALR, K_LOAD, K_STORE, K_TAGGED_ALU, K_CHECK,
 K_ECALL, K_MUL, K_DIV, K_FP_ALU, K_FP_DIV, K_FP_SQRT) = range(14)

_KINDS = {
    **dict.fromkeys(BRANCH_COND, K_BRANCH),
    "jal": K_JAL,
    "jalr": K_JALR,
    # chklw is timed as a plain load: a miss redirects without the
    # redirect penalty chklb pays.
    **dict.fromkeys([*LOAD_ARGS, "fld", "tld", "chklw"], K_LOAD),
    **dict.fromkeys([*STORE_WIDTH, "fsd", "tsd"], K_STORE),
    **dict.fromkeys(["xadd", "xsub", "xmul"], K_TAGGED_ALU),
    **dict.fromkeys(["tchk", "chklb"], K_CHECK),
    "ecall": K_ECALL,
    **dict.fromkeys(["mul", "mulh", "mulhsu", "mulhu", "mulw"], K_MUL),
    **dict.fromkeys(["div", "divu", "rem", "remu", "divw", "divuw", "remw",
                     "remuw"], K_DIV),
    **dict.fromkeys(["fadd.d", "fsub.d", "fmul.d", "fsgnj.d", "fsgnjn.d",
                     "fsgnjx.d", "fmin.d", "fmax.d", "feq.d", "flt.d",
                     "fle.d", "fcvt.l.d", "fcvt.w.d", "fcvt.d.l",
                     "fcvt.d.w", "fmv.x.d", "fmv.d.x"], K_FP_ALU),
    "fdiv.d": K_FP_DIV,
    "fsqrt.d": K_FP_SQRT,
}


def kind_of(mnemonic):
    """The timing class of ``mnemonic`` (``K_NORMAL`` unless listed)."""
    return _KINDS.get(mnemonic, K_NORMAL)


#: Timing class -> the :class:`~repro.uarch.config.LatencyConfig` field
#: holding its extra execution-unit cycles, charged on every execution.
#: (The tagged ALU ops pay theirs only on a TRT hit; see the timing loops.)
EXTRA_LATENCY = {K_MUL: "mul", K_DIV: "div", K_FP_ALU: "fp_alu",
                 K_FP_DIV: "fp_div", K_FP_SQRT: "fp_sqrt"}


def extra_cycles(latency):
    """``{kind: cycles}`` of :data:`EXTRA_LATENCY` under ``latency``."""
    return {kind: getattr(latency, field)
            for kind, field in EXTRA_LATENCY.items()}


def block_path(instructions, base, start, max_len):
    """The instruction indices of the block entered at ``start``, in
    the order it executes them.

    The walk runs through straight-line code and conditional branches
    (not taken) and follows every ``jal``, calls included, to its
    target.  It stops after ``jalr``, ``ecall`` or ``ebreak``; after a
    ``jal`` whose target lies outside the program or on the path
    already; at the end of the program; or after ``max_len``
    instructions in total.  A smaller ``max_len`` gives a prefix of the
    same path.
    """
    size = len(instructions)
    path = [start]
    index = start
    while len(path) < max_len:
        instr = instructions[index]
        mnemonic = instr.mnemonic
        if mnemonic == "jal":
            offset = ((base + 4 * index + instr.imm) & MASK64) - base
            index = offset >> 2
            if offset & 3 or not 0 <= index < size or index in path:
                break
        elif mnemonic in TERMINATORS:
            break
        else:
            index += 1
            if index == size:
                break
        path.append(index)
    return path


# -- guest-bytecode views ------------------------------------------------------

#: One predecoded guest bytecode.  ``op`` is the numeric opcode,
#: ``name`` its mnemonic, ``args`` the decoded operand tuple — Lua
#: ``(a, b, c)`` with the signed jump displacement in ``c`` for jump
#: formats, JS ``(imm,)``.
GuestInstr = namedtuple("GuestInstr", "index op name args")


class BytecodeView:
    """Uniform queries over one predecoded guest function.

    Subclasses decode ``code`` (the function's 32-bit words) into
    :data:`GuestInstr` tuples and answer control-flow and def/use
    queries in engine-neutral vocabulary.
    """

    engine = None

    def __init__(self, code):
        self.instrs = [self._decode(index, word)
                       for index, word in enumerate(code)]

    def __len__(self):
        return len(self.instrs)

    def __iter__(self):
        return iter(self.instrs)

    def _decode(self, index, word):
        raise NotImplementedError

    def successors(self, index):
        """Intra-function successor indices of instruction ``index``
        (empty for returns, traps and halts; calls fall through — the
        callee edge is interprocedural)."""
        raise NotImplementedError

    def reads(self, index):
        """Operand sources as ``(kind, slot)`` descriptors."""
        raise NotImplementedError

    def writes(self, index):
        """Operand destinations as ``(kind, slot)`` descriptors."""
        raise NotImplementedError

    def targets(self):
        """All branch/jump target indices in this function."""
        found = set()
        for instr in self.instrs:
            succs = self.successors(instr.index)
            for s in succs:
                if s != instr.index + 1:
                    found.add(s)
        return found


class LuaView(BytecodeView):
    """Def/use and successor queries over MiniLua register-VM code.

    RK-encoded operands are resolved at this layer: a ``B``/``C``
    operand with the constant flag set becomes ``("const", index)``,
    otherwise ``("reg", index)``.
    """

    engine = "lua"

    def _decode(self, index, word):
        from repro.engines.lua.opcodes import decode
        op, a, b, c = decode(word)
        return GuestInstr(index, int(op), op.name, (a, b, c))

    @staticmethod
    def _rk(operand):
        from repro.engines.lua.opcodes import rk_index, rk_is_constant
        if rk_is_constant(operand):
            return ("const", rk_index(operand))
        return ("reg", operand)

    def successors(self, index):
        from repro.engines.lua.opcodes import Op
        instr = self.instrs[index]
        op = Op(instr.op)
        a, _b, c = instr.args
        if op in (Op.RETURN, Op.RETURN0):
            return ()
        if op is Op.JMP or op is Op.FORPREP:
            # FORPREP always lands on its matching FORLOOP (the guard
            # only selects the int or coerced-float priming, both of
            # which rejoin the jump).
            return (index + 1 + c,)
        if op in (Op.JMPF, Op.JMPT, Op.FORLOOP):
            return (index + 1, index + 1 + c)
        if not self._implemented(op):
            return ()  # traps to the error stub: execution halts
        return (index + 1,)

    @staticmethod
    def _implemented(op):
        from repro.engines.lua.opcodes import Op
        return op not in (Op.LOADKX, Op.GETUPVAL, Op.SETUPVAL, Op.SELF,
                          Op.TEST, Op.TESTSET, Op.TAILCALL, Op.TFORCALL,
                          Op.TFORLOOP, Op.SETLIST)

    def reads(self, index):
        from repro.engines.lua.opcodes import Op
        instr = self.instrs[index]
        op = Op(instr.op)
        a, b, c = instr.args
        if op is Op.MOVE:
            return (("reg", b),)
        if op is Op.LOADK:
            return (("const", b),)
        if op is Op.GETGLOBAL:
            return (("global", b),)
        if op is Op.SETGLOBAL:
            return (("reg", a), ("global", b))
        if op is Op.GETTABLE or op is Op.CONCAT:
            return (self._rk(b), self._rk(c))
        if op is Op.SETTABLE:
            return (("reg", a), self._rk(b), self._rk(c))
        if op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.IDIV,
                  Op.POW, Op.BAND, Op.BOR, Op.BXOR, Op.SHL, Op.SHR,
                  Op.EQ, Op.LT, Op.LE):
            return (self._rk(b), self._rk(c))
        if op in (Op.UNM, Op.NOT, Op.LEN, Op.BNOT):
            return (("reg", b),)
        if op in (Op.JMPF, Op.JMPT, Op.RETURN):
            return (("reg", a),)
        if op is Op.CALL:
            return tuple(("reg", a + k) for k in range(b + 1))
        if op is Op.FORPREP:
            return (("reg", a), ("reg", a + 1), ("reg", a + 2))
        if op is Op.FORLOOP:
            return (("reg", a), ("reg", a + 1), ("reg", a + 2))
        return ()

    def writes(self, index):
        from repro.engines.lua.opcodes import Op
        instr = self.instrs[index]
        op = Op(instr.op)
        a, _b, _c = instr.args
        if op is Op.SETGLOBAL:
            return (("global", instr.args[1]),)
        if op is Op.SETTABLE:
            return ()  # writes through the table reference, not a slot
        if op is Op.FORPREP:
            # The int path rewrites the index; the coercing slow path
            # rewrites all three control slots.
            return (("reg", a), ("reg", a + 1), ("reg", a + 2))
        if op is Op.FORLOOP:
            return (("reg", a), ("reg", a + 3))
        if op in (Op.JMP, Op.JMPF, Op.JMPT, Op.RETURN, Op.RETURN0):
            return ()
        if self._implemented(op):
            return (("reg", a),)
        return ()


class JsView(BytecodeView):
    """Def/use, successor and stack-effect queries over MiniJS
    stack-VM code."""

    engine = "js"

    def _decode(self, index, word):
        from repro.engines.js.opcodes import decode
        op, imm = decode(word)
        return GuestInstr(index, int(op), op.name, (imm,))

    def successors(self, index):
        from repro.engines.js.opcodes import JsOp
        instr = self.instrs[index]
        op = JsOp(instr.op)
        imm = instr.args[0]
        if op in (JsOp.RETURN, JsOp.RETURN_UNDEF):
            return ()
        if op is JsOp.JUMP:
            return (index + 1 + imm,)
        if op in (JsOp.IFEQ, JsOp.IFNE):
            return (index + 1, index + 1 + imm)
        return (index + 1,)

    def stack_effect(self, index):
        """``(pops, pushes)`` of instruction ``index`` — static for
        every opcode (CALL folds its operand count in)."""
        from repro.engines.js.opcodes import JsOp
        instr = self.instrs[index]
        op = JsOp(instr.op)
        imm = instr.args[0]
        if op in (JsOp.UNDEF, JsOp.NULL, JsOp.PUSHBOOL, JsOp.PUSHK,
                  JsOp.GETLOCAL, JsOp.GETGLOBAL, JsOp.NEWARRAY,
                  JsOp.NEWOBJ):
            return (0, 1)
        if op is JsOp.DUP:
            return (1, 2)
        if op in (JsOp.SETLOCAL, JsOp.SETGLOBAL, JsOp.POP, JsOp.IFEQ,
                  JsOp.IFNE, JsOp.RETURN):
            return (1, 0)
        if op in (JsOp.ADD, JsOp.SUB, JsOp.MUL, JsOp.DIV, JsOp.MOD,
                  JsOp.EQ, JsOp.NE, JsOp.LT, JsOp.LE, JsOp.GT, JsOp.GE,
                  JsOp.GETELEM):
            return (2, 1)
        if op in (JsOp.NEG, JsOp.NOT, JsOp.TYPEOF):
            return (1, 1)
        if op is JsOp.SETELEM:
            return (3, 0)
        if op is JsOp.CALL:
            return (imm + 1, 1)
        return (0, 0)  # JUMP, RETURN_UNDEF

    def reads(self, index):
        from repro.engines.js.opcodes import JsOp
        instr = self.instrs[index]
        op = JsOp(instr.op)
        imm = instr.args[0]
        pops = self.stack_effect(index)[0]
        stack = tuple(("stack", -k) for k in range(pops, 0, -1))
        if op is JsOp.PUSHK:
            return (("const", imm),)
        if op is JsOp.GETLOCAL:
            return (("local", imm),)
        if op is JsOp.GETGLOBAL:
            return (("global", imm),)
        if op is JsOp.SETGLOBAL:
            return stack + (("global", imm),)
        return stack

    def writes(self, index):
        from repro.engines.js.opcodes import JsOp
        instr = self.instrs[index]
        op = JsOp(instr.op)
        imm = instr.args[0]
        pushes = self.stack_effect(index)[1]
        stack = tuple(("stack", -k) for k in range(pushes, 0, -1))
        if op is JsOp.SETLOCAL:
            return (("local", imm),)
        if op is JsOp.SETGLOBAL:
            return (("global", imm),)
        return stack


def view(engine, code):
    """The :class:`BytecodeView` for one function's ``code`` words."""
    if engine == "lua":
        return LuaView(code)
    if engine == "js":
        return JsView(code)
    raise ValueError("unknown engine %r" % (engine,))
