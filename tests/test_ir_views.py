"""Tests for the shared bytecode-IR surface (repro.engines.ir).

The guest views are exercised against real compiler output — not
hand-assembled words — so they stay honest about the encodings the
engines actually emit.  The host-ISA layer is covered indirectly by
the block/trace engine suites; the block path walk (``block_path``)
gets a direct check here.
"""

import pytest

from repro.engines import ir
from repro.engines.ir import JsView, LuaView, view
from repro.engines.js.compiler import compile_source as compile_js
from repro.engines.lua.compiler import compile_source as compile_lua


def _lua_view(source, proto=0):
    return LuaView(compile_lua(source).protos[proto].code)


def _js_view(source, proto=0):
    return JsView(compile_js(source).protos[proto].code)


def _find(bview, name):
    hits = [i.index for i in bview if i.name == name]
    assert hits, name
    return hits[0]


# -- factory -----------------------------------------------------------------------

def test_view_factory_dispatches_by_engine():
    lv = view("lua", compile_lua("print(1)\n").protos[0].code)
    jv = view("js", compile_js("print(1);\n").protos[0].code)
    assert isinstance(lv, LuaView) and lv.engine == "lua"
    assert isinstance(jv, JsView) and jv.engine == "js"
    with pytest.raises(ValueError):
        view("wasm", [])


def test_views_decode_every_word():
    source = "local x = 1\nprint(x + 2)\n"
    chunk = compile_lua(source)
    v = LuaView(chunk.protos[0].code)
    assert len(v) == len(chunk.protos[0].code)
    assert [i.index for i in v] == list(range(len(v)))


# -- LuaView -----------------------------------------------------------------------

def test_lua_loop_control_flow():
    v = _lua_view("local acc = 0\n"
                  "for i = 1, 10 do acc = acc + i end\n"
                  "print(acc)\n")
    prep = _find(v, "FORPREP")
    loop = _find(v, "FORLOOP")
    # FORPREP lands on its FORLOOP; FORLOOP either exits (fallthrough)
    # or jumps back to the body.
    assert v.successors(prep) == (loop,)
    back = v.successors(loop)
    assert loop + 1 in back
    assert any(s <= loop for s in back)
    assert loop in v.targets()


def test_lua_return_has_no_successors():
    v = _lua_view("print(1)\n")
    ret = [i.index for i in v if i.name in ("RETURN", "RETURN0")][-1]
    assert v.successors(ret) == ()


def test_lua_conditional_has_two_successors():
    v = _lua_view("local n = 3\n"
                  "if n > 2 then print(1) else print(2) end\n")
    cond = [i.index for i in v if i.name in ("JMPF", "JMPT")][0]
    succs = v.successors(cond)
    assert len(succs) == 2 and cond + 1 in succs


def test_lua_rk_operand_resolution():
    # acc + i reads two registers; acc + 1 reads a register and a
    # constant — the RK flag must be resolved at the view layer.
    v = _lua_view("local acc = 0\n"
                  "local i = 2\n"
                  "acc = acc + i\n"
                  "acc = acc + 1\n"
                  "print(acc)\n")
    adds = [i.index for i in v if i.name == "ADD"]
    assert len(adds) == 2
    kinds = [tuple(kind for kind, _ in v.reads(a)) for a in adds]
    assert ("reg", "reg") in kinds
    assert ("reg", "const") in kinds
    for a in adds:
        assert len(v.writes(a)) == 1
        assert v.writes(a)[0][0] == "reg"


def test_lua_global_def_use():
    v = _lua_view("g = 4\nprint(g)\n")
    setg = _find(v, "SETGLOBAL")
    getg = _find(v, "GETGLOBAL")
    assert ("global", v.instrs[setg].args[1]) in v.writes(setg)
    assert v.reads(getg) == (("global", v.instrs[getg].args[1]),)


def test_lua_call_reads_callee_and_args():
    v = _lua_view("print(1, 2)\n")
    call = _find(v, "CALL")
    a, b, _c = v.instrs[call].args
    assert v.reads(call) == tuple(("reg", a + k) for k in range(b + 1))


def test_lua_forloop_def_use_discipline():
    v = _lua_view("for i = 1, 4 do print(i) end\n")
    loop = _find(v, "FORLOOP")
    a = v.instrs[loop].args[0]
    assert set(v.writes(loop)) == {("reg", a), ("reg", a + 3)}
    assert set(v.reads(loop)) == {("reg", a), ("reg", a + 1),
                                  ("reg", a + 2)}


# -- JsView ------------------------------------------------------------------------

def test_js_successors_and_targets():
    v = _js_view("var n = 3;\n"
                 "if (n > 2) { print(1); } else { print(2); }\n")
    cond = [i.index for i in v if i.name in ("IFEQ", "IFNE")][0]
    succs = v.successors(cond)
    assert len(succs) == 2 and cond + 1 in succs
    jump = _find(v, "JUMP")
    imm = v.instrs[jump].args[0]
    assert v.successors(jump) == (jump + 1 + imm,)
    assert v.successors(jump)[0] in v.targets()
    ret = [i.index for i in v
           if i.name in ("RETURN", "RETURN_UNDEF")][-1]
    assert v.successors(ret) == ()


def test_js_stack_effects_balance_straight_line_code():
    # Between function entry and the terminator, pushes and pops of a
    # straight-line main must cancel to the operands RETURN_UNDEF needs
    # (zero: every statement leaves the stack clean).
    v = _js_view("var x = 1;\nvar y = x + 2;\nprint(y);\n")
    depth = 0
    for instr in v:
        if instr.name in ("RETURN", "RETURN_UNDEF"):
            break
        pops, pushes = v.stack_effect(instr.index)
        depth -= pops
        assert depth >= -0, instr
        depth += pushes
    assert depth == 0


def test_js_call_stack_effect_folds_arity():
    v = _js_view("print(1, 2, 3);\n")
    call = _find(v, "CALL")
    imm = v.instrs[call].args[0]
    assert imm == 3
    assert v.stack_effect(call) == (4, 1)


def test_js_def_use_descriptors():
    v = _js_view("var x = 2.5;\nvar y = x * 2.0;\nprint(y);\n")
    pushk = _find(v, "PUSHK")
    assert v.reads(pushk) == (("const", v.instrs[pushk].args[0]),)
    getg = _find(v, "GETGLOBAL")
    assert v.reads(getg) == (("global", v.instrs[getg].args[0]),)
    setg = _find(v, "SETGLOBAL")
    assert v.writes(setg) == (("global", v.instrs[setg].args[0]),)
    assert ("stack", -1) in v.reads(setg)
    mul = _find(v, "MUL")
    assert v.reads(mul) == (("stack", -2), ("stack", -1))
    assert v.writes(mul) == (("stack", -1),)


def test_js_local_def_use_inside_function():
    v = _js_view("function f(a) { var b = a + 1; return b; }\n"
                 "print(f(1));\n", proto=1)
    getl = _find(v, "GETLOCAL")
    assert v.reads(getl) == (("local", v.instrs[getl].args[0]),)
    setl = _find(v, "SETLOCAL")
    assert v.writes(setl) == (("local", v.instrs[setl].args[0]),)


# -- host-ISA layer ----------------------------------------------------------------

class _Fake:
    def __init__(self, mnemonic, imm=0):
        self.mnemonic = mnemonic
        self.imm = imm


def test_block_path_stops_at_terminator():
    instrs = [_Fake("addi"), _Fake("ld"), _Fake("jalr"), _Fake("addi")]
    assert ir.block_path(instrs, 0, 0, ir.MAX_BLOCK_LEN) == [0, 1, 2]
    assert ir.block_path(instrs, 0, 3, ir.MAX_BLOCK_LEN) == [3]


def test_block_path_caps_length():
    instrs = [_Fake("addi")] * 100
    assert ir.block_path(instrs, 0, 0, ir.MAX_BLOCK_LEN) \
        == list(range(ir.MAX_BLOCK_LEN))


def test_block_path_follows_jal():
    """A ``jal`` is followed to its target, which is relative to the
    program base; a target on the path, outside the program or between
    two instructions ends the path at the ``jal``."""
    base = 0x1000
    instrs = [_Fake("addi"), _Fake("jal", 8), _Fake("ebreak"),
              _Fake("jal", -12), _Fake("jal", 2), _Fake("jal", 64)]
    assert ir.block_path(instrs, base, 0, ir.MAX_BLOCK_LEN) == [0, 1, 3]
    assert ir.block_path(instrs, base, 0, 2) == [0, 1]
    assert ir.block_path(instrs, base, 4, ir.MAX_BLOCK_LEN) == [4]
    assert ir.block_path(instrs, base, 5, ir.MAX_BLOCK_LEN) == [5]


def test_host_metadata_shapes():
    assert ir.TERMINATORS == frozenset(["jal", "jalr", "ecall", "ebreak"])
    assert set(ir.LOAD_ARGS) & {"lw", "ld", "lbu"}
    assert ir.STORE_WIDTH["sd"] == 8
    assert "%(a)s" in ir.BRANCH_COND["beq"]
