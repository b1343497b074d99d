"""Behavioural equivalence of the guard-elided configuration.

The ``elided`` scheme runs the baseline software interpreter with
statically-proven guard chains removed (quickened handlers).  The
contract is strict: for every guest program — proven or not — outputs
are byte-identical to ``baseline``, guest-visible bytecode execution
histograms are identical once quickened variants are folded back onto
their base opcodes, and host instret never increases (elision only
ever removes host work).  Hypothesis hunts for counterexamples over
random expression programs; a workload subset pins the real kernels;
a cross-engine check asserts the reference loop, the basic-block
engine and the trace engine agree bit-for-bit on elided builds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import quickening
from repro.bench.workloads import workload
from repro.engines.configs import BASELINE, ELIDED
from repro.engines.js import run_js
from repro.engines.js import vm as js_vm
from repro.engines.lua import run_lua
from repro.engines.lua import vm as lua_vm
from repro.uarch.pipeline import Machine

_RUN = {"lua": run_lua, "js": run_js}
_VM = {"lua": lua_vm, "js": js_vm}
_BY_NAME = {"lua": quickening.LUA_BY_NAME, "js": quickening.JS_BY_NAME}


def folded_counts(counts, engine):
    """Fold quickened-handler counts (ADD_II, FORLOOP_F, ...) back onto
    their base opcode names; every other key passes through untouched
    (so e.g. RETURN_UNDEF is *not* split at an underscore)."""
    by_name = _BY_NAME[engine]
    out = {}
    for name, value in counts.items():
        base = quickening.base_name(name) if name in by_name else name
        out[base] = out.get(base, 0) + value
    return out


def assert_equivalent(engine, source, max_instructions=20_000_000):
    base = _RUN[engine](source, config=BASELINE,
                        max_instructions=max_instructions)
    elided = _RUN[engine](source, config=ELIDED,
                          max_instructions=max_instructions)
    assert elided.output == base.output, source
    assert (elided.counters.core_instructions
            <= base.counters.core_instructions), source
    assert (folded_counts(elided.counters.bytecode_counts, engine)
            == folded_counts(base.counters.bytecode_counts, engine)), \
        source
    return base, elided


# -- hypothesis: random straight-line and loop programs ---------------------------

_INT_OPS = ("+", "-", "*")


def _exprs(depth, float_style):
    if float_style:
        literal = st.integers(min_value=-40, max_value=40).map(
            lambda v: ("lit", v * 0.25))
    else:
        literal = st.integers(min_value=0, max_value=99).map(
            lambda v: ("lit", v))
    if depth == 0:
        return literal
    sub = _exprs(depth - 1, float_style)
    return st.one_of(literal,
                     st.tuples(st.sampled_from(_INT_OPS), sub, sub))


def _render(node):
    if node[0] == "lit":
        value = node[1]
        if isinstance(value, float):
            text = repr(value)
            if "." not in text and "e" not in text:
                text += ".0"
        else:
            text = str(value)
        return "(%s)" % text if value < 0 else text
    op, left, right = node
    return "(%s %s %s)" % (_render(left), op, _render(right))


@settings(max_examples=25, deadline=None)
@given(expr=_exprs(3, float_style=False), trip=st.integers(1, 6))
def test_lua_int_loops_match_baseline(expr, trip):
    source = ("local acc = 0\n"
              "for i = 1, %d do acc = acc + %s end\n"
              "print(acc)\n" % (trip, _render(expr)))
    assert_equivalent("lua", source)


@settings(max_examples=25, deadline=None)
@given(expr=_exprs(3, float_style=True), trip=st.integers(1, 6))
def test_lua_float_loops_match_baseline(expr, trip):
    source = ("local acc = 0.0\n"
              "for i = 1, %d do acc = acc + %s end\n"
              "print(acc)\n" % (trip, _render(expr)))
    assert_equivalent("lua", source)


@settings(max_examples=25, deadline=None)
@given(expr=_exprs(3, float_style=False), trip=st.integers(1, 6))
def test_js_int_loops_match_baseline(expr, trip):
    source = ("var acc = 0;\n"
              "for (var i = 0; i < %d; i++) { acc = acc + %s; }\n"
              "print(acc);\n" % (trip, _render(expr)))
    assert_equivalent("js", source)


@settings(max_examples=25, deadline=None)
@given(expr=_exprs(3, float_style=True), trip=st.integers(1, 6))
def test_js_float_loops_match_baseline(expr, trip):
    source = ("var acc = 0.5;\n"
              "for (var i = 0; i < %d; i++) { acc = acc + %s; }\n"
              "print(acc);\n" % (trip, _render(expr)))
    assert_equivalent("js", source)


@settings(max_examples=15, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-99, 99),
                                 st.floats(-8, 8).map(
                                     lambda v: round(v * 4) / 4)),
                       min_size=1, max_size=6))
def test_lua_mixed_tag_programs_match_baseline(values):
    # Tag-unstable accumulators: the analysis must refuse to elide and
    # the fallback path must stay bit-identical.
    stmts = "\n".join("acc = acc + %s" % _render(("lit", v))
                      for v in values)
    source = "local acc = 0\n%s\nprint(acc)\n" % stmts
    assert_equivalent("lua", source)


# -- workload subset ---------------------------------------------------------------

# Small scales keep the suite fast; fannkuch-redux degenerates below
# scale 4 (pre-existing workload limitation), so it runs at 4.
_CELLS = (
    ("fibo", 8),
    ("mandelbrot", 4),
    ("n-body", 5),
    ("spectral-norm", 3),
    ("fannkuch-redux", 4),
    ("k-nucleotide", 30),
)


@pytest.mark.parametrize("engine", ("lua", "js"))
@pytest.mark.parametrize("bench,scale", _CELLS)
def test_workload_elided_matches_baseline(engine, bench, scale):
    source_attr = "lua_source" if engine == "lua" else "js_source"
    source = getattr(workload(bench), source_attr)(scale)
    assert_equivalent(engine, source)


@pytest.mark.parametrize("engine,bench,scale",
                         (("lua", "fibo", 8), ("js", "mandelbrot", 4)))
def test_elision_actually_fires(engine, bench, scale):
    # Guard: if the analysis ever regresses to proving nothing, the
    # differential above becomes vacuously true.  Lua proves fibo's int
    # adds/compares; JS proves mandelbrot's double kernel (JS int
    # arithmetic stays guarded — overflow promotes int32 to double, so
    # int results are only ever "numeric").
    source_attr = "lua_source" if engine == "lua" else "js_source"
    source = getattr(workload(bench), source_attr)(scale)
    base, elided = assert_equivalent(engine, source)
    quick = {name: count
             for name, count in elided.counters.bytecode_counts.items()
             if name in _BY_NAME[engine] and count > 0}
    assert quick, engine
    assert (elided.counters.core_instructions
            < base.counters.core_instructions), engine


# -- cross-engine invariant on elided builds ---------------------------------------

@pytest.mark.parametrize("engine", ("lua", "js"))
def test_elided_blocks_and_traces_bit_identical(engine):
    source_attr = "lua_source" if engine == "lua" else "js_source"
    source = getattr(workload("fibo"), source_attr)(8)
    cpu, runtime, _program = _VM[engine].prepare(source, ELIDED)
    reference = Machine(cpu).run_reference()
    traces = _RUN[engine](source, config=ELIDED, attribute=False)
    assert traces.output == "".join(runtime.output)
    assert traces.counters.as_dict() == reference.as_dict()
