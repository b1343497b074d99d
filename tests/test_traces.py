"""The superblock trace engine (:mod:`repro.sim.traces`).

The contract: counters, cycles and architectural state bit-identical
to the reference per-instruction loop for every program — including
mid-trace guard failures, budget exhaustion inside a trace, and the
adaptive retire/re-record machinery.  A hypothesis differential
drives both engines over generated branchy loop programs.
"""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.engines import BASELINE
from repro.engines.lua import vm as lua_vm
from repro.isa.assembler import assemble
from repro.sim import traces
from repro.sim.cpu import Cpu
from repro.sim.errors import ExecutionLimitExceeded
from repro.sim.memory import Memory
from repro.sim.traces import (
    MAX_WORKLOAD_TABLES,
    TRACE_EVAL_WINDOW,
    TRACE_THRESHOLD,
    trace_table,
)
from repro.telemetry import Telemetry
from repro.uarch.pipeline import DEFAULT_CONFIG, Machine

#: The formation point the mechanism tests pin: they check how traces
#: work, not when they form, and their loops run a few hundred times.
PINNED_THRESHOLD = 16


@pytest.fixture
def pinned_threshold(monkeypatch):
    monkeypatch.setattr(traces, "TRACE_THRESHOLD", PINNED_THRESHOLD)
    return PINNED_THRESHOLD


def _machine(text, **kwargs):
    cpu = Cpu(assemble(text), Memory(size=1 << 16))
    return cpu, Machine(cpu, **kwargs)


#: The reference loop, then the engine ``Machine.run`` selects (traces).
_ENGINES = (Machine.run_reference, Machine.run)


def _run_engines(text, max_instructions=1_000_000):
    """Run ``text`` under both engines; returns [(cpu, counters)]
    (``counters`` is ``None`` when the budget tripped)."""
    outcomes = []
    for run in _ENGINES:
        cpu, machine = _machine(text)
        try:
            counters = run(machine, max_instructions=max_instructions)
        except ExecutionLimitExceeded:
            counters = None
        outcomes.append((cpu, counters))
    return outcomes


def _assert_identical(outcomes):
    (ref_cpu, ref_counters) = outcomes[0]
    for cpu, counters in outcomes[1:]:
        assert (counters is None) == (ref_counters is None)
        if ref_counters is not None:
            assert counters.as_dict() == ref_counters.as_dict()
        assert cpu.instret == ref_cpu.instret
        assert cpu.pc == ref_cpu.pc
        assert cpu.regs.value == ref_cpu.regs.value
        assert cpu.regs.type == ref_cpu.regs.type
        assert bytes(cpu.mem.data) == bytes(ref_cpu.mem.data)


_HOT_LOOP = """
    addi a0, zero, 400
    addi a1, zero, 0
loop:
    add a1, a1, a0
    andi a2, a0, 1
    beq a2, zero, even
    addi a1, a1, 3
even:
    addi a0, a0, -1
    bne a0, zero, loop
    ebreak
"""


# -- formation -------------------------------------------------------------------

# A two-block loop (the always-taken `beq` splits it) whose head runs
# once per iteration; the always-taken `bge` ends the entry block before
# the loop (a block would run through a `jal` into it).
_TWO_BLOCK_LOOP = """
    li a0, %d
    bge zero, zero, loop
loop:
    addi a1, a1, 1
    beq zero, zero, mid
    addi a1, a1, 99
mid:
    addi a0, a0, -1
    bne a0, zero, loop
    ebreak
"""


def test_production_threshold_forms_a_trace_at_the_threshold():
    """The head's block dispatches up to ``TRACE_THRESHOLD - 1`` compile
    nothing; the ``TRACE_THRESHOLD``-th records and compiles exactly
    one trace."""
    for dispatches, formed in ((TRACE_THRESHOLD - 1, 0),
                               (TRACE_THRESHOLD, 1)):
        cpu, machine = _machine(_TWO_BLOCK_LOOP % dispatches)
        machine.run(max_instructions=1_000_000)
        table = trace_table(cpu.program, DEFAULT_CONFIG)
        head = (cpu.program.labels["loop"] - cpu.program.base) >> 2
        assert table.counts[head] == dispatches
        assert table.traces == formed
        assert (table.entries[head] is not table.blocks.block_at(head)) \
            == bool(formed)


def test_trace_forms_on_hot_loop(pinned_threshold):
    cpu, machine = _machine(_HOT_LOOP)
    machine.run(max_instructions=100_000)
    table = trace_table(cpu.program, DEFAULT_CONFIG)
    assert table.traces >= 1
    assert table.trace_instructions > 0
    # The head's installed entry spans more than its basic block.
    head = max(range(len(table.entries)),
               key=lambda i: (table.entries[i] is not None
                              and table.entries[i][1]))
    assert table.entries[head][1] > table.blocks.block_at(head)[1]


def test_trace_tables_keyed_per_workload():
    """Trace state is per guest workload: two CPUs on one program with
    different workload tokens must not share profiles or traces."""
    program = assemble(_HOT_LOOP)
    shared = trace_table(program, DEFAULT_CONFIG)
    assert trace_table(program, DEFAULT_CONFIG) is shared
    a = trace_table(program, DEFAULT_CONFIG, workload="guest-a")
    b = trace_table(program, DEFAULT_CONFIG, workload="guest-b")
    assert a is not b and a is not shared
    assert trace_table(program, DEFAULT_CONFIG, workload="guest-a") is a
    # The expensive predecode layer underneath stays shared.
    assert a.blocks is b.blocks is shared.blocks


def test_trace_tables_bounded_per_program(monkeypatch):
    """A long-lived process keeps at most MAX_WORKLOAD_TABLES trace
    tables per interpreter program, evicting the least recently used;
    a re-run of an evicted guest rebuilds its table with identical
    counters."""
    monkeypatch.setattr(traces, "_TABLES", weakref.WeakKeyDictionary())
    sources = ["print(%d)\n" % n for n in range(40)]
    first = api.run("lua", sources[0], attribute=False)
    for source in sources[1:]:
        assert api.run("lua", source, attribute=False).ok
    program = lua_vm.interpreter_program(BASELINE)[0]
    kept = traces._TABLES[program]
    assert len(kept) <= MAX_WORKLOAD_TABLES
    assert [workload for _config, workload in kept] \
        == sources[-MAX_WORKLOAD_TABLES:]
    again = api.run("lua", sources[0], attribute=False)
    assert again.output == first.output == "0\n"
    assert again.counters.as_dict() == first.counters.as_dict()


def test_trace_counters_identical_on_hot_loop():
    _assert_identical(_run_engines(_HOT_LOOP))


# -- guard failure / deopt -------------------------------------------------------

# Phase 1 trains traces on the not-taken side of the phase branch
# (`bne a4`), which sits at the very head of the loop trace; phase 2
# flips it, so the trace's *first* guard fails on every dispatch and
# its per-dispatch execution collapses below the profit bar.  The
# always-taken `bge zero, zero, loop` ends the entry block right before
# the loop (so the loop head — not an interior block — trains first),
# and the always-taken `beq` splits the high path into two blocks so a
# trace forms at all (a single-block loop is already covered by its
# block).  The low path's block runs through its `jal` into `cont`.
_PHASE_FLIP = """
    addi a0, zero, 400
    addi a3, zero, 200
    addi a1, zero, 0
    addi a2, zero, 0
    bge zero, zero, loop
loop:
    slt a4, a0, a3
    bne a4, zero, low
    addi a1, a1, 1
    beq zero, zero, cont
    addi a1, a1, 50
cont:
    addi a0, a0, -1
    bne a0, zero, loop
    ebreak
low:
    addi a2, a2, 7
    xor a1, a1, a2
    jal zero, cont
"""


def test_guard_failure_deopt_mid_trace(pinned_threshold):
    outcomes = _run_engines(_PHASE_FLIP)
    _assert_identical(outcomes)
    cpu = outcomes[1][0]
    table = trace_table(cpu.program, DEFAULT_CONFIG)
    assert table.traces >= 1  # phase 1 actually compiled a trace


def test_phase_change_adapts_with_new_traces(pinned_threshold):
    """After a phase flip the phase-1 trace's first guard fails on
    every dispatch; the runtime adapts by compiling a second trace on
    the newly hot path (the stale one keeps deopting through its side
    exit) — without perturbing a single counter."""
    # Flip after 50 of 400 iterations: plenty of phase-2 iterations
    # for the low path to reach the trace threshold.
    text = _PHASE_FLIP.replace("200", "350")
    outcomes = _run_engines(text)
    _assert_identical(outcomes)
    cpu = outcomes[1][0]
    table = trace_table(cpu.program, DEFAULT_CONFIG)
    assert table.traces >= 2  # phase-1 trace plus a post-flip trace


def test_evaluator_retires_below_profit_bar(pinned_threshold):
    """The evaluator's retire path, pinned deterministically: a meter
    reading below ``bar * dispatches`` at the window boundary reverts
    the head to its basic block and schedules re-recording with
    exponential backoff."""
    cpu, machine = _machine(_HOT_LOOP)
    machine.run(max_instructions=100_000)
    table = trace_table(cpu.program, DEFAULT_CONFIG)
    head = next(i for i in range(len(table.entries))
                if table.entries[i] is not None
                and table.entries[i][1] > table.blocks.block_at(i)[1])
    # Rewind graduation and hand evaluate() a window that ran far
    # below the bar, as a phase change that keeps the trace dispatched
    # (but always side-exiting at the first guard) would produce.
    table.meta[head] = [3.5, TRACE_EVAL_WINDOW, TRACE_EVAL_WINDOW, 0]
    table.evaluate(head)
    assert table.retired == 1
    assert table.meta[head] is None
    assert table.entries[head] == table.blocks.block_at(head)
    # Exponential backoff: the head must re-earn hotness from a deficit.
    assert table.counts[head] == -pinned_threshold


def test_healthy_trace_graduates_and_never_retires():
    """A trace that runs to completion every dispatch clears the
    profit bar at each evaluation window, graduates after
    TRACE_MATURE_WINDOWS of them (metering stops: its meta slot is
    cleared), and is never retired — the adaptive machinery must cost
    nothing on stable workloads."""
    # The interior branch is always taken, so the loop spans two
    # blocks (a single-block loop never forms a trace — the block
    # already covers it) and the trace's guard never fails.
    cpu, machine = _machine("""
        addi a0, zero, 4000
        addi a1, zero, 0
    loop:
        add a1, a1, a0
        beq zero, zero, mid
        addi a1, a1, 99
    mid:
        addi a2, a2, 1
        xor a3, a1, a2
        addi a0, a0, -1
        bne a0, zero, loop
        ebreak
    """)
    machine.run(max_instructions=100_000)
    table = trace_table(cpu.program, DEFAULT_CONFIG)
    assert table.traces >= 1
    assert table.retired == 0
    # Far past the graduation point: every installed trace has matured
    # out of metering.
    assert all(m is None for m in table.meta)


# -- budget exhaustion inside a trace -------------------------------------------

def test_execution_limit_lands_inside_trace_span(pinned_threshold):
    """The budget trips at the exact instruction even when the limit
    falls mid-trace: the dispatch loop must degrade to the plain block
    (or a single instruction) rather than overrun."""
    spin = _HOT_LOOP.replace("400", "100000")
    for limit in (777, pinned_threshold * 7 * 3 + 5):
        cpus = []
        for run in _ENGINES:
            cpu, machine = _machine(spin)
            with pytest.raises(ExecutionLimitExceeded):
                run(machine, max_instructions=limit)
            cpus.append(cpu)
        assert {c.instret for c in cpus} == {limit}
        assert len({c.pc for c in cpus}) == 1
        assert cpus[0].regs.value == cpus[1].regs.value
        # The trace engine had really installed traces by then.
        table = trace_table(cpus[1].program, DEFAULT_CONFIG)
        assert table.traces >= 1


# -- engine selection ------------------------------------------------------------

def test_telemetry_rebound_trt_falls_back_to_reference(monkeypatch):
    """The compiled units inline the uninstrumented TRT probe and emit
    no events, so any telemetry must select the reference loop: a
    ``trt.lookup`` rebound on the instance, a bus attached to the
    machine, or one attached to the CPU (rare-path events)."""
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    cpu, machine = _machine(_HOT_LOOP)
    cpu.trt.lookup = cpu.trt.lookup  # instance shadow, telemetry-style
    machine.run(max_instructions=100_000)
    _cpu, machine = _machine(_HOT_LOOP,
                             telemetry=Telemetry(categories={"stall"}))
    machine.run(max_instructions=100_000)
    cpu, machine = _machine(_HOT_LOOP)
    cpu.telemetry = Telemetry(categories={"trap"})
    machine.run(max_instructions=100_000)


def _boom(*_args, **_kwargs):
    raise AssertionError("wrong engine selected")


# -- hypothesis differential -----------------------------------------------------

_BODY_OPS = (
    "add a1, a1, a0",
    "addi a1, a1, 3",
    "sub a2, a1, a0",
    "xor a2, a2, a1",
    "sltu a3, a0, a1",
    "andi a4, a0, 3",
    "slli a5, a0, 2",
    "srli a5, a1, 1",
)

# A data-dependent diamond: alternates taken/not-taken with the loop
# counter, exercising trace guards on both sides.
_DIAMOND = """    andi a6, a0, 1
    beq a6, zero, d{n}
    addi a2, a2, 5
d{n}:"""


# A direct jump over a dead instruction, which blocks follow.
_SKIP = """    jal zero, s{n}
    addi a1, a1, 77
s{n}:"""

# A call into a subroutine placed after the ``ebreak``, which returns
# by ``jalr``: a block follows the call and ends at the return.
_CALL = "    jal ra, sub{n}"
_SUBROUTINE = """sub{n}:
    addi a2, a2, {n}
    xor a3, a3, a2
    jalr zero, 0(ra)"""


@st.composite
def _loop_programs(draw):
    iters = draw(st.integers(min_value=1, max_value=120))
    body = list(draw(st.lists(st.sampled_from(_BODY_OPS), min_size=1,
                              max_size=10)))
    for n in range(draw(st.integers(min_value=0, max_value=2))):
        body.insert(draw(st.integers(min_value=0, max_value=len(body))),
                    _DIAMOND.format(n=n))
    subroutines = []
    if draw(st.booleans()):
        body.insert(draw(st.integers(min_value=0, max_value=len(body))),
                    _SKIP.format(n=0))
    if draw(st.booleans()):
        body.insert(draw(st.integers(min_value=0, max_value=len(body))),
                    _CALL.format(n=1))
        subroutines.append(_SUBROUTINE.format(n=1))
    return "\n".join(
        ["    addi a0, zero, %d" % iters,
         "    addi a1, zero, 0",
         "loop:"] + ["    %s" % op.strip() for op in body] +
        ["    addi a0, a0, -1",
         "    bne a0, zero, loop",
         "    ebreak"] + subroutines)


@settings(max_examples=30, deadline=None)
@given(text=_loop_programs(),
       budget=st.one_of(st.none(), st.integers(min_value=50,
                                               max_value=2_000)))
def test_hypothesis_differential_three_engines(text, budget):
    # Pinned formation: these loops run at most 120 times.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces, "TRACE_THRESHOLD", PINNED_THRESHOLD)
        _assert_identical(
            _run_engines(text, max_instructions=budget or 1_000_000))
