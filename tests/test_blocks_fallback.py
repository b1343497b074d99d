"""Block compile failure is a degradation, not a crash: the entry PC
falls back to an interpreted step with identical accounting, and the
failure lands on the telemetry degradation ledger."""

import weakref

import pytest

from repro import api
from repro.bench.workloads import workload
from repro.isa.assembler import assemble
from repro.sim import blocks, traces
from repro.sim.cpu import Cpu
from repro.sim.memory import Memory
from repro.telemetry.core import clear_degradations, degradations
from repro.uarch.pipeline import DEFAULT_CONFIG, Machine


@pytest.fixture(autouse=True)
def fresh_ledger():
    clear_degradations()
    yield
    clear_degradations()


def _machine(text, **kwargs):
    cpu = Cpu(assemble(text), Memory(size=1 << 16))
    return cpu, Machine(cpu, **kwargs)


PROGRAM = """
    li a0, 0
    li a1, 10
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    ebreak
"""


def _boom(*_args, **_kwargs):
    raise RuntimeError("codegen exploded")


def test_compile_failure_degrades_to_interpreted_step(monkeypatch):
    cpu_ref, machine_ref = _machine(PROGRAM)
    ref = machine_ref.run_reference(max_instructions=10_000)

    monkeypatch.setattr(blocks, "_compile_block", _boom)
    cpu_deg, machine_deg = _machine(PROGRAM)
    deg = machine_deg.run(max_instructions=10_000)

    # Bit-identical counters and architectural state despite every
    # single block compile failing.
    assert deg.as_dict() == ref.as_dict()
    assert cpu_deg.regs.value == cpu_ref.regs.value
    assert cpu_deg.pc == cpu_ref.pc


def test_compile_failure_recorded_on_ledger(monkeypatch):
    monkeypatch.setattr(blocks, "_compile_block", _boom)
    _cpu, machine = _machine(PROGRAM)
    machine.run(max_instructions=10_000)

    events = [e for e in degradations()
              if e["name"] == "block_compile_failed"]
    assert events, "degradation ledger is empty"
    for event in events:
        assert event["cat"] == "degradation"
        assert "RuntimeError: codegen exploded" in event["error"]
        assert isinstance(event["pc"], int)
        assert event["mnemonic"]


def test_fallback_is_permanent_for_that_pc(monkeypatch):
    program = assemble(PROGRAM)
    table = blocks.BlockTable(program, DEFAULT_CONFIG)
    monkeypatch.setattr(blocks, "_compile_block", _boom)
    degraded = table.block_at(0)
    assert table.compile_failures == 1
    monkeypatch.undo()
    # Compilation works again, but the degraded entry must stay pinned:
    # a flapping PC would re-pay the failure path on every visit.
    assert table.block_at(0) is degraded
    assert table.compile_failures == 1
    assert len(degradations()) == 1


def test_partial_failure_only_degrades_failing_entry(monkeypatch):
    program = assemble(PROGRAM)
    table = blocks.BlockTable(program, DEFAULT_CONFIG)
    real_compile = blocks._compile_block

    def fail_entry_zero(table_, index, max_len):
        if index == 0:
            raise RuntimeError("codegen exploded")
        return real_compile(table_, index, max_len)

    monkeypatch.setattr(blocks, "_compile_block", fail_entry_zero)
    table.block_at(0)
    table.block_at(2)
    assert table.compile_failures == 1
    assert table.compiled == 1
    assert table.block_at(0)[1] == 1  # degraded: single-step entry
    assert table.block_at(2)[1] > 1   # healthy block still fuses


def test_degraded_single_at_keeps_budget_exact(monkeypatch):
    from repro.sim.errors import ExecutionLimitExceeded

    monkeypatch.setattr(blocks, "_compile_block", _boom)
    cpu, machine = _machine(PROGRAM)
    with pytest.raises(ExecutionLimitExceeded):
        machine.run(max_instructions=7)
    assert cpu.instret == 7


# -- degraded entries on real cells ------------------------------------------

#: Small cells that between them reach every timing class of
#: ``_fallback_block``: type misses (tagged-ALU redirects), checked-load
#: misses, host calls, mispredicted branches, load-use stalls and
#: D-cache misses.
DEGRADED_CELLS = [
    ("lua", "n-body", "typed", 2),
    ("lua", "n-body", "chklb", 2),
    ("js", "mandelbrot", "typed", 2),
    ("lua", "k-nucleotide", "chklb", 2),
]

#: Counters that must each be non-zero on at least one of the cells.
TIMING_CLASS_COUNTERS = ("type_misses", "chk_misses", "host_calls",
                         "branch_mispredicts", "load_use_stalls",
                         "dcache_misses")


def _cell_run(cell, attribute, reference=False):
    engine, benchmark, config, scale = cell
    machine, runtime = api._prepare(
        engine, workload(benchmark).source(engine, scale), config=config,
        attribute=attribute)
    run = machine.run_reference if reference else machine.run
    return "".join(runtime.output), run().as_dict()


@pytest.fixture(scope="module")
def references():
    return {(cell, attribute): _cell_run(cell, attribute, reference=True)
            for cell in DEGRADED_CELLS for attribute in (False, True)}


@pytest.mark.parametrize("attribute", [False, True],
                         ids=["plain", "attributed"])
@pytest.mark.parametrize("cell", DEGRADED_CELLS,
                         ids=["/".join(map(str, c)) for c in DEGRADED_CELLS])
def test_degraded_entries_match_the_reference_on_real_cells(
        monkeypatch, references, cell, attribute):
    # Fresh tables, so degraded entries never reach another test.
    monkeypatch.setattr(blocks, "_TABLES", weakref.WeakKeyDictionary())
    monkeypatch.setattr(traces, "_TABLES", weakref.WeakKeyDictionary())
    monkeypatch.setattr(blocks, "_compile_block", _boom)
    assert _cell_run(cell, attribute) == references[(cell, attribute)]
    assert any(event["name"] == "block_compile_failed"
               for event in degradations())


def test_degraded_cells_reach_every_timing_class(references):
    for name in TIMING_CLASS_COUNTERS:
        assert any(counters[name] > 0
                   for _output, counters in references.values()), name
