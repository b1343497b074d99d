"""Cells run back to back in one process share predecoded state.

A sweep worker runs its shard grouped by ``(engine, config)`` (see
:func:`repro.bench.parallel.run_matrix_parallel`).  The contract: the
cells of one pair share one assembled interpreter and its block/trace
tables — each pair assembles **at most once per process** — while
per-run state (memory, registers, runtime output) is rebuilt from
scratch, so cells sharing a table are fully isolated.
"""

from repro.bench.runner import run_benchmark
from repro.engines.js import vm as js_vm
from repro.engines.lua import vm as lua_vm
from repro.sim.blocks import block_table
from repro.uarch.config import DEFAULT_CONFIG

_SCALES = {"fibo": 8, "n-sieve": 100}
_VMS = {"lua": lua_vm, "js": js_vm}


def _run(cell):
    engine, benchmark, config = cell
    return run_benchmark(engine, benchmark, config,
                         scale=_SCALES[benchmark], use_cache=False,
                         attribute=False)


def _cold_assembly_counts(monkeypatch):
    """Empty every engine's interpreter cache for this test and count
    the interpreter builds per ``(engine, config)`` pair from here on."""
    counts = {}
    for engine, vm in _VMS.items():
        def counted(config, engine=engine, real=vm.build_interpreter):
            counts[(engine, config)] = counts.get((engine, config), 0) + 1
            return real(config)
        monkeypatch.setattr(vm, "_PROGRAM_CACHE", {})
        monkeypatch.setattr(vm, "build_interpreter", counted)
    return counts


def test_batch_assembles_each_pair_at_most_once(monkeypatch):
    counts = _cold_assembly_counts(monkeypatch)
    cells = [("lua", "fibo", "baseline"),
             ("lua", "n-sieve", "baseline"),
             ("lua", "fibo", "typed"),
             ("js", "fibo", "baseline")]
    for cell in cells:
        _run(cell)
    assert counts == {("lua", "baseline"): 1, ("lua", "typed"): 1,
                      ("js", "baseline"): 1}
    for engine, config in counts:
        program, _attribution = _VMS[engine].interpreter_program(config)
        assert block_table(program, DEFAULT_CONFIG).compiled > 0
    # A warm re-run shares everything: zero further assemblies.
    for cell in cells:
        _run(cell)
    assert sum(counts.values()) == 3


def test_batch_cells_isolated_despite_shared_tables(monkeypatch):
    """The same cell twice in one process — with another cell of its
    pair between them, and against a run on cold tables — must agree
    bit for bit: per-run state never leaks through the shared
    block/trace tables."""
    cell = ("lua", "fibo", "baseline")
    first = _run(cell)
    _run(("lua", "n-sieve", "baseline"))
    again = _run(cell)
    _cold_assembly_counts(monkeypatch)
    cold = _run(cell)
    for record in (again, cold):
        assert record.output == first.output
        assert record.counters.as_dict() == first.counters.as_dict()
