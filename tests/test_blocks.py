"""The basic-block superinstruction engine (:mod:`repro.sim.blocks`),
the trace engine's cold path, and engine selection.

The contract is strict: counters, cycles and architectural state must
be bit-identical to the reference per-instruction loop for every
program, and the compiled engine must silently stand aside whenever
something needs per-instruction visibility.  The differential tests
here enforce the contract over the full benchmark matrix (at reduced
input scales); block-shape unit tests pin the discovery rules.
"""

import pytest

from repro.bench.runner import ENGINES, run_benchmark
from repro.bench.workloads import BENCHMARK_ORDER, WORKLOADS
from repro.engines import CONFIGS
from repro.engines.js import vm as js_vm
from repro.engines.lua import vm as lua_vm
from repro.isa.assembler import assemble
from repro.sim.blocks import MAX_BLOCK_LEN, block_table
from repro.sim.cpu import Cpu
from repro.sim.errors import ExecutionLimitExceeded
from repro.sim.memory import Memory
from repro.telemetry import Telemetry, attach_cpu
from repro.uarch.pipeline import DEFAULT_CONFIG, Machine


def _machine(text, **kwargs):
    cpu = Cpu(assemble(text), Memory(size=1 << 16))
    return cpu, Machine(cpu, **kwargs)


# -- block discovery -------------------------------------------------------------

def test_blocks_end_at_terminators():
    program = assemble("""
        addi a0, zero, 1
        addi a1, zero, 2
        jal ra, after
    after:
        addi a2, zero, 3
        ebreak
    """)
    table = block_table(program, DEFAULT_CONFIG)
    assert len(table.blocks) == 5
    assert table.block_at(0)[1] == 3     # addi, addi, jal
    assert table.block_at(3)[1] == 2     # addi, ebreak
    assert table.block_at(4)[1] == 1     # ebreak alone


def test_blocks_capped_at_max_len():
    text = "\n".join(["addi a0, a0, 1"] * (MAX_BLOCK_LEN + 20)) + "\nebreak"
    table = block_table(assemble(text), DEFAULT_CONFIG)
    assert table.block_at(0)[1] == MAX_BLOCK_LEN
    # A block starting mid-stream still runs to the real terminator.
    assert table.block_at(MAX_BLOCK_LEN)[1] == 21


def test_blocks_compiled_lazily_and_cached():
    program = assemble("addi a0, zero, 7\nebreak")
    table = block_table(program, DEFAULT_CONFIG)
    assert table.compiled == 0
    first = table.block_at(0)
    assert table.compiled == 1
    assert table.block_at(0) is first
    assert table.compiled == 1


def test_block_table_shared_per_program_and_config():
    program = assemble("addi a0, zero, 7\nebreak")
    assert block_table(program, DEFAULT_CONFIG) \
        is block_table(program, DEFAULT_CONFIG)


def test_single_at_is_one_instruction():
    program = assemble("addi a0, zero, 1\naddi a1, zero, 2\nebreak")
    table = block_table(program, DEFAULT_CONFIG)
    assert table.single_at(0)[1] == 1
    assert table.single_at(0) is table.single_at(0)


# -- engine selection ------------------------------------------------------------

_LOOP = """
    addi a0, zero, 50
    addi a1, zero, 0
loop:
    add a1, a1, a0
    addi a0, a0, -1
    bne a0, zero, loop
    ebreak
"""


def test_blocks_used_by_default(monkeypatch):
    _cpu, machine = _machine(_LOOP)
    monkeypatch.setattr(Machine, "run_reference", _boom)
    machine.run(max_instructions=1_000)


def test_attribution_forces_interpreter(monkeypatch):
    attribution = lua_vm.interpreter_program("baseline")[1]
    _cpu, machine = _machine(_LOOP, attribution=attribution)
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    machine.run(max_instructions=1_000)


def test_cpu_step_shadow_forces_interpreter(monkeypatch):
    cpu, machine = _machine(_LOOP)
    cpu.step = cpu.step  # an instance shadow, as tracers install
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    machine.run(max_instructions=1_000)


def test_rebound_trt_lookup_forces_interpreter(monkeypatch):
    """Blocks and traces inline the TRT probe, so an instance-rebound
    ``trt.lookup`` (telemetry) selects the reference loop."""
    cpu, machine = _machine(_LOOP)
    cpu.trt.lookup = cpu.trt.lookup  # instance shadow, telemetry-style
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    machine.run(max_instructions=1_000)


def test_trt_only_telemetry_matches_plain_run():
    """``trt``-only telemetry rebinds ``trt.lookup`` but leaves
    ``cpu.telemetry`` unset and attaches nothing to the machine: the
    run must still see every TRT hit per key, with the counters of a
    plain (trace-engine) run."""
    source = ("local s = 0\n"
              "for i = 1, 200 do s = s + i * 2 end\n"
              "print(s)\n")
    runs = []
    for telemetry in (None, Telemetry(categories={"trt"})):
        cpu, runtime, _program = lua_vm.prepare(source, config="typed")
        attach_cpu(telemetry, cpu)
        counters = Machine(cpu).run(max_instructions=20_000_000)
        runs.append((cpu, counters, "".join(runtime.output)))
    (_, plain, plain_output), (cpu, counters, output) = runs
    assert cpu.telemetry is None
    assert output == plain_output
    assert counters.as_dict() == plain.as_dict()
    assert cpu.trt.hits > 0
    assert sum(cpu.trt.hit_keys.values()) == cpu.trt.hits


def _boom(*_args, **_kwargs):
    raise AssertionError("wrong engine selected")


# -- differential: simple programs ----------------------------------------------

def _run_both(text, max_instructions=1_000_000):
    cpu_ref, machine_ref = _machine(text)
    ref = machine_ref.run_reference(max_instructions=max_instructions)
    cpu_blk, machine_blk = _machine(text)
    blk = machine_blk.run(max_instructions=max_instructions)
    return (cpu_ref, ref), (cpu_blk, blk)


def test_differential_loop_program():
    (cpu_ref, ref), (cpu_blk, blk) = _run_both(_LOOP)
    assert blk.as_dict() == ref.as_dict()
    assert cpu_blk.regs.value == cpu_ref.regs.value
    assert cpu_blk.mem.data == cpu_ref.mem.data


def test_execution_limit_trips_identically():
    spin = "spin:\naddi a0, a0, 1\njal zero, spin"
    cpu_ref, machine_ref = _machine(spin)
    with pytest.raises(ExecutionLimitExceeded):
        machine_ref.run_reference(max_instructions=777)
    cpu_blk, machine_blk = _machine(spin)
    with pytest.raises(ExecutionLimitExceeded):
        machine_blk.run(max_instructions=777)
    assert cpu_blk.instret == cpu_ref.instret == 777
    assert cpu_blk.pc == cpu_ref.pc
    assert cpu_blk.regs.value == cpu_ref.regs.value


def test_thdl_deopt_differential():
    """The path selector mutates hot-site stats mid-run; the compiled
    engine must replicate its redirects and counter effects exactly."""
    outputs, counters, cpus = [], [], []
    for run in (Machine.run_reference, Machine.run):
        cpu, runtime, _program = lua_vm.prepare(
            "local s = 0\n"
            "local t = {}\n"
            "for i = 1, 60 do\n"
            "  if i % 2 == 0 then t[i] = i else t[i] = i + 0.5 end\n"
            "end\n"
            "for i = 1, 59 do s = s + (t[i] + t[i + 1]) end\n"
            "print(s)\n", config="typed")
        cpu.deopt_threshold = 0.5
        counters.append(run(Machine(cpu), max_instructions=20_000_000))
        outputs.append("".join(runtime.output))
        cpus.append(cpu)
    assert outputs[0] == outputs[1]
    assert counters[0].as_dict() == counters[1].as_dict()
    assert cpus[0].deopt_redirects == cpus[1].deopt_redirects
    assert cpus[1].deopt_redirects > 0  # the selector actually fired


# -- differential: the full benchmark matrix -------------------------------------
# Every guest engine x benchmark x registered config.  Reduced input
# scales keep the sweep tractable in tier-1; the full-scale version is
# tools/perfbench.py (which asserts the same counter identity on every
# cell it measures).

_SCALES = {
    "ackermann": 2,
    "binary-trees": 4,
    "fannkuch-redux": 4,
    "fibo": 8,
    "k-nucleotide": 30,
    "mandelbrot": 4,
    "n-body": 5,
    "n-sieve": 150,
    "pidigits": 5,
    "random": 200,
    "spectral-norm": 3,
}

_CELLS = [(engine, benchmark, config)
          for engine in ENGINES
          for benchmark in BENCHMARK_ORDER
          for config in CONFIGS]


# the arg is named "workload" because pytest-benchmark owns "benchmark"
@pytest.mark.parametrize(("engine", "workload", "config"), _CELLS,
                         ids=["%s-%s-%s" % cell for cell in _CELLS])
def test_differential_benchmark_matrix(engine, workload, config):
    """The reference loop and the trace engine agree on output and
    every counter."""
    vm = lua_vm if engine == "lua" else js_vm
    source = getattr(WORKLOADS[workload],
                     "%s_source" % engine)(_SCALES[workload])
    cpu, runtime, _program = vm.prepare(source, config)
    reference = Machine(cpu).run_reference()
    record = run_benchmark(engine, workload, config,
                           scale=_SCALES[workload], use_cache=False,
                           attribute=False)
    assert record.output == "".join(runtime.output)
    assert record.counters.as_dict() == reference.as_dict()


def test_blocks_do_not_perturb_attribution_runs():
    """An attributed run (which the compiled engine must refuse) still
    matches an attribution-free trace-engine run counter for counter."""
    attributed = run_benchmark("lua", "fibo", "typed", scale=8,
                               use_cache=False)
    plain = run_benchmark("lua", "fibo", "typed", scale=8,
                          use_cache=False, attribute=False)
    assert attributed.output == plain.output
    assert attributed.counters.cycles == plain.counters.cycles
    assert attributed.counters.instructions == plain.counters.instructions
