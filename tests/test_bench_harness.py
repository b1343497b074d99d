"""Tests for the benchmark runner, experiment aggregation and reports."""

import pytest

from repro.bench import experiments
from repro.bench.report import format_percent, format_table
from repro.bench.runner import (
    clear_cache,
    run_benchmark,
    run_matrix,
    verify_outputs_match,
)
from repro.cli import build_parser
from repro.engines import BASELINE, CHECKED_LOAD, CONFIGS, TYPED

SMALL = ("fibo", "n-sieve")
SCALES = {"fibo": 8, "n-sieve": 60}


@pytest.fixture(scope="module")
def records():
    clear_cache()
    return run_matrix(benchmarks=SMALL, scales=SCALES)


def test_matrix_covers_all_cells(records):
    assert len(records) == 2 * len(SMALL) * len(CONFIGS)
    for (engine, benchmark, config), record in records.items():
        assert record.engine == engine
        assert record.benchmark == benchmark
        assert record.counters.cycles > 0


def test_run_benchmark_caches(records):
    first = run_benchmark("lua", "fibo", BASELINE, scale=SCALES["fibo"])
    second = run_benchmark("lua", "fibo", BASELINE, scale=SCALES["fibo"])
    assert first is second
    fresh = run_benchmark("lua", "fibo", BASELINE, scale=SCALES["fibo"],
                          use_cache=False)
    assert fresh is not first
    assert fresh.output == first.output


def test_verify_outputs_match_detects_divergence(records):
    assert verify_outputs_match(records) == []
    poisoned = dict(records)
    key = ("lua", "fibo", TYPED)
    import copy
    bad = copy.copy(poisoned[key])
    bad.output = "divergent!"
    poisoned[key] = bad
    assert ("lua", "fibo") in verify_outputs_match(poisoned)


def test_figure5_structure(records):
    speedups = experiments.figure5.__globals__  # noqa: F841 sanity import
    data = _figure_subset(experiments.figure5, records)
    for engine in ("lua", "js"):
        assert data[engine]["geomean"][BASELINE] == pytest.approx(1.0)
        assert data[engine]["geomean"][TYPED] > 1.0


def _figure_subset(figure_fn, records):
    """Run a figure over the reduced benchmark set."""
    import repro.bench.experiments as exp
    original = exp.BENCHMARK_ORDER
    exp.BENCHMARK_ORDER = SMALL
    try:
        return figure_fn(records)
    finally:
        exp.BENCHMARK_ORDER = original


def test_figure6_reduction_positive(records):
    data = _figure_subset(experiments.figure6, records)
    for engine in ("lua", "js"):
        for name in SMALL:
            assert data[engine][name][TYPED] > 0
            assert data[engine][name][BASELINE] == 0.0


def test_figure9_normalisation(records):
    data = _figure_subset(experiments.figure9, records)
    for engine in ("lua", "js"):
        for name in SMALL:
            values = data[engine][name]
            assert values["typed_hit"] > 0
            assert values["typed_miss"] == 0  # monomorphic kernels
            assert values["chklb_hit"] > 0


def test_figure2a_fractions_sum_to_one(records):
    data = _figure_subset(experiments.figure2a, records)
    for name in SMALL:
        assert sum(data[name].values()) == pytest.approx(1.0)


def test_figure2b_dispatch_share_included(records):
    data = _figure_subset(experiments.figure2b, records)
    add = data["ADD"]
    assert add["executions"] > 0
    assert add["per_bytecode"] > 7  # at least the dispatch sequence


def test_table8_uses_measured_speedups(records):
    data = _figure_subset(experiments.figure5, records)
    speedups = {engine: data[engine]["geomean"][TYPED]
                for engine in ("lua", "js")}
    summary, text = experiments.table8(speedups=speedups)
    assert summary["speedups"] == speedups
    assert "Core" in text
    assert summary["edp_improvement"]["lua"] == pytest.approx(
        1 - (1 + summary["power_overhead"]) / speedups["lua"] ** 2)


def test_geomean():
    assert experiments.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert experiments.geomean([]) == 0.0


# -- report formatting -----------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["name", "value"], [("a", 1.5), ("long-name", 22)])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert all(len(line) <= len(max(lines, key=len)) for line in lines)
    assert "1.500" in text


def test_format_percent():
    assert format_percent(0.125) == "12.5%"
    assert format_percent(0.05, signed=True) == "+5.0%"
    assert format_percent(-0.05, signed=True) == "-5.0%"


# -- CLI -------------------------------------------------------------------------

def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "fibo", "--config", "typed",
                              "--scale", "6"])
    assert args.benchmark == "fibo"
    assert args.config == "typed"
    args = parser.parse_args(["sweep", "--quick"])
    assert args.quick
    args = parser.parse_args(["tables"])
    assert args.command == "tables"


def test_cli_run_executes(capsys):
    from repro.cli import main
    assert main(["run", "fibo", "--scale", "6", "--config",
                 CHECKED_LOAD]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("8\n")  # fib(6)
    assert "cycles" in captured


def test_cli_tables(capsys):
    from repro.cli import main
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 8" in out


def test_figure9_detail_per_bytecode(records):
    data = _figure_subset(experiments.figure9_detail, records)
    assert "ADD" in data
    assert data["ADD"]["executions"] > 0
    assert data["ADD"]["hit_rate"] > 0.9
    assert data["ADD"]["miss_rate"] == 0.0
    text = experiments.render_figure9_detail(data)
    assert "ADD" in text


def test_to_json_snapshot_is_serialisable(records):
    import json
    snapshot = _figure_subset(experiments.to_json, records)
    encoded = json.dumps(snapshot, sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["geomeans"]["lua"]["typed"] > 1.0
    assert set(decoded) >= {"figure2a", "figure5", "figure6", "figure7",
                            "figure8", "figure9", "table8"}


def test_cli_profile(capsys):
    from repro.cli import main
    assert main(["profile", "fibo", "--scale", "6", "--top", "5",
                 "--buckets"]) == 0
    out = capsys.readouterr().out
    assert "Per-opcode flat profile" in out
    assert "Type Rule Table attribution" in out
    assert "CALL" in out          # the hot table names bytecodes
    assert "dispatch" in out      # --buckets keeps the handler view


def test_cli_sweep_parser_cache_flags():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--jobs", "4", "--no-disk-cache",
                              "--cache-dir", "/tmp/x"])
    assert args.jobs == 4
    assert args.no_disk_cache
    assert args.cache_dir == "/tmp/x"
    args = parser.parse_args(["sweep", "--smoke"])
    assert args.smoke and args.jobs is None


def test_cli_sweep_smoke(capsys):
    """The ``make sweep`` smoke target: one benchmark across every
    registered config, cold then warm, against a throwaway disk
    cache, with the N-config figure 5/9 tables rendered."""
    from repro.cli import main
    from repro.engines import all_configs
    cells = len(all_configs())
    assert main(["sweep", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "warm hits %d/%d" % (cells, cells) in out
    assert "records identical" in out
    assert "sweep smoke: OK" in out
    assert "Figure 5" in out and "Figure 9" in out
    assert "selftag" in out and "typed-lowbit" in out


def test_cli_trace_parser():
    parser = build_parser()
    args = parser.parse_args(["trace", "fibo", "--bytecodes",
                              "--limit", "10"])
    assert args.bytecodes and args.limit == 10
    args = parser.parse_args(["run", "fibo", "--model", "scoreboard"])
    assert args.model == "scoreboard"


def _fresh_fibo(engine, scale):
    """``(vm, cpu, runtime, program)`` for fibo on a freshly prepared
    baseline CPU."""
    from repro.bench.workloads import workload
    from repro.engines.js import vm as js_vm
    from repro.engines.lua import vm as lua_vm
    vm = {"lua": lua_vm, "js": js_vm}[engine]
    source = getattr(workload("fibo"), "%s_source" % engine)(scale)
    return (vm,) + tuple(vm.prepare(source, BASELINE))


@pytest.mark.parametrize("engine", ["lua", "js"])
def test_cli_run_scoreboard_end_to_end(tmp_path, capsys, engine):
    import json

    from repro.cli import main
    from repro.uarch.scoreboard import ScoreboardMachine
    path = tmp_path / "run.json"
    assert main(["run", "fibo", "--scale", "4", "--engine", engine,
                 "--model", "scoreboard", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    _vm, cpu, runtime, _program = _fresh_fibo(engine, 4)
    counters = ScoreboardMachine(cpu).run()
    assert payload["output"] == "".join(runtime.output) == "3\n"
    assert payload["counters"] == json.loads(json.dumps(counters.as_dict()))
    assert capsys.readouterr().out.startswith(
        "3\n--- counters (scoreboard model) ---\n")


@pytest.mark.parametrize("bytecodes", [False, True],
                         ids=["instructions", "bytecodes"])
def test_cli_trace_end_to_end(tmp_path, capsys, bytecodes):
    import json

    from repro.cli import main
    from repro.sim.trace import BytecodeTracer, InstructionTracer
    path = tmp_path / "trace.json"
    argv = ["trace", "fibo", "--limit", "8", "--json", str(path)]
    assert main(argv + (["--bytecodes"] if bytecodes else [])) == 0
    payload = json.loads(path.read_text())
    vm, cpu, _runtime, program = _fresh_fibo("lua", 2)
    if bytecodes:
        attribution = vm.interpreter_program(BASELINE)[1]
        tracer = BytecodeTracer(cpu, {
            program.base + 4 * index: attribution.entry_names[entry]
            for index, entry in enumerate(attribution.entry_of)
            if entry >= 0}, limit=8)
    else:
        tracer = InstructionTracer(cpu, limit=8)
    tracer.run(max_instructions=200_000)
    assert payload["trace"] == tracer.format()
    if bytecodes:
        assert payload["counts"] == dict(tracer.counts)
        assert sum(tracer.counts.values()) > 8
    else:
        assert "counts" not in payload
        assert len(tracer.entries) == 8
    assert tracer.format() in capsys.readouterr().out
