#!/usr/bin/env python3
"""Simulator-performance benchmark: the reference loop against the
engines ``Machine.run`` selects.

Runs the figure-5 sweep cells fresh (caches bypassed) in five
columns:

* attribution off: the per-instruction reference loop
  (``Machine.run_reference``, the ``legacy`` column) against the
  superblock trace engine, warm (``traces``) and on the cell's first
  run (``cold``: empty block and trace tables for its interpreter
  program, with the seconds spent compiling blocks and traces);
* attribution on, as every sweep and served request runs: the
  attributed reference loop (``attributed_legacy``) against the
  attributed block engine (``attributed_blocks``).

It reports host wall-clock, simulated MIPS and the per-cell speedups
over the matching reference loop, plus overall and per-config
geometric means.  Along the way it verifies that every compiled run
produced counters (every attribution breakdown included) and output
bit-identical to its reference run, and that the trace and attributed
block engines really ran.

Writes ``BENCH_simperf.json`` (override with ``--out``), stamped with
the package schema version and the ``simperf`` artifact kind
(:mod:`repro.schema`), so the perf trajectory of the simulator itself
is trackable run over run; CI runs ``--smoke`` (a pinned 6-cell
subset — deliberately *not* derived from the live registry, which can
grow) and uploads the JSON as an artifact.

``--compare PRIOR`` diffs the freshly measured aggregate against a
previously written artifact.  Unstamped or version/kind-mismatched
priors are refused outright: a cross-version comparison would blame
schema drift on the simulator.

Usage:
    PYTHONPATH=src python tools/perfbench.py [--smoke] [--out PATH]
        [--configs A,B,..] [--compare PRIOR] [--min-speedup X]

Exit status is non-zero when any cell's counters differ from its
reference run (the cold run included) or its trace or attributed block
engine did not run cleanly, when the warm trace or attributed block
speedup geomean is under ``--min-speedup``, or when ``--compare`` is
given an unusable prior artifact.
"""

import argparse
import json
import math
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import api, schema  # noqa: E402
from repro.bench.runner import ENGINES, resolve_scale  # noqa: E402
from repro.bench.workloads import BENCHMARK_ORDER, workload  # noqa: E402
from repro.engines import CONFIGS  # noqa: E402
from repro.sim.blocks import block_table  # noqa: E402
from repro.sim.traces import trace_table  # noqa: E402

#: Artifact family for ``BENCH_simperf.json`` (see repro.schema).
ARTIFACT_KIND = "simperf"

#: --smoke subset: small scales, both guest engines, a typed and a
#: baseline config each — a pinned, explicit list so CI timing stays
#: put even as the config registry grows (it has doubled once
#: already).
SMOKE_CELLS = [
    ("lua", "fibo", "baseline", 8),
    ("lua", "fibo", "typed", 8),
    ("lua", "n-sieve", "typed", 200),
    ("js", "fibo", "baseline", 8),
    ("js", "fibo", "typed", 8),
    ("js", "n-sieve", "typed", 200),
]


def full_cells(configs=None):
    """The figure-5 sweep: every engine x benchmark x config at the
    default input scales (optionally restricted to ``configs``)."""
    selected = list(configs) if configs else list(CONFIGS)
    return [(engine, benchmark, config, None)
            for engine in ENGINES
            for benchmark in BENCHMARK_ORDER
            for config in selected]


def _ratio(numerator, denominator):
    return round(numerator / denominator, 3) if denominator else 0.0


#: Warm passes per cell for the trace engine: trace formation is
#: profile-driven and adaptive (record, evaluate, retire, re-record),
#: so peak state is reached after a couple of runs, not one.  Warm-up
#: stops early once a run is within :data:`WARM_CONVERGED` of the
#: previous one.
MAX_WARM_RUNS = 3
WARM_CONVERGED = 0.85


def _run(engine, source, config, reference=False, attribute=False):
    """One run of ``source``; returns ``(machine, output, seconds)``.
    The reference columns call ``Machine.run_reference``, the others
    ``Machine.run`` (which picks the trace engine, or the block engine
    under attribution); all are timed over the span
    ``api._engine_run`` times, its ``api._prepare`` set-up (guest
    compile and interpreter assembly) included."""
    started = time.perf_counter()
    machine, runtime = api._prepare(engine, source, config=config,
                                    attribute=attribute)
    (machine.run_reference if reference else machine.run)(
        api.DEFAULT_MAX_INSTRUCTIONS)
    return machine, "".join(runtime.output), time.perf_counter() - started


def _cold_run(engine, source, config):
    """The cell's first run: ``Machine.run`` on empty block and trace
    tables for its interpreter program, which is already assembled.

    The program's shared tables are set aside for the run and put back
    after it, so the other columns run as if it had not happened.
    Returns ``(machine, output, seconds, block compile seconds, trace
    compile seconds)``."""
    from repro.sim import blocks, traces

    program = api._vm(engine).interpreter_program(config)[0]
    shared = (blocks._TABLES, traces._TABLES)
    kept = [tables.pop(program, None) for tables in shared]
    try:
        machine, output, seconds = _run(engine, source, config)
        table = trace_table(program, machine.config, source)
        return (machine, output, seconds, table.blocks.compile_seconds,
                table.compile_seconds)
    finally:
        for tables, entry in zip(shared, kept):
            tables.pop(program, None)
            if entry is not None:
                tables[program] = entry


def _measure_cell(engine, benchmark, config, scale):
    """Run one cell cold, warm the trace engine, then run it on the
    other four columns.

    The warm passes (the trace engine only — the reference loop keeps
    no cross-run state) pay block/trace compilation up front, so the
    measured runs see peak state.  The trace engine warms until
    converged: profile-driven formation keeps adapting (retiring
    unprofitable traces, recording the paths hot in later workload
    phases) for a run or two before its table reaches a fixed point.
    The attributed block run gets no warm pass of its own: it runs on
    the block table the trace engine filled and builds its attribution
    summaries as it goes, as the first attributed run of a cell in a
    warm sweep process does.
    """
    scale = resolve_scale(benchmark, scale)
    source = workload(benchmark).source(engine, scale)
    cold, cold_output, cold_seconds, *cold_compile = _cold_run(
        engine, source, config)
    previous = None
    for _warm in range(MAX_WARM_RUNS):
        seconds = _run(engine, source, config)[2]
        if previous is not None and seconds >= WARM_CONVERGED * previous:
            break
        previous = seconds
    reference, output, seconds = _run(engine, source, config, True)
    traced, traced_output, traced_seconds = _run(engine, source, config)
    attributed, attributed_output, attributed_seconds = _run(
        engine, source, config, True, attribute=True)
    blocks, blocks_output, blocks_seconds = _run(
        engine, source, config, attribute=True)
    instructions = reference.counters.instructions
    # The trace engine ran the cell cleanly: its block table compiled
    # blocks and neither table recorded a compile failure.
    table = trace_table(traced.cpu.program, traced.config, source)
    # The attributed run went through Machine._run_blocks, the only
    # caller of BlockTable.attributed: its units for this attribution
    # map hold the unit at the program's first instruction.
    units = block_table(blocks.cpu.program, blocks.config).attributed(
        blocks.attribution)
    return {
        "engine": engine,
        "benchmark": benchmark,
        "config": config,
        "scale": scale,
        "instructions": instructions,
        "identical": (traced.counters.as_dict()
                      == reference.counters.as_dict()
                      and traced_output == output),
        "identical_cold": (cold.counters.as_dict()
                           == reference.counters.as_dict()
                           and cold_output == output),
        "identical_attributed": (blocks.counters.as_dict()
                                 == attributed.counters.as_dict()
                                 and blocks_output == attributed_output
                                 and attributed_output == output),
        "traces_ran": (table.blocks.compiled >= 1
                       and table.blocks.compile_failures == 0
                       and table.trace_failures == 0),
        "blocks_ran": (units.units[0] is not None
                       and table.blocks.compile_failures == 0),
        "seconds_legacy": round(seconds, 4),
        "seconds_traces": round(traced_seconds, 4),
        "seconds_cold": round(cold_seconds, 4),
        "seconds_cold_block_compile": round(cold_compile[0], 4),
        "seconds_cold_trace_compile": round(cold_compile[1], 4),
        "seconds_attributed_legacy": round(attributed_seconds, 4),
        "seconds_attributed_blocks": round(blocks_seconds, 4),
        "mips_legacy": round(instructions / seconds / 1e6, 3),
        "mips_traces": round(instructions / traced_seconds / 1e6, 3),
        "mips_cold": round(instructions / cold_seconds / 1e6, 3),
        "mips_attributed_legacy": round(
            instructions / attributed_seconds / 1e6, 3),
        "mips_attributed_blocks": round(
            instructions / blocks_seconds / 1e6, 3),
        "speedup_traces": _ratio(seconds, traced_seconds),
        "speedup_cold": _ratio(seconds, cold_seconds),
        "speedup_attributed_blocks": _ratio(attributed_seconds,
                                            blocks_seconds),
    }


def _verdict(row):
    if not row["identical"]:
        return "COUNTER MISMATCH"
    if not row["identical_cold"]:
        return "COLD COUNTER MISMATCH"
    if not row["identical_attributed"]:
        return "ATTRIBUTED COUNTER MISMATCH"
    if not row["traces_ran"]:
        return "TRACE ENGINE DID NOT RUN"
    return "ok" if row["blocks_ran"] else "BLOCK ENGINE DID NOT RUN"


def measure(cells, echo=print):
    results = []
    for index, (engine, benchmark, config, scale) in enumerate(cells):
        row = _measure_cell(engine, benchmark, config, scale)
        results.append(row)
        echo("[%3d/%d] %-3s %-15s %-12s  %6.2fs -> %6.2fs  "
             "traces %5.2fx  cold %5.2fx | attributed %6.2fs -> %6.2fs  "
             "blocks %5.2fx  %s"
             % (index + 1, len(cells), engine, benchmark, config,
                row["seconds_legacy"], row["seconds_traces"],
                row["speedup_traces"], row["speedup_cold"],
                row["seconds_attributed_legacy"],
                row["seconds_attributed_blocks"],
                row["speedup_attributed_blocks"], _verdict(row)))
    return results


#: Timed columns, the compiled engines' speedups over their reference
#: loop, and those ``--min-speedup`` gates (a smoke cell's cold run is
#: mostly compiling, so the cold figure is reported, not gated).
_COLUMNS = ("legacy", "traces", "cold", "attributed_legacy",
            "attributed_blocks")
_SPEEDUPS = ("traces", "cold", "attributed_blocks")
_GATED = ("traces", "attributed_blocks")


def _geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def aggregate(results):
    summary = {
        "cells": len(results),
        "identical": all(cell["identical"] for cell in results),
        "identical_cold": all(cell["identical_cold"] for cell in results),
        "identical_attributed": all(cell["identical_attributed"]
                                    for cell in results),
        "traces_ran": all(cell["traces_ran"] for cell in results),
        "blocks_ran": all(cell["blocks_ran"] for cell in results),
        "total_instructions": sum(c["instructions"] for c in results),
    }
    for name in ("block", "trace"):
        key = "seconds_cold_%s_compile" % name
        summary["total_" + key] = round(sum(c[key] for c in results), 2)
    for name in _SPEEDUPS:
        summary["geomean_speedup_%s" % name] = round(
            _geomean([c["speedup_%s" % name] for c in results]), 3)
    # ``legacy`` is the reference loop; its geomean MIPS anchors the
    # advisory host-throughput floor (repro.bench.gate.check_host_floor).
    for name in _COLUMNS:
        seconds = sum(c["seconds_%s" % name] for c in results)
        summary["total_seconds_%s" % name] = round(seconds, 2)
        summary["mips_%s" % name] = round(
            summary["total_instructions"] / seconds / 1e6, 3) \
            if seconds else 0.0
        summary["geomean_mips_%s" % name] = round(
            _geomean([c["mips_%s" % name] for c in results]), 3)
    per_config = {}
    for config in sorted({c["config"] for c in results}):
        rows = [c for c in results if c["config"] == config]
        per_config[config] = {"cells": len(rows)}
        for name in _SPEEDUPS:
            per_config[config]["geomean_speedup_%s" % name] = round(
                _geomean([c["speedup_%s" % name] for c in rows]), 3)
    summary["per_config"] = per_config
    return summary


def load_prior(path):
    """Load and validate a prior artifact for --compare.

    Raises :class:`repro.schema.SchemaError` (or ``OSError``/
    ``ValueError`` for unreadable files) when the prior is unstamped
    or from another schema version/artifact family — comparing across
    schema drift would produce garbage deltas, so it is refused, not
    papered over.
    """
    with open(path) as handle:
        payload = json.load(handle)
    return schema.require_artifact(payload, ARTIFACT_KIND)


def compare_with(prior, summary, echo=print):
    """Print aggregate deltas current-vs-prior."""
    base = prior.get("aggregate", {})
    echo("\ncomparison against prior artifact (mode=%s, %s cells):"
         % (prior.get("mode"), base.get("cells")))
    for metric in ("geomean_speedup_traces", "geomean_mips_traces",
                   "mips_traces", "mips_legacy", "geomean_speedup_cold",
                   "mips_cold",
                   "geomean_speedup_attributed_blocks",
                   "mips_attributed_blocks", "mips_attributed_legacy"):
        old = base.get(metric)
        new = summary.get(metric)
        if old is None or new is None:
            continue
        delta = (new / old - 1.0) * 100.0 if old else float("inf")
        echo("  %-32s %10.3f -> %10.3f  (%+.1f%%)"
             % (metric, old, new, delta))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="reference loop vs trace engine and attributed "
                    "block engine simulator benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="pinned 6-cell subset for CI (seconds, "
                             "not minutes)")
    parser.add_argument("--configs", metavar="A,B,..",
                        help="comma-separated config subset for the "
                             "full sweep (default: every registered "
                             "config)")
    parser.add_argument("--out", metavar="PATH",
                        default="BENCH_simperf.json")
    parser.add_argument("--compare", metavar="PRIOR",
                        help="print aggregate deltas against a prior "
                             "stamped artifact (refused when the prior "
                             "is unstamped or version-mismatched)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail when the warm traces-vs-reference "
                             "or the attributed blocks-vs-reference "
                             "geomean is below this (e.g. 1.5)")
    args = parser.parse_args(argv)

    if args.configs:
        selected = [c.strip() for c in args.configs.split(",") if c.strip()]
        unknown = [c for c in selected if c not in CONFIGS]
        if unknown:
            parser.error("unknown config(s): %s (registered: %s)"
                         % (", ".join(unknown), ", ".join(CONFIGS)))
    else:
        selected = None

    prior = None
    if args.compare:
        try:
            prior = load_prior(args.compare)
        except (OSError, ValueError, schema.SchemaError) as err:
            print("perfbench: refusing to compare against %s: %s"
                  % (args.compare, err))
            return 2

    cells = SMOKE_CELLS if args.smoke else full_cells(selected)
    print("perfbench: %d cells (%s mode), cold + warm + 4-column measure "
          "per cell..." % (len(cells), "smoke" if args.smoke else "full"))
    started = time.time()
    results = measure(cells)
    summary = aggregate(results)

    payload = schema.artifact(ARTIFACT_KIND, {
        "mode": "smoke" if args.smoke else "full",
        "configs": sorted({c["config"] for c in results}),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": int(started),
        "cells": results,
        "aggregate": summary,
    })
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print("\nwrote %s" % args.out)
    print("geomean speedup: traces %.2fx | %.2f -> %.2f MIPS | "
          "counters %s"
          % (summary["geomean_speedup_traces"], summary["mips_legacy"],
             summary["mips_traces"],
             "identical" if summary["identical"] else "MISMATCH"))
    print("cold first run:  traces %.2fx | %.2f MIPS | compile %.2fs "
          "blocks, %.2fs traces | counters %s"
          % (summary["geomean_speedup_cold"], summary["mips_cold"],
             summary["total_seconds_cold_block_compile"],
             summary["total_seconds_cold_trace_compile"],
             "identical" if summary["identical_cold"] else "MISMATCH"))
    print("attributed:      blocks %.2fx | %.2f -> %.2f MIPS | "
          "counters %s"
          % (summary["geomean_speedup_attributed_blocks"],
             summary["mips_attributed_legacy"],
             summary["mips_attributed_blocks"],
             "identical" if summary["identical_attributed"]
             else "MISMATCH"))
    for config, stats in summary["per_config"].items():
        print("  %-12s traces %5.2fx  cold %5.2fx  attributed blocks "
              "%5.2fx  (%d cells)"
              % (config, stats["geomean_speedup_traces"],
                 stats["geomean_speedup_cold"],
                 stats["geomean_speedup_attributed_blocks"],
                 stats["cells"]))
    if prior is not None:
        compare_with(prior, summary)

    if not (summary["identical"] and summary["identical_cold"]
            and summary["identical_attributed"]):
        print("perfbench: FAILED (counter mismatch)")
        return 1
    if not summary["traces_ran"]:
        print("perfbench: FAILED (trace engine did not run cleanly)")
        return 1
    if not summary["blocks_ran"]:
        print("perfbench: FAILED (attributed run did not take the "
              "block engine)")
        return 1
    if args.min_speedup is not None:
        for name in _GATED:
            value = summary["geomean_speedup_%s" % name]
            if value < args.min_speedup:
                print("perfbench: FAILED (%s geomean %.2fx < %.2fx)"
                      % (name, value, args.min_speedup))
                return 1
    print("perfbench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
