"""Regenerate every table and figure of the paper's evaluation.

Each ``figureN``/``tableN`` function aggregates a run matrix (see
:func:`repro.bench.runner.run_matrix`) into the same rows/series the
paper reports, plus a text rendering.  Absolute numbers come from the
timing-approximate simulator, so the claims under test are the *shapes*:
orderings, rough factors and crossovers (see EXPERIMENTS.md).
"""

import math

from repro.bench.report import format_percent, format_table
from repro.bench.runner import ENGINES
from repro.bench.workloads import BENCHMARK_ORDER, WORKLOADS
from repro.engines import BASELINE, TYPED, configs as registry
from repro.hw.synthesis import edp_improvement, synthesize
from repro.uarch.config import table6_rows


def sweep(engines=ENGINES, benchmarks=None, configs=None, scales=None,
          jobs=None, use_cache=True, progress=None):
    """The one sweep behind every figure: cache-aware and sharded.

    Thin front door over :func:`repro.bench.parallel.run_matrix_parallel`
    — resolves disk-cache hits first, shards the misses over ``jobs``
    workers (default: all cores), and returns the canonical
    ``{(engine, benchmark, config): record}`` dict.  Misses are
    scheduled grouped by ``(engine, config)``, so cells sharing an
    assembled interpreter and its predecoded block/trace tables run
    back to back.
    With the disk cache configured (see :mod:`repro.bench.cache`),
    concurrent pytest processes and repeat invocations share one sweep.
    """
    from repro.bench.parallel import run_matrix_parallel
    return run_matrix_parallel(
        engines=engines, benchmarks=benchmarks or BENCHMARK_ORDER,
        configs=configs if configs is not None else registry.all_configs(),
        scales=scales, max_workers=jobs,
        use_cache=use_cache, progress=progress)


def matrix_axes(records):
    """The (engines, benchmarks, configs) actually present in a record
    dict, each in canonical order (registry order for configs, with any
    unregistered leftovers appended alphabetically).  Every figure
    derives its axes from this, so subsets — a single benchmark, or a
    sweep over extra registered schemes — render without the figure
    code hard-coding the paper's triple."""
    engines = [e for e in ENGINES if any(k[0] == e for k in records)]
    engines += sorted({k[0] for k in records} - set(engines))
    benchmarks = [b for b in BENCHMARK_ORDER if any(k[1] == b
                                                    for k in records)]
    benchmarks += sorted({k[1] for k in records} - set(benchmarks))
    present = {k[2] for k in records}
    ordered = [c for c in registry.all_configs() if c in present]
    ordered += sorted(present - set(ordered))
    return engines, benchmarks, ordered


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- Table 1: IoT device platforms (static survey data) -----------------------

TABLE1_PLATFORMS = [
    ("", "SAMA5D3", "Galileo Gen 2", "Arduino Yun", "LaunchPad",
     "ARM mbed"),
    ("Processor", "ARM Cortex-A5", "Intel Quark X1000", "MIPS 24K",
     "ARM Cortex-M4", "ARM Cortex-M0"),
    ("ISA", "ARMv7-A", "x86 (IA32)", "MIPS32", "ARMv7-M", "ARMv6-M"),
    ("Clock", "536MHz", "400MHz", "400MHz", "80MHz", "48MHz"),
    ("L1 Cache", "64KB", "16KB", "0-64KB", "-", "-"),
    ("Main Memory", "256MB DDR2", "256MB DDR3", "64MB DDR2", "32KB SRAM",
     "8KB SRAM"),
    ("Flash", "256MB", "8MB", "16MB", "256KB", "32KB"),
    ("OS", "Linux", "Yocto Linux", "OpenWrt", "TI RTOS", "mbed OS"),
    ("Power", "0.25-1.85W", "2.6-4W", "0.7-1.5W", "75-225mW",
     "100-110mW"),
    ("Price (2016)", "$159", "$64.99", "$74.95", "$12.99", "$10.32"),
]


def table1():
    """IoT platform survey (motivation; static data from the paper)."""
    headers = list(TABLE1_PLATFORMS[0])
    rows = [list(row) for row in TABLE1_PLATFORMS[1:]]
    return format_table(headers, rows, title="Table 1: IoT device platforms")


def table6():
    """Evaluation parameters."""
    return format_table(["parameter", "value"],
                        [list(row) for row in table6_rows()],
                        title="Table 6: Evaluation parameters")


def table7():
    """Benchmark catalogue with paper vs. simulated inputs."""
    rows = [(name, WORKLOADS[name].paper_input,
             WORKLOADS[name].default_scale, WORKLOADS[name].description)
            for name in BENCHMARK_ORDER]
    return format_table(
        ["benchmark", "paper input", "sim scale", "description"], rows,
        title="Table 7: Benchmarks")


# -- Figure 2: bytecode profile -------------------------------------------------

def figure2a(records, engine="lua"):
    """Dynamic bytecode breakdown per benchmark (baseline runs).

    Returns {benchmark: {opcode: fraction}} over the opcode space.
    """
    breakdown = {}
    _, benchmarks, _ = matrix_axes(records)
    for benchmark in benchmarks:
        counters = records[(engine, benchmark, BASELINE)].counters
        total = sum(counters.bytecode_counts.values())
        breakdown[benchmark] = {
            op: count / total
            for op, count in counters.bytecode_counts.items() if count}
    return breakdown


def render_figure2a(breakdown, top=8):
    rows = []
    for benchmark, fractions in breakdown.items():
        ranked = sorted(fractions.items(),
                        key=lambda kv: (-kv[1], kv[0]))[:top]
        rows.append((benchmark,
                     "  ".join("%s %.1f%%" % (op, 100 * frac)
                               for op, frac in ranked)))
    return format_table(["benchmark", "top dynamic bytecodes"], rows,
                        title="Figure 2(a): dynamic bytecode breakdown")


HOT_BYTECODES = ("ADD", "SUB", "MUL", "GETTABLE", "SETTABLE")
HOT_BYTECODES_JS = ("ADD", "SUB", "MUL", "GETELEM", "SETELEM")


def _bucket_matches(bucket, opcode):
    return bucket == "h_%s" % opcode or bucket.startswith("h_%s__" % opcode)


def figure2b(records, engine="lua", benchmarks=None):
    """Instructions per bytecode for the five hot bytecodes, split by
    execution path (int/int, float/float, table fast path, slow).

    Returns {opcode: {"per_bytecode": float, "paths": {bucket: instrs}}}
    aggregated over ``benchmarks`` at baseline.
    """
    hot = HOT_BYTECODES if engine == "lua" else HOT_BYTECODES_JS
    benchmarks = benchmarks or matrix_axes(records)[1]
    result = {}
    totals = {op: [0, 0] for op in hot}  # instrs, executions
    paths = {op: {} for op in hot}
    dispatch_instrs = 0
    total_bytecodes = 0
    for benchmark in benchmarks:
        counters = records[(engine, benchmark, BASELINE)].counters
        dispatch_instrs += counters.bucket_instructions.get("dispatch", 0)
        total_bytecodes += sum(counters.bytecode_counts.values())
        for op in hot:
            totals[op][1] += counters.bytecode_counts.get(op, 0)
            for bucket, instrs in counters.bucket_instructions.items():
                if _bucket_matches(bucket, op):
                    totals[op][0] += instrs
                    paths[op][bucket] = paths[op].get(bucket, 0) + instrs
    dispatch_share = dispatch_instrs / total_bytecodes if total_bytecodes \
        else 0.0
    for op in hot:
        instrs, executions = totals[op]
        per_bytecode = (instrs / executions + dispatch_share) \
            if executions else 0.0
        result[op] = {"per_bytecode": per_bytecode,
                      "executions": executions,
                      "paths": paths[op]}
    return result


def render_figure2b(data):
    rows = []
    for op, entry in data.items():
        path_text = "  ".join(
            "%s:%d" % (bucket.replace("h_%s" % op, "") or "entry", instrs)
            for bucket, instrs in sorted(entry["paths"].items()))
        rows.append((op, "%.1f" % entry["per_bytecode"],
                     entry["executions"], path_text))
    return format_table(
        ["bytecode", "instrs/bytecode", "executions", "path split"],
        rows, title="Figure 2(b): instructions per hot bytecode "
                    "(incl. dispatch share)")


# -- Figures 5-9: the main evaluation --------------------------------------------

def figure5(records):
    """Speedup over baseline per benchmark and config.

    Returns {engine: {benchmark: {config: speedup}}} with a "geomean"
    pseudo-benchmark per engine.
    """
    speedups = {}
    engines, benchmarks, configs = matrix_axes(records)
    for engine in engines:
        per_engine = {}
        for benchmark in benchmarks:
            base = records[(engine, benchmark, BASELINE)].counters.cycles
            per_engine[benchmark] = {
                config: base
                / records[(engine, benchmark, config)].counters.cycles
                for config in configs
                if (engine, benchmark, config) in records}
        per_engine["geomean"] = {
            config: geomean(per_engine[b][config]
                            for b in benchmarks if config in per_engine[b])
            for config in configs}
        speedups[engine] = per_engine
    return speedups


def _config_columns(data):
    """Column order for a ``{engine: {row: {config: value}}}`` figure:
    the configs present, in registry order, unregistered ones last."""
    seen = []
    for per_engine in data.values():
        for values in per_engine.values():
            for config in values:
                if config not in seen:
                    seen.append(config)
    ordered = [c for c in registry.all_configs() if c in seen]
    return ordered + [c for c in seen if c not in ordered]


def _render_per_config(title, data, formatter):
    lines = []
    columns = _config_columns(data)
    for engine, per_engine in data.items():
        rows = [(benchmark,) + tuple(
            formatter(values[config]) if config in values else "-"
            for config in columns)
                for benchmark, values in per_engine.items()]
        lines.append(format_table(["benchmark"] + list(columns), rows,
                                  title="%s [%s]" % (title, engine)))
    return "\n\n".join(lines)


def render_figure5(speedups):
    from repro.bench.report import format_bars
    tables = _render_per_config(
        "Figure 5: speedup over baseline", speedups,
        lambda value: "%.3fx" % value)
    charts = []
    for engine, per_engine in speedups.items():
        if not all(TYPED in values for values in per_engine.values()):
            continue
        charts.append(format_bars(
            "Typed Architecture speedup [%s]" % engine,
            {name: values[TYPED] for name, values in per_engine.items()},
            unit="x", baseline=1.0))
    return "\n\n".join([tables] + charts)


GRADUAL_CONFIGS = (BASELINE, registry.ELIDED, registry.CHECKED_LOAD, TYPED)


def figure_gradual(records):
    """The gradual-typing figure: how much of the typed-hardware win
    does *static* guard elision recover in software?

    Four-way comparison per engine/benchmark — ``baseline`` (software
    guards) vs ``elided`` (software guards statically removed where the
    tag-inference proof holds, see :mod:`repro.analysis`) vs ``chklb``
    vs ``typed`` — as speedups over baseline, plus a per-row
    ``recovered``: the fraction of the typed-hardware speedup that the
    software-only elision config achieves,

        recovered = (elided_speedup - 1) / (typed_speedup - 1)

    Returns ``{engine: {benchmark: {"speedups": {config: x},
    "recovered": f|None}}}`` with a "geomean" pseudo-benchmark.  Rows
    missing any of the four configs are dropped; ``recovered`` is None
    when the typed win is too small to divide by (< 0.1%).
    """
    data = {}
    engines, benchmarks, _ = matrix_axes(records)
    for engine in engines:
        per_engine = {}
        for benchmark in benchmarks:
            if any((engine, benchmark, c) not in records
                   for c in GRADUAL_CONFIGS):
                continue
            base = records[(engine, benchmark, BASELINE)].counters.cycles
            speedups = {
                c: base / records[(engine, benchmark, c)].counters.cycles
                for c in GRADUAL_CONFIGS}
            per_engine[benchmark] = {
                "speedups": speedups,
                "recovered": _recovered_fraction(speedups)}
        if not per_engine:
            continue
        geo = {c: geomean(row["speedups"][c] for row in per_engine.values())
               for c in GRADUAL_CONFIGS}
        per_engine["geomean"] = {"speedups": geo,
                                 "recovered": _recovered_fraction(geo)}
        data[engine] = per_engine
    return data


def _recovered_fraction(speedups):
    typed_win = speedups[TYPED] - 1.0
    if abs(typed_win) < 1e-3:
        return None
    return (speedups[registry.ELIDED] - 1.0) / typed_win


def render_figure_gradual(data):
    lines = []
    for engine, per_engine in data.items():
        rows = []
        for benchmark, row in per_engine.items():
            recovered = row["recovered"]
            rows.append((benchmark,) + tuple(
                "%.3fx" % row["speedups"][c] for c in GRADUAL_CONFIGS) + (
                format_percent(recovered) if recovered is not None else "-",))
        lines.append(format_table(
            ["benchmark"] + list(GRADUAL_CONFIGS) + ["recovered"],
            rows,
            title="Gradual typing: static elision vs hardware checks "
                  "[%s]" % engine))
    return "\n\n".join(lines)


def figure6(records):
    """Dynamic instruction-count reduction vs. baseline."""
    reductions = {}
    engines, benchmarks, configs = matrix_axes(records)
    for engine in engines:
        per_engine = {}
        for benchmark in benchmarks:
            base = records[(engine, benchmark,
                            BASELINE)].counters.instructions
            per_engine[benchmark] = {
                config: 1.0 - records[(engine, benchmark,
                                       config)].counters.instructions / base
                for config in configs
                if (engine, benchmark, config) in records}
        per_engine["mean"] = {
            config: sum(per_engine[b][config] for b in benchmarks
                        if config in per_engine[b]) / len(benchmarks)
            for config in configs}
        reductions[engine] = per_engine
    return reductions


def render_figure6(reductions):
    return _render_per_config(
        "Figure 6: dynamic instruction reduction", reductions,
        lambda value: format_percent(value, signed=True))


def _mpki_figure(records, attr):
    data = {}
    engines, benchmarks, configs = matrix_axes(records)
    for engine in engines:
        per_engine = {}
        for benchmark in benchmarks:
            per_engine[benchmark] = {
                config: getattr(records[(engine, benchmark,
                                         config)].counters, attr)
                for config in configs
                if (engine, benchmark, config) in records}
        data[engine] = per_engine
    return data


def figure7(records):
    """Branch misses per kilo-instruction per config."""
    return _mpki_figure(records, "branch_mpki")


def render_figure7(data):
    return _render_per_config("Figure 7: branch MPKI", data,
                              lambda value: "%.2f" % value)


def figure8(records):
    """I-cache misses per kilo-instruction per config."""
    return _mpki_figure(records, "icache_mpki")


def render_figure8(data):
    return _render_per_config("Figure 8: I-cache MPKI", data,
                              lambda value: "%.2f" % value)


def figure9(records):
    """Type check hits/misses per dynamic bytecode for every config
    whose scheme uses hardware checks.

    Returns {engine: {benchmark: {key: rate}}} with the paper's key
    names for the original triple (``typed_hit``/``typed_miss``/
    ``overflow``/``chklb_hit``/``chklb_miss``) and ``<config>_hit`` /
    ``<config>_miss`` (plus ``<config>_overflow`` for typed-family
    schemes) for additionally registered configs.  Each rate is
    normalised to *that run's own* dynamic bytecode count — the configs
    execute different dynamic bytecode streams, so sharing the typed
    run's denominator (the old behaviour) skews the reported rates.
    """
    data = {}
    engines, benchmarks, configs = matrix_axes(records)
    hw_configs = [c for c in configs if registry.is_registered(c)
                  and registry.get_scheme(c).hardware_checks]
    for engine in engines:
        per_engine = {}
        for benchmark in benchmarks:
            entry = {}
            for config in hw_configs:
                record = records.get((engine, benchmark, config))
                if record is None:
                    continue
                scheme = registry.get_scheme(config)
                counters = record.counters
                bytecodes = record.total_bytecodes or 1
                if scheme.family == registry.FAMILY_CHECKED:
                    entry["%s_hit" % config] = counters.chk_hits / bytecodes
                    entry["%s_miss" % config] = \
                        counters.chk_misses / bytecodes
                else:
                    entry["%s_hit" % config] = counters.type_hits / bytecodes
                    entry["%s_miss" % config] = \
                        counters.type_misses / bytecodes
                    overflow_key = "overflow" if config == TYPED \
                        else "%s_overflow" % config
                    entry[overflow_key] = \
                        counters.overflow_traps / bytecodes
            per_engine[benchmark] = entry
        data[engine] = per_engine
    return data


def render_figure9(data):
    lines = []
    keys = []
    for per_engine in data.values():
        for values in per_engine.values():
            for key in values:
                if key not in keys:
                    keys.append(key)
    for engine, per_engine in data.items():
        rows = [(benchmark,) + tuple(
            "%.3f" % values[key] if key in values else "-" for key in keys)
                for benchmark, values in per_engine.items()]
        lines.append(format_table(
            ["benchmark"] + list(keys), rows,
            title="Figure 9: type checks per dynamic bytecode [%s]"
                  % engine))
    return "\n\n".join(lines)


def figure9_detail(records, engine="lua"):
    """Per-bytecode type hit/miss rates on the typed machine (aggregated
    over all benchmarks): which of the five retargeted bytecodes pay the
    mispredictions."""
    hits = {}
    misses = {}
    executions = {}
    for benchmark in matrix_axes(records)[1]:
        record = records.get((engine, benchmark, TYPED))
        if record is None:
            continue
        counters = record.counters
        for name, value in counters.bytecode_type_hits.items():
            hits[name] = hits.get(name, 0) + value
        for name, value in counters.bytecode_type_misses.items():
            misses[name] = misses.get(name, 0) + value
        for name, value in counters.bytecode_counts.items():
            executions[name] = executions.get(name, 0) + value
    detail = {}
    for name in sorted(set(hits) | set(misses)):
        count = executions.get(name, 0)
        if not count:
            continue
        detail[name] = {
            "executions": count,
            "hit_rate": hits.get(name, 0) / count,
            "miss_rate": misses.get(name, 0) / count,
        }
    return detail


def render_figure9_detail(detail, engine="lua"):
    rows = [(name, entry["executions"], "%.3f" % entry["hit_rate"],
             "%.3f" % entry["miss_rate"])
            for name, entry in detail.items()]
    return format_table(
        ["bytecode", "executions", "hits/exec", "misses/exec"], rows,
        title="Figure 9 detail: per-bytecode type checks (typed, %s)"
              % engine)


def attribution(records, config=TYPED):
    """Per-benchmark cycle and TRT-miss attribution from cached runs.

    Both inputs are plain counters (``bytecode_flat_cycles`` from the
    timing loop's span accounting, ``trt_miss_keys`` from the
    always-on TRT miss bookkeeping), so this report works off the disk
    cache without re-running anything and agrees exactly with what
    ``repro profile`` would print for each cell.

    Returns {engine: {benchmark: {"hot": [(opcode, cycle_share)...],
    "trt_misses": {key: count}, "telemetry": summary-or-None}}}.
    """
    data = {}
    engines, benchmarks, _ = matrix_axes(records)
    for engine in engines:
        per_engine = {}
        for benchmark in benchmarks:
            record = records.get((engine, benchmark, config))
            if record is None:
                continue
            counters = record.counters
            cycles = counters.cycles or 1
            ranked = sorted(counters.bytecode_flat_cycles.items(),
                            key=lambda kv: (-kv[1], kv[0]))
            per_engine[benchmark] = {
                "hot": [(name, count / cycles) for name, count in ranked],
                "trt_misses": dict(counters.trt_miss_keys),
                "telemetry": record.telemetry,
            }
        data[engine] = per_engine
    return data


def render_attribution(data, config=TYPED, top=4):
    """Text rendering of :func:`attribution` (``repro sweep
    --attribution``)."""
    lines = []
    for engine, per_engine in data.items():
        rows = []
        for benchmark, entry in per_engine.items():
            hot = "  ".join("%s %.1f%%" % (name, 100.0 * share)
                            for name, share in entry["hot"][:top])
            misses = sorted(entry["trt_misses"].items(),
                            key=lambda kv: (-kv[1], kv[0]))
            miss_text = "  ".join("%s x%d" % (key, count)
                                  for key, count in misses[:top]) or "-"
            rows.append((benchmark, hot, miss_text))
        lines.append(format_table(
            ["benchmark", "hot bytecodes (flat cycle share)",
             "TRT misses (opcode/t1/t2)"], rows,
            title="Attribution [%s/%s]" % (engine, config)))
    return "\n\n".join(lines)


def to_json(records):
    """Serialisable snapshot of every figure (for reproducibility
    artifacts and regression diffing)."""
    fig5 = figure5(records)
    return {
        "figure2a": figure2a(records),
        "figure2b": {op: {"per_bytecode": entry["per_bytecode"],
                          "executions": entry["executions"]}
                     for op, entry in figure2b(records).items()},
        "figure5": fig5,
        "figure6": figure6(records),
        "figure7": figure7(records),
        "figure8": figure8(records),
        "figure9": figure9(records),
        "gradual": figure_gradual(records),
        "table8": table8(records)[0],
        "geomeans": {engine: fig5[engine]["geomean"]
                     for engine in fig5},
    }


def table8(records=None, speedups=None):
    """Area/power breakdown and EDP improvement.

    ``speedups`` may carry measured geomean speedups; otherwise they are
    derived from ``records``; with neither, the paper's own geomeans are
    used.
    """
    if speedups is None and records is not None:
        fig5 = figure5(records)
        speedups = {engine: fig5[engine]["geomean"][TYPED]
                    for engine in fig5
                    if TYPED in fig5[engine]["geomean"]}
    if speedups is None:
        speedups = {"lua": 1.099, "js": 1.112}
    baseline = synthesize(typed=False)
    typed = synthesize(typed=True)
    rows = []
    for (name, base_area, base_area_pct, base_power, base_power_pct), \
            (_, typed_area, typed_area_pct, typed_power, typed_power_pct) \
            in zip(baseline.rows(), typed.rows()):
        rows.append((name, "%.3f" % base_area,
                     format_percent(base_area_pct),
                     "%.2f" % base_power, format_percent(base_power_pct),
                     "%.3f" % typed_area, format_percent(typed_area_pct),
                     "%.2f" % typed_power,
                     format_percent(typed_power_pct)))
    power_ratio = typed.total_power / baseline.total_power
    summary = {
        "area_overhead": typed.total_area / baseline.total_area - 1.0,
        "power_overhead": power_ratio - 1.0,
        "edp_improvement": {
            engine: edp_improvement(speedups[engine], power_ratio)
            for engine in speedups},
        "speedups": speedups,
    }
    text = format_table(
        ["module", "area", "area%", "power", "power%",
         "t.area", "t.area%", "t.power", "t.power%"], rows,
        title="Table 8: hardware overhead breakdown (baseline | typed)")
    text += "\narea overhead: %s   power overhead: %s" % (
        format_percent(summary["area_overhead"]),
        format_percent(summary["power_overhead"]))
    for engine, value in summary["edp_improvement"].items():
        text += "\nEDP improvement (%s, speedup %.3fx): %s" % (
            engine, speedups[engine], format_percent(value))
    return summary, text
