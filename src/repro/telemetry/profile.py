"""Profile builders: turn one telemetry-enabled run into attribution.

This is the evaluation lens of the paper's Sections 6-7 applied to our
own simulator: *where do the cycles go* (per-bytecode flat and
call-inclusive profiles) and *which type checks miss* (Type Rule Table
attribution keyed by the exact ``(opcode, t1, t2)`` tuple that missed —
the same granularity Checked Load and the tagging-scheme comparisons
argue from).

:func:`run_profile` is the engine-agnostic driver behind
``repro profile``; the ``render_*`` helpers produce the plain-text
tables and the Chrome trace/JSONL outputs ride along as sinks.
"""

import pathlib
from dataclasses import dataclass, field

from repro.bench.report import format_table
from repro.sim.trt import attribution_keys
from repro.telemetry.core import PROFILE_CATEGORIES, Telemetry
from repro.telemetry.sinks import ChromeTraceSink, CollectorSink, JsonlSink

#: Slot name used for instructions retired before the first bytecode
#: handler entry (interpreter startup) — kept explicit so the per-opcode
#: totals reconcile *exactly* with ``Counters.core_instructions``.
STARTUP = "(startup)"

#: Bytecode names opening/closing a guest call frame, per engine.
CALL_OPS = {"lua": frozenset({"CALL", "TFORCALL"}),
            "js": frozenset({"CALL"})}
RETURN_OPS = {"lua": frozenset({"RETURN", "RETURN0", "TAILCALL"}),
              "js": frozenset({"RETURN", "RETURN_UNDEF"})}


def tag_names(engine):
    """Human names for the engine's type-tag encoding."""
    if engine == "lua":
        from repro.engines.lua import layout
        return {layout.TNIL: "nil", layout.TBOOL: "bool",
                layout.TNUMFLT: "float", layout.TSTR: "str",
                layout.TTAB: "table", layout.TFUN: "func",
                layout.TNUMINT: "int"}
    from repro.engines.js import layout
    return {layout.TAG_DOUBLE: "double", layout.TAG_INT32: "int32",
            layout.TAG_UNDEFINED: "undef", layout.TAG_BOOLEAN: "bool",
            layout.TAG_STRING: "str", layout.TAG_NULL: "null",
            layout.TAG_OBJECT: "object"}


@dataclass
class OpcodeRow:
    """One row of the flat per-opcode profile."""

    name: str
    executions: int
    instructions: int
    cycles: int
    type_hits: int = 0
    type_misses: int = 0

    @property
    def instructions_per_execution(self):
        return self.instructions / self.executions if self.executions \
            else 0.0

    @property
    def cpi(self):
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class ProfileResult:
    """Everything ``repro profile`` reports for one run."""

    engine: str
    config: str
    output: str
    counters: object
    telemetry: Telemetry
    rows: list = field(default_factory=list)
    trt_misses: dict = field(default_factory=dict)  # key str -> count
    trt_hits: dict = field(default_factory=dict)
    call_inclusive: dict = field(default_factory=dict)

    @property
    def total_profiled_instructions(self):
        """Sum of every flat row — reconciles exactly with
        ``counters.core_instructions`` (the differential test's
        anchor)."""
        return sum(row.instructions for row in self.rows)

    @property
    def total_profiled_cycles(self):
        return sum(row.cycles for row in self.rows)


def resolve_target(target, engine=None, scale=None):
    """Resolve a profile target to ``(engine, source, label)``.

    ``target`` is either a benchmark name from Table 7, built at
    ``scale`` (its default scale when ``None``), or a path to a
    ``.lua``/``.js`` script (e.g. ``examples/hot_loop.lua``); for a
    path the engine is inferred from the suffix unless given.
    """
    from repro.bench.workloads import WORKLOADS

    path = pathlib.Path(target)
    if target in WORKLOADS:
        engine = engine or "lua"
        return engine, WORKLOADS[target].source(engine, scale), target
    if path.suffix in (".lua", ".js"):
        if not path.is_file():
            raise FileNotFoundError("no such script: %s" % target)
        engine = engine or ("lua" if path.suffix == ".lua" else "js")
        return engine, path.read_text(), path.name
    raise ValueError(
        "target %r is neither a benchmark (%s) nor a .lua/.js script"
        % (target, ", ".join(sorted(WORKLOADS))))


def build_rows(counters):
    """Flat per-opcode rows from a run's counters.

    The flat cycle/instruction attribution is computed by the timing
    loop at handler-entry boundaries (see ``Machine.run``), so these
    rows are *identical* whether telemetry was enabled or not — the
    property that keeps ``repro profile`` and ``repro trace`` (and the
    cached sweep) in agreement.
    """
    rows = []
    names = set(counters.bytecode_flat_instructions) \
        | set(counters.bytecode_flat_cycles)
    for name in names:
        rows.append(OpcodeRow(
            name=name,
            executions=counters.bytecode_counts.get(name, 0),
            instructions=counters.bytecode_flat_instructions.get(name, 0),
            cycles=counters.bytecode_flat_cycles.get(name, 0),
            type_hits=counters.bytecode_type_hits.get(name, 0),
            type_misses=counters.bytecode_type_misses.get(name, 0)))
    rows.sort(key=lambda row: (-row.cycles, row.name))
    return rows


def call_inclusive_profile(events, engine):
    """Call-inclusive (cumulative) cycles per CALL site.

    Walks the bytecode span stream pairing CALL-like opcodes with their
    matching RETURN-like opcodes to measure guest-call frames: the
    inclusive cost of a CALL is everything from its handler entry to
    the end of the handler that returns to it.  Tail calls unwind the
    frame they replace, so attribution stays bounded; an unmatched
    RETURN (top-level exit) is ignored.

    Returns ``{opcode: {"frames": n, "inclusive_cycles": c}}``.
    """
    call_ops = CALL_OPS.get(engine, frozenset())
    return_ops = RETURN_OPS.get(engine, frozenset())
    stack = []  # (opcode name, entry ts)
    profile = {}
    last_ts = 0
    for event in events:
        if event.get("cat") != "bytecode" or event.get("ph") != "B":
            continue
        name = event["name"]
        ts = event["ts"]
        last_ts = ts
        if name in call_ops:
            stack.append((name, ts))
        elif name in return_ops and stack:
            opener, start = stack.pop()
            entry = profile.setdefault(
                opener, {"frames": 0, "inclusive_cycles": 0})
            entry["frames"] += 1
            entry["inclusive_cycles"] += ts - start
    # Frames still open at program exit extend to the last observed ts.
    while stack:
        opener, start = stack.pop()
        entry = profile.setdefault(
            opener, {"frames": 0, "inclusive_cycles": 0})
        entry["frames"] += 1
        entry["inclusive_cycles"] += last_ts - start
    return profile


def run_profile(target, engine=None, config="typed", scale=None,
                chrome_trace=None, events_path=None):
    """Run one script/benchmark with full telemetry and build the
    profile.  ``chrome_trace``/``events_path`` optionally attach the
    file sinks; ``scale`` only applies to benchmark targets."""
    from repro import api

    engine, source, _label = resolve_target(target, engine, scale)
    collector = CollectorSink()
    sinks = [collector]
    if events_path:
        sinks.append(JsonlSink(events_path))
    if chrome_trace:
        sinks.append(ChromeTraceSink(chrome_trace))
    telemetry = Telemetry(sinks=sinks, categories=PROFILE_CATEGORIES)

    machine, runtime = api._prepare(engine, source, config=config,
                                    telemetry=telemetry)
    counters = machine.run(max_instructions=api.DEFAULT_MAX_INSTRUCTIONS)
    telemetry.close()

    result = ProfileResult(
        engine=engine, config=config, output="".join(runtime.output),
        counters=counters, telemetry=telemetry)
    result.rows = build_rows(counters)
    result.trt_misses = dict(counters.trt_miss_keys)
    result.trt_hits = attribution_keys(
        getattr(machine.cpu.trt, "hit_keys", None) or {})
    result.call_inclusive = call_inclusive_profile(collector.events, engine)
    return result


# -- rendering ----------------------------------------------------------------

def render_opcode_table(result, top=20):
    """The flat per-opcode hot table, cycle-sorted, with an exact
    reconciliation footer."""
    counters = result.counters
    rows = []
    shown_cycles = shown_instrs = 0
    for row in result.rows[:top]:
        if not row.cycles and not row.instructions:
            break
        shown_cycles += row.cycles
        shown_instrs += row.instructions
        inclusive = result.call_inclusive.get(row.name)
        rows.append((
            row.name, row.executions, row.instructions,
            "%.1f" % row.instructions_per_execution, row.cycles,
            "%.2f" % row.cpi,
            "%.1f%%" % (100.0 * row.cycles / counters.cycles
                        if counters.cycles else 0.0),
            inclusive["inclusive_cycles"] if inclusive else "",
        ))
    rest_cycles = result.total_profiled_cycles - shown_cycles
    rest_instrs = result.total_profiled_instructions - shown_instrs
    if rest_cycles or rest_instrs:
        rows.append(("(other)", "", rest_instrs, "", rest_cycles, "",
                     "%.1f%%" % (100.0 * rest_cycles / counters.cycles
                                 if counters.cycles else 0.0), ""))
    rows.append(("total", sum(counters.bytecode_counts.values()),
                 result.total_profiled_instructions, "",
                 result.total_profiled_cycles, "", "100.0%", ""))
    table = format_table(
        ["bytecode", "execs", "instrs", "i/exec", "cycles", "cpi",
         "cyc%", "incl.cycles"],
        rows,
        title="Per-opcode flat profile [%s/%s] "
              "(flat = handler entry to next entry; incl. = guest "
              "call frame)" % (result.engine, result.config))
    table += ("\nhost (native library): %d charged instructions over "
              "%d calls" % (counters.host_instructions,
                            counters.host_calls))
    return table


def render_trt_table(result, top=20):
    """TRT attribution: which ``(opcode, t1, t2)`` keys hit and missed."""
    names = tag_names(result.engine)

    def pretty(key):
        opcode, t1, t2 = key.split("/")
        return "%s(%s, %s)" % (opcode,
                               names.get(int(t1), "tag%s" % t1),
                               names.get(int(t2), "tag%s" % t2))

    total_misses = sum(result.trt_misses.values()) or 1
    rows = []
    for key, count in sorted(result.trt_misses.items(),
                             key=lambda kv: (-kv[1], kv[0]))[:top]:
        rows.append((pretty(key), "miss", count,
                     "%.1f%%" % (100.0 * count / total_misses)))
    for key, count in sorted(result.trt_hits.items(),
                             key=lambda kv: (-kv[1], kv[0]))[:top]:
        rows.append((pretty(key), "hit", count, ""))
    if not rows:
        rows.append(("(no TRT lookups)", "", 0, ""))
    table = format_table(
        ["(opcode, t1, t2)", "outcome", "count", "miss share"], rows,
        title="Type Rule Table attribution [%s/%s]"
              % (result.engine, result.config))
    table += "\nTRT: %d hits, %d misses (hit rate %.4f)" % (
        result.counters.type_hits, result.counters.type_misses,
        result.counters.type_hit_rate)
    return table
