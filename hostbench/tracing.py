"""Outside-in layer spans for the traced run.

The program is not edited: :class:`Tracer` replaces a handful of the
program's public functions and methods with timing wrappers while it is
installed (set-up and the traced rounds of a traced run) and puts the
originals back when it is uninstalled.
Spans are ``[name, start, end, parent, op, value]`` lists kept in
memory; ``parent`` indexes the enclosing span (``-1`` for none), ``op``
is the timed op being served (``-1`` during set-up) and ``value`` carries
a number the wrapped call returned (simulated instructions of a
``Machine.run``, proven sites of a quickening pass).
"""

import json
import time

NAME, START, END, PARENT, OP, VALUE = range(6)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []
        self.block_tables = []
        self.trace_tables = []

    # -- recording ------------------------------------------------------------

    def begin(self, name):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span, value=None):
        span[END] = time.perf_counter()
        span[VALUE] = value
        self._stack.pop()

    def _timed(self, name, fn, measure=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            value = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(result)
                return result
            finally:
                tracer.end(span, value)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- the layer boundaries -------------------------------------------------

    def install(self):
        """Wrap the public entry points of each layer (no-op when they
        already are)."""
        if self._patched:
            return self
        from repro import analysis
        from repro.bench.cache import ResultCache
        from repro.engines.js import vm as js_vm
        from repro.engines.lua import vm as lua_vm
        from repro.sim.blocks import BlockTable
        from repro.sim.memory import Memory
        from repro.sim.traces import TraceTable
        from repro.uarch.pipeline import Machine

        for vm in (lua_vm, js_vm):
            # ``prepare`` and ``interpreter_program`` look these names
            # up in the vm module, so that is where they are replaced.
            self._patch(vm, "compile_source",
                        self._timed("engines.compile", vm.compile_source))
            self._patch(vm, "prepare",
                        self._timed("engines.prepare", vm.prepare))
            self._patch(vm, "assemble",
                        self._timed("isa.assemble", vm.assemble))
        self._patch(Memory, "__init__",
                    self._timed("sim.memory_init", Memory.__init__))
        self._patch(Machine, "run", self._timed(
            "uarch.run", Machine.run, lambda c: c.instructions))
        self._patch(analysis, "quicken_chunk", self._timed(
            "analysis.quicken", analysis.quicken_chunk,
            lambda report: report["sites"]))
        self._patch(ResultCache, "store",
                    self._timed("bench.cache_store", ResultCache.store))
        self._patch(TraceTable, "record_and_run", self._timed(
            "sim.trace_record", TraceTable.record_and_run))

        tracer = self
        block_at = BlockTable.block_at

        def first_block_at(table, index):
            # Only a first-time call compiles; later calls record no span.
            if table.blocks[index] is not None:
                return block_at(table, index)
            span = tracer.begin("sim.block_compile")
            try:
                return block_at(table, index)
            finally:
                tracer.end(span)
        self._patch(BlockTable, "block_at", first_block_at)

        for cls, registry in ((BlockTable, self.block_tables),
                              (TraceTable, self.trace_tables)):
            self._patch(cls, "__init__", _registering(cls.__init__,
                                                      registry))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- derived per-layer figures --------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time covered by its
        direct children (spans nest, so children never overlap)."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def layer_figures(self):
        """``{name: {"count", "self_ms": [...], "inclusive_s", "values"}}``."""
        figures = {}
        own = self.self_times()
        for span, self_s in zip(self.spans, own):
            entry = figures.setdefault(span[NAME], {
                "count": 0, "self_ms": [], "inclusive_s": 0.0,
                "values": []})
            entry["count"] += 1
            entry["self_ms"].append(self_s * 1e3)
            entry["inclusive_s"] += span[END] - span[START]
            if span[VALUE] is not None:
                entry["values"].append(span[VALUE])
        return figures

    def table_counts(self):
        """Block/trace engine work done by every table built while the
        tracer was installed."""
        return {
            "blocks_compiled": sum(t.compiled for t in self.block_tables),
            "traces_formed": sum(t.traces for t in self.trace_tables),
            "traces_retired": sum(t.retired for t in self.trace_tables),
            "compile_failures": sum(t.compile_failures
                                    for t in self.block_tables)
            + sum(t.trace_failures for t in self.trace_tables),
        }

    def write(self, path):
        """Dump the spans as JSON lines (one span per line)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "op": span[OP], "value": span[VALUE]}) + "\n")


def _registering(init, registry):
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        registry.append(self)
    wrapper.__wrapped__ = init
    return wrapper
