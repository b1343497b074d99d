"""Superblock trace engine: hot blocks chained across taken branches
and indirect jumps.

The basic-block engine (:mod:`repro.sim.blocks`) pays one Python-level
dispatch per block.  Its blocks already run through direct jumps, but
each still ends at the ``jalr`` that dispatches the next bytecode, so
the dispatch (PC arithmetic, table lookup, budget check, call) is still
a large fraction of host time.  This module chains *hot* blocks into
superblock traces, dynamic-binary-translation style, so the dispatch is
paid once per trace instead:

* **Profile-driven formation.**  The trace dispatch loop counts entries
  per block; when a block's count reaches :data:`TRACE_THRESHOLD` the
  runtime records the concrete path taken from that head — executing
  per block while recording — until the path returns to the head, hits
  an unchainable exit, or reaches :data:`MAX_TRACE_BLOCKS`.
* **Static validation.**  Each recorded transition is justified from
  the recorded block's own path (:func:`_chain_segment`,
  :meth:`~repro.sim.blocks.BlockTable.path_at`): a conditional branch on
  the path whose taken target matches, or the exit that ends the path
  — a ``jal`` the block could not follow whose target matches, a
  ``jalr`` (guarded on the assumed target), or the unconditional
  fall-through at a :data:`~repro.sim.blocks.MAX_BLOCK_LEN` cut.  The
  ``jal`` instructions the path follows are chained as in the block.
  Transitions produced by dynamic redirects (type mispredictions,
  checked-load misses, ``thdl`` deoptimisation) cannot be justified and
  truncate the trace.
* **Guarded side exits.**  The chained unit is compiled by the same
  segment emitter as blocks (:meth:`repro.sim.blocks._Emitter.segment`),
  so a guard failure — branch went the other way, ``jalr`` landed
  elsewhere, a typed op redirected — exits the trace with exactly the
  front-end training calls, cycle charges and counter updates the
  reference loop pays on that path.
  Side exits are architecturally exact: nothing is rolled back or
  re-executed, control simply deopts to the per-block engine at the
  exit PC.

Counter identity with the per-instruction reference loop is enforced
by ``tests/test_traces.py``; traces never change *what* is simulated,
only how many host-level dispatches it costs.

Tables are cached per ``(program, machine-config)`` like block tables
(the underlying :class:`~repro.sim.blocks.BlockTable` is shared with
the block engine), so profiles and compiled traces persist across runs
and across sweep cells in one process.
"""

import weakref
from time import perf_counter

from repro.engines.ir import BRANCH_COND as _BRANCH_COND, MASK64 as _M
from repro.sim.blocks import _Emitter, block_table, count_exit

#: A block becomes a trace head after this many dispatch-loop entries:
#: the break-even point of a rent-or-buy rule, where the head's block
#: dispatches have cost what compiling its trace would cost.
#:
#: * Buy: compiling costs ``c`` per trace instruction, CPython
#:   ``compile`` time per generated line times lines per instruction.
#:   Measured on run-hot's six cells (hostbench), 2-vCPU host,
#:   CPython 3.11: 9.2 us per line, linear in trace length, at 7.8-8.0
#:   lines per instruction, so ``c`` = 72-73 us.
#: * Rent: a head dispatched as blocks pays one block dispatch per
#:   ``l`` instructions of its path that a trace dispatch would fold,
#:   and a warm trace saves ``s`` per block dispatch it replaces.
#:   Measured on the same cells, blocks-only and warm trace runs
#:   interleaved in one process: ``s`` = 1.2-1.35 us (total host time
#:   saved over the difference in dispatch counts), ``l`` = 9.8
#:   instructions per block dispatch, on blocks that still ended at
#:   every ``jal``.
#:
#: A trace of ``n`` instructions costs ``n * c`` and repays ``n / l * s``
#: per head dispatch, so it breaks even after ``c * l / s`` = 520-580
#: dispatches, whatever its length.  Both ``c`` and ``s`` scale with
#: CPython's speed, so the ratio carries across hosts.  At the former
#: 16, run-hot's two warm-up rounds compiled 143 traces (170k generated
#: lines); at 512 they compile 66 (67k).
TRACE_THRESHOLD = 512

#: Recording stops after this many chained blocks even without closing
#: the loop back to the head.
MAX_TRACE_BLOCKS = 64

#: Hard cap on instructions in one compiled trace: bounds generated
#: code size and the near-budget fallback window.
MAX_TRACE_INSTRS = 512

#: A trace is evaluated after this many dispatches (see
#: :meth:`TraceTable.evaluate`).
TRACE_EVAL_WINDOW = 32

#: Evaluation keeps a trace whose average instructions per dispatch
#: are at least this factor of its *first-guard span* — the
#: instructions a dispatch executes when the recorded path is wrong
#: immediately, i.e. what the head's block dispatch would have done.
#: One trace dispatch must therefore replace at least this many
#: head-block dispatches.  A trace that side-exits partway can still
#: clear this easily (30% of a 200-instruction trace is many blocks'
#: worth of work in one dispatch); only a trace doing no better than
#: the plain block — its recorded path no longer taken at all — is
#: retired for re-profiling.  The bar is capped at half the trace
#: length so a trace whose first guard sits near its end (which
#: executes almost everything even when it exits there) is never
#: unbeatable.
TRACE_PROFIT_FACTOR = 2.0

#: Consecutive healthy evaluation windows after which a trace
#: *graduates*: health metering stops (its ``meta`` slot is cleared)
#: and the dispatch loop runs it with zero bookkeeping from then on —
#: the same move tiered JITs make when they stop profiling mature
#: code.  A workload phase change after graduation is still correct
#: (guards exit to the block engine); it just runs at guard-exit
#: speed instead of being re-recorded.
TRACE_MATURE_WINDOWS = 4

#: Bound on retire/re-record cycles per head; re-records are cheap
#: once a path is in the per-head compiled cache, so this is a large
#: safety stop, with exponential backoff doing the real damping.
MAX_RERECORDS = 32

#: Bound on *distinct compiled paths* per head.  Compiling a trace is
#: the expensive step (CPython ``compile`` on a few thousand generated
#: lines); a head whose hot path keeps shifting stops getting new
#: compiles after this many and swaps between its cached traces (or
#: the plain block) from then on.
MAX_TRACES_PER_HEAD = 4


class TraceTable:
    """Per-``(program, config)`` trace state for the dispatch loop.

    ``entries[index]`` is the ``(fn, count)`` unit dispatched at
    ``index`` — a compiled trace for hot heads, otherwise the shared
    :class:`~repro.sim.blocks.BlockTable` entry — or ``None`` before
    first use.  ``counts[index]`` is the dispatch-loop entry profile
    driving trace formation.
    """

    def __init__(self, program, config):
        self.blocks = block_table(program, config)
        size = len(self.blocks.instructions)
        self.base = self.blocks.base
        self.entries = [None] * size
        self.counts = [0] * size
        #: ``meta[head]`` is ``[profit_bar, dispatches, executed,
        #: healthy_windows]`` for an installed trace still under health
        #: metering (``None`` for no trace *or* a graduated one) — the
        #: dispatch loop feeds it and triggers :meth:`evaluate` once
        #: per window.  ``profit_bar`` is the per-dispatch instruction
        #: bar the trace must average to stay installed (see
        #: :data:`TRACE_PROFIT_FACTOR`).
        self.meta = [None] * size
        #: ``head -> {path_tuple: entry}``: every trace ever compiled,
        #: so retire/re-record cycles (and workload switches on a
        #: shared table) reinstall known paths without recompiling.
        self._compiled = {}
        self._rerecorded = {}
        self.traces = 0
        self.trace_instructions = 0
        self.trace_failures = 0
        self.retired = 0
        #: Host seconds spent planning and compiling traces (block
        #: compiles during recording count on :attr:`blocks`).
        self.compile_seconds = 0.0

    def entry_at(self, index):
        """Install and return the block-engine entry for ``index``."""
        entry = self.blocks.block_at(index)
        self.entries[index] = entry
        return entry

    def budget_entry(self, index, remaining):
        """The largest exact unit that cannot overrun ``remaining``
        instructions: the plain block, or a single instruction so the
        ``ExecutionLimitExceeded`` point stays exact."""
        entry = self.blocks.block_at(index)
        if entry[1] > remaining:
            entry = self.blocks.single_at(index)
        return entry

    def record_and_run(self, index, cpu, prev, x, max_instructions,
                       histogram):
        """Record the hot path from ``index`` while executing it per
        block (``x`` is the run's state tuple), then compile and install
        a trace for the head.

        Each block's exit is counted in the run's exit ``histogram``
        (see :func:`~repro.sim.blocks.count_exit`).  Returns ``(cycles,
        prev)`` for the span actually executed: the cycles and the
        load-use carry of the last block.  Recording stops when the path
        returns to the head (a loop closed), leaves the program,
        reaches :data:`MAX_TRACE_BLOCKS`, halts, or before a block that
        could reach the instruction budget (the dispatch loop runs that
        one, so the limit trips with its exact instruction).
        """
        blocks = self.blocks
        carry = blocks.carry
        base = self.base
        size = len(self.entries)
        head = index
        path = [index]
        cycles = 0
        while True:
            entry = blocks.block_at(path[-1])
            if cpu.instret + entry[1] >= max_instructions:
                break
            c, e = entry[0](prev, x)
            cycles += c
            count_exit(histogram, e, blocks)
            prev = carry[e]
            if cpu.halted:
                break
            nxt = (cpu.pc - base) >> 2
            if not 0 <= nxt < size:
                break
            if nxt == head or len(path) >= MAX_TRACE_BLOCKS:
                break
            path.append(nxt)
        self._install(head, path)
        return cycles, prev

    def _install(self, head, path):
        """Compile (or fetch from the per-head cache) a trace entry
        for the recorded ``path``; anything unchainable degrades to
        the plain block."""
        compiled = None
        if len(path) > 1:
            per_head = self._compiled.setdefault(head, {})
            key = tuple(path)
            compiled = per_head.get(key)
            if compiled is None and len(per_head) < MAX_TRACES_PER_HEAD:
                started = perf_counter()
                try:
                    segments = _plan(self.blocks, path)
                    if len(segments) > 1:
                        entry = _compile_trace(self.blocks, segments)
                        span = _first_guard_span(self.blocks, segments)
                        bar = min(TRACE_PROFIT_FACTOR * span,
                                  0.5 * entry[1])
                        compiled = (entry, bar)
                        self.traces += 1
                        self.trace_instructions += entry[1]
                        per_head[key] = compiled
                except Exception as err:  # noqa: BLE001 — degrade
                    from repro.telemetry.core import record_degradation

                    self.trace_failures += 1
                    record_degradation({
                        "name": "trace_compile_failed",
                        "pc": self.base + 4 * head,
                        "blocks": len(path),
                        "error": "%s: %s" % (type(err).__name__, err),
                    })
                self.compile_seconds += perf_counter() - started
        if compiled is None:
            self.entries[head] = self.blocks.block_at(head)
        else:
            entry, bar = compiled
            self.meta[head] = [bar, 0, 0, 0]
            self.entries[head] = entry

    def evaluate(self, head):
        """Keep or retire the trace at ``head`` after its evaluation
        window.

        The test is *profitability against the block alternative*: a
        trace averaging at least its profit bar (see
        :data:`TRACE_PROFIT_FACTOR`) of instructions per dispatch
        stays installed — even one that side-exits partway amortises
        many block dispatches into one.  A trace doing no better than
        the plain block was recorded under a path profile that no
        longer holds (a later phase of the workload), so it is
        retired: the head reverts to the plain block and re-profiles,
        re-recording a trace for the path that is hot *now*.  Retiring
        only swaps which exact compiled units run; counters are
        unaffected.
        """
        meta = self.meta[head]
        bar, dispatches, executed, healthy = meta
        done = self._rerecorded.get(head, 0)
        if executed >= bar * dispatches \
                or done >= MAX_RERECORDS:
            # Healthy (or out of re-record budget): keep the trace.
            # After TRACE_MATURE_WINDOWS consecutive healthy windows
            # it graduates — metering stops and its dispatches carry
            # no bookkeeping at all.
            healthy += 1
            if healthy >= TRACE_MATURE_WINDOWS or done >= MAX_RERECORDS:
                self.meta[head] = None
                return
            meta[1] = 0
            meta[2] = 0
            meta[3] = healthy
            return
        self._rerecorded[head] = done + 1
        self.retired += 1
        self.meta[head] = None
        self.entries[head] = self.blocks.block_at(head)
        # Re-profile with exponential backoff: each successive
        # re-record needs geometrically more dispatches first, so a
        # head whose hot path keeps shifting spends its time in the
        # plain block instead of oscillating between traces.
        self.counts[head] = -(TRACE_THRESHOLD << min(done, 8))


def _chain_segment(blocks, s, t):
    """Statically justify the recorded transition ``s -> t`` from the
    path of the block entered at ``s``.

    Returns ``(path, chain)`` — the instruction indices emitted for this
    segment (a prefix of that path) and the chain disposition of its
    last instruction (see :class:`repro.sim.blocks._Emitter`; ``None``
    falls through) — or ``None`` if no static exit of the block can
    produce entry ``t`` (e.g. the transition came from a dynamic
    redirect).
    """
    instrs = blocks.instructions
    base = blocks.base
    target = base + 4 * t
    path = blocks.path_at(s)
    for position, j in enumerate(path):
        i = instrs[j]
        if i.mnemonic in _BRANCH_COND \
                and (base + 4 * j + i.imm) & _M == target:
            return path[:position + 1], ("taken", target)
    last = path[-1]
    i = instrs[last]
    mn = i.mnemonic
    if mn == "jal":
        if (base + 4 * last + i.imm) & _M == target:
            return path, ("jal", target)
        return None
    if mn == "jalr":
        return path, ("jalr", target)
    if mn not in ("ecall", "ebreak") and last + 1 == t:
        return path, None  # MAX_BLOCK_LEN cut: unconditional
    return None


def _plan(blocks, path):
    """Turn a recorded entry path into emitter segments.

    Chained segments cover every transition that can be statically
    justified (stopping at the first that cannot, or at
    :data:`MAX_TRACE_INSTRS`); the final segment is the full block at
    the last chained-to entry, emitted with plain block-mode exits —
    which is also what closes a loop back to the head.
    """
    segments = []
    total = 0
    final = path[0]
    for s, t in zip(path, path[1:]):
        seg = _chain_segment(blocks, s, t)
        if seg is None:
            break
        total += len(seg[0])
        if total > MAX_TRACE_INSTRS:
            break
        segments.append(seg)
        final = t
    segments.append((blocks.path_at(final), None))
    return segments


def _first_guard_span(blocks, segments):
    """Instructions executed when the first guard in the trace fails.

    This is what a dispatch costs when the recorded path is wrong from
    the start — i.e. what the plain head block would have executed —
    and therefore the yardstick for trace profitability.  The first
    guard is the first conditional branch anywhere in the trace
    (interior ones are emitted assumed-not-taken with a taken side
    exit) or a guarded ``jalr`` chain; a trace with no guard at all
    cannot fail early and the span is its full length.
    """
    instrs = blocks.instructions
    span = 0
    for path, chain in segments:
        for j in path:
            span += 1
            if instrs[j].mnemonic in _BRANCH_COND:
                return span
        if chain is not None and chain[0] == "jalr":
            return span
    return span


def _compile_trace(blocks, segments):
    """Generate, ``exec`` and return ``(fn, count)`` for a trace.

    The code is emitted exactly as for plain blocks, segment by segment
    (see :meth:`repro.sim.blocks._Emitter.segment`); only the chained
    control transfers between segments become guards instead of exits.
    """
    emitter = _Emitter(blocks)
    for path, chain in segments:
        emitter.segment(path, chain)
    emitter.finish()
    fn = emitter.build("<trace@0x%x>" % (blocks.base + 4 * segments[0][0][0]))
    return fn, emitter.k


# One table per (program, machine config, guest workload), keyed weakly
# on the program like blocks._TABLES.  Each program's dict is kept in
# least-recently-used order.
_TABLES = weakref.WeakKeyDictionary()

#: Trace tables kept per interpreter program; the least recently used
#: is evicted first.  An interpreter program is cached for the life of
#: the process, so without a bound a long-lived worker kept one table
#: per distinct guest it ever ran.  16 exceeds the 11 benchmarks, so a
#: sweep or perfbench process keeps one interpreter's whole benchmark
#: set resident.
MAX_WORKLOAD_TABLES = 16


def trace_table(program, config, workload=None):
    """The (shared, lazily filled) :class:`TraceTable` for a program
    under a machine configuration, specialised to a guest workload.

    Block tables are guest-independent (pure interpreter text) and
    shared per ``(program, config)``; trace state is *profile* — the
    hot paths through the interpreter are driven by the guest program
    it runs — so it is additionally keyed by the ``workload`` token the
    engine stamps on the CPU (see ``vm.prepare``).  This mirrors a real
    DBT's per-process code cache: two guests never pollute each other's
    traces, while repeated runs of the same guest (warm-up, sweeps)
    reuse profiles and compiled traces for free, up to
    :data:`MAX_WORKLOAD_TABLES` guests per program.
    """
    per_program = _TABLES.get(program)
    if per_program is None:
        per_program = {}
        _TABLES[program] = per_program
    key = (config, workload)
    table = per_program.pop(key, None)
    if table is None:
        table = TraceTable(program, config)
        if len(per_program) >= MAX_WORKLOAD_TABLES:
            del per_program[next(iter(per_program))]
    per_program[key] = table  # (re)inserted last: most recently used
    return table
