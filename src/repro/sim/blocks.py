"""Basic-block superinstruction engine for the simulator hot loop.

Every guest instruction normally costs two Python-level dispatches: the
handler lookup in :meth:`repro.sim.cpu.Cpu.step` and the per-instruction
kind/cache/stall accounting in
:meth:`repro.uarch.pipeline.Machine.run_reference`.
This module amortises both the way the paper amortises per-operation
type-check overhead in interpreters: straight-line work is fused so the
dispatch is paid per *basic block*, not per instruction.

A :class:`BlockTable` discovers blocks lazily, dynamic-binary-translation
style: whenever control reaches an instruction index with no compiled
block, the block starting there is compiled on the spot (so indirect-jump
targets — the interpreter's bytecode dispatch — need no static leader
analysis).  A block extends through conditional branches (guarded on the
taken direction) and through the may-redirect typed instructions
(``xadd``/``xsub``/``xmul``/``tchk``/``chklb``/``chklw``/``thdl``,
guarded on the redirect), and through every ``jal``, calls included,
to its target, so a bytecode handler and the shared dispatch sequence
it jumps to are one block.  It ends at ``jalr``/``ecall``/``ebreak``,
at a ``jal`` whose target is outside the program or already in the
block, or after :data:`MAX_BLOCK_LEN` instructions in total;
:meth:`BlockTable.path_at` lists the indices it runs, in order.

Each block is compiled to one generated Python function that

* inlines the semantics of the hot instructions (integer ALU, loads
  and stores, branches and jumps, tagged loads/stores and tagged ALU
  ops) together with the front-end, cache and TRT models they drive
  (ALU and branch code is the :mod:`repro.engines.ir` templates
  ``Cpu``'s handlers are generated from, filled with constants), and
  calls the same semantic handlers as ``Cpu.step`` for the rest,
* probes the I-cache once per fetched line instead of once per
  instruction (re-fetches of the MRU line are guaranteed hits, so the
  miss count, LRU state and DRAM interleaving are exactly preserved),
  and takes D-cache hits inline, LRU moves included,
* resolves load-use stalls statically: inside a block both sides of
  every producer/consumer pair are known at compile time, so only the
  stall against the *previous* block's last load needs a runtime check,
* folds base cycles, execution-unit latencies and ``instret`` into
  per-exit constants.

A unit returns ``(cycles, exit)``.  ``exit`` names one of the
:class:`Exit` records its table fixed when the unit was emitted: what
the path to that exit retired, fetched, probed in the D-cache,
predicted and stalled, the load-use carry into the next unit, and the
type hits and miss on the way.  Dispatch loops count the exits of one
run in a histogram and fold it into the machine's totals once
(:meth:`BlockTable.fold`), so no exit pays for those counters, as a
translated block in QEMU returns the exit it took and leaves the rest
to its dispatcher.

Guard failures (taken branch, type-misprediction redirect, overflow
trap, checked-load miss, ``thdl`` deoptimisation) simply return to the
dispatch loop, which resumes — per block or, near the instruction
budget, per single instruction — at the redirected PC.  Counters and
cycles are bit-identical with the per-instruction loop; the
differential suite in ``tests/test_blocks.py`` enforces this across
every benchmark cell.

Blocks are the cold path of the superblock *trace* engine
(:mod:`repro.sim.traces`): its dispatch loop runs them until a head
turns hot and wherever a trace side-exits.  They are also the units of
the attributed dispatch loop
(:meth:`repro.uarch.pipeline.Machine._run_blocks`), which folds
per-bytecode attribution from the same exit histogram
(:class:`AttributedUnits`).  The
per-instruction code generator itself lives in :class:`_Emitter`, and
one segment emitter (:meth:`_Emitter.segment`) writes both a block (one
segment: its path) and a trace (several block-path prefixes, chained
across taken branches and indirect jumps with guarded side exits).

Compiled tables are cached per ``(program, machine-config)`` — the
assembled interpreters are themselves cached per engine configuration,
so one sweep compiles each interpreter's hot blocks exactly once.
"""

import builtins
import threading
import weakref
from itertools import compress
from time import perf_counter
from typing import NamedTuple

from repro.engines.ir import (
    ALU,
    BRANCH_COND,
    K_BRANCH,
    K_CHECK,
    K_ECALL,
    K_JAL,
    K_JALR,
    K_LOAD,
    K_STORE,
    K_TAGGED_ALU,
    LOAD_ARGS,
    MASK64 as _M,
    MAX_BLOCK_LEN,
    STORE_WIDTH,
    TERMINATORS,
    block_path,
    extra_cycles,
    kind_of,
)
from repro.isa.extension import TAG_DWORD_DISPLACEMENT
from repro.sim.cpu import _DISPATCH, _PACK_F64, _PACK_U64
from repro.sim.errors import IllegalInstruction, MemoryError_
from repro.sim.memory import LOADS, STORES, WIDTH_CODES
from repro.sim.trt import TRT_OPCODES


class Exit(NamedTuple):
    """One exit of a compiled unit, fixed when the unit is emitted.

    ``fetches``, ``dprobes``, ``branches`` and ``stalls`` are the
    I-cache accesses, inlined D-cache probes, conditional branches and
    indirect jumps, and compile-time load-use stalls of the path to the
    exit, which the dispatch loops fold into the machine once per run
    (:meth:`BlockTable.fold`); a probe that calls
    :meth:`~repro.uarch.cache.Cache.access` counts itself, so the
    inlined slow paths pre-decrement.  ``instret`` is the instructions
    the path retired (the unit adds them to ``cpu.instret`` itself),
    ``carry`` the load destination carried into the next call's
    ``prev`` (``-1`` for none) and ``head`` the index the unit is
    entered at.  ``hits`` counts the tagged ALU ops and checks passed
    on the way, and ``miss`` is ``1`` on the redirect exit of one.
    """

    instret: int
    fetches: int
    dprobes: int
    branches: int
    stalls: int
    carry: int
    head: int
    hits: int
    miss: int


class BlockTable:
    """Lazily compiled superinstruction blocks for one program/config.

    ``blocks[index]`` holds ``(fn, count)`` — the compiled block entered
    at instruction ``index`` and the instruction count of its full
    (unbailed) execution — or ``None`` before first use.  ``fn`` takes
    only per-run state, ``fn(prev, x)``: the load-use stall carry and
    the run's :func:`unit_state` tuple, so one table serves every run
    of the same program under the same machine configuration.  It
    returns ``(cycles, exit)``: ``exits[exit]`` is the :class:`Exit`
    record of the exit it took, and ``carry[exit]`` the ``prev`` of the
    next call.  Every unit compiled against the table — blocks,
    attributed cuts, singles, traces and degraded entries — numbers
    its exits in these two lists.
    """

    def __init__(self, program, config):
        # Deliberately no reference to ``program`` itself: the table
        # lives in a WeakKeyDictionary keyed by the program.
        self.instructions = program.instructions
        self.base = program.base
        self.config = config
        self.line_shift = config.icache.line_bytes.bit_length() - 1
        try:
            self.handlers = [_DISPATCH[i.mnemonic]
                             for i in program.instructions]
        except KeyError as err:
            raise IllegalInstruction("no semantics for %s" % err) from None
        self.kinds = [kind_of(i.mnemonic) for i in program.instructions]
        self.extra = extra_cycles(config.latency)
        self.blocks = [None] * len(program.instructions)
        self._singles = {}
        self._attributed = None
        self.exits = []
        self.carry = []
        # Two threads may compile into one table at once (a shard's
        # pool thread and a sweep's): exit ids are handed out under it.
        self._exits_lock = threading.Lock()
        self.compiled = 0
        self.compile_failures = 0
        #: Host seconds spent compiling this table's blocks and singles.
        self.compile_seconds = 0.0
        # Full handler/instruction tuples shared by every generated
        # function's default-argument bindings (blocks and traces bind
        # by absolute instruction index).
        self._h = tuple(self.handlers)
        self._i = tuple(program.instructions)

    def block_at(self, index):
        """The block entered at ``index``, compiling it on first use.

        A compilation failure is a *degradation*, not a crash: the
        entry PC permanently falls back to a generic per-instruction
        step with identical timing accounting, and the failure is
        recorded on the telemetry degradation ledger.
        """
        entry = self.blocks[index]
        if entry is None:
            entry = self.compile_at(index, MAX_BLOCK_LEN)
            self.blocks[index] = entry
        return entry

    def compile_at(self, index, max_len):
        """Compile the block entered at ``index``, at most ``max_len``
        instructions long, without caching it (a compile failure
        degrades as in :meth:`block_at`)."""
        try:
            entry = self._compile(index, max_len)
            self.compiled += 1
        except Exception as err:  # noqa: BLE001 — degrade, don't die
            entry = self._degrade(index, err)
        return entry

    def path_at(self, index, max_len=MAX_BLOCK_LEN):
        """The instruction indices, in execution order, of the block
        entered at ``index`` (see :func:`~repro.engines.ir.block_path`).
        Every unit entered at ``index`` runs a prefix of this path: the
        block, its attributed cut and the single instruction alike."""
        return block_path(self.instructions, self.base, index, max_len)

    def single_at(self, index):
        """A one-instruction block (used near the instruction budget so
        the ``ExecutionLimitExceeded`` point stays exact)."""
        entry = self._singles.get(index)
        if entry is None:
            try:
                entry = self._compile(index, 1)
            except Exception as err:  # noqa: BLE001 — degrade, don't die
                entry = self._degrade(index, err)
            self._singles[index] = entry
        return entry

    def _compile(self, index, max_len):
        """:func:`_compile_block`, timed into :attr:`compile_seconds`."""
        started = perf_counter()
        try:
            return _compile_block(self, index, max_len)
        finally:
            self.compile_seconds += perf_counter() - started

    def attributed(self, attribution):
        """This table's :class:`AttributedUnits` for ``attribution``.

        One attribution map is kept per table (an interpreter program
        has one); a different map starts a fresh set of units.
        """
        units = self._attributed
        if units is None or units.attribution is not attribution:
            units = AttributedUnits(self, attribution)
            self._attributed = units
        return units

    def fix_exits(self, records):
        """Append one unit's exit ``records`` to :attr:`exits` (and
        their carries to :attr:`carry`) before the unit can run; the
        unit returns the id of its ``i``-th record as ``first + i``,
        and this returns ``first``."""
        with self._exits_lock:
            first = len(self.exits)
            self.exits.extend(records)
            self.carry.extend(record.carry for record in records)
        return first

    def fold(self, histogram, machine):
        """Credit one run's exit ``histogram`` (calls per exit id) to
        ``machine``: its I- and D-cache accesses, front-end branches
        and load-use stalls."""
        exits = self.exits
        fetches = dprobes = branches = stalls = 0
        for e in compress(range(len(histogram)), histogram):
            n = histogram[e]
            record = exits[e]
            fetches += n * record.fetches
            dprobes += n * record.dprobes
            branches += n * record.branches
            stalls += n * record.stalls
        machine.icache.accesses += fetches
        machine.dcache.accesses += dprobes
        machine.frontend.branches += branches
        machine.counters.load_use_stalls += stalls

    def _degrade(self, index, err):
        """Record a compile failure and build the interpreted-step
        fallback entry for ``index``."""
        from repro.telemetry.core import record_degradation

        self.compile_failures += 1
        record_degradation({
            "name": "block_compile_failed",
            "pc": self.base + 4 * index,
            "mnemonic": self.instructions[index].mnemonic,
            "error": "%s: %s" % (type(err).__name__, err),
        })
        return _fallback_block(self, index), 1


class AttributedUnits:
    """Block units for one attribution map, for the attributed dispatch
    loop (:meth:`repro.uarch.pipeline.Machine._run_blocks`).

    Attribution is static per instruction index, and a unit runs its
    block's path (:meth:`BlockTable.path_at`), which it leaves only
    after a prefix, so what one call charges follows from the exit it
    took: the bucket counts of the ``instret`` first instructions of
    the path at the exit's ``head``, the entry id there, and the
    exit's type hits and miss (``chklw``, timed as a plain load, and
    ``thdl`` count as neither, as in the reference loop).  The loop
    folds those from its exit histogram once per run (:meth:`fold`).
    ``units[index]`` holds ``(fn, count, entry, typed)``, built on
    first use:

    * ``fn``/``count`` — the block entered at ``index``, cut just
      before any handler entry on its path past its head (one reached
      through a followed ``jal`` included), so every entry heads a unit
      and flat spans close between calls;
    * ``entry`` — the handler entry id at ``index`` (``-1`` for none);
    * ``typed`` — whether the unit holds a tagged ALU op or a check and
      no entry heads it: its type hits and misses belong to whichever
      bytecode is running, so the loop charges them per call.
    """

    def __init__(self, table, attribution):
        self.table = table
        self.attribution = attribution
        self.units = [None] * len(table.blocks)
        self._singles = {}
        # Exit id -> the ``(bucket, count)`` charges of one call that
        # leaves by it, built when a fold first meets the exit.
        self._charges = {}

    def unit_at(self, index):
        """The unit entered at ``index``, building it on first use."""
        unit = self.units[index]
        if unit is None:
            table = self.table
            fn, count = table.block_at(index)
            path = table.path_at(index, count)
            entry_of = self.attribution.entry_of
            for cut in range(1, count):
                if entry_of[path[cut]] >= 0:
                    fn, count = table.compile_at(index, cut)
                    break
            unit = self._unit(path[:count], fn)
            self.units[index] = unit
        return unit

    def single_at(self, index):
        """The one-instruction unit at ``index`` (near the budget)."""
        unit = self._singles.get(index)
        if unit is None:
            fn, _count = self.table.single_at(index)
            unit = self._unit([index], fn)
            self._singles[index] = unit
        return unit

    def _unit(self, path, fn):
        """The unit tuple of ``fn``, which runs the instructions at
        ``path``."""
        entry = self.attribution.entry_of[path[0]]
        kinds = self.table.kinds
        typed = entry < 0 and any(
            kinds[j] == K_TAGGED_ALU or kinds[j] == K_CHECK for j in path)
        return fn, len(path), entry, typed

    def fold(self, histogram, bucket_counts, entry_counts,
             entry_type_hits, entry_type_misses):
        """Add one run's attribution to the tallies from its exit
        ``histogram``: bucket counts, and for the exits of units that
        an entry heads, that entry's count and type hits and misses."""
        exits = self.table.exits
        entry_of = self.attribution.entry_of
        charges = self._charges
        for e in compress(range(len(histogram)), histogram):
            n = histogram[e]
            record = exits[e]
            pairs = charges.get(e)
            if pairs is None:
                pairs = charges[e] = self._buckets(record)
            for bucket, count in pairs:
                bucket_counts[bucket] += n * count
            entry = entry_of[record.head]
            if entry >= 0:
                entry_counts[entry] += n
                entry_type_hits[entry] += n * record.hits
                entry_type_misses[entry] += n * record.miss

    def _buckets(self, record):
        """The ``(bucket, count)`` pairs of one call that leaves by
        ``record``."""
        bucket_of = self.attribution.bucket_of
        buckets = {}
        for j in self.table.path_at(record.head, record.instret):
            bucket = bucket_of[j]
            if bucket >= 0:
                buckets[bucket] = buckets.get(bucket, 0) + 1
        return tuple(buckets.items())


def count_exit(histogram, exit_id, table):
    """Count ``exit_id`` in one run's exit ``histogram``, first
    extending the histogram over the exit records ``table`` fixed since
    it was sized: units compiled during the run, by its own thread or
    by another.  The dispatch loops call it where the bare increment
    would raise ``IndexError``, so it costs nothing per call."""
    if exit_id >= len(histogram):
        histogram.extend([0] * (len(table.exits) - len(histogram)))
    histogram[exit_id] += 1


_SIGN = 1 << 63
_UNTYPED = 0xFF  # repro.isa.extension.TYPE_UNTYPED

#: The per-run names every compiled unit binds, in the order of the
#: state tuple :func:`unit_state` builds: a unit is ``fn(prev, x)`` and
#: opens by unpacking ``x`` into these locals in one statement.
#: ``_fallback_block`` reads the first six.
STATE = ("cpu", "ic", "dc", "dr", "fe", "ct", "icc", "dcc",
         "V", "T", "F", "D", "msz", "FV",
         "g_", "gc", "bt", "rs_", "ds", "iss", "tt_", "tg_", "hi_")

_UNPACK = "    %s = x" % ", ".join(STATE)


def unit_state(machine):
    """The state tuple the compiled units of one run of ``machine``
    take as ``x`` (names and order in :data:`STATE`).

    It holds the CPU and the machine's models with their bound access
    methods (``ic``/``dc``/``dr``), the register, RAM, gshare, BTB, RAS
    and cache-set containers the generated code indexes, the TRT with
    its rule dict's ``get``, and the overflow-trap bound ``hi_``.  One
    tuple serves the whole run because each of these objects is
    assigned once by its owner's ``__init__``; the TRT's rule dict is
    refilled in place by ``set_trt``, ``flush_trt`` and
    :meth:`~repro.sim.trt.TypeRuleTable.restore`.
    """
    cpu = machine.cpu
    regs = cpu.regs
    fe = machine.frontend
    icache = machine.icache
    dcache = machine.dcache
    bits = cpu.overflow_bits
    state = {
        "cpu": cpu, "ic": icache.access, "dc": dcache.access,
        "dr": machine.dram.access, "fe": fe, "ct": machine.counters,
        "icc": icache, "dcc": dcache,
        "V": regs.value, "T": regs.type, "F": regs.fbit,
        "D": cpu.mem.data, "msz": cpu.mem.size, "FV": cpu.fregs.bits,
        "g_": fe.gshare, "gc": fe.gshare.counters, "bt": fe.btb._table,
        "rs_": fe.ras._stack, "ds": dcache._sets, "iss": icache._sets,
        "tt_": cpu.trt, "tg_": cpu.trt._rules.get,
        "hi_": 1 << (bits - 1) if bits else 0,
    }
    return tuple(state[name] for name in STATE)


def _outside(cpu, pc, retired, addr, width):
    """The out-of-range branch of every inlined load and store: raise
    :class:`~repro.sim.errors.MemoryError_` for ``width`` bytes at
    ``addr``, which lie outside guest RAM.

    ``cpu.pc`` and ``cpu.instret`` are first set to what the reference
    loop shows at the faulting instruction (the unit had retired
    ``retired`` instructions); ``Memory`` words the error, and the
    dispatch loop adds the mnemonic.
    """
    cpu.pc = pc
    cpu.instret += retired
    cpu.mem.load(addr, width)  # raises: addr + width is past the end


#: The generated code's globals, one dict shared by every unit: the
#: ``struct`` codecs of :mod:`repro.sim.memory` (``LQ(D, a)[0]`` loads
#: a dword, ``SQ(D, a, v)`` stores one; signed loads use the
#: lower-case code), the float/bit converters, the fault helper and
#: the fault class handler calls are guarded against.
_GLOBALS = {
    "__builtins__": builtins, "int": int,
    "TD_": TAG_DWORD_DISPLACEMENT, "OUT": _outside, "ME_": MemoryError_,
    "UP": _PACK_U64.pack, "UQ": _PACK_U64.unpack,
    "PF": _PACK_F64.pack, "FU": _PACK_F64.unpack,
    **{"L" + (WIDTH_CODES[width].lower() if signed
              else WIDTH_CODES[width]): load
       for (width, signed), load in LOADS.items()},
    **{"S" + WIDTH_CODES[width]: store for width, store in STORES.items()},
}


class _Emitter:
    """Per-instruction code generator shared by blocks and traces.

    ``emit(index)`` appends block-mode code for one instruction to the
    generated function body; ``emit(index, chain=...)`` instead *chains
    through* the control transfer, turning what the block engine treats
    as an exit into a guarded continuation:

    ``("jal", target_pc)``
        Direct jump: unconditional chain, no guard needed.  Blocks
        chain every ``jal`` inside their path this way.
    ``("taken", target_pc)``
        Conditional branch assumed taken (traces only): the guard is
        the branch condition itself; the fall-through direction
        side-exits with the same front-end training and cycle charge
        the reference loop pays on that path.
    ``("jalr", assumed_pc)``
        Indirect jump (traces only): the actual target is computed and
        trained as usual, then guarded against the assumed trace
        successor.

    :meth:`segment` emits one path of instruction indices with its jumps
    chained; a block is one segment, a trace several.

    The generated code mirrors the per-instruction timing loop of
    :meth:`Machine.run_reference` statement for statement, and
    *inlines* the stateful helpers themselves — gshare/BTB/RAS
    training, the I-cache MRU probe, the D-cache hit paths, the
    functional memory access and the TRT probe — instead of calling
    them.  The inlined
    code manipulates the very same model state (counter lists, LRU
    order lists, the tag sets, the guest-RAM ``mmap``, the TRT rule
    dict), with slow paths falling back to the real methods, so the
    model state and every counter remain bit-identical at any deopt
    boundary even though traces, blocks and single-instruction units
    interleave freely on the same machine.  The inlined TRT probe and
    type-mispredict path skip the telemetry hooks, which is why
    :meth:`Machine.run` selects these engines only while telemetry is
    off and ``trt.lookup`` is not rebound.
    """

    def __init__(self, table):
        self.table = table
        self.instrs = table.instructions
        self.kinds = table.kinds
        self.base = table.base
        config = table.config
        self.lat = config.latency
        self.redirect_penalty = config.branch.miss_penalty
        self.lus = self.lat.load_use_stall
        self.line_shift = table.line_shift
        self.gshare_mask = config.branch.gshare_entries - 1
        self.history_mask = \
            (1 << (config.branch.gshare_entries.bit_length() - 1)) - 1
        self.btb_entries = config.branch.btb_entries
        self.ras_entries = config.branch.ras_entries
        self.d_shift = config.dcache.line_bytes.bit_length() - 1
        self.d_mask = config.dcache.sets - 1
        self.i_mask = config.icache.sets - 1
        self.sig = ["prev", "x"]
        # Generated lines, and for each exit's return a placeholder
        # ``(indent, cycles, position)``: the exit's id is known only
        # once the table fixes the unit's records (:meth:`build`).
        self.body = []
        self.exits = []     # the unit's Exit records, in emit order
        self.head = None    # the index the unit is entered at
        # Global history lives in a local (``gh``) once a branch has
        # been inlined: read at entry, flushed back at every later exit.
        self.history = False
        self._bound = set()  # instruction indices already bound in sig
        # Statically accumulated state, snapshotted at every exit point:
        # cycles, load-use stalls, conditional branches + indirect jumps
        # executed so far, inlined D-cache probes to credit, and tagged
        # ALU ops and checks passed.
        self.pend = 0
        self.stalls = 0
        self.fe_branches = 0
        self.dprobes = 0
        self.type_hits = 0
        self.prev_out = -1  # load destination carried one instruction
        # ``cpu.pc`` is materialised lazily: inlined instructions skip
        # the per-instruction update, so it must be restored from the
        # static PC before any handler call or exit that relies on it.
        self.pc_stale = False
        # PC of the previously executed instruction (``None`` at unit
        # entry): the I-cache is probed only on a line change, because
        # re-fetches of the MRU line are guaranteed hits — including
        # across chained branches and jumps.
        self.prev_pc = None
        # Registers this unit has already made untyped (``T = 0xFF``,
        # ``F = 0``) since its last handler call: a later untyped write
        # to one of them skips both stores, which would rewrite the
        # values already there.  A handler call may write any register
        # and empties the set; a typed write (``tld``, tagged ALU)
        # removes its destination.
        self.untyped = set()
        self.k = 0          # instructions emitted so far

    def emit_exit(self, executed, carry, indent, exit_pc=None, miss=0):
        """Emit an exit after ``executed`` instructions: ``cpu.pc`` (when
        ``exit_pc`` is given), ``cpu.instret``, the gshare history and
        the return of ``(cycles, exit)``.  The static rest goes into the
        exit's :class:`Exit` record, with the load-use ``carry`` and
        ``miss`` (``1`` for a type redirect)."""
        body = self.body
        if exit_pc is not None:
            body.append("%scpu.pc = %d" % (indent, exit_pc))
        body.append("%scpu.instret += %d" % (indent, executed))
        if self.history:
            body.append("%sg_.history = gh" % indent)
        self.exits.append(Exit(
            executed, executed, self.dprobes, self.fe_branches,
            self.stalls, carry, self.head, self.type_hits, miss))
        body.append((indent, self.pend, len(self.exits) - 1))

    def _call(self, index):
        """Bind handler/instruction ``index`` as default arguments (once
        per index) and return the call expression."""
        self.untyped.clear()
        if index not in self._bound:
            self._bound.add(index)
            self.sig.append("h%d=_h[%d]" % (index, index))
            self.sig.append("i%d=_i[%d]" % (index, index))
        return "h%d(cpu, i%d)" % (index, index)

    def _memory_call(self, call):
        """Emit a handler call that may fault in guest memory (``chklw``,
        ``chklb``, ``ecall``).  Its ``MemoryError_`` first adds the
        instructions the unit retired before it to ``cpu.instret``, as
        :func:`_outside` does for the inlined accesses; the handler
        leaves ``cpu.pc`` at the faulting instruction."""
        body = self.body
        if not self.k:
            body.append("    " + call)
            return
        body.append("    try:")
        body.append("        " + call)
        body.append("    except ME_:")
        body.append("        cpu.instret += %d" % self.k)
        body.append("        raise")

    def _untype(self, rd):
        """Emit the untyped-result stores for ``rd`` unless the unit
        already made it untyped (see :attr:`untyped`)."""
        if rd not in self.untyped:
            self.untyped.add(rd)
            self.body.append("    T[%d] = %d" % (rd, _UNTYPED))
            self.body.append("    F[%d] = 0" % rd)

    # -- inline expansions of the stateful helpers ----------------------

    def _cond_fused(self, pc, taken, target, A):
        """Inline ``fe.conditional_branch(pc, taken, ...)`` with the
        direction known at compile time.

        Replicates :meth:`FrontEnd.conditional_branch` state change for
        state change: the gshare counter nudge and history shift, the
        BTB LRU touch on a predicted-taken lookup, the BTB insertion on
        an actually-taken branch, and the mispredict accounting.  (The
        lookup's LRU touch and the update's re-insertion compose to a
        single move-to-MRU, which is what is emitted.)
        """
        self.history = True
        body = self.body
        body.append(A + "gi = (%d ^ gh) & %d"
                    % (pc >> 2, self.gshare_mask))
        body.append(A + "n_ = gc[gi]")
        if taken:
            body.append(A + "if n_ < 3: gc[gi] = n_ + 1")
            body.append(A + "gh = ((gh << 1) | 1) & %d"
                        % self.history_mask)
            self._btb_fused(pc, "%d" % target, A)
            body.append(A + "if n_ < 2 or p_ != %d:" % target)
            body.append(A + "    fe.mispredicts += 1")
            body.append(A + "    c += %d" % self.redirect_penalty)
        else:
            body.append(A + "if n_ > 0: gc[gi] = n_ - 1")
            body.append(A + "gh = (gh << 1) & %d" % self.history_mask)
            body.append(A + "if n_ >= 2:")
            # btb.lookup(pc) alone: the entry (if any) moves to MRU by
            # dict re-insertion; the prediction is a mispredict either
            # way (predicted taken, was not).
            body.append(A + "    p_ = bt.get(%d)" % pc)
            body.append(A + "    if p_ is not None:")
            body.append(A + "        del bt[%d]" % pc)
            body.append(A + "        bt[%d] = p_" % pc)
            body.append(A + "    fe.mispredicts += 1")
            body.append(A + "    c += %d" % self.redirect_penalty)

    def _btb_fused(self, pc, target_expr, A):
        """Inline ``btb.lookup(pc)`` + ``btb.update(pc, target)``: the
        prediction lands in ``p_``, the entry moves to MRU (dict
        insertion order *is* the LRU order), and the LRU victim — the
        oldest key — is evicted exactly when the original pair would."""
        body = self.body
        body.append(A + "p_ = bt.get(%d)" % pc)
        body.append(A + "if p_ is None:")
        body.append(A + "    if len(bt) >= %d: del bt[next(iter(bt))]"
                    % self.btb_entries)
        body.append(A + "else:")
        body.append(A + "    del bt[%d]" % pc)
        body.append(A + "bt[%d] = %s" % (pc, target_expr))

    def _ras_push(self, return_address, A):
        """Inline ``ras.push(return_address)``."""
        body = self.body
        body.append(A + "rs_.append(%d)" % return_address)
        body.append(A + "if len(rs_) > %d: del rs_[0]" % self.ras_entries)

    def _dc_fused(self, addr, A):
        """Inline the D-cache hit paths for an access to ``addr``.

        A re-touch of a set's MRU line is a hit with no LRU movement;
        a hit on another line of the set moves it to MRU, as
        :meth:`Cache.access` does.  Only a miss calls the real method.
        The access counter is credited by the fold (``self.dprobes``),
        so the miss path pre-decrements to compensate for its own count.
        """
        self.dprobes += 1
        body = self.body
        body.append(A + "ln = %s >> %d" % (addr, self.d_shift))
        body.append(A + "e_ = ds[ln & %d]" % self.d_mask)
        body.append(A + "if not (e_ and e_[-1] == ln):")
        body.append(A + "    if ln in e_:")
        body.append(A + "        e_.remove(ln)")
        body.append(A + "        e_.append(ln)")
        body.append(A + "    else:")
        body.append(A + "        dcc.accesses -= 1")
        body.append(A + "        if not dc(%s): c += dr(%s)" % (addr, addr))

    def _in_ram(self, pc, addr, width, A):
        """Guard an inlined access of ``width`` bytes at ``addr`` by
        the instruction at ``pc``: past the end of guest RAM (or
        wrapped past 2**64), :func:`_outside` raises with the
        reference loop's ``cpu.pc`` and ``cpu.instret``."""
        self.body.append("%sif %s + %d > msz: OUT(cpu, %d, %d, %s, %d)"
                         % (A, addr, width, pc, self.k, addr, width))

    def _redirect_exit(self, k, A):
        """Inline ``Cpu._type_mispredict`` plus the redirect penalty and
        the unit exit (telemetry is off on these engines by selection)."""
        body = self.body
        body.append(A + "cpu.pc = cpu.r_hdl")
        body.append(A + "cpu.redirect = True")
        body.append(A + "s_ = cpu._active_thdl_site")
        body.append(A + "if s_ is not None:")
        body.append(A + "    cpu._deopt_sites[s_][1] += 1")
        body.append(A + "    cpu._active_thdl_site = None")
        body.append(A + "c += %d" % self.redirect_penalty)
        self.emit_exit(k + 1, -1, A, miss=1)

    def emit(self, index, chain=None):
        i = self.instrs[index]
        kind = self.kinds[index]
        pc = self.base + 4 * index
        mn = i.mnemonic
        body = self.body
        lat = self.lat
        k = self.k
        if not k:
            self.head = index
        # Base cycle (single-issue in-order) plus the execution unit's
        # extra latency, both charged on every execution.
        self.pend += 1 + self.table.extra.get(kind, 0)

        # Load-use interlock: inside the unit both sides are static;
        # only the first instruction races the previous unit's load.
        if k == 0:
            regs = sorted({r for r in (i.rs1, i.rs2) if r})
            if regs:
                cond = " or ".join("prev == %d" % r for r in regs)
                body.append("    if %s:" % cond)
                body.append("        c += %d" % self.lus)
                body.append("        ct.load_use_stalls += 1")
        elif self.prev_out > 0 and self.prev_out in (i.rs1, i.rs2):
            self.pend += self.lus
            self.stalls += 1

        # One real I-cache probe per fetched line; later instructions on
        # the line are guaranteed MRU hits, credited by the exit fold.
        if self.prev_pc is None or \
                (pc >> self.line_shift) != (self.prev_pc >> self.line_shift):
            # The set index and tag are compile-time constants, so even
            # the MRU hit check is inlined; the slow path compensates
            # the folded access credit.
            line = pc >> self.line_shift
            body.append("    e_ = iss[%d]" % (line & self.i_mask))
            body.append("    if not (e_ and e_[-1] == %d):" % line)
            body.append("        icc.accesses -= 1")
            body.append("        if not ic(%d): c += dr(%d)" % (pc, pc))

        prev_next = -1
        if mn in BRANCH_COND:
            # Inline branch: the front end is trained with the same
            # (pc, taken, next-pc) triple, just with constants folded
            # per direction.
            target = (pc + i.imm) & _M
            cond = BRANCH_COND[mn] % {"a": i.rs1, "b": i.rs2}
            self.fe_branches += 1
            if chain is not None and chain[0] == "taken":
                body.append("    if not (%s):" % cond)
                self._cond_fused(pc, False, None, "        ")
                self.emit_exit(k + 1, -1, "        ", exit_pc=pc + 4)
                self._cond_fused(pc, True, target, "    ")
            else:
                body.append("    if %s:" % cond)
                self._cond_fused(pc, True, target, "        ")
                body.append("        cpu.pc = %d" % target)
                self.emit_exit(k + 1, -1, "        ")
                self._cond_fused(pc, False, None, "    ")
            self.pc_stale = True
        elif mn == "jal":
            if i.rd:
                body.append("    V[%d] = %d" % (i.rd, pc + 4))
                self._untype(i.rd)
            target = (pc + i.imm) & _M
            # fe.direct_jump inline: RAS push for calls, fused BTB
            # lookup+update, a one-cycle charge on a BTB miss.
            if i.rd == 1:
                self._ras_push(pc + 4, "    ")
            self._btb_fused(pc, "%d" % target, "    ")
            body.append("    if p_ != %d:" % target)
            body.append("        fe.btb_misses += 1")
            body.append("        c += 1")
            if chain is not None:
                self.pc_stale = True
            else:
                body.append("    cpu.pc = %d" % target)
                self.emit_exit(k + 1, -1, "    ")
        elif mn == "jalr":
            # Target read before the link write (rd may equal rs1).
            body.append("    t = (V[%d] + %d) & %d"
                        % (i.rs1, i.imm, _M - 1))
            if i.rd:
                body.append("    V[%d] = %d" % (i.rd, pc + 4))
                self._untype(i.rd)
            # fe.indirect_jump inline: RAS prediction for returns, else
            # fused BTB lookup+update (and a RAS push for calls), then
            # the mispredict check against the actual target.  The
            # front end trains on the *actual* target exactly as the
            # reference loop would; a chain guard only decides where
            # execution continues.
            self.fe_branches += 1
            if i.rd == 0 and i.rs1 == 1:
                body.append("    p_ = rs_.pop() if rs_ else None")
            else:
                self._btb_fused(pc, "t", "    ")
                if i.rd == 1:
                    self._ras_push(pc + 4, "    ")
            body.append("    if p_ != t:")
            body.append("        fe.mispredicts += 1")
            body.append("        c += %d" % self.redirect_penalty)
            if chain is not None:
                body.append("    if t != %d:" % chain[1])
                body.append("        cpu.pc = t")
                self.emit_exit(k + 1, -1, "        ")
                self.pc_stale = True
            else:
                body.append("    cpu.pc = t")
                self.emit_exit(k + 1, -1, "    ")
        elif mn in LOAD_ARGS:
            width, signed = LOAD_ARGS[mn]
            body.append("    a = (V[%d] + %d) & %d" % (i.rs1, i.imm, _M))
            # In-range accesses read guest RAM (the mmap) in place; an
            # out-of-range address raises through Memory (_outside).
            self._in_ram(pc, "a", width, "    ")
            if i.rd:
                if signed:
                    load = "L%s(D, a)[0] & %d" % (
                        WIDTH_CODES[width].lower(), _M)
                elif width == 1:
                    load = "D[a]"
                else:
                    load = "L%s(D, a)[0]" % WIDTH_CODES[width]
                body.append("    V[%d] = %s" % (i.rd, load))
                self._untype(i.rd)
            self._dc_fused("a", "    ")
            prev_next = i.rd or -1
            self.pc_stale = True
        elif mn in STORE_WIDTH:
            width = STORE_WIDTH[mn]
            body.append("    a = (V[%d] + %d) & %d" % (i.rs1, i.imm, _M))
            self._in_ram(pc, "a", width, "    ")
            if width == 1:
                body.append("    D[a] = V[%d] & 255" % i.rs2)
            elif width == 8:
                # Register values already lie in [0, 2**64).
                body.append("    SQ(D, a, V[%d])" % i.rs2)
            else:
                body.append("    S%s(D, a, V[%d] & %d)"
                            % (WIDTH_CODES[width], i.rs2,
                               (1 << (8 * width)) - 1))
            self._dc_fused("a", "    ")
            self.pc_stale = True
        elif mn == "fld":
            # FP load: same shape as the integer loads, landing in the
            # FP bit file (no type/F-bit bookkeeping on FP registers).
            body.append("    a = (V[%d] + %d) & %d" % (i.rs1, i.imm, _M))
            self._in_ram(pc, "a", 8, "    ")
            body.append("    FV[%d] = LQ(D, a)[0]" % i.rd)
            self._dc_fused("a", "    ")
            prev_next = i.rd or -1
            self.pc_stale = True
        elif mn == "fsd":
            body.append("    a = (V[%d] + %d) & %d" % (i.rs1, i.imm, _M))
            self._in_ram(pc, "a", 8, "    ")
            body.append("    SQ(D, a, FV[%d])" % i.rs2)
            self._dc_fused("a", "    ")
            self.pc_stale = True
        elif mn == "tld":
            # Tagged load, fully inlined: mirrors _op_tld +
            # TagCodec.extract statement for statement, reading the
            # codec special registers (mutable via setoffset/setshift/
            # setmask) afresh at every execution.  ``m2`` stands in for
            # ``cpu.mem_addr2`` (the tag-plane probe address).
            body.append("    a = (V[%d] + %d) & %d" % (i.rs1, i.imm, _M))
            body.append("    cd_ = cpu.codec")
            body.append("    co_ = cd_.offset")
            self._in_ram(pc, "a", 8, "    ")
            body.append("    vd = LQ(D, a)[0]")
            body.append("    m2 = None")
            body.append("    if co_ & 4:")           # nan_detect
            body.append("        if (vd >> 51) == 8191:")  # nanbox.is_boxed
            body.append("            tg = (vd >> cd_.shift) & cd_.mask")
            body.append("            it_ = cd_.int_tag")
            body.append("            if it_ is not None and tg == it_:")
            body.append("                w = vd & 4294967295")
            body.append("                x = (w - 4294967296 "
                        "if w & 2147483648 else w) & %d" % _M)
            body.append("            else:")
            body.append("                x = vd & %d" % ((1 << 47) - 1))
            body.append("            fb = 0")
            body.append("        else:")
            body.append("            x = vd")
            body.append("            tg = cd_.double_tag")
            body.append("            fb = 1")
            body.append("    else:")
            body.append("        dp_ = TD_[co_ & 3]")
            body.append("        if dp_:")
            body.append("            m2 = (a + dp_) & %d" % _M)
            self._in_ram(pc, "m2", 8, "            ")
            body.append("            tg = (LQ(D, m2)[0] >> cd_.shift) "
                        "& cd_.mask")
            body.append("        else:")
            body.append("            tg = (vd >> cd_.shift) & cd_.mask")
            body.append("        x = vd")
            body.append("        fb = 1 if tg in cd_.fp_tags else 0")
            body.append("        if fb and m2 is not None and (co_ & 8):")
            body.append("            m2 = None")     # Float Self-Tagging
            if i.rd:
                body.append("    V[%d] = x" % i.rd)
                body.append("    T[%d] = tg & 255" % i.rd)
                body.append("    F[%d] = 1 if fb else 0" % i.rd)
                self.untyped.discard(i.rd)
            self._dc_fused("a", "    ")
            body.append("    if m2 is not None:")
            body.append("        if not dc(m2): c += dr(m2)")
            prev_next = i.rd or -1
            self.pc_stale = True
        elif mn == "tsd":
            # Tagged store, fully inlined: mirrors _op_tsd +
            # TagCodec.insert, preserving the functional memory-op
            # order (old-tag load, value store, tag store).
            body.append("    a = (V[%d] + %d) & %d" % (i.rs1, i.imm, _M))
            body.append("    cd_ = cpu.codec")
            body.append("    co_ = cd_.offset")
            body.append("    m2 = None")
            body.append("    if co_ & 4:")           # nan-boxed: one dword
            body.append("        if F[%d]:" % i.rs2)
            body.append("            vd = V[%d]" % i.rs2)
            body.append("        else:")
            body.append("            vd = %d | ((T[%d] & cd_.mask) "
                        "<< cd_.shift) | (V[%d] & %d)"
                        % (8191 << 51, i.rs2, i.rs2, (1 << 47) - 1))
            self._in_ram(pc, "a", 8, "        ")
            body.append("        SQ(D, a, vd & %d)" % _M)
            body.append("    else:")
            body.append("        ta = (a + TD_[co_ & 3]) & %d" % _M)
            self._in_ram(pc, "ta", 8, "        ")
            body.append("        fd_ = (cd_.mask & 255) << cd_.shift")
            body.append("        td = (LQ(D, ta)[0] & ~fd_ & %d) | ((T[%d] "
                        "& cd_.mask) << cd_.shift)" % (_M, i.rs2))
            self._in_ram(pc, "a", 8, "        ")
            body.append("        SQ(D, a, V[%d])" % i.rs2)
            # ``ta`` is unchanged since its guard above.
            body.append("        SQ(D, ta, td & %d)" % _M)
            body.append("        if not ((co_ & 8) and F[%d]):" % i.rs2)
            body.append("            m2 = ta")       # tag-plane probe
            self._dc_fused("a", "    ")
            body.append("    if m2 is not None:")
            body.append("        if not dc(m2): c += dr(m2)")
            self.pc_stale = True
        elif kind == K_TAGGED_ALU:
            # _tagged_alu inlined: TRT dict probe (hit/miss accounting
            # kept on the table object, whose dict identity survives
            # set_trt/flush_trt), the float path on the fbit, the int
            # path with the optional overflow trap, and write_typed.
            # Both mispredict paths replicate Cpu._type_mispredict and
            # exit the unit; the engine-selection guard guarantees
            # telemetry is off and ``trt.lookup`` is not rebound.
            sym = {"xadd": "+", "xsub": "-", "xmul": "*"}[mn]
            body.append("    k_ = (%d, T[%d], T[%d])"
                        % (TRT_OPCODES[mn], i.rs1, i.rs2))
            body.append("    o_ = tg_(k_)")
            body.append("    if o_ is None:")
            body.append("        tt_.misses += 1")
            body.append("        tt_.miss_keys[k_] = "
                        "tt_.miss_keys.get(k_, 0) + 1")
            self._redirect_exit(k, "        ")
            body.append("    tt_.hits += 1")
            body.append("    if F[%d]:" % i.rs1)
            if i.rd:
                # Finite-double arithmetic cannot raise in Python (it
                # saturates to inf per IEEE 754), so float_to_bits'
                # OverflowError fallback is unreachable here and the
                # struct round-trips are inlined directly.
                body.append("        x = UQ(PF(FU(UP(V[%d]))[0] %s "
                            "FU(UP(V[%d]))[0]))[0]" % (i.rs1, sym, i.rs2))
                body.append("        V[%d] = x" % i.rd)
                body.append("        T[%d] = o_ & 255" % i.rd)
                body.append("        F[%d] = 1" % i.rd)
                if mn != "xmul":
                    body.append("        c += %d" % lat.fp_alu)
            else:
                # rd == x0: the float result is pure and the write is
                # skipped, so fbit[0] stays 0 and no fp_alu is charged.
                body.append("        pass")
            body.append("    else:")
            body.append("        a_ = (V[%d] & %d) - (V[%d] & %d)"
                        % (i.rs1, _SIGN - 1, i.rs1, _SIGN))
            body.append("        b_ = (V[%d] & %d) - (V[%d] & %d)"
                        % (i.rs2, _SIGN - 1, i.rs2, _SIGN))
            body.append("        x = a_ %s b_" % sym)
            body.append("        if hi_ and not (-hi_ <= x < hi_):")
            body.append("            cpu.overflow_traps += 1")
            self._redirect_exit(k, "            ")
            if i.rd:
                body.append("        V[%d] = x & %d" % (i.rd, _M))
                body.append("        T[%d] = o_ & 255" % i.rd)
                body.append("        F[%d] = 0" % i.rd)
                self.untyped.discard(i.rd)
            if mn == "xmul":
                self.pend += lat.mul  # charged on the fast path
            self.type_hits += 1  # on every later exit
            self.pc_stale = True
        elif mn in ALU:
            if i.rd:
                body.append("    V[%d] = %s" % (i.rd, ALU[mn] % {
                    "a": i.rs1, "b": i.rs2, "imm": i.imm, "pc": pc}))
                self._untype(i.rd)
            # rd == x0: the template is pure, so a dead write is elided.
            self.pc_stale = True
        else:
            if kind in (K_BRANCH, K_JAL, K_JALR, K_STORE, K_TAGGED_ALU):
                # Every control-transfer, store and tagged-ALU mnemonic
                # is inlined above, and the handler call below does no
                # front-end, store or TRT accounting.  A new one must be
                # inlined too; until then its units degrade to the
                # exact per-instruction fallback.
                raise NotImplementedError("no inline code for %s" % mn)
            # Handler-called fallback: the handler reads/writes cpu.pc,
            # so materialise it first if inlined code left it stale.
            if self.pc_stale:
                body.append("    cpu.pc = %d" % pc)
                self.pc_stale = False
            call = self._call(index)
            if kind == K_LOAD:
                self._memory_call(call)  # chklw: the only one not inlined
                body.append("    a = cpu.mem_addr")
                self._dc_fused("a", "    ")
                prev_next = i.rd or -1
                if mn == "chklw":
                    # Checked load classified as a plain load by the
                    # timing model: no redirect penalty, but the PC may
                    # have been redirected to R_hdl — guard the
                    # fall-through.
                    body.append("    if cpu.pc != %d:" % (pc + 4))
                    self.emit_exit(k + 1, prev_next, "        ")
            elif kind == K_CHECK:
                body.append("    cpu.redirect = False")
                if mn == "tchk":
                    body.append("    " + call)
                else:
                    self._memory_call(call)
                    body.append("    a = cpu.mem_addr")
                    self._dc_fused("a", "    ")
                body.append("    if cpu.redirect:")
                body.append("        c += %d" % self.redirect_penalty)
                self.emit_exit(k + 1, -1, "        ", miss=1)
                self.type_hits += 1
                if mn != "tchk":
                    prev_next = i.rd or -1
            elif kind == K_ECALL:
                self._memory_call(call)
                body.append("    m = cpu.pending_host_cost")
                body.append("    cpu.pending_host_cost = 0")
                body.append("    ct.host_instructions += m")
                body.append("    ct.host_calls += 1")
                body.append("    c += int(m * %r)" % lat.host_cpi)
                self.emit_exit(k + 1, -1, "    ")
            else:
                body.append("    " + call)
                if mn == "ebreak":
                    self.emit_exit(k + 1, -1, "    ")
                elif mn == "thdl":
                    # With the Section-5 path selector armed, thdl may
                    # redirect straight to the slow path.
                    body.append("    if cpu.pc != %d:" % (pc + 4))
                    self.emit_exit(k + 1, -1, "        ")
        self.prev_out = prev_next
        self.prev_pc = pc
        self.k += 1

    def segment(self, path, chain=None):
        """Emit the instructions at ``path`` (a block path or a prefix
        of one), chaining every ``jal`` before the last instruction to
        the next index on the path; the last instruction is emitted
        with ``chain`` (``None`` for block-mode code)."""
        for index, following in zip(path, path[1:]):
            jump = self.instrs[index].mnemonic == "jal"
            self.emit(index, ("jal", self.base + 4 * following)
                      if jump else None)
        self.emit(path[-1], chain)

    def finish(self):
        """Emit the final fall-through exit unless the last instruction
        was a terminator (whose exit is already emitted)."""
        last = self.instrs[(self.prev_pc - self.base) >> 2]
        if last.mnemonic not in TERMINATORS:
            exit_pc = self.prev_pc + 4 if self.pc_stale else None
            self.emit_exit(self.k, self.prev_out, "    ", exit_pc=exit_pc)

    def build(self, filename):
        """Fix the unit's exit records in the table, then assemble,
        ``compile`` and ``exec`` the generated function."""
        first = self.table.fix_exits(self.exits)
        lines = ["def _block(%s):" % ", ".join(self.sig), _UNPACK,
                 "    c = 0"]
        if self.history:
            lines.append("    gh = g_.history")
        lines.extend(
            line if type(line) is str
            else "%sreturn c + %d, %d" % (line[0], line[1], first + line[2])
            for line in self.body)
        # The handler/instruction defaults are evaluated at ``def``
        # time from these locals; the function's globals are shared.
        local = {"_h": self.table._h, "_i": self.table._i}
        exec(compile("\n".join(lines), filename, "exec"), _GLOBALS, local)
        return local["_block"]


def _compile_block(table, start, max_len):
    """Generate, ``exec`` and return ``(fn, count)`` for the block
    entered at instruction index ``start``: one segment, its path."""
    emitter = _Emitter(table)
    emitter.segment(table.path_at(start, max_len))
    emitter.finish()
    fn = emitter.build("<block@0x%x>" % (table.base + 4 * start))
    return fn, emitter.k


def _fallback_block(table, index):
    """A compile-free single-instruction entry for ``index``.

    Used when :func:`_compile_block` fails: a plain Python closure that
    executes one instruction through ``Cpu.step`` and charges cycles
    with the exact statement order of
    :meth:`repro.uarch.pipeline.Machine.run_reference`, so counters
    stay bit-identical with both engines even for degraded entries.
    It never ``exec``-compiles anything, so it cannot itself fail.

    Its model calls count themselves, so its exit records credit
    nothing: one per outcome, the load-use carry and, for a tagged ALU
    op or check, a hit or a miss.
    """
    instr = table.instructions[index]
    kind = table.kinds[index]
    pc = table.base + 4 * index
    lat = table.config.latency
    lus = lat.load_use_stall
    rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
    mnemonic = instr.mnemonic
    extra = table.extra.get(kind, 0)
    typed = kind == K_TAGGED_ALU or kind == K_CHECK
    loads = rd and (kind == K_LOAD or kind == K_CHECK and mnemonic != "tchk")
    done = table.fix_exits(
        [Exit(1, 0, 0, 0, 0, rd if loads else -1, index, int(typed), 0)]
        + ([Exit(1, 0, 0, 0, 0, -1, index, 0, 1)] if typed else []))
    missed = done + 1

    def step(prev, x):
        cpu, ic, dc, dr, fe, ct = x[:6]
        cpu.step()
        c = 1
        if prev >= 0:
            if rs1 == prev or rs2 == prev:
                c += lus
                ct.load_use_stalls += 1
        exit_id = done
        if not ic(pc):
            c += dr(pc)
        if kind:
            if kind == K_BRANCH:
                c += fe.conditional_branch(pc, cpu.branch_taken, cpu.pc)
            elif kind == K_JAL:
                c += fe.direct_jump(pc, cpu.pc, rd == 1, pc + 4)
            elif kind == K_JALR:
                c += fe.indirect_jump(pc, cpu.pc, rd == 0 and rs1 == 1,
                                      rd == 1, pc + 4)
            elif kind == K_LOAD or kind == K_STORE:
                if not dc(cpu.mem_addr):
                    c += dr(cpu.mem_addr)
                if cpu.mem_addr2 is not None and not dc(cpu.mem_addr2):
                    c += dr(cpu.mem_addr2)
            elif kind == K_TAGGED_ALU:
                if cpu.redirect:
                    c += fe.pipeline_redirect()
                    exit_id = missed
                elif cpu.regs.fbit[rd]:
                    c += lat.fp_alu if mnemonic != "xmul" else lat.mul
                elif mnemonic == "xmul":
                    c += lat.mul
            elif kind == K_CHECK:
                if mnemonic != "tchk" and not dc(cpu.mem_addr):
                    c += dr(cpu.mem_addr)
                if cpu.redirect:
                    c += fe.pipeline_redirect()
                    exit_id = missed
            elif kind == K_ECALL:
                cost = cpu.pending_host_cost
                cpu.pending_host_cost = 0
                ct.host_instructions += cost
                ct.host_calls += 1
                c += int(cost * lat.host_cpi)
            else:
                c += extra
        return c, exit_id

    return step


# One table per (program, machine config).  Keyed weakly so throwaway
# test programs do not pin their tables; the values hold no reference
# back to the program object.
_TABLES = weakref.WeakKeyDictionary()


def block_table(program, config):
    """The (shared, lazily filled) :class:`BlockTable` for a program
    under a machine configuration."""
    per_program = _TABLES.get(program)
    if per_program is None:
        per_program = {}
        _TABLES[program] = per_program
    table = per_program.get(config)
    if table is None:
        table = BlockTable(program, config)
        per_program[config] = table
    return table
