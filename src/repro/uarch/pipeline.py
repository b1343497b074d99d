"""Timing-approximate model of the 5-stage in-order Rocket pipeline.

:class:`Machine` wraps the functional :class:`~repro.sim.cpu.Cpu` and
charges cycles per retired instruction:

* one base cycle (single-issue in-order),
* I-cache and D-cache misses at DRAM latency (1-cycle hits),
* branch-direction/target mispredictions and type-misprediction redirects
  at the 2-cycle front-end penalty,
* load-use interlock stalls,
* multi-cycle execution units (mul/div/FP).

For a single-issue in-order core this per-instruction accounting captures
the same first-order effects as stage-by-stage simulation (there is no
overlap to mis-model beyond the load-use interlock) while staying fast
enough to run the full benchmark suite in pure Python.
"""

from repro.engines.ir import (
    K_BRANCH,
    K_CHECK,
    K_ECALL,
    K_JAL,
    K_JALR,
    K_LOAD,
    K_STORE,
    K_TAGGED_ALU,
    extra_cycles,
    kind_of,
)
from repro.sim.errors import (
    ExecutionLimitExceeded,
    IllegalInstruction,
    MemoryError_,
)
from repro.sim.trt import attribution_keys
from repro.uarch.branch import FrontEnd
from repro.uarch.cache import Cache
from repro.uarch.config import DEFAULT_CONFIG
from repro.uarch.counters import Counters
from repro.uarch.dram import Dram


class Attribution:
    """Maps program addresses to statistic buckets.

    ``bucket_ranges`` is a list of ``(name, start_addr, end_addr)`` used to
    attribute per-instruction counts (e.g. one bucket per bytecode
    handler); ``entry_points`` maps an address to a bytecode name whose
    execution count increments whenever that instruction retires.
    """

    def __init__(self, program, bucket_ranges=(), entry_points=None):
        count = len(program.instructions)
        self.bucket_names = []
        self.bucket_of = [-1] * count
        name_ids = {}
        for name, start, end in bucket_ranges:
            if name not in name_ids:
                name_ids[name] = len(self.bucket_names)
                self.bucket_names.append(name)
            bucket_id = name_ids[name]
            for addr in range(start, end, 4):
                self.bucket_of[program.instr_index(addr)] = bucket_id
        self.entry_names = []
        self.entry_of = [-1] * count
        entry_ids = {}
        for addr, name in (entry_points or {}).items():
            if name not in entry_ids:
                entry_ids[name] = len(self.entry_names)
                self.entry_names.append(name)
            self.entry_of[program.instr_index(addr)] = entry_ids[name]


class Machine:
    """A configured core: functional CPU plus timing state.

    ``telemetry`` optionally attaches a :class:`repro.telemetry.Telemetry`
    bus: the reference loop installs its cycle counter as the bus clock
    and emits bytecode-span, cache-miss and stall events.  Telemetry is
    purely observational — counters and cycles are identical with it on
    or off — and the disabled path adds no per-instruction work (event
    guards live inside branches that are already rare).
    """

    def __init__(self, cpu, config=None, attribution=None, telemetry=None):
        self.cpu = cpu
        self.config = config or DEFAULT_CONFIG
        self.icache = Cache(self.config.icache, name="icache")
        self.dcache = Cache(self.config.dcache, name="dcache")
        self.dram = Dram(self.config.dram)
        self.frontend = FrontEnd(self.config.branch)
        self.counters = Counters()
        self.attribution = attribution
        self.telemetry = telemetry
        self._kinds = [kind_of(i.mnemonic)
                       for i in cpu.program.instructions]

    def run(self, max_instructions=200_000_000):
        """Run to completion, accumulating cycles and counters.

        The engine follows from what is attached:

        * nothing — the superblock trace engine
          (:mod:`repro.sim.traces`, :meth:`_run_traces`);
        * attribution only — the compiled blocks with attributed
          dispatch (:meth:`_run_blocks`);
        * telemetry (machine- or cpu-level, including a ``trt.lookup``
          rebound on the instance, which the compiled units inline) or
          a tracer that rebinds ``cpu.step``, with or without
          attribution — :meth:`run_reference`.

        All three produce bit-identical counters and cycles.
        """
        if (self.telemetry is None
                and self.cpu.telemetry is None
                and "step" not in self.cpu.__dict__
                and "lookup" not in self.cpu.trt.__dict__):
            if self.attribution is None:
                return self._run_traces(max_instructions)
            return self._run_blocks(max_instructions)
        return self.run_reference(max_instructions)

    def _run_blocks(self, max_instructions):
        """Block-at-a-time dispatch loop with attribution.

        Runs the shared compiled blocks (:mod:`repro.sim.blocks`) and
        counts the exit each call took in a histogram of this run's
        own.  When the run ends, however it ends, the histogram is
        folded into the cache, front-end and stall totals; on success
        also into the bucket counts, entry counts and the type hits and
        misses of units that an entry heads (see
        :class:`~repro.sim.blocks.AttributedUnits`).  Per call the loop
        keeps only what is dynamic: every handler entry heads a unit,
        so flat spans close once per bytecode from the running cycle
        total, with the arithmetic of :meth:`run_reference`, and a
        unit with type checks that no entry heads charges its hits and
        misses to the bytecode running.
        """
        from repro.sim.blocks import block_table, count_exit, unit_state

        cpu = self.cpu
        attribution = self.attribution
        table = block_table(cpu.program, self.config)
        units = table.attributed(attribution)
        slots = units.units
        size = len(slots)
        base = table.base
        exits = table.exits
        carry = table.carry
        histogram = [0] * len(exits)
        x = unit_state(self)
        entry_names = attribution.entry_names
        entry_type_hits = [0] * len(entry_names)
        entry_type_misses = [0] * len(entry_names)
        flat_instructions = [0] * (len(entry_names) + 1)
        flat_cycles = [0] * (len(entry_names) + 1)
        span_cycles = 0
        span_instret = 0
        current_entry = -1
        cycles = 0
        prev = -1

        try:
            while not cpu.halted:
                index = (cpu.pc - base) >> 2
                if 0 <= index < size:
                    unit = slots[index]
                    if unit is None:
                        unit = units.unit_at(index)
                else:
                    raise IllegalInstruction(
                        "PC 0x%x outside program" % cpu.pc, pc=cpu.pc)
                before = cpu.instret
                if before + unit[1] > max_instructions:
                    # Close to the budget: a single instruction, so the
                    # limit trips at the exact instruction.
                    unit = units.single_at(index)
                fn, _count, entry, typed = unit
                if entry >= 0:
                    # Close the previous flat span (see run_reference).
                    flat_cycles[current_entry + 1] += cycles - span_cycles
                    flat_instructions[current_entry + 1] += \
                        before - span_instret
                    span_cycles = cycles
                    span_instret = before
                    current_entry = entry
                c, e = fn(prev, x)
                cycles += c
                try:
                    histogram[e] += 1
                except IndexError:
                    count_exit(histogram, e, table)
                prev = carry[e]
                if typed and current_entry >= 0:
                    record = exits[e]
                    entry_type_hits[current_entry] += record.hits
                    entry_type_misses[current_entry] += record.miss
                if cpu.instret >= max_instructions:
                    # The unit ran a prefix of its block's path.
                    raise ExecutionLimitExceeded(
                        "exceeded %d instructions at PC 0x%x"
                        % (max_instructions, cpu.pc), pc=cpu.pc,
                        mnemonic=table.instructions[table.path_at(
                            index, cpu.instret - before)[-1]].mnemonic)
        except MemoryError_ as err:
            raise self._locate(err)
        finally:
            table.fold(histogram, self)

        flat_cycles[current_entry + 1] += cycles - span_cycles
        flat_instructions[current_entry + 1] += cpu.instret - span_instret
        bucket_counts = [0] * len(attribution.bucket_names)
        entry_counts = [0] * len(entry_names)
        units.fold(histogram, bucket_counts, entry_counts,
                   entry_type_hits, entry_type_misses)
        self._finalize(cycles)
        self._publish_attribution(bucket_counts, entry_counts,
                                  entry_type_hits, entry_type_misses,
                                  flat_instructions, flat_cycles)
        return self.counters

    def _run_traces(self, max_instructions):
        """Trace-at-a-time dispatch loop (see :mod:`repro.sim.traces`).

        Each dispatch runs the compiled unit at the PC (a trace, or the
        plain block before its head turns hot) and bumps its profile
        counter; at :data:`~repro.sim.traces.TRACE_THRESHOLD` the head's
        path is recorded — executing per block while recording, so it is
        accounted exactly like any other unit call.  Exits are counted
        and folded as in :meth:`_run_blocks`, without attribution.
        """
        from repro.sim.blocks import count_exit, unit_state
        from repro.sim.traces import (
            TRACE_EVAL_WINDOW,
            TRACE_THRESHOLD,
            trace_table,
        )

        cpu = self.cpu
        table = trace_table(cpu.program, self.config,
                            getattr(cpu, "workload", None))
        blocks = table.blocks
        entries = table.entries
        counts = table.counts
        meta = table.meta
        size = len(entries)
        base = table.base
        carry = blocks.carry
        histogram = [0] * len(blocks.exits)
        x = unit_state(self)
        cycles = 0
        prev = -1

        try:
            while not cpu.halted:
                index = (cpu.pc - base) >> 2
                if 0 <= index < size:
                    entry = entries[index]
                    if entry is None:
                        entry = table.entry_at(index)
                else:
                    raise IllegalInstruction(
                        "PC 0x%x outside program" % cpu.pc, pc=cpu.pc)
                hot = counts[index] + 1
                counts[index] = hot
                done = cpu.instret
                if hot == TRACE_THRESHOLD:
                    # Recording counts the exits of the blocks it runs,
                    # and never reaches the budget (it stops a block
                    # short of it).
                    c, prev = table.record_and_run(
                        index, cpu, prev, x, max_instructions, histogram)
                    cycles += c
                    continue
                if done + entry[1] < max_instructions:
                    c, e = entry[0](prev, x)
                    m = meta[index]
                    if m is not None:
                        # Trace health: how much of the trace actually
                        # ran.  Mostly-early-exiting traces (stale path
                        # profile) are retired for re-recording.
                        m[1] += 1
                        m[2] += cpu.instret - done
                        if m[1] == TRACE_EVAL_WINDOW:
                            table.evaluate(index)
                else:
                    # A unit that could reach the budget: the plain
                    # block or a single instruction instead, so the
                    # limit trips at the exact instruction, which is
                    # the last one of the block path's prefix it ran.
                    c, e = table.budget_entry(
                        index, max_instructions - done)[0](prev, x)
                    if cpu.instret >= max_instructions:
                        count_exit(histogram, e, blocks)
                        raise ExecutionLimitExceeded(
                            "exceeded %d instructions at PC 0x%x"
                            % (max_instructions, cpu.pc), pc=cpu.pc,
                            mnemonic=blocks.instructions[blocks.path_at(
                                index, cpu.instret - done)[-1]].mnemonic)
                cycles += c
                try:
                    histogram[e] += 1
                except IndexError:
                    count_exit(histogram, e, blocks)
                prev = carry[e]
        except MemoryError_ as err:
            raise self._locate(err)
        finally:
            blocks.fold(histogram, self)

        return self._finalize(cycles)

    def run_reference(self, max_instructions=200_000_000):
        """The reference per-instruction loop: the timing model's spec,
        which :meth:`run` selects whenever telemetry or a ``cpu.step``
        shadow is attached, and which tests and ``tools/perfbench.py``
        compare the trace and attributed block engines against."""
        cpu = self.cpu
        config = self.config
        latency = config.latency
        extra = extra_cycles(latency)
        icache = self.icache
        dcache = self.dcache
        dram = self.dram
        frontend = self.frontend
        counters = self.counters
        kinds = self._kinds
        base = cpu.program.base
        attribution = self.attribution
        bucket_counts = None
        entry_names = ()
        if attribution is not None:
            entry_names = attribution.entry_names
            bucket_counts = [0] * len(attribution.bucket_names)
            entry_counts = [0] * len(entry_names)
            entry_type_hits = [0] * len(entry_names)
            entry_type_misses = [0] * len(entry_names)
            # Flat spans: slot 0 is interpreter startup, slot i+1 is
            # entry i.  A span runs from one handler entry to the next,
            # so the slots partition instructions and cycles exactly.
            flat_instructions = [0] * (len(entry_names) + 1)
            flat_cycles = [0] * (len(entry_names) + 1)
            span_cycles = 0
            span_instret = 0
            bucket_of = attribution.bucket_of
            entry_of = attribution.entry_of
            current_entry = -1

        cycles = 0
        prev_load_rd = -1

        telemetry = self.telemetry
        ev_stall = ev_bytecode = None
        if telemetry is not None:
            telemetry.set_clock(lambda: cycles)
            if telemetry.wants("cache"):
                def _cache_miss_hook(name):
                    def on_miss(addr):
                        telemetry.emit({"cat": "cache", "name": name,
                                        "addr": addr})
                    return on_miss
                icache.on_miss = _cache_miss_hook("icache_miss")
                dcache.on_miss = _cache_miss_hook("dcache_miss")
            if telemetry.wants("stall"):
                ev_stall = telemetry
            if telemetry.wants("bytecode") and attribution is not None:
                ev_bytecode = telemetry

        while not cpu.halted:
            pc = cpu.pc
            index = (pc - base) >> 2
            instr = cpu.step()
            kind = kinds[index]

            if attribution is not None:
                bucket = bucket_of[index]
                if bucket >= 0:
                    bucket_counts[bucket] += 1
                entry = entry_of[index]
                if entry >= 0:
                    # Close the previous flat span: everything retired
                    # and charged up to (excluding) this entry
                    # instruction belongs to the previous bytecode.
                    flat_cycles[current_entry + 1] += cycles - span_cycles
                    flat_instructions[current_entry + 1] += \
                        cpu.instret - 1 - span_instret
                    span_cycles = cycles
                    span_instret = cpu.instret - 1
                    if ev_bytecode is not None:
                        if current_entry >= 0:
                            ev_bytecode.emit(
                                {"cat": "bytecode", "ph": "E",
                                 "name": entry_names[current_entry]})
                        ev_bytecode.emit({"cat": "bytecode", "ph": "B",
                                          "name": entry_names[entry]})
                    entry_counts[entry] += 1
                    current_entry = entry

            cycles += 1

            if prev_load_rd >= 0:
                if instr.rs1 == prev_load_rd or instr.rs2 == prev_load_rd:
                    cycles += latency.load_use_stall
                    counters.load_use_stalls += 1
                    if ev_stall is not None:
                        ev_stall.emit({"cat": "stall", "name": "load_use",
                                       "pc": pc})
                prev_load_rd = -1

            if not icache.access(pc):
                cycles += dram.access(pc)

            if kind:
                if kind == K_BRANCH:
                    cycles += frontend.conditional_branch(
                        pc, cpu.branch_taken, cpu.pc)
                elif kind == K_JAL:
                    cycles += frontend.direct_jump(
                        pc, cpu.pc, instr.rd == 1, pc + 4)
                elif kind == K_JALR:
                    is_return = instr.rd == 0 and instr.rs1 == 1
                    cycles += frontend.indirect_jump(
                        pc, cpu.pc, is_return, instr.rd == 1, pc + 4)
                elif kind == K_LOAD:
                    if not dcache.access(cpu.mem_addr):
                        cycles += dram.access(cpu.mem_addr)
                    if cpu.mem_addr2 is not None and \
                            not dcache.access(cpu.mem_addr2):
                        cycles += dram.access(cpu.mem_addr2)
                    if instr.rd:
                        prev_load_rd = instr.rd
                elif kind == K_STORE:
                    if not dcache.access(cpu.mem_addr):
                        cycles += dram.access(cpu.mem_addr)
                    if cpu.mem_addr2 is not None and \
                            not dcache.access(cpu.mem_addr2):
                        cycles += dram.access(cpu.mem_addr2)
                elif kind == K_TAGGED_ALU:
                    if cpu.redirect:
                        cycles += frontend.pipeline_redirect()
                        if attribution is not None and current_entry >= 0:
                            entry_type_misses[current_entry] += 1
                    else:
                        if attribution is not None and current_entry >= 0:
                            entry_type_hits[current_entry] += 1
                        if cpu.regs.fbit[instr.rd]:
                            cycles += latency.fp_alu if \
                                instr.mnemonic != "xmul" else latency.mul
                        elif instr.mnemonic == "xmul":
                            cycles += latency.mul
                elif kind == K_CHECK:
                    is_load = instr.mnemonic != "tchk"
                    if is_load and not dcache.access(cpu.mem_addr):
                        cycles += dram.access(cpu.mem_addr)
                    if cpu.redirect:
                        cycles += frontend.pipeline_redirect()
                        if attribution is not None and current_entry >= 0:
                            entry_type_misses[current_entry] += 1
                    else:
                        if attribution is not None and current_entry >= 0:
                            entry_type_hits[current_entry] += 1
                        if is_load and instr.rd:
                            prev_load_rd = instr.rd
                elif kind == K_ECALL:
                    cost = cpu.pending_host_cost
                    cpu.pending_host_cost = 0
                    counters.host_instructions += cost
                    counters.host_calls += 1
                    cycles += int(cost * latency.host_cpi)
                else:
                    cycles += extra[kind]

            if cpu.instret >= max_instructions:
                raise ExecutionLimitExceeded(
                    "exceeded %d instructions at PC 0x%x"
                    % (max_instructions, cpu.pc),
                    pc=cpu.pc, mnemonic=instr.mnemonic)

        if attribution is not None:
            # Close the final flat span so the per-bytecode totals
            # partition the run exactly.
            flat_cycles[current_entry + 1] += cycles - span_cycles
            flat_instructions[current_entry + 1] += \
                cpu.instret - span_instret
            if ev_bytecode is not None and current_entry >= 0:
                ev_bytecode.emit({"cat": "bytecode", "ph": "E",
                                  "name": entry_names[current_entry]})

        self._finalize(cycles)
        if attribution is not None:
            self._publish_attribution(bucket_counts, entry_counts,
                                      entry_type_hits, entry_type_misses,
                                      flat_instructions, flat_cycles)
        return counters

    def _publish_attribution(self, bucket_counts, entry_counts,
                             entry_type_hits, entry_type_misses,
                             flat_instructions, flat_cycles):
        """Store an attributed run's tallies in the counters as dicts
        keyed by bucket and bytecode name; flat slot 0 is interpreter
        startup, and empty flat slots are left out."""
        attribution = self.attribution
        counters = self.counters
        entry_names = attribution.entry_names
        counters.bucket_instructions = dict(
            zip(attribution.bucket_names, bucket_counts))
        counters.bytecode_counts = dict(zip(entry_names, entry_counts))
        counters.bytecode_type_hits = dict(
            zip(entry_names, entry_type_hits))
        counters.bytecode_type_misses = dict(
            zip(entry_names, entry_type_misses))
        flat_names = ["(startup)"] + list(entry_names)
        counters.bytecode_flat_instructions = {
            name: count for name, count
            in zip(flat_names, flat_instructions) if count}
        counters.bytecode_flat_cycles = {
            name: count for name, count
            in zip(flat_names, flat_cycles) if count}

    def _finalize(self, cycles):
        """Publish run totals from the model state into the counters."""
        cpu = self.cpu
        counters = self.counters
        counters.cycles = cycles
        counters.core_instructions = cpu.instret
        counters.branches = self.frontend.branches
        counters.branch_mispredicts = self.frontend.mispredicts
        counters.btb_misses = self.frontend.btb_misses
        counters.icache_accesses = self.icache.accesses
        counters.icache_misses = self.icache.misses
        counters.dcache_accesses = self.dcache.accesses
        counters.dcache_misses = self.dcache.misses
        counters.type_hits = cpu.trt.hits
        counters.type_misses = cpu.trt.misses
        counters.overflow_traps = cpu.overflow_traps
        counters.chk_hits = cpu.chk_hits
        counters.chk_misses = cpu.chk_misses
        counters.trt_miss_keys = attribution_keys(cpu.trt.miss_keys)
        return counters

    def _locate(self, err):
        """Add the faulting instruction to a compiled unit's memory
        fault: a unit sets ``cpu.pc`` before any access that can fault
        (see :func:`repro.sim.blocks._outside`), so the PC names it."""
        cpu = self.cpu
        instr = cpu.program.instructions[(cpu.pc - cpu.program.base) >> 2]
        return err.with_context(pc=cpu.pc, mnemonic=instr.mnemonic)
