"""Scoreboard (stage-timestamped) pipeline model.

A second, more detailed timing opinion used to cross-validate the fast
per-instruction model in :mod:`repro.uarch.pipeline`.  Instead of
charging a single cycle plus penalties, every retired instruction gets
explicit per-stage timestamps through the classic five stages
(IF/ID/EX/MEM/WB) with:

* one instruction fetched per cycle (single issue, in-order),
* full bypassing: ALU results forward from EX, load results from MEM
  (hence the one-cycle load-use interlock emerges naturally),
* multi-cycle execution units occupying EX,
* front-end redirects (branch mispredictions and type mispredictions)
  restarting fetch after the resolving EX stage,
* the same I/D cache, DRAM and predictor models as the fast machine.

Because the core is in-order and single-issue, iterating instructions in
retirement order with ready-time bookkeeping is exact with respect to
this stage model — no cycle-by-cycle event loop is needed.
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
from repro.isa.instructions import INSTRUCTION_SPECS
from repro.sim.errors import ExecutionLimitExceeded
from repro.uarch.branch import FrontEnd
from repro.uarch.cache import Cache
from repro.uarch.config import DEFAULT_CONFIG
from repro.uarch.counters import Counters
from repro.uarch.dram import Dram

_READS_RS2_FMTS = frozenset(["R", "S", "B"])


class ScoreboardMachine:
    """Stage-timestamped run of a functional CPU."""

    def __init__(self, cpu, config=None):
        self.cpu = cpu
        self.config = config or DEFAULT_CONFIG
        self.icache = Cache(self.config.icache)
        self.dcache = Cache(self.config.dcache)
        self.dram = Dram(self.config.dram)
        self.frontend = FrontEnd(self.config.branch)
        self.counters = Counters()
        self._kinds = [kind_of(i.mnemonic)
                       for i in cpu.program.instructions]
        self._reads_rs2 = [
            INSTRUCTION_SPECS[i.mnemonic].fmt in _READS_RS2_FMTS
            for i in cpu.program.instructions]

    def run(self, max_instructions=200_000_000):
        cpu = self.cpu
        latency = self.config.latency
        extra_of = extra_cycles(latency)
        kinds = self._kinds
        reads_rs2 = self._reads_rs2
        base = cpu.program.base
        icache, dcache, dram = self.icache, self.dcache, self.dram
        frontend = self.frontend
        counters = self.counters

        reg_ready = [0] * 32   # cycle each x-register's value bypasses
        freg_ready = [0] * 32
        fetch_ready = 0        # earliest cycle the next fetch can start
        last_retire = 0

        while not cpu.halted:
            pc = cpu.pc
            index = (pc - base) >> 2
            instr = cpu.step()
            kind = kinds[index]

            # -- IF ------------------------------------------------------
            fetch = fetch_ready
            if not icache.access(pc):
                fetch += dram.access(pc)
            fetch_ready = fetch + 1  # next sequential fetch
            decode = fetch + 1

            # -- ID/issue: wait for source operands (full bypassing) ------
            issue = decode
            spec = instr.spec
            fp_sources = spec.regclass("rs1") == "f"
            if fp_sources:
                if freg_ready[instr.rs1] > issue:
                    issue = freg_ready[instr.rs1]
            elif reg_ready[instr.rs1] > issue:
                issue = reg_ready[instr.rs1]
            if reads_rs2[index]:
                if spec.regclass("rs2") == "f":
                    if freg_ready[instr.rs2] > issue:
                        issue = freg_ready[instr.rs2]
                elif reg_ready[instr.rs2] > issue:
                    issue = reg_ready[instr.rs2]

            # -- EX -------------------------------------------------------
            extra = extra_of.get(kind, 0)
            if kind == K_TAGGED_ALU and not cpu.redirect:
                if cpu.regs.fbit[instr.rd] or instr.mnemonic == "xmul":
                    extra = latency.fp_alu if instr.mnemonic != "xmul" \
                        else latency.mul
            execute = issue + 1 + extra

            # -- MEM ------------------------------------------------------
            mem_done = execute
            is_load = kind == K_LOAD or \
                (kind == K_CHECK and instr.mnemonic != "tchk")
            if is_load or kind == K_STORE:
                mem_done = execute + 1
                if not dcache.access(cpu.mem_addr):
                    mem_done += dram.access(cpu.mem_addr)
                if cpu.mem_addr2 is not None and \
                        not dcache.access(cpu.mem_addr2):
                    mem_done += dram.access(cpu.mem_addr2)
            elif kind == K_ECALL:
                cost = cpu.pending_host_cost
                cpu.pending_host_cost = 0
                counters.host_instructions += cost
                counters.host_calls += 1
                mem_done = execute + int(cost * latency.host_cpi)

            # -- destination availability (bypass network) -----------------
            if instr.rd:
                ready = mem_done if is_load or kind == K_ECALL else execute
                if spec.regclass("rd") == "f":
                    freg_ready[instr.rd] = ready
                else:
                    reg_ready[instr.rd] = ready
            retire = mem_done + 1  # WB
            if retire > last_retire:
                last_retire = retire

            # -- control flow: redirects restart fetch after EX ------------
            penalty = 0
            if kind == K_BRANCH:
                penalty = frontend.conditional_branch(pc, cpu.branch_taken,
                                                      cpu.pc)
            elif kind == K_JAL:
                penalty = frontend.direct_jump(pc, cpu.pc, instr.rd == 1,
                                               pc + 4)
            elif kind == K_JALR:
                penalty = frontend.indirect_jump(
                    pc, cpu.pc, instr.rd == 0 and instr.rs1 == 1,
                    instr.rd == 1, pc + 4)
            elif kind in (K_TAGGED_ALU, K_CHECK) and cpu.redirect:
                penalty = frontend.pipeline_redirect()
            if penalty:
                # The correct-path fetch restarts once the branch resolves.
                restart = execute + penalty - 1
                if restart > fetch_ready:
                    fetch_ready = restart

            if cpu.instret >= max_instructions:
                raise ExecutionLimitExceeded(
                    "exceeded %d instructions" % max_instructions)

        counters.cycles = last_retire
        counters.core_instructions = cpu.instret
        counters.branches = frontend.branches
        counters.branch_mispredicts = frontend.mispredicts
        counters.btb_misses = frontend.btb_misses
        counters.icache_accesses = icache.accesses
        counters.icache_misses = icache.misses
        counters.dcache_accesses = dcache.accesses
        counters.dcache_misses = dcache.misses
        counters.type_hits = cpu.trt.hits
        counters.type_misses = cpu.trt.misses
        counters.overflow_traps = cpu.overflow_traps
        counters.chk_hits = cpu.chk_hits
        counters.chk_misses = cpu.chk_misses
        return counters
