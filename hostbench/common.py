"""Shared pieces of the host-time benchmark: checkout paths, the drift
calibration kernel, small statistics helpers and the metric registry.

Nothing here imports ``repro``: the calibration kernel must measure the
machine, not the program under test.
"""

import gc
import os
import statistics
import sys
import time

#: The checkout this benchmark belongs to (the parent of its directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Scratch space for caches, sockets, logs and span files; always inside
#: the checkout and listed in the repository's ``.gitignore``.
RUN_ROOT = os.path.join(ROOT, ".hostbench")

WORKLOADS = ("sweep-cold", "run-hot", "serve-zipf")

#: Every run issues at least this many timed ops, so p90 has ten samples
#: beyond it and ``sim_mcycles`` always covers the same op prefix.
MIN_OPS = 100

#: Set-ups measured per untraced run; ``setup_s`` is their median.
#: Short set-ups are measured more often, since one scheduling hiccup
#: is a large share of them; run-hot's take seconds each.
SETUPS = {"sweep-cold": 9, "run-hot": 3, "serve-zipf": 7}

# -- metric registry (BENCHMARK.json must agree; selftest.py checks) ----------

#: ``(name, unit)`` of the end-to-end metrics every untraced run prints.
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MB"),
    ("sim_mcycles", "Mcycles"),
)

#: ``(name, unit)`` of the per-layer metrics every traced run prints.
#: A layer that a workload does not reach reports 0.
PER_LAYER = (
    ("engines.compile_ms", "ms"),
    ("engines.prepare_ms", "ms"),
    ("sim.memory_init_ms", "ms"),
    ("sim.blocks_compiled", "count"),
    ("sim.block_compile_ms", "ms"),
    ("sim.traces_formed", "count"),
    ("sim.traces_retired", "count"),
    ("sim.trace_record_ms", "ms"),
    ("sim.compile_failures", "count"),
    ("sim.type_hit_rate", "ratio"),
    ("uarch.run_ms", "ms"),
    ("uarch.run_mips", "MIPS"),
    ("uarch.cpi", "cycles/instr"),
    ("uarch.icache_mpki", "MPKI"),
    ("uarch.dcache_mpki", "MPKI"),
    ("uarch.branch_mpki", "MPKI"),
    ("isa.assemblies", "count"),
    ("isa.assemble_ms", "ms"),
    ("analysis.quicken_ms", "ms"),
    ("analysis.sites", "count"),
    ("bench.cache_store_ms", "ms"),
    ("bench.cache_hit_ratio", "ratio"),
    ("bench.typed_speedup_lua", "x"),
    ("bench.typed_speedup_js", "x"),
    ("bench.typed_speedup_err_lua_pp", "pp"),
    ("bench.typed_speedup_err_js_pp", "pp"),
    ("serve.ping_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.forwarded", "count"),
    ("serve.router_cache_hits", "count"),
    ("serve.pool_builds", "count"),
    ("harness.calib_ms", "ms"),
    ("harness.raw_p50_ms", "ms"),
    ("harness.raw_ops_per_s", "1/s"),
    ("harness.trace_overhead_pct", "%"),
)

UNITS = dict(END_TO_END + PER_LAYER)


def metric(name, value):
    """One printed metric: ``{"value": float, "unit": str}``."""
    return {"value": float(value), "unit": UNITS[name]}


# -- drift calibration ------------------------------------------------------------

#: Iterations of the calibration kernel: about 20 ms on a 2 GHz Xeon
#: vCPU, i.e. roughly a tenth of a typical timed op.  A much longer
#: kernel around short ops samples the machine at the wrong moments.
CALIB_ITERATIONS = 20_000

#: Calibration kernels run right before each set-up (in the launcher)
#: and as many right after it (in the workload process); multi-second
#: set-ups also run one between their steps.
SETUP_CALIBRATIONS = 4

#: The fixed reference every host time is scaled to: a reported time is
#: ``raw * CALIB_REFERENCE_MS / mean(calibration kernel ms)``, i.e. what
#: the run would have taken on a machine that runs the kernel in this
#: many milliseconds.
CALIB_REFERENCE_MS = 20.0


class _Core:
    """A toy register machine doing what the simulator's hot loops do:
    method calls, list and dict indexing, ``bytearray`` slices and
    ``int.from_bytes``."""

    def __init__(self):
        self.regs = [0] * 32
        self.mem = bytearray(1 << 16)
        self.decode = {i: (i * 7) & 31 for i in range(64)}

    def step(self, i):
        regs = self.regs
        reg = self.decode[i & 63]
        value = (regs[reg] + i) & 0xFFFFFFFFFFFFFFFF
        regs[(reg + 1) & 31] = value
        addr = (value * 8) & 0xFFF8
        self.mem[addr:addr + 8] = value.to_bytes(8, "little")
        return int.from_bytes(self.mem[addr:addr + 8], "little")


def calibrate(iterations=CALIB_ITERATIONS):
    """Seconds one run of the calibration kernel takes right now.

    The cyclic GC is paused (not run) for the duration, so a collection
    owed by the program under test never lands inside the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        core = _Core()
        step = core.step
        started = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc ^= step(i)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def drift_factor(calibrations):
    """Scale factor from raw host seconds to reference-machine seconds."""
    mean = sum(calibrations) / len(calibrations)
    return CALIB_REFERENCE_MS / 1e3 / mean


# -- statistics -------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """90th percentile (inclusive method); callers pass >= MIN_OPS values."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


# -- process facts ------------------------------------------------------------------

def vm_hwm_kb(pid="self"):
    """Peak resident set (``VmHWM``) of one process in KiB, or ``None``
    when the process is gone."""
    try:
        with open("/proc/%s/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def descendants(root_pid):
    """Pids of every live descendant of ``root_pid`` (from ``/proc``)."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = [], [root_pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"


def context():
    """Facts recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "calib_reference_ms": CALIB_REFERENCE_MS,
        "calib_iterations": CALIB_ITERATIONS,
        "bytecode": "per-run PYTHONPYCACHEPREFIX, filled by one untimed "
                    "set-up",
    }
