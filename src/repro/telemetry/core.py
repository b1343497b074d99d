"""The event bus at the heart of :mod:`repro.telemetry`.

Design constraint (and the reason this module is small): the simulator
retires millions of instructions per second of host time, so telemetry
must cost *nothing* when it is off.  That is achieved structurally, not
with a global flag check in the hot loop:

* components hold a ``telemetry`` reference that is ``None`` by default,
  and every instrumentation point on a *rare* path (type mispredict,
  overflow trap, host call, cache miss, pipeline stall) is guarded by a
  single ``is not None`` test inside that already-rare branch;
* instrumentation on *hot* paths (instruction retire, TRT lookup) is
  attached by **rebinding** — :func:`attach_cpu` shadows ``cpu.step``
  with an emitting wrapper and
  :meth:`~repro.sim.trt.TypeRuleTable.attach_telemetry` shadows
  ``trt.lookup`` — so the disabled path executes the exact same
  bytecode it would without the telemetry layer loaded.

Events are plain dicts with at least ``cat`` (category), ``name`` and
``ts`` (timestamp).  The timestamp comes from the bus's *clock*: the
timing layer installs a cycle-accurate clock
(:meth:`Telemetry.set_clock`), bare functional runs fall back to the
retired-instruction count, and both are monotonic — which is what makes
the Chrome-trace sink's output well-formed.
"""

#: Every event category the instrumentation points emit.
CATEGORIES = frozenset([
    "retire",      # one event per retired instruction (Cpu.step wrapper)
    "bytecode",    # interpreter dispatch: B/E span per bytecode handler
    "trt",         # Type Rule Table hit/miss with the (opcode, t1, t2) key
    "mispredict",  # type misprediction redirect to R_hdl
    "trap",        # integer overflow trap (NaN-boxed layouts)
    "hostcall",    # ecall into a native host service
    "cache",       # I-/D-cache miss
    "stall",       # load-use interlock stall
    "fault",       # fault-injection: one event per applied injection
    "degradation",  # self-healing fallback engaged (e.g. block compile)
])

#: The categories ``repro profile`` enables by default: everything
#: except per-retire events, which multiply event volume by the
#: instruction count and are only needed by the instruction tracer.
PROFILE_CATEGORIES = frozenset(CATEGORIES - {"retire"})


# -- degradation ledger ------------------------------------------------------
#
# Self-healing fallbacks (a basic block that failed to compile, a pool
# worker quarantined to the serial path, a cache entry moved aside) fire
# on paths where no Telemetry bus is attached — the trace engine only
# runs when telemetry is *off*.  They report here instead: a bounded
# process-wide ledger plus a one-line ``logging`` record, so a degraded
# run is never silent but also never crashes or grows without bound.
# The first event of each name logs a warning and the rest log at
# debug level: a run whose block compiles fail degrades every entry it
# reaches, and one warning line per entry would flood the log.

import logging

_LOG = logging.getLogger("repro.telemetry")

#: Maximum ledger length; older entries are dropped first.
DEGRADATION_LIMIT = 256

_DEGRADATIONS = []

#: Degradation names already logged at WARNING level.
_WARNED = set()


def record_degradation(event):
    """Record one degradation event (a plain dict with at least
    ``name``) in the process-wide ledger and log it: at WARNING for the
    first event of its name, at DEBUG after that.

    Any attached bus can mirror the ledger by passing ``telemetry`` —
    callers that have a live bus emit there as well.
    """
    event = dict(event)
    event.setdefault("cat", "degradation")
    if len(_DEGRADATIONS) >= DEGRADATION_LIMIT:
        del _DEGRADATIONS[0]
    _DEGRADATIONS.append(event)
    name = event.get("name")
    level = logging.DEBUG if name in _WARNED else logging.WARNING
    _WARNED.add(name)
    _LOG.log(level, "degraded: %s (%s)", name,
             ", ".join("%s=%s" % (k, v) for k, v in sorted(event.items())
                       if k not in ("cat", "name")))
    return event


def degradations():
    """Snapshot of the process-wide degradation ledger."""
    return list(_DEGRADATIONS)


def clear_degradations():
    """Empty the ledger; the next event of each name warns again."""
    _DEGRADATIONS.clear()
    _WARNED.clear()


def _zero_clock():
    return 0


class Telemetry:
    """An event bus: a set of enabled categories fanned out to sinks.

    ``categories`` limits what the instrumentation points emit (an
    empty set makes every ``wants`` query false, so nothing is ever
    allocated); ``sinks`` receive each event dict in registration
    order.  The bus never mutates simulated state — removing it from a
    run must not change a single counter (tested by
    ``tests/test_telemetry.py::test_telemetry_changes_no_counters``).
    """

    def __init__(self, sinks=(), categories=PROFILE_CATEGORIES):
        self.sinks = list(sinks)
        self.categories = frozenset(categories)
        self.events_emitted = 0
        self.events_by_category = {}
        self._clock = _zero_clock

    # -- wiring -------------------------------------------------------------
    def wants(self, category):
        """True when ``category`` is enabled (instrumentation points
        check this once at attach/setup time, not per event)."""
        return category in self.categories

    def add_sink(self, sink):
        self.sinks.append(sink)
        return sink

    def set_clock(self, clock):
        """Install the timestamp source (a zero-argument callable).

        The timing layer passes a closure over its cycle counter; the
        functional layer falls back to ``cpu.instret``.  Timestamps
        must be monotonic for the Chrome-trace sink to be loadable.
        """
        self._clock = clock

    def now(self):
        return self._clock()

    # -- emission -----------------------------------------------------------
    def emit(self, event):
        """Dispatch one event dict to every sink.

        The caller only constructs ``event`` when the category is
        enabled, so the disabled path allocates nothing.  ``ts`` is
        stamped from the clock unless the caller already set it.
        """
        if "ts" not in event:
            event["ts"] = self._clock()
        self.events_emitted += 1
        category = event.get("cat", "?")
        self.events_by_category[category] = \
            self.events_by_category.get(category, 0) + 1
        for sink in self.sinks:
            sink.handle(event)

    def close(self):
        """Flush and close every sink (idempotent per sink contract)."""
        for sink in self.sinks:
            sink.close()

    # -- summary ------------------------------------------------------------
    def summary(self):
        """JSON-serialisable digest of what this bus observed — the
        payload :class:`repro.bench.runner.RunRecord` carries into the
        disk cache for telemetry-enabled runs."""
        return {
            "events": self.events_emitted,
            "by_category": dict(self.events_by_category),
            "categories": sorted(self.categories),
        }


def attach_cpu(telemetry, cpu):
    """Wire a functional CPU to the bus.

    Rare-path events (mispredict/trap/hostcall) only need the
    ``cpu.telemetry`` reference; per-retire events additionally rebind
    ``cpu.step`` to an emitting wrapper.  With ``telemetry=None`` or no
    relevant categories this leaves the CPU completely untouched —
    ``cpu.step`` stays the plain class method.
    """
    if telemetry is None:
        return cpu
    if telemetry.categories & {"mispredict", "trap", "hostcall"}:
        cpu.telemetry = telemetry
    if telemetry.wants("trt"):
        cpu.trt.attach_telemetry(telemetry)
    if telemetry.wants("retire"):
        if telemetry._clock is _zero_clock:
            telemetry.set_clock(lambda: cpu.instret)
        base_step = type(cpu).step
        regs = cpu.regs

        def step():
            pc = cpu.pc
            instr = base_step(cpu)
            rd = instr.rd
            telemetry.emit({
                "cat": "retire", "name": instr.mnemonic, "pc": pc,
                "instret": cpu.instret, "instr": instr, "rd": rd,
                "rd_value": regs.value[rd], "rd_tag": regs.type[rd],
                "redirect": cpu.redirect,
            })
            return instr

        cpu.step = step
    return cpu


def detach_cpu(cpu):
    """Undo :func:`attach_cpu` (tracers use this when done)."""
    cpu.telemetry = None
    cpu.__dict__.pop("step", None)
    cpu.trt.detach_telemetry()
    return cpu
