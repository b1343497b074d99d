"""Apply an injection plan to a live CPU.

A :class:`FaultSession` attaches through
:meth:`repro.sim.cpu.Cpu.attach_fault_hook`, which rebinds ``step`` on
the instance — the same idiom the telemetry tracer uses.  The rebind
has a deliberate side effect: :meth:`repro.uarch.pipeline.Machine.run`
notices the shadowed ``step`` and deopts from the superblock trace
engine to the per-instruction reference loop, so the
watchdog budget trips at the exact instruction and timing counters
stay honest under injection.

The hook fires *before* each instruction with the side-channel fields
(``mem_addr``/``mem_addr2``) still describing the *previous* one,
which is exactly what the memory-tag target needs: a tag-plane upset
is aimed at the most recently touched value, where it has a chance to
be consumed before being overwritten.
"""

from dataclasses import dataclass

from repro.isa.extension import TAG_DWORD_DISPLACEMENT
from repro.sim.cpu import MASK64


@dataclass(frozen=True)
class TagGeometry:
    """Where an engine keeps tag bits in memory.

    ``displacement`` is the tag double-word's byte offset from the
    value double-word; ``shift``/``width`` locate the tag field inside
    it.  ``slot_base``/``slot_size`` describe the engine's value-slot
    region (Lua's 16-byte TValue register frames, the JS engine's
    8-byte NaN-boxed stack slots): tag-plane faults are aimed at slots
    in that region, where tag bits actually live.
    """

    displacement: int
    shift: int
    width: int
    slot_base: int
    slot_size: int

    def tag_addr_for(self, addr):
        """The tag double-word of the value slot containing ``addr``
        (which may itself be the slot's tag word), or ``None`` when
        ``addr`` lies outside the value-slot region."""
        if addr < self.slot_base:
            return None
        slot = addr - ((addr - self.slot_base) % self.slot_size)
        return (slot + self.displacement) & MASK64


def tag_geometry(engine):
    """The :class:`TagGeometry` of one engine's in-memory tag plane.

    Derived from the engine *layout* (the ``SPR_SETTINGS`` its typed
    interpreter programs into the extractor registers), not from the
    live codec: the baseline interpreter never executes
    ``setoffset``/``setshift``/``setmask``, yet its stack and heap
    carry the same physical tag bits — using the layout keeps the
    injected bit positions identical across configs, which is what
    makes the typed-vs-baseline detection comparison fair.
    """
    if engine == "lua":
        from repro.engines.lua import layout
        slot_base, slot_size = layout.REG_STACK_BASE, layout.TVALUE_SIZE
    elif engine == "js":
        from repro.engines.js import layout
        slot_base, slot_size = layout.STACK_BASE, layout.VALUE_SIZE
    else:
        raise ValueError("unknown engine %r" % (engine,))
    spr = layout.SPR_SETTINGS
    return TagGeometry(
        displacement=TAG_DWORD_DISPLACEMENT[spr.offset & 0b11],
        shift=spr.shift & 0x3F,
        width=max(1, bin(spr.mask & 0xFF).count("1")),
        slot_base=slot_base, slot_size=slot_size)


class FaultSession:
    """Inject the given :class:`FaultSpec`\\ s into ``cpu`` as it runs.

    ``geometry`` is :func:`tag_geometry` for the engine under test
    (required only when the plan contains ``mem_tag`` faults).  The
    session keeps an ``applied`` log — one dict per fault that actually
    landed — and an ``absorbed`` count for faults with nothing to upset
    (an empty TRT slot, ``x0``, an out-of-range tag address): absorbed
    faults are architecturally masked by definition.
    """

    def __init__(self, cpu, faults, geometry=None):
        self.cpu = cpu
        self.queue = sorted(faults, key=lambda spec: spec.index)
        self.geometry = geometry
        self.applied = []
        self.absorbed = 0
        self._last_value_addr = None
        self._last_tag_addr = None

    # -- lifecycle ---------------------------------------------------------
    def attach(self):
        self.cpu.attach_fault_hook(self._hook)
        return self

    def detach(self):
        self.cpu.detach_fault_hook()

    # -- injection ---------------------------------------------------------
    def _hook(self, cpu):
        # Remember where the previous instruction touched memory: the
        # freshest possible tag-plane site.  Only accesses inside the
        # engine's value-slot region count — bytecode fetches and jump
        # tables have no tag plane to upset.
        if cpu.mem_addr is not None and self.geometry is not None \
                and cpu.mem_addr >= self.geometry.slot_base:
            self._last_value_addr = cpu.mem_addr
        if cpu.mem_addr2 is not None:
            self._last_tag_addr = cpu.mem_addr2
        queue = self.queue
        while queue and queue[0].index <= cpu.instret:
            spec = queue[0]
            if spec.target == "mem_tag" and self._tag_site() is None:
                # No memory touched yet: hold the fault (and everything
                # scheduled after it) until a site exists.
                return
            del queue[0]
            landed = self._apply(cpu, spec)
            if landed:
                self.applied.append({
                    "target": spec.target, "kind": spec.kind,
                    "index": cpu.instret, "bits": list(spec.bits),
                    "reg": spec.reg, "slot": spec.slot})
            else:
                self.absorbed += 1

    def _tag_site(self):
        """The tag double-word address to upset, or ``None``."""
        if self._last_tag_addr is not None:
            return self._last_tag_addr
        if self._last_value_addr is None or self.geometry is None:
            return None
        return self.geometry.tag_addr_for(self._last_value_addr)

    def _apply(self, cpu, spec):
        """Land one fault; returns ``False`` when it was absorbed."""
        if spec.target == "reg_value":
            if spec.reg == 0:
                return False
            cpu.regs.corrupt_value(spec.reg, spec.mask)
            return True
        if spec.target == "reg_tag":
            if spec.reg == 0:
                return False
            cpu.regs.corrupt_tag(spec.reg, spec.mask,
                                 flip_fbit=spec.kind == "fbit")
            return True
        if spec.target == "trt":
            if spec.kind == "key":
                return cpu.trt.corrupt_entry(spec.slot,
                                             key_mask=spec.mask or 1)
            return cpu.trt.corrupt_entry(spec.slot,
                                         out_mask=spec.mask or 1)
        if spec.target == "extractor":
            cpu.codec.corrupt(spec.kind, spec.mask or 1)
            return True
        if spec.target == "mem_tag":
            return self._apply_mem_tag(cpu, spec)
        raise ValueError("unknown fault target %r" % (spec.target,))

    def _apply_mem_tag(self, cpu, spec):
        """Flip tag-field bits of the freshest tag double-word.

        ``spec.bits`` index into the engine's tag field (folded modulo
        its width), so the same abstract fault lands on the tag byte of
        Lua's struct layout and inside the 4-bit NaN-box tag of the JS
        layout alike.
        """
        base = self._tag_site()
        if base is None:
            return False
        geometry = self.geometry
        shift = geometry.shift if geometry else 0
        width = geometry.width if geometry else 8
        per_byte = {}
        for bit in spec.bits:
            absolute = shift + (bit % width)
            per_byte.setdefault(absolute >> 3, 0)
            per_byte[absolute >> 3] |= 1 << (absolute & 7)
        landed = False
        for byte_index, byte_mask in sorted(per_byte.items()):
            if cpu.mem.corrupt((base + byte_index) & MASK64, byte_mask):
                landed = True
        return landed
