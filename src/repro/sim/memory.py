"""Flat little-endian byte-addressable memory.

RAM is one private anonymous ``mmap``: it indexes and slices like a
``bytearray`` (and as fast), but the host kernel hands out zeroed pages
on first touch, so creating a 32 MiB guest costs no memset and only the
pages a run touches become resident.  The mapping is ``MAP_PRIVATE``
because the default (``MAP_SHARED``) would let a forked pool worker
and its parent write the same guest RAM.  An ``mmap`` compares by
identity: compare contents with ``bytes(memory.data)``.

Loads and stores go through little-endian ``struct`` codecs that read
and write the mapping in place, with no intermediate ``bytes`` object.
The codecs are created once, here, and the block/trace code generator
(:mod:`repro.sim.blocks`) binds the very same objects into every
compiled unit.
"""

import mmap
import struct

from repro.sim.errors import MemoryError_

MASK64 = (1 << 64) - 1

#: ``struct`` format code of an unsigned access per width in bytes (the
#: lower-case code is the signed one).
WIDTH_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: ``(width, signed) -> unpack_from`` of the little-endian codec:
#: ``LOADS[8, False](ram, addr)[0]`` is the dword at ``addr``.
LOADS = {(width, signed): struct.Struct(
             "<" + (code.lower() if signed else code)).unpack_from
         for width, code in WIDTH_CODES.items() for signed in (False, True)}

#: ``width -> pack_into`` of the unsigned codec:
#: ``STORES[8](ram, addr, value)`` writes an in-range ``value``.
STORES = {width: struct.Struct("<" + code).pack_into
          for width, code in WIDTH_CODES.items()}

_LOAD_U64 = LOADS[8, False]
_STORE_U64 = STORES[8]


class Memory:
    """``size`` bytes of zero-initialised RAM starting at address 0.

    Accesses are 1, 2, 4 or 8 bytes wide, except the bulk
    :meth:`read_bytes` and :meth:`write_bytes`.
    """

    def __init__(self, size=16 * 1024 * 1024):
        self.size = size
        self.data = mmap.mmap(-1, size,
                              flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)

    def _check(self, addr, width):
        if addr < 0 or addr + width > self.size:
            raise MemoryError_("access of %d bytes at 0x%x outside memory "
                               "of %d bytes" % (width, addr, self.size))

    def load(self, addr, width, signed=False):
        """Load ``width`` bytes at ``addr`` as an integer."""
        self._check(addr, width)
        return LOADS[width, signed](self.data, addr)[0]

    def store(self, addr, width, value):
        """Store the low ``width`` bytes of ``value`` at ``addr``."""
        self._check(addr, width)
        STORES[width](self.data, addr, value & ((1 << (8 * width)) - 1))

    # Convenience accessors used heavily by the engines.
    def load_u8(self, addr):
        self._check(addr, 1)
        return self.data[addr]

    def load_u64(self, addr):
        self._check(addr, 8)
        return _LOAD_U64(self.data, addr)[0]

    def store_u8(self, addr, value):
        self._check(addr, 1)
        self.data[addr] = value & 0xFF

    def store_u64(self, addr, value):
        self._check(addr, 8)
        _STORE_U64(self.data, addr, value & MASK64)

    def corrupt(self, addr, mask):
        """Fault injection: XOR ``mask`` into the byte at ``addr``.

        Returns ``True`` when the address is in range; an out-of-range
        fault target is absorbed (nothing to upset) rather than raised —
        the injector must never crash the campaign itself.
        """
        if not 0 <= addr < self.size:
            return False
        self.data[addr] ^= mask & 0xFF
        return True

    def write_bytes(self, addr, payload):
        """Bulk write ``payload`` (bytes-like) at ``addr``."""
        self._check(addr, len(payload))
        self.data[addr:addr + len(payload)] = payload

    def read_bytes(self, addr, length):
        """Bulk read ``length`` bytes at ``addr``."""
        self._check(addr, length)
        return bytes(self.data[addr:addr + length])
