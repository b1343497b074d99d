"""Flat little-endian byte-addressable memory.

RAM is one private anonymous ``mmap``: it indexes and slices like a
``bytearray`` (and as fast), but the host kernel hands out zeroed pages
on first touch, so creating a 32 MiB guest costs no memset and only the
pages a run touches become resident.  The mapping is ``MAP_PRIVATE``
because the default (``MAP_SHARED``) would let a forked pool worker
and its parent write the same guest RAM.  An ``mmap`` compares by
identity: compare contents with ``bytes(memory.data)``.
"""

import mmap

from repro.sim.errors import MemoryError_

MASK64 = (1 << 64) - 1


class Memory:
    """``size`` bytes of zero-initialised RAM starting at address 0."""

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
        return int.from_bytes(self.data[addr:addr + width], "little",
                              signed=signed)

    def store(self, addr, width, value):
        """Store the low ``width`` bytes of ``value`` at ``addr``."""
        self._check(addr, width)
        self.data[addr:addr + width] = (value & ((1 << (8 * width)) - 1)) \
            .to_bytes(width, "little")

    # Convenience accessors used heavily by the engines.
    def load_u8(self, addr):
        self._check(addr, 1)
        return self.data[addr]

    def load_u64(self, addr):
        self._check(addr, 8)
        return int.from_bytes(self.data[addr:addr + 8], "little")

    def store_u8(self, addr, value):
        self._check(addr, 1)
        self.data[addr] = value & 0xFF

    def store_u64(self, addr, value):
        self._check(addr, 8)
        self.data[addr:addr + 8] = (value & MASK64).to_bytes(8, "little")

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
