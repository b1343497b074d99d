"""Set-associative cache model with true-LRU replacement.

Only hit/miss behaviour is modelled (the data lives in the functional
memory); the timing layer charges the DRAM latency on a miss.
"""


class Cache:
    """A ``sets`` x ``ways`` tag store with per-set LRU ordering."""

    def __init__(self, config, name="cache"):
        self.config = config
        self.name = name
        if config.line_bytes <= 0 or \
                config.line_bytes & (config.line_bytes - 1):
            raise ValueError("cache line size must be a power of two")
        self.line_shift = config.line_bytes.bit_length() - 1
        self.set_mask = config.sets - 1
        if config.sets & self.set_mask:
            raise ValueError("cache set count must be a power of two")
        self.ways = config.ways
        # Each set is a list of tags ordered LRU -> MRU.
        self._sets = [[] for _ in range(config.sets)]
        self.accesses = 0
        self.misses = 0
        # Optional miss hook ``on_miss(addr)`` — the telemetry layer's
        # tap.  Checked only on the (rare) miss path, so the hit path
        # pays nothing for the instrumentation point.
        self.on_miss = None

    def access(self, addr):
        """Access the line containing ``addr``; returns True on a hit.

        Compiled units inline copies of its hit paths: both for the
        D-cache, which then calls it only on a miss
        (``repro.sim.blocks._Emitter._dc_fused``), and the MRU one for
        the I-cache.  A change to the replacement policy must be made
        there too.
        """
        self.accesses += 1
        line = addr >> self.line_shift
        entry = self._sets[line & self.set_mask]
        # MRU fast path: re-touching the most recent line leaves the LRU
        # order unchanged, so skip the remove/append churn.
        if entry and entry[-1] == line:
            return True
        tag = line >> 0  # full line id doubles as the tag
        try:
            entry.remove(tag)
        except ValueError:
            self.misses += 1
            if len(entry) >= self.ways:
                entry.pop(0)
            entry.append(tag)
            if self.on_miss is not None:
                self.on_miss(addr)
            return False
        entry.append(tag)
        return True

    def contains(self, addr):
        """Non-intrusive lookup (no statistics, no LRU update)."""
        line = addr >> self.line_shift
        return line in self._sets[line & self.set_mask]

    def flush(self):
        """Invalidate every line (statistics are preserved)."""
        for entry in self._sets:
            entry.clear()

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0
