"""The Type Rule Table: a small CAM keyed by (opcode, type1, type2).

The table is software-managed: ``set_trt`` pushes packed entries and
``flush_trt`` clears the table (Section 5, OS interactions).  Lookups are
performed implicitly by the tagged ALU instructions and ``tchk``; a miss is
a *type misprediction* that redirects the PC to ``R_hdl``.
"""

from repro.isa.extension import TRT_ENTRIES, TypeRule

# Opcode identifiers used in the packed set_trt encoding.
TRT_OPCODES = {"xadd": 0, "xsub": 1, "xmul": 2, "tchk": 3}


def pack_rule(rule):
    """Pack a :class:`TypeRule` into the 32-bit ``set_trt`` payload.

    Layout: ``[31:24] opcode id, [23:16] type_in1, [15:8] type_in2,
    [7:0] type_out``.
    """
    opcode_id = TRT_OPCODES[rule.opcode]
    return (opcode_id << 24) | ((rule.type_in1 & 0xFF) << 16) \
        | ((rule.type_in2 & 0xFF) << 8) | (rule.type_out & 0xFF)


def unpack_rule(word):
    """Inverse of :func:`pack_rule`."""
    names = {v: k for k, v in TRT_OPCODES.items()}
    return TypeRule(names[(word >> 24) & 0xFF], (word >> 16) & 0xFF,
                    (word >> 8) & 0xFF, word & 0xFF)


def attribution_keys(keys):
    """Render ``{(opcode_id, t1, t2): count}`` with JSON-safe string
    keys (``"xadd/19/3"``) — the shape stored in ``Counters`` and the
    disk cache."""
    names = {v: k for k, v in TRT_OPCODES.items()}
    return {"%s/%d/%d" % (names.get(op, str(op)), t1, t2): count
            for (op, t1, t2), count in keys.items()}


class TypeRuleTable:
    """A ``capacity``-entry CAM mapping (opcode, t1, t2) to the output tag."""

    def __init__(self, capacity=TRT_ENTRIES):
        self.capacity = capacity
        self._rules = {}
        self._order = []
        self.hits = 0
        self.misses = 0
        # Per-key miss attribution: {(opcode_id, t1, t2): count}.  The
        # miss path is the rare path (it costs a pipeline redirect), so
        # this stays always-on — it is what lets ``repro sweep`` report
        # TRT-miss attribution from cached runs with telemetry off.
        self.miss_keys = {}
        self.hit_keys = None  # populated only while telemetry is attached
        self._telemetry = None

    def __len__(self):
        return len(self._order)

    def push(self, word):
        """``set_trt``: insert a packed rule, evicting FIFO when full."""
        rule = unpack_rule(word)
        key = (TRT_OPCODES[rule.opcode], rule.type_in1, rule.type_in2)
        if key not in self._rules and len(self._order) >= self.capacity:
            evicted = self._order.pop(0)
            del self._rules[evicted]
        if key not in self._rules:
            self._order.append(key)
        self._rules[key] = rule.type_out

    def flush(self):
        """``flush_trt``: clear every entry."""
        self._rules.clear()
        self._order.clear()

    def load_rules(self, rules):
        """Pre-load rules at program launch (the paper's assumption)."""
        for rule in rules:
            self.push(pack_rule(rule))

    def lookup(self, opcode_id, type1, type2):
        """Return the output tag, or ``None`` on a type misprediction."""
        out = self._rules.get((opcode_id, type1, type2))
        if out is None:
            self.misses += 1
            key = (opcode_id, type1, type2)
            self.miss_keys[key] = self.miss_keys.get(key, 0) + 1
        else:
            self.hits += 1
        return out

    def attach_telemetry(self, telemetry):
        """Swap in the instrumented lookup (hot path!): per-key hit
        counting plus a ``trt`` event per miss.  Rebinding the method
        on the instance keeps the detached path identical to the
        uninstrumented class method — zero overhead when telemetry is
        off."""
        self._telemetry = telemetry
        self.hit_keys = {}
        self.lookup = self._lookup_instrumented

    def detach_telemetry(self):
        self._telemetry = None
        self.__dict__.pop("lookup", None)

    def _lookup_instrumented(self, opcode_id, type1, type2):
        key = (opcode_id, type1, type2)
        out = self._rules.get(key)
        if out is None:
            self.misses += 1
            self.miss_keys[key] = self.miss_keys.get(key, 0) + 1
            self._telemetry.emit({
                "cat": "trt", "name": "trt_miss", "opcode": opcode_id,
                "t1": type1, "t2": type2})
        else:
            self.hits += 1
            self.hit_keys[key] = self.hit_keys.get(key, 0) + 1
        return out

    def corrupt_entry(self, slot, out_mask=0, key_mask=0):
        """Fault injection: upset the CAM entry at ``slot``.

        ``out_mask`` XORs into the stored output tag (a data-array
        upset: lookups still hit but return a wrong tag).  ``key_mask``
        XORs into the entry's ``type_in1`` key byte (a tag-array upset:
        the original key now *misses* and a corrupted key matches
        instead).  Returns ``True`` when an entry was actually
        corrupted — an empty table absorbs the fault.
        """
        if not self._order:
            return False
        key = self._order[slot % len(self._order)]
        if key_mask:
            out = self._rules.pop(key)
            self._order.remove(key)
            opcode_id, t1, t2 = key
            new_key = (opcode_id, (t1 ^ key_mask) & 0xFF, t2)
            if new_key not in self._rules:
                self._order.append(new_key)
            self._rules[new_key] = out
            key = new_key
        if out_mask:
            self._rules[key] = (self._rules[key] ^ out_mask) & 0xFF
        return True

    def snapshot(self):
        """Context-switch save of table contents *and* the hit/miss
        counters — dropping the counters would let another process's
        type-check traffic corrupt this one's type-hit-rate statistics."""
        return {"rules": dict(self._rules), "order": list(self._order),
                "hits": self.hits, "misses": self.misses,
                "miss_keys": dict(self.miss_keys)}

    def restore(self, state):
        # Refilled in place, as push/flush keep them: compiled units
        # bind the rule dict's ``get`` once per run.
        rules = dict(state["rules"])
        self._rules.clear()
        self._rules.update(rules)
        self._order[:] = state["order"]
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.miss_keys = dict(state.get("miss_keys", ()))
