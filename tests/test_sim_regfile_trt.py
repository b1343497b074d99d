"""Tests for the unified register file and the Type Rule Table."""

from hypothesis import given
from hypothesis import strategies as st

from repro.isa.extension import (
    TYPE_UNTYPED,
    TypeRule,
    arithmetic_rules,
    table_access_rules,
)
from repro.sim.regfile import UnifiedRegisterFile
from repro.sim.trt import TRT_OPCODES, TypeRuleTable, pack_rule, unpack_rule


def test_x0_hardwired_zero():
    regs = UnifiedRegisterFile()
    regs.write(0, 123)
    regs.write_typed(0, 5, 3, 1)
    assert regs.value[0] == 0
    assert regs.type[0] == TYPE_UNTYPED


def test_untyped_write_clears_tag():
    regs = UnifiedRegisterFile()
    regs.write_typed(5, 7, 19, 0)
    assert regs.type[5] == 19
    regs.write(5, 8)
    assert regs.type[5] == TYPE_UNTYPED
    assert regs.fbit[5] == 0


def test_typed_write_sets_all_fields():
    regs = UnifiedRegisterFile()
    regs.write_typed(3, (1 << 64) + 5, 3, 1)
    assert regs.value[3] == 5  # 64-bit wrap
    assert regs.type[3] == 3
    assert regs.fbit[3] == 1


def test_set_tag_only():
    regs = UnifiedRegisterFile()
    regs.write(4, 99)
    regs.set_tag(4, 19, 0)
    assert regs.value[4] == 99
    assert regs.type[4] == 19


def test_snapshot_restore_roundtrip():
    regs = UnifiedRegisterFile()
    regs.write_typed(6, 42, 3, 1)
    state = regs.snapshot()
    regs.write(6, 0)
    regs.restore(state)
    assert (regs.value[6], regs.type[6], regs.fbit[6]) == (42, 3, 1)


# -- TRT ---------------------------------------------------------------------

@given(opcode=st.sampled_from(["xadd", "xsub", "xmul", "tchk"]),
       t1=st.integers(0, 255), t2=st.integers(0, 255), out=st.integers(0, 255))
def test_pack_unpack_roundtrip(opcode, t1, t2, out):
    rule = TypeRule(opcode, t1, t2, out)
    assert unpack_rule(pack_rule(rule)) == rule


def test_lookup_hit_and_miss_counters():
    trt = TypeRuleTable()
    trt.load_rules(arithmetic_rules(int_tag=19, float_tag=3))
    assert trt.lookup(TRT_OPCODES["xadd"], 19, 19) == 19
    assert trt.lookup(TRT_OPCODES["xadd"], 3, 3) == 3
    assert trt.lookup(TRT_OPCODES["xadd"], 19, 3) is None
    assert trt.hits == 2
    assert trt.misses == 1


def test_capacity_evicts_fifo():
    trt = TypeRuleTable(capacity=2)
    trt.load_rules([TypeRule("xadd", 1, 1, 1), TypeRule("xadd", 2, 2, 2),
                    TypeRule("xadd", 3, 3, 3)])
    assert len(trt) == 2
    assert trt.lookup(0, 1, 1) is None  # evicted
    assert trt.lookup(0, 3, 3) == 3


def test_duplicate_push_updates_in_place():
    trt = TypeRuleTable(capacity=2)
    trt.load_rules([TypeRule("xadd", 1, 1, 1), TypeRule("xadd", 1, 1, 7)])
    assert len(trt) == 1
    assert trt.lookup(0, 1, 1) == 7


def test_flush_clears_table():
    trt = TypeRuleTable()
    trt.load_rules(arithmetic_rules(19, 3))
    trt.flush()
    assert len(trt) == 0
    assert trt.lookup(0, 19, 19) is None


def test_paper_table5_contents():
    """Table 5: six arithmetic rules plus two tchk table-access rules."""
    rules = arithmetic_rules(19, 3) + table_access_rules(table_tag=5,
                                                         int_tag=19)
    assert len(rules) == 8  # exactly fills the 8-entry TRT
    trt = TypeRuleTable()
    trt.load_rules(rules)
    assert len(trt) == 8
    assert trt.lookup(TRT_OPCODES["tchk"], 5, 19) == 5
    assert trt.lookup(TRT_OPCODES["tchk"], 19, 5) == 5


def test_snapshot_restore():
    trt = TypeRuleTable()
    trt.load_rules(arithmetic_rules(19, 3))
    rules = trt._rules
    state = trt.snapshot()
    trt.flush()
    trt.restore(state)
    assert trt.lookup(TRT_OPCODES["xmul"], 3, 3) == 3
    # Refilled in place: compiled units bind the dict once per run.
    assert trt._rules is rules


def test_snapshot_restore_preserves_statistics():
    """Regression: a context switch must not corrupt the hit/miss
    counters that back every type-hit-rate figure."""
    trt = TypeRuleTable()
    trt.load_rules(arithmetic_rules(19, 3))
    trt.lookup(TRT_OPCODES["xadd"], 19, 19)   # hit
    trt.lookup(TRT_OPCODES["xadd"], 19, 99)   # miss
    state = trt.snapshot()
    # Another process runs: flush + its own traffic skews the counters.
    trt.flush()
    trt.lookup(TRT_OPCODES["xadd"], 1, 1)
    trt.lookup(TRT_OPCODES["xadd"], 2, 2)
    trt.restore(state)
    assert (trt.hits, trt.misses) == (1, 1)
    assert trt.lookup(TRT_OPCODES["xadd"], 19, 19) == 19
    assert (trt.hits, trt.misses) == (2, 1)
