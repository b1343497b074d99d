"""Unit and property tests for the flat memory model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.errors import MemoryError_
from repro.sim.memory import Memory


def test_zero_initialised():
    mem = Memory(size=4096)
    assert mem.load(0, 8) == 0
    assert mem.load_u8(4095) == 0


def test_store_load_widths():
    mem = Memory(size=4096)
    mem.store(0, 1, 0xAB)
    mem.store(8, 2, 0xBEEF)
    mem.store(16, 4, 0xDEADBEEF)
    mem.store(24, 8, 0x0123456789ABCDEF)
    assert mem.load(0, 1) == 0xAB
    assert mem.load(8, 2) == 0xBEEF
    assert mem.load(16, 4) == 0xDEADBEEF
    assert mem.load(24, 8) == 0x0123456789ABCDEF


def test_little_endian_layout():
    mem = Memory(size=64)
    mem.store(0, 8, 0x0102030405060708)
    assert mem.load_u8(0) == 0x08
    assert mem.load_u8(7) == 0x01


def test_signed_loads():
    mem = Memory(size=64)
    mem.store(0, 1, 0xFF)
    assert mem.load(0, 1, signed=True) == -1
    assert mem.load(0, 1, signed=False) == 0xFF
    mem.store(8, 4, 0x80000000)
    assert mem.load(8, 4, signed=True) == -(1 << 31)


def test_store_truncates_to_width():
    mem = Memory(size=64)
    mem.store(0, 1, 0x1FF)
    assert mem.load(0, 1) == 0xFF
    assert mem.load(1, 1) == 0


def test_out_of_range_raises():
    mem = Memory(size=64)
    with pytest.raises(MemoryError_):
        mem.load(64, 1)
    with pytest.raises(MemoryError_):
        mem.load(60, 8)
    with pytest.raises(MemoryError_):
        mem.store(-1, 1, 0)


def test_bulk_read_write():
    mem = Memory(size=64)
    mem.write_bytes(8, b"hello")
    assert mem.read_bytes(8, 5) == b"hello"


@given(addr=st.integers(min_value=0, max_value=1016),
       value=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_u64_roundtrip(addr, value):
    mem = Memory(size=1024)
    mem.store_u64(addr, value)
    assert mem.load_u64(addr) == value


@given(value=st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
def test_signed_u64_roundtrip(value):
    mem = Memory(size=64)
    mem.store(0, 8, value)
    assert mem.load(0, 8, signed=True) == value


# -- the edges of RAM ------------------------------------------------------------

_WIDTHS = [(width, signed)
           for width in (1, 2, 4, 8) for signed in (False, True)]


def _expected(raw, signed):
    return int.from_bytes(raw, "little", signed=signed)


@pytest.mark.parametrize(("width", "signed"), _WIDTHS)
def test_access_at_both_ends_of_ram(width, signed):
    size = 64
    mem = Memory(size=size)
    for addr in (0, size - width):
        value = (1 << (8 * width)) - 2  # sign bit set, low bit clear
        mem.store(addr, width, value)
        raw = bytes(mem.data[addr:addr + width])
        assert raw == value.to_bytes(width, "little")
        assert mem.load(addr, width, signed=signed) == _expected(raw, signed)


@pytest.mark.parametrize(("width", "signed"), _WIDTHS)
def test_access_one_past_the_end_raises_the_same_error(width, signed):
    size = 64
    mem = Memory(size=size)
    addr = size - width + 1
    text = "access of %d bytes at 0x%x outside memory of %d bytes" \
        % (width, addr, size)
    with pytest.raises(MemoryError_) as load_error:
        mem.load(addr, width, signed=signed)
    assert str(load_error.value) == text
    with pytest.raises(MemoryError_) as store_error:
        mem.store(addr, width, 0)
    assert str(store_error.value) == text
    assert bytes(mem.data) == bytes(size)


@pytest.mark.parametrize(("width", "signed"), _WIDTHS)
def test_values_at_the_sign_boundaries(width, signed):
    mem = Memory(size=64)
    bits = 8 * width
    for value in (0, 1, (1 << (bits - 1)) - 1, 1 << (bits - 1),
                  (1 << bits) - 1, -1, -(1 << (bits - 1)), 1 << bits):
        mem.store(8, width, value)
        raw = (value & ((1 << bits) - 1)).to_bytes(width, "little")
        assert bytes(mem.data[8:8 + width]) == raw
        assert mem.load(8, width, signed=signed) == _expected(raw, signed)


def test_u64_accessors_match_the_width_8_access():
    mem = Memory(size=64)
    mem.store_u64(56, -1)
    assert mem.load(56, 8) == (1 << 64) - 1
    assert mem.load_u64(56) == (1 << 64) - 1
    with pytest.raises(MemoryError_) as error:
        mem.load_u64(57)
    assert str(error.value) == \
        "access of 8 bytes at 0x39 outside memory of 64 bytes"


@given(width=st.sampled_from([1, 2, 4, 8]), signed=st.booleans(),
       addr=st.integers(min_value=0, max_value=120),
       value=st.integers(min_value=-(1 << 64), max_value=(1 << 65)))
def test_store_load_match_int_bytes_roundtrip(width, signed, addr, value):
    size = 128
    mem = Memory(size=size)
    if addr + width > size:
        with pytest.raises(MemoryError_):
            mem.store(addr, width, value)
        return
    mem.store(addr, width, value)
    raw = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    assert bytes(mem.data[addr:addr + width]) == raw
    assert mem.load(addr, width, signed=signed) == _expected(raw, signed)
