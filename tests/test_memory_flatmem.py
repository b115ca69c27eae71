"""Flat backing memory: endianness, widths, bounds, lazy pages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.flatmem import PAGE_SIZE, FlatMemory, MemoryError_


def test_little_endian_layout():
    mem = FlatMemory(64)
    mem.write(0, 0x0102030405060708)
    assert mem.read_bytes(0, 8) == bytes([8, 7, 6, 5, 4, 3, 2, 1])


def test_partial_width_write_and_read():
    mem = FlatMemory(64)
    mem.write(0, 0xFFFFFFFFFFFFFFFF)
    mem.write(2, 0xAB, width=1)
    assert mem.read(0) == 0xFFFFFFFFFFAB_FFFF


def test_zero_extension_on_read():
    mem = FlatMemory(64)
    mem.write(0, 0xFF, width=1)
    assert mem.read(0, width=1) == 0xFF
    assert mem.read(0, width=8) == 0xFF


def test_bounds_checking():
    mem = FlatMemory(64)
    with pytest.raises(MemoryError_):
        mem.read(60, 8)
    with pytest.raises(MemoryError_):
        mem.write(64, 1, 1)
    with pytest.raises(MemoryError_):
        mem.read(-1, 1)


def test_fill_and_bulk_bytes():
    mem = FlatMemory(64)
    mem.fill(8, 4, 0x5A)
    assert mem.read_bytes(8, 4) == b"\x5a" * 4
    mem.write_bytes(0, b"hello")
    assert mem.read_bytes(0, 5) == b"hello"


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.sampled_from([1, 2, 4, 8]))
def test_write_read_roundtrip_masks_to_width(value, width):
    mem = FlatMemory(64)
    mem.write(0, value, width)
    assert mem.read(0, width) == value & ((1 << (8 * width)) - 1)


def test_negative_value_write_wraps():
    mem = FlatMemory(64)
    mem.write(0, -1)
    assert mem.read(0) == (1 << 64) - 1


# ----------------------------------------------------------------------
# paged memory against a flat bytearray oracle
# ----------------------------------------------------------------------

class _FlatOracle:
    """The reference model: one eagerly-zeroed ``bytearray``."""

    def __init__(self, size):
        self.size = size
        self.data = bytearray(size)

    def _check(self, addr, width):
        if addr < 0 or addr + width > self.size:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + width:#x}) outside physical "
                f"memory of size {self.size:#x}")

    def read(self, addr, width=8):
        self._check(addr, width)
        return int.from_bytes(self.data[addr:addr + width], "little")

    def write(self, addr, value, width=8):
        self._check(addr, width)
        self.data[addr:addr + width] = (
            (value & ((1 << 64) - 1)).to_bytes(8, "little")[:width])

    def read_bytes(self, addr, length):
        self._check(addr, length)
        return bytes(self.data[addr:addr + length])

    def write_bytes(self, addr, data):
        self._check(addr, len(data))
        self.data[addr:addr + len(data)] = data

    def fill(self, addr, length, byte=0):
        self._check(addr, length)
        self.data[addr:addr + length] = bytes([byte]) * length


#: Sizes on, just off and well off page multiples.
_SIZES = (1, 100, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1,
          3 * PAGE_SIZE + 123, 4 * PAGE_SIZE)


@st.composite
def _addresses(draw, size):
    """Mostly near page boundaries and the ends of memory, some anywhere
    (negative and past-the-end included)."""
    anchors = [0, size] + [page * PAGE_SIZE
                           for page in range(1, size // PAGE_SIZE + 1)]
    near = st.builds(lambda anchor, delta: anchor + delta,
                     st.sampled_from(anchors), st.integers(-9, 9))
    return draw(st.one_of(near, st.integers(-2 * PAGE_SIZE,
                                            size + 2 * PAGE_SIZE)))


@st.composite
def _operations(draw, size):
    kind = draw(st.sampled_from(
        ["read", "write", "read_bytes", "write_bytes", "fill"]))
    addr = draw(_addresses(size))
    if kind == "read":
        return kind, (addr, draw(st.integers(1, 8)))
    if kind == "write":
        return kind, (addr, draw(st.integers(-(1 << 64), (1 << 65))),
                      draw(st.integers(1, 8)))
    length = draw(st.one_of(st.integers(0, 16),
                            st.integers(0, 2 * PAGE_SIZE + 16)))
    if kind == "read_bytes":
        return kind, (addr, length)
    if kind == "write_bytes":
        seed = draw(st.integers(0, 255))
        return kind, (addr, bytes((seed + 7 * i) & 0xFF
                                  for i in range(length)))
    return kind, (addr, length, draw(st.sampled_from([0, 0x5A, 0xFF])))


def _outcome(memory, kind, args):
    try:
        return "ok", getattr(memory, kind)(*args)
    except MemoryError_ as exc:
        return "MemoryError_", str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_paged_memory_matches_flat_oracle(data):
    size = data.draw(st.sampled_from(_SIZES))
    memory, oracle = FlatMemory(size), _FlatOracle(size)
    written_pages = set()
    for kind, args in data.draw(st.lists(_operations(size), max_size=25)):
        outcome = _outcome(memory, kind, args)
        assert outcome == _outcome(oracle, kind, args), (kind, args)
        if outcome[0] == "ok" and kind in ("write", "write_bytes", "fill"):
            addr = args[0]
            length = (args[2] if kind == "write" else
                      len(args[1]) if kind == "write_bytes" else args[1])
            written_pages.update(
                range(addr // PAGE_SIZE,
                      (addr + max(length, 1) - 1) // PAGE_SIZE + 1))
        # Pages appear only under writes; reads never allocate.
        assert set(memory._pages) <= written_pages
    assert memory.size == size
    assert memory.read_bytes(0, size) == bytes(oracle.data)


def test_untouched_memory_reads_zero_without_allocating():
    memory = FlatMemory(1 << 22)
    assert memory.read(0) == 0
    assert memory.read((1 << 22) - 8) == 0
    assert memory.read(PAGE_SIZE - 4) == 0          # page-crossing read
    assert memory.read_bytes(12345, 3 * PAGE_SIZE) == bytes(3 * PAGE_SIZE)
    memory.fill(0, 1 << 22, 0)                      # zeroing is a no-op
    assert memory._pages == {}


def test_page_crossing_word_round_trips():
    memory = FlatMemory(2 * PAGE_SIZE)
    memory.write(PAGE_SIZE - 3, 0x1122334455667788)
    assert memory.read(PAGE_SIZE - 3) == 0x1122334455667788
    assert memory.read_bytes(PAGE_SIZE - 3, 3) == bytes([0x88, 0x77, 0x66])
    assert sorted(memory._pages) == [0, 1]
