"""Flat byte-addressable backing memory.

This is the architectural data memory (``Arch data_memory`` in the MLD
framework).  It is shared by the interpreter, the cache hierarchy and —
critically for the paper's prefetcher attack — the data memory-dependent
prefetcher, which dereferences its contents with no bounds knowledge.

The address space is ``size`` bytes of lazily-zeroed 4 KiB pages: a
page is allocated on its first write, and reading a page nobody wrote
returns zeros without allocating it.  Building a memory therefore costs
nothing up front, and unbounded prefetcher dereferences into untouched
memory keep the resident set flat.  ``size`` is the only bound.
"""

_WORD_MASK = (1 << 64) - 1
#: ``_WIDTH_MASKS[w]`` keeps the low ``w`` bytes of a value.
_WIDTH_MASKS = tuple((1 << (8 * width)) - 1 for width in range(9))

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_OFFSET_MASK = PAGE_SIZE - 1


class MemoryError_(Exception):
    """Raised on out-of-range physical accesses."""


class FlatMemory:
    """A fixed-size little-endian byte array with word accessors."""

    def __init__(self, size=1 << 22):
        self.size = size
        self._pages = {}        # page number -> bytearray(PAGE_SIZE)

    def _check(self, addr, width):
        if addr < 0 or addr + width > self.size:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + width:#x}) outside physical "
                f"memory of size {self.size:#x}")

    def _page(self, number):
        page = self._pages.get(number)
        if page is None:
            page = self._pages[number] = bytearray(PAGE_SIZE)
        return page

    def _read_span(self, addr, length):
        """``length`` bytes at ``addr`` across any number of pages."""
        out = bytearray(max(length, 0))
        for number, offset, pos, chunk in _spans(addr, length):
            page = self._pages.get(number)
            if page is not None:
                out[pos:pos + chunk] = page[offset:offset + chunk]
        return out

    def _write_span(self, addr, data):
        """Store ``data`` at ``addr`` across any number of pages."""
        view = memoryview(data)
        for number, offset, pos, chunk in _spans(addr, len(view)):
            self._page(number)[offset:offset + chunk] = \
                view[pos:pos + chunk]

    def read(self, addr, width=8):
        """Read ``width`` bytes at ``addr``, zero-extended to a word."""
        if addr < 0 or addr + width > self.size:
            self._check(addr, width)
        offset = addr & _OFFSET_MASK
        if offset + width > PAGE_SIZE:
            return int.from_bytes(self._read_span(addr, width), "little")
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return int.from_bytes(page[offset:offset + width], "little")

    def write(self, addr, value, width=8):
        """Write the low ``width`` bytes of ``value`` at ``addr``."""
        if addr < 0 or addr + width > self.size:
            self._check(addr, width)
        offset = addr & _OFFSET_MASK
        if width > 8 or offset + width > PAGE_SIZE:
            self._write_span(addr, (value & _WORD_MASK).to_bytes(
                max(width, 8), "little")[:width])
            return
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            page = self._pages[addr >> PAGE_SHIFT] = bytearray(PAGE_SIZE)
        page[offset:offset + width] = (
            (value & _WIDTH_MASKS[width]).to_bytes(width, "little"))

    def read_bytes(self, addr, length):
        self._check(addr, length)
        return bytes(self._read_span(addr, length))

    def write_bytes(self, addr, data):
        self._check(addr, len(data))
        self._write_span(addr, bytes(data))

    def fill(self, addr, length, byte=0):
        self._check(addr, length)
        pattern = bytes([byte])
        if pattern != b"\x00":
            self._write_span(addr, pattern * length)
            return
        # Zeroing never allocates: untouched pages already read as zero.
        for number, offset, _pos, chunk in _spans(addr, length):
            page = self._pages.get(number)
            if page is not None:
                page[offset:offset + chunk] = bytes(chunk)


def _spans(addr, length):
    """``(page number, page offset, data offset, length)`` for each
    page that ``[addr, addr + length)`` touches, in address order."""
    pos = 0
    while pos < length:
        offset = (addr + pos) & _OFFSET_MASK
        chunk = min(PAGE_SIZE - offset, length - pos)
        yield (addr + pos) >> PAGE_SHIFT, offset, pos, chunk
        pos += chunk
