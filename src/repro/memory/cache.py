"""A set-associative cache model.

The cache is a *presence* model: it tracks which lines are resident (data
lives in :class:`~repro.memory.flatmem.FlatMemory`), which is all that the
paper's channels need — hits vs misses, set occupancy and evictions are
the observable outcomes (Figure 2, Example 3).
"""

import random
from collections import defaultdict


class ReplacementPolicy:
    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"


class Cache:
    """One level of set-associative cache.

    Parameters
    ----------
    num_sets, ways, line_size:
        Geometry.  ``line_size`` must be a power of two.
    policy:
        One of :class:`ReplacementPolicy`.  ``random`` uses ``seed`` for
        reproducibility.
    """

    def __init__(self, num_sets=64, ways=4, line_size=64,
                 policy=ReplacementPolicy.LRU, seed=0):
        if line_size & (line_size - 1):
            raise ValueError("line_size must be a power of two")
        if num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.policy = policy
        self._seed = seed
        self._rng = None        # seeded on the first random eviction
        # Each set is a list of tags; for LRU the most recently used tag is
        # last, for FIFO the oldest inserted is first.  Sets are created
        # on first touch, so a fresh cache costs no per-set allocation.
        self._sets = defaultdict(list)
        self.stats = {"hits": 0, "misses": 0, "evictions": 0}

    @property
    def capacity_bytes(self):
        return self.num_sets * self.ways * self.line_size

    def line_of(self, addr):
        """Line-aligned address containing ``addr``."""
        return addr & ~(self.line_size - 1)

    def set_index(self, addr):
        """The set that ``addr`` maps to."""
        return (addr // self.line_size) % self.num_sets

    def tag_of(self, addr):
        return addr // self.line_size // self.num_sets

    def contains(self, addr):
        """Presence check with no replacement-state side effects."""
        return self.tag_of(addr) in self._sets[self.set_index(addr)]

    def touch(self, addr):
        """Promote ``addr``'s line for LRU purposes if resident."""
        tags = self._sets[self.set_index(addr)]
        tag = self.tag_of(addr)
        if tag in tags and self.policy == ReplacementPolicy.LRU:
            tags.remove(tag)
            tags.append(tag)

    def access(self, addr, fill=True):
        """Look up ``addr``; on a miss optionally fill its line.

        Returns ``(hit, evicted_line_addr_or_None)``.
        """
        index = self.set_index(addr)
        tags = self._sets[index]
        tag = self.tag_of(addr)
        if tag in tags:
            self.stats["hits"] += 1
            if self.policy == ReplacementPolicy.LRU:
                tags.remove(tag)
                tags.append(tag)
            return True, None
        self.stats["misses"] += 1
        if not fill:
            return False, None
        evicted = None
        if len(tags) >= self.ways:
            if self.policy == ReplacementPolicy.RANDOM:
                if self._rng is None:
                    self._rng = random.Random(self._seed)
                victim = self._rng.randrange(len(tags))
            else:
                victim = 0  # LRU and FIFO both evict the head.
            evicted_tag = tags.pop(victim)
            evicted = (evicted_tag * self.num_sets + index) * self.line_size
            self.stats["evictions"] += 1
        tags.append(tag)
        return False, evicted

    def fill_line(self, addr):
        """Install ``addr``'s line (used for prefetch and write fills)."""
        hit, evicted = self.access(addr, fill=True)
        return evicted if not hit else None

    def invalidate(self, addr):
        """Remove ``addr``'s line if resident; returns True if removed."""
        tags = self._sets[self.set_index(addr)]
        tag = self.tag_of(addr)
        if tag in tags:
            tags.remove(tag)
            return True
        return False

    def flush(self):
        """Empty the whole cache."""
        self._sets = defaultdict(list)

    def resident_lines(self):
        """All resident line addresses (for tests and attack tooling)."""
        lines = []
        for index, tags in sorted(self._sets.items()):
            for tag in tags:
                lines.append((tag * self.num_sets + index) * self.line_size)
        return lines

    def set_occupancy(self, index):
        """Number of resident ways in set ``index``."""
        return len(self._sets[index])
