"""The hierarchy's cache path against a reference model.

``ReferenceHierarchy`` keeps the straightforward form of every demand
and prefetch path: a presence test followed by an LRU ``touch`` for
each level (both computed here with ``//`` and ``%``, not through the
cache's own geometry), fills through a ``fill_line`` helper, and the
TLB step in ``_access_for_latency``.  Random operation mixes run on it
and on a :class:`MemoryHierarchy` with identical parts; every return
value and every piece of observable state must agree: the hierarchy
``stats``, ``epoch``, each cache's ``stats`` and per-set tag order, the
prefetch buffer, the TLB, the metrics record and the trace events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache, ReplacementPolicy
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy, MemoryLatencies
from repro.memory.tlb import TLB
from repro.stats import NULL_STATS, SimStats
from repro.trace.buffer import NULL_TRACE, TraceBuffer

MEMORY_SIZE = 1 << 16


def set_tags(cache, addr):
    """The tag list of ``addr``'s set, and ``addr``'s tag."""
    line = addr // cache.line_size
    return cache._sets[line % cache.num_sets], line // cache.num_sets


def contains(cache, addr):
    tags, tag = set_tags(cache, addr)
    return tag in tags


def touch(cache, addr):
    """Promote ``addr``'s line to most recently used under LRU."""
    tags, tag = set_tags(cache, addr)
    if tag in tags and cache.policy == ReplacementPolicy.LRU:
        tags.remove(tag)
        tags.append(tag)


def fill_line(cache, addr):
    """Install ``addr``'s line; the evicted line address or None."""
    hit, evicted = cache.access(addr, fill=True)
    return evicted if not hit else None


class ReferenceHierarchy(MemoryHierarchy):
    """The cache path as two-step presence checks and fill wrappers."""

    def read(self, addr, width=8, fill=True):
        self.epoch += 1
        self.stats["reads"] += 1
        value = self.memory.read(addr, width)
        latency, level = self._access_for_latency(addr, fill)
        return value, latency, level

    def access_latency(self, addr, fill=True):
        self.epoch += 1
        latency, _ = self._access_for_latency(addr, fill)
        return latency

    def _access_for_latency(self, addr, fill):
        if self.tlb is not None:
            translation = self.tlb.access(addr)
            if self.metrics.enabled:
                self.metrics.inc("mem.tlb.walks" if translation
                                 else "mem.tlb.hits")
            if translation and self.trace.enabled:
                self.trace.emit("mem", "tlb_walk", addr=addr,
                                info=f"latency={translation}")
        else:
            translation = 0
        latency, level = self._cache_access(addr, fill)
        return translation + latency, level

    def _fill(self, cache, addr, event):
        evicted = fill_line(cache, addr)
        if evicted is not None and self.trace.enabled:
            self.trace.emit("mem", event, addr=evicted)

    def _cache_access(self, addr, fill):
        lat = self.latencies
        metrics_on = self.metrics.enabled
        trace_on = self.trace.enabled
        if contains(self.l1, addr):
            touch(self.l1, addr)
            self.stats["l1_hits"] += 1
            if metrics_on:
                self.metrics.inc("mem.l1.hits")
            if trace_on:
                self.trace.emit("mem", "l1_hit", addr=addr)
            return lat.l1_hit, "l1"
        if metrics_on:
            self.metrics.inc("mem.l1.misses")
        line = self.l1.line_of(addr)
        if line in self._prefetch_buffer:
            self.stats["prefetch_buffer_hits"] += 1
            self._prefetch_buffer.remove(line)
            if fill:
                self._fill(self.l1, addr, "l1_evict")
            if metrics_on:
                self.metrics.inc("mem.pb.hits")
                self.metrics.observe("mem.miss_latency", lat.l1_hit + 1,
                                     bin_width=8)
            if trace_on:
                self.trace.emit("mem", "pb_hit", addr=addr,
                                info=f"latency={lat.l1_hit + 1}")
            return lat.l1_hit + 1, "pb"
        if self.l2 is not None and contains(self.l2, addr):
            touch(self.l2, addr)
            self.stats["l2_hits"] += 1
            if fill:
                self._fill(self.l1, addr, "l1_evict")
            if metrics_on:
                self.metrics.inc("mem.l2.hits")
                self.metrics.observe("mem.miss_latency", lat.l2_hit,
                                     bin_width=8)
            if trace_on:
                self.trace.emit("mem", "l2_hit", addr=addr,
                                info=f"latency={lat.l2_hit}")
            return lat.l2_hit, "l2"
        self.stats["memory_accesses"] += 1
        if fill:
            if self.l2 is not None:
                self._fill(self.l2, addr, "l2_evict")
            self._fill(self.l1, addr, "l1_evict")
        latency = lat.memory_latency()
        if metrics_on:
            if self.l2 is not None:
                self.metrics.inc("mem.l2.misses")
            self.metrics.inc("mem.dram.accesses")
            self.metrics.observe("mem.miss_latency", latency, bin_width=8)
        if trace_on:
            self.trace.emit("mem", "dram_access", addr=addr,
                            info=f"latency={latency}")
        return latency, "mem"

    def request_line_for_store(self, addr):
        if contains(self.l1, addr):
            return 0
        self.epoch += 1
        latency, _ = self._access_for_latency(addr, fill=True)
        return latency

    def write(self, addr, value, width=8):
        self.epoch += 1
        self.stats["writes"] += 1
        if self.metrics.enabled:
            self.metrics.inc("mem.writes")
        self.memory.write(addr, value, width)
        touch(self.l1, addr)

    def prefetch(self, addr):
        self.epoch += 1
        self.stats["prefetches"] += 1
        if self.metrics.enabled:
            self.metrics.inc("mem.prefetches")
        if self.trace.enabled:
            self.trace.emit("mem", "prefetch", addr=addr)
        if self.tlb is not None:
            walk = self.tlb.access(addr)
            if self.metrics.enabled:
                self.metrics.inc("mem.tlb.walks" if walk
                                 else "mem.tlb.hits")
            if walk and self.trace.enabled:
                self.trace.emit("mem", "tlb_walk", addr=addr,
                                info=f"latency={walk}")
        if self.l2 is not None:
            self._fill(self.l2, addr, "l2_evict")
        if self.prefetch_buffer_size > 0:
            line = self.l1.line_of(addr)
            if line not in self._prefetch_buffer:
                self._prefetch_buffer.append(line)
                if len(self._prefetch_buffer) > self.prefetch_buffer_size:
                    self._prefetch_buffer.pop(0)
        else:
            self._fill(self.l1, addr, "l1_evict")


def build(cls, config):
    policy, use_l2, pb_size, use_tlb, observe, seed = config
    return cls(
        FlatMemory(MEMORY_SIZE),
        l1=Cache(num_sets=4, ways=2, policy=policy, seed=seed),
        l2=(Cache(num_sets=8, ways=4, policy=policy, seed=seed + 1)
            if use_l2 else None),
        latencies=MemoryLatencies(jitter=7, seed=seed),
        prefetch_buffer_size=pb_size,
        tlb=TLB(entries=3, page_size=1024) if use_tlb else None,
        metrics=SimStats() if observe else NULL_STATS,
        trace=TraceBuffer() if observe else NULL_TRACE)


def cache_state(cache):
    return (dict(cache.stats),
            {index: list(tags) for index, tags in cache._sets.items()
             if tags})


def state(hierarchy):
    caches = [hierarchy.l1] + ([hierarchy.l2] if hierarchy.l2 else [])
    tlb = hierarchy.tlb
    return {
        "stats": dict(hierarchy.stats),
        "epoch": hierarchy.epoch,
        "caches": [cache_state(cache) for cache in caches],
        "prefetch_buffer": list(hierarchy._prefetch_buffer),
        "tlb": None if tlb is None else (tlb.resident_pages(),
                                         dict(tlb.stats)),
        "metrics": hierarchy.metrics.as_dict()
        if hierarchy.metrics.enabled else None,
        "trace": hierarchy.trace.events()
        if hierarchy.trace.enabled else None,
    }


def apply(hierarchy, op):
    kind, addr, flag = op
    if kind == "read":
        return hierarchy.read(addr, fill=flag)
    if kind == "write":
        return hierarchy.write(addr, addr & 0xFF)
    if kind == "prefetch":
        return hierarchy.prefetch(addr)
    if kind == "access_latency":
        return hierarchy.access_latency(addr, fill=flag)
    if kind == "store":
        return hierarchy.request_line_for_store(addr)
    if kind == "flush_all":
        return hierarchy.flush_all()
    use_l2 = flag and hierarchy.l2 is not None
    return (hierarchy.l2 if use_l2 else hierarchy.l1).invalidate(addr)


CONFIGS = st.tuples(
    st.sampled_from((ReplacementPolicy.LRU, ReplacementPolicy.FIFO,
                     ReplacementPolicy.RANDOM)),
    st.booleans(),              # L2
    st.sampled_from((0, 2)),    # prefetch buffer size
    st.booleans(),              # TLB
    st.booleans(),              # metrics and trace
    st.integers(0, 3))          # RNG seed (replacement and jitter)

OPS = st.lists(st.tuples(
    st.sampled_from(("read", "read", "read", "write", "prefetch",
                     "access_latency", "store", "flush_all",
                     "invalidate")),
    st.integers(0, 4095).map(lambda addr: addr * 8),
    st.booleans()), min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(CONFIGS, OPS)
def test_cache_path_matches_reference_model(config, ops):
    reference = build(ReferenceHierarchy, config)
    hierarchy = build(MemoryHierarchy, config)
    for step, op in enumerate(ops):
        assert apply(hierarchy, op) == apply(reference, op), (step, op)
        assert state(hierarchy) == state(reference), (step, op)


ADDRESSES = st.one_of(st.integers(-(1 << 80), 1 << 80),
                      st.integers(-4096, 4096))


@settings(max_examples=300, deadline=None)
@given(ADDRESSES, st.sampled_from((1, 4, 64)),
       st.sampled_from((8, 64, 128)))
def test_geometry_floors_like_division(addr, num_sets, line_size):
    cache = Cache(num_sets=num_sets, ways=2, line_size=line_size)
    assert cache.set_index(addr) == (addr // line_size) % num_sets
    assert cache.tag_of(addr) == addr // line_size // num_sets
    assert cache.line_of(addr) == addr - addr % line_size
    assert not cache.lookup(addr)
    cache.access(addr)
    assert cache.lookup(addr) and cache.contains(addr)
    assert cache.resident_lines() == [cache.line_of(addr)]
    assert cache.set_occupancy(cache.set_index(addr)) == 1
    assert cache.invalidate(addr)
    assert not cache.contains(addr)


def test_lookup_promotes_like_touch_and_counts_nothing():
    cache = Cache(num_sets=1, ways=2)
    cache.access(0x000)
    cache.access(0x040)
    stats = dict(cache.stats)
    assert cache.lookup(0x000)
    assert not cache.lookup(0x080)
    assert cache.stats == stats
    _hit, evicted = cache.access(0x080)
    assert evicted == 0x040        # 0x000 was promoted past it
