"""Two-level cache hierarchy with a flat latency model.

Latencies are the channel: every demand access returns the number of
cycles it takes, determined by where the line is found.  Prefetches can
optionally be routed into a small *prefetch buffer* in front of L1 —
the "defense" discussed (and dismissed) in Section V-B3 of the paper:
buffered prefetches stay out of L1, but still fill L2, so a receiver that
probes L2 timing still sees them.
"""

import random
from dataclasses import dataclass, field

from repro.memory.cache import Cache
from repro.stats import NULL_STATS
from repro.trace.buffer import NULL_TRACE


@dataclass
class MemoryLatencies:
    """Cycle costs by hit level.

    The defaults give a > 100-cycle gap between an L1 hit and a memory
    access, matching the paper's observation that a single store miss
    produces an easily distinguishable end-to-end difference (Figure 6).

    ``jitter`` adds seeded, uniform ±jitter cycles to every *memory*
    access (DRAM scheduling, refresh, bus contention), the dominant
    source of timing spread on real systems; the simulator stays
    reproducible because the stream is seeded.
    """

    l1_hit: int = 2
    l2_hit: int = 12
    memory: int = 120
    store_perform: int = 1
    jitter: int = 0
    seed: int = 0
    _rng: object = field(default=None, repr=False, compare=False)

    def memory_latency(self):
        """The (possibly jittered) DRAM access latency."""
        if not self.jitter:
            return self.memory
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self.memory + self._rng.randint(-self.jitter, self.jitter)


class MemoryHierarchy:
    """L1 + optional L2 presence model over a :class:`FlatMemory`.

    The hierarchy is write-through for data (values always live in the
    backing :class:`FlatMemory`) but write-allocate for presence: a store
    may only *perform* when its line is in L1, which is the property the
    silent-store amplification gadget exploits (Section V-A2).
    """

    def __init__(self, memory, l1=None, l2=None, latencies=None,
                 prefetch_buffer_size=0, tlb=None, metrics=None,
                 trace=None):
        self.memory = memory
        self.l1 = l1 if l1 is not None else Cache()
        self.l2 = l2
        self.latencies = latencies if latencies is not None else MemoryLatencies()
        self.prefetch_buffer_size = prefetch_buffer_size
        #: Optional TLB: demand accesses AND prefetches translate
        #: through it (the IMP sits close to the core for exactly this;
        #: Section IV-D2).
        self.tlb = tlb
        self._prefetch_buffer = []  # FIFO of line addresses
        #: Shared :class:`repro.stats.SimStats`; the engine's Session
        #: replaces this with the run's record.  The legacy ``stats``
        #: dict below stays for existing callers/tests.
        self.metrics = metrics if metrics is not None else NULL_STATS
        #: Shared :class:`repro.trace.TraceBuffer` (clocked by the
        #: attached core via :meth:`CPU.install_trace`).
        self.trace = trace if trace is not None else NULL_TRACE
        self.stats = {
            "reads": 0, "writes": 0, "prefetches": 0,
            "l1_hits": 0, "l2_hits": 0, "memory_accesses": 0,
            "prefetch_buffer_hits": 0,
        }
        #: Monotone activity counter: bumped on every state-bearing
        #: access (demand reads, writes, prefetches, store fills).  The
        #: fast-path core (:mod:`repro.pipeline.fastpath`) compares it
        #: across a cycle to prove the memory system saw no activity —
        #: including plug-in-initiated traffic — before skipping ahead.
        self.epoch = 0

    # -- presence ------------------------------------------------------------

    def line_in_l1(self, addr):
        return self.l1.contains(addr)

    def line_in_l2(self, addr):
        return self.l2 is not None and self.l2.contains(addr)

    def in_prefetch_buffer(self, addr):
        return self.l1.line_of(addr) in self._prefetch_buffer

    # -- demand accesses -------------------------------------------------------

    def read(self, addr, width=8, fill=True):
        """Demand read: returns ``(value, latency_cycles, hit_level)``.

        ``hit_level`` is one of ``"l1"``, ``"pb"``, ``"l2"``, ``"mem"``.
        """
        self.epoch += 1
        self.stats["reads"] += 1
        value = self.memory.read(addr, width)
        if self.tlb is None:
            latency, level = self._cache_access(addr, fill)
        else:
            latency, level = self._access_for_latency(addr, fill)
        return value, latency, level

    def access_latency(self, addr, fill=True):
        """Latency-only access (used for instruction-less probes)."""
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

    def _fill_l1(self, addr):
        evicted = self.l1.access(addr)[1]
        if evicted is not None and self.trace.enabled:
            self.trace.emit("mem", "l1_evict", addr=evicted)

    def _fill_l2(self, addr):
        evicted = self.l2.access(addr)[1]
        if evicted is not None and self.trace.enabled:
            self.trace.emit("mem", "l2_evict", addr=evicted)

    def _cache_access(self, addr, fill):
        """Find ``addr``'s level and fill on the way; ``(latency, level)``.

        :meth:`Cache.lookup` tests presence and promotes a resident line
        in one pass, so each level computes set and tag once.
        """
        lat = self.latencies
        metrics_on = self.metrics.enabled
        trace_on = self.trace.enabled
        if self.l1.lookup(addr):
            self.stats["l1_hits"] += 1
            if metrics_on:
                self.metrics.inc("mem.l1.hits")
            if trace_on:
                self.trace.emit("mem", "l1_hit", addr=addr)
            return lat.l1_hit, "l1"
        if metrics_on:
            self.metrics.inc("mem.l1.misses")
        buffer = self._prefetch_buffer
        if buffer and self.l1.line_of(addr) in buffer:
            # Promote from the prefetch buffer into L1.
            self.stats["prefetch_buffer_hits"] += 1
            buffer.remove(self.l1.line_of(addr))
            if fill:
                self._fill_l1(addr)
            if metrics_on:
                self.metrics.inc("mem.pb.hits")
                self.metrics.observe("mem.miss_latency", lat.l1_hit + 1,
                                     bin_width=8)
            if trace_on:
                self.trace.emit("mem", "pb_hit", addr=addr,
                                info=f"latency={lat.l1_hit + 1}")
            return lat.l1_hit + 1, "pb"
        l2 = self.l2
        if l2 is not None and l2.lookup(addr):
            self.stats["l2_hits"] += 1
            if fill:
                self._fill_l1(addr)
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
            if l2 is not None:
                self._fill_l2(addr)
            self._fill_l1(addr)
        latency = lat.memory_latency()
        if metrics_on:
            if l2 is not None:
                self.metrics.inc("mem.l2.misses")
            self.metrics.inc("mem.dram.accesses")
            self.metrics.observe("mem.miss_latency", latency, bin_width=8)
        if trace_on:
            self.trace.emit("mem", "dram_access", addr=addr,
                            info=f"latency={latency}")
        return latency, "mem"

    def request_line_for_store(self, addr):
        """Bring ``addr``'s line into L1 for a store to perform.

        Returns the fill latency (0 when already resident).  This is the
        path that the amplification gadget stretches: a non-silent store
        whose line was evicted pays the full memory latency here while
        head-of-line blocking the store queue.
        """
        if self.l1.contains(addr):
            return 0
        self.epoch += 1
        latency, _ = self._access_for_latency(addr, fill=True)
        return latency

    def write(self, addr, value, width=8):
        """Architecturally perform a store (line must already be in L1)."""
        self.epoch += 1
        self.stats["writes"] += 1
        if self.metrics.enabled:
            self.metrics.inc("mem.writes")
        self.memory.write(addr, value, width)
        self.l1.touch(addr)

    # -- prefetches -----------------------------------------------------------

    def prefetch(self, addr):
        """Prefetcher-initiated fill.

        Fills L2 always; fills L1 directly unless a prefetch buffer is
        configured, in which case the line is parked in the buffer.
        Translates through the TLB when one is attached — the IMP
        prefetches virtual addresses (Section IV-D2), leaving
        page-granularity footprints too.
        """
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
            self._fill_l2(addr)
        if self.prefetch_buffer_size > 0:
            line = self.l1.line_of(addr)
            if line not in self._prefetch_buffer:
                self._prefetch_buffer.append(line)
                if len(self._prefetch_buffer) > self.prefetch_buffer_size:
                    self._prefetch_buffer.pop(0)
        else:
            self._fill_l1(addr)

    # -- utilities --------------------------------------------------------------

    def evictions(self):
        """Eviction totals per level, keyed by ``repro.stats`` name."""
        levels = (("l1", self.l1), ("l2", self.l2), ("tlb", self.tlb))
        return {f"mem.{name}.evictions": level.stats["evictions"]
                for name, level in levels if level is not None}

    def snapshot_into(self, metrics=None, since=None):
        """Copy end-of-run structure counters into a stats record.

        Eviction totals live inside the per-level :class:`Cache`
        (and :class:`TLB`) objects; snapshotting them once at the end
        of a run keeps the per-access hot path free of extra writes.
        Only evictions after ``since`` (an earlier :meth:`evictions`)
        are added, so runs on one persistent hierarchy count each
        once.  Counters sum under merge, so per-trial snapshots
        aggregate correctly across a batch.
        """
        metrics = metrics if metrics is not None else self.metrics
        if not metrics.enabled:
            return metrics
        since = since or {}
        for name, total in self.evictions().items():
            metrics.inc(name, total - since.get(name, 0))
        return metrics

    def flush_all(self):
        self.l1.flush()
        if self.l2 is not None:
            self.l2.flush()
        if self.tlb is not None:
            self.tlb.flush()
        self._prefetch_buffer.clear()
