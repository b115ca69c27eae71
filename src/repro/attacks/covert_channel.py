"""Cache covert-channel receivers (Section II of the paper).

The classic Prime+Probe receiver (Osvik, Shamir & Tromer, CT-RSA'06),
operating on the simulator's cache hierarchy: the attacker *primes*
cache sets with its own lines, lets the transmitter run, then *probes*
its lines again — a set whose probe is slow lost a way to the victim.

The receiver measures with access latencies, exactly what a real
receiver derives from its timer; there is no oracle access to cache
internals on this path.  (Tests separately use `Cache.resident_lines`
to cross-check the receiver against ground truth.)
"""


class PrimeProbeReceiver:
    """Prime+Probe over the L1 (or any) cache of a hierarchy.

    Parameters
    ----------
    hierarchy:
        The shared :class:`repro.memory.MemoryHierarchy`.
    buffer_base:
        Base address of the attacker's own probing buffer.  Must be
        aligned to ``num_sets * line_size`` so that offset-zero maps to
        set 0, and must span ``ways * num_sets * line_size`` bytes.
    """

    def __init__(self, hierarchy, buffer_base, cache=None):
        self.hierarchy = hierarchy
        self.cache = cache if cache is not None else hierarchy.l1
        #: Address distance between consecutive ways of one set.
        self.stride = self.cache.num_sets * self.cache.line_size
        if buffer_base % self.stride:
            raise ValueError(
                f"buffer_base {buffer_base:#x} must be aligned to "
                f"{self.stride:#x}")
        self.buffer_base = buffer_base
        #: Latency above which a probe access counts as a miss.
        self.miss_threshold = hierarchy.latencies.l1_hit

    def way_address(self, set_index, way):
        """Attacker-buffer address mapping to ``set_index`` (one per way)."""
        return (self.buffer_base + set_index * self.cache.line_size
                + way * self.stride)

    # ``prime`` and ``probe`` walk the ``way_address`` sequence inline,
    # stepping by ``stride``: they run once per leak attempt over every
    # set, so a helper call per way would dominate the receiver's cost.

    def prime(self, target_sets=None):
        """Fill every target set with the attacker's own lines."""
        if target_sets is None:
            target_sets = range(self.cache.num_sets)
        read = self.hierarchy.read
        base, line_size = self.buffer_base, self.cache.line_size
        stride, ways = self.stride, range(self.cache.ways)
        for set_index in target_sets:
            addr = base + set_index * line_size
            for _ in ways:
                read(addr)
                addr += stride

    def probe(self, target_sets=None):
        """Re-access primed lines; returns ``{set_index: total_latency}``."""
        if target_sets is None:
            target_sets = range(self.cache.num_sets)
        read = self.hierarchy.read
        base, line_size = self.buffer_base, self.cache.line_size
        stride, ways = self.stride, range(self.cache.ways)
        latencies = {}
        for set_index in target_sets:
            addr = base + set_index * line_size
            total = 0
            for _ in ways:
                total += read(addr)[1]
                addr += stride
            latencies[set_index] = total
        return latencies

    def evicted_sets(self, probe_latencies):
        """Sets where at least one way missed (victim activity)."""
        baseline = self.cache.ways * self.miss_threshold
        return sorted(set_index
                      for set_index, latency in probe_latencies.items()
                      if latency > baseline)


class FlushReloadReceiver:
    """Flush+Reload (Yarom & Falkner, Security'14) for shared-memory
    settings: flush a shared line, let the victim run, reload and time.

    Used by tests as a second receiver against the same transmitters.
    """

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy

    def flush(self, addr):
        self.hierarchy.l1.invalidate(addr)
        if self.hierarchy.l2 is not None:
            self.hierarchy.l2.invalidate(addr)

    def reload(self, addr):
        """Returns (was_cached, latency)."""
        cached = self.hierarchy.line_in_l1(addr) or self.hierarchy.line_in_l2(addr)
        _value, latency, _level = self.hierarchy.read(addr)
        return cached, latency
