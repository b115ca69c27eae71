"""A cycle-level out-of-order core with pluggable optimizations.

This is the repo's stand-in for the paper's gem5 substrate (Section V-A1).
It models exactly the mechanisms the paper's proofs-of-concept depend on:

* register renaming against a finite physical register file (so that
  register-file compression has something to relieve),
* a unified reservation-station window with per-cycle ALU / load / store
  ports and non-pipelined multiply/divide units (so that computation
  simplification, operand packing and computation reuse change timing),
* a load/store queue with store-to-load forwarding, conservative memory
  disambiguation and — critically — **in-order store dequeue gated on the
  line being present in L1** (Section V-A1; the amplification gadget of
  Figure 5 is built on this),
* branch prediction with squash/recovery, reused by value prediction,
* a cycle counter instruction (``rdcycle``) as the receiver's timer.

Architectural results are differentially tested against the golden-model
interpreter: optimizations may change *when*, never *what*.
"""

from collections import deque

from repro.isa.bits import mask
from repro.isa.opcodes import (
    Op, is_alu, is_branch, is_div, is_load, is_mul, is_store, reads_rs1,
    reads_rs2, writes_register,
)
from repro.isa.semantics import alu_result, branch_taken, effective_address
from repro.pipeline.branch_predictor import BranchPredictor
from repro.pipeline.config import CPUConfig
from repro.pipeline.dyninst import (
    DynInst, InstState, LQEntry, SilentState, SQEntry,
)
from repro.pipeline.plugins import hook_lists
from repro.stats import NULL_STATS
from repro.trace.buffer import NULL_TRACE

NUM_ARCH_REGS = 32
SILENT_DEQUEUE_WIDTH = 4  # consecutive silent stores retired per cycle

#: Construction templates, copied per core: the initial rename map and,
#: per PRF size, the initial free list.
_IDENTITY_MAP = list(range(NUM_ARCH_REGS))
_FREE_LISTS = {}


class SimulationError(Exception):
    """Raised when a simulation exceeds its cycle budget or deadlocks."""


class CPUStats:
    """Counters exposed after a run."""

    def __init__(self):
        self.cycles = 0
        self.retired = 0
        self.dispatched = 0
        self.issued = 0
        self.branch_squashes = 0
        self.vp_squashes = 0
        self.squashed_instructions = 0
        self.stores_performed = 0
        self.silent_stores = 0
        self.loads_forwarded = 0
        self.loads_from_memory = 0
        self.dispatch_stalls = {
            "rob": 0, "rs": 0, "sq": 0, "lq": 0, "preg": 0, "fence": 0,
        }
        self.packed_alu_pairs = 0
        self.reuse_hits = 0

    def as_dict(self):
        data = {k: v for k, v in vars(self).items()
                if not k.startswith("_")}
        return data

    @property
    def ipc(self):
        return self.retired / self.cycles if self.cycles else 0.0


class CPU:
    """The out-of-order core.

    Parameters
    ----------
    program:
        An assembled :class:`repro.isa.Program`.
    hierarchy:
        A :class:`repro.memory.MemoryHierarchy`; its backing
        :class:`FlatMemory` is the architectural data memory.
    config:
        A :class:`CPUConfig`; defaults model the paper's Baseline.
    plugins:
        Iterable of :class:`repro.pipeline.plugins.OptimizationPlugin`.
    metrics:
        A :class:`repro.stats.SimStats` shared with the hierarchy and
        plug-ins; defaults to the disabled :data:`~repro.stats.NULL_STATS`
        (per-cycle recording is skipped behind one ``enabled`` check).
    trace:
        A :class:`repro.trace.TraceBuffer` receiving cycle-accurate
        pipeline events, shared with the hierarchy and plug-ins;
        defaults to the disabled :data:`~repro.trace.NULL_TRACE`
        (emission sites are skipped behind one ``enabled`` check).
    """

    def __init__(self, program, hierarchy, config=None, plugins=(),
                 metrics=None, trace=None):
        self.program = program
        self.hierarchy = hierarchy
        self.memory = hierarchy.memory
        self.config = config if config is not None else CPUConfig()
        self.plugins = list(plugins)
        # One tuple per hook (in ``plugins.HOOKS`` order), holding only
        # the plug-ins whose class overrides it (see ``hook_lists``).
        (self._on_dispatch_plugins, self._provide_phys_reg_plugins,
         self._reclaim_phys_reg_plugins, self._execute_latency_plugins,
         self._lookup_reuse_plugins, self._pack_pair_plugins,
         self._on_result_plugins, self._on_commit_plugins,
         self._on_load_response_plugins,
         self._on_store_address_resolved_plugins,
         self._on_store_performed_plugins,
         self._end_of_cycle_plugins) = hook_lists(self.plugins)
        self.stats = CPUStats()
        self.metrics = metrics if metrics is not None else NULL_STATS
        self.trace = NULL_TRACE
        if trace is not None:
            self.install_trace(trace)
        self.branch_predictor = BranchPredictor(self.config.use_branch_predictor)

        # Physical register file.  Plug-ins may carve extra hidden pregs
        # via allocate_plugin_pool (register-file compression headroom).
        total_pregs = self.config.num_phys_regs
        self.prf_value = [0] * total_pregs
        self.prf_ready = [True] * total_pregs
        self.rename_map = _IDENTITY_MAP.copy()
        free_list = _FREE_LISTS.get(total_pregs)
        if free_list is None:
            free_list = _FREE_LISTS[total_pregs] = deque(
                range(NUM_ARCH_REGS, total_pregs))
        self.free_list = free_list.copy()
        self.arch_version = [0] * NUM_ARCH_REGS

        # Windows and queues.
        self.rob = deque()
        self.rs = []
        self.load_queue = []
        self.store_queue = []
        self.fetch_buffer = deque()
        self.fetch_pc = 0
        self.fetching_halted = False

        # Execution resources.  ``ports`` is per-cycle issue bandwidth;
        # an SMT wrapper may replace it (and the busy-until lists) with
        # objects shared between sibling threads.
        self.mul_busy_until = [0] * self.config.num_mul_units
        self.div_busy_until = [0] * self.config.num_div_units
        self.ports = {"alu": 0, "load": 0, "store": 0}
        self._owns_ports = True

        # Event queue: cycle -> list of zero-arg callables.
        self._events = {}
        self.cycle = 0
        self.halted = False
        self._seq = 0
        self._squash_req = None  # (seq, redirect_pc)

        for plugin in self.plugins:
            plugin.attach(self)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    def install_trace(self, buffer):
        """Adopt ``buffer`` as this core's event sink.

        Clocks the buffer off this core's cycle counter and shares it
        with the memory hierarchy when enabled (a disabled buffer never
        displaces a hierarchy's existing one, so persistent-hierarchy
        callers keep their own tracing).
        """
        self.trace = buffer
        buffer.set_clock(lambda: self.cycle)
        if buffer.enabled:
            self.hierarchy.trace = buffer

    # ------------------------------------------------------------------
    # plug-in support
    # ------------------------------------------------------------------

    def allocate_plugin_pool(self, size):
        """Extend the PRF with ``size`` hidden registers for a plug-in.

        Returns the list of new physical-register indices.  These never
        enter the core's own free list; the plug-in hands them out via
        ``provide_phys_reg`` and takes them back via ``reclaim_phys_reg``.
        """
        start = len(self.prf_value)
        self.prf_value.extend([0] * size)
        self.prf_ready.extend([True] * size)
        return list(range(start, start + size))

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------

    def schedule(self, delay, fn):
        """Run ``fn`` at ``self.cycle + delay`` (delay >= 1)."""
        when = self.cycle + max(1, delay)
        self._events.setdefault(when, []).append(fn)

    def _fire_events(self):
        for fn in self._events.pop(self.cycle, ()):  # insertion order
            fn()

    def request_squash(self, seq, redirect_pc):
        """Squash everything younger than ``seq``; refetch at ``redirect_pc``."""
        if self._squash_req is None or seq < self._squash_req[0]:
            self._squash_req = (seq, redirect_pc)

    # ------------------------------------------------------------------
    # top-level run loop
    # ------------------------------------------------------------------

    def run(self, max_cycles=None):
        """Run to HALT (or end of program); returns :class:`CPUStats`."""
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        while self.advance(limit):
            pass
        self.stats.cycles = self.cycle
        return self.stats

    def advance(self, limit):
        """One cooperative scheduling quantum; True while still running.

        The unit the lockstep execution backend interleaves: a core that
        has halted returns False immediately, one at ``limit`` raises
        exactly as :meth:`run` would, anything else ticks one cycle.
        ``run`` is a plain loop over this, so driving a core through
        ``advance`` is bitwise identical to ``run``.
        """
        if self.halted:
            return False
        if self.cycle >= limit:
            raise SimulationError(
                f"exceeded {limit} cycles without halting")
        self.step()
        return not self.halted

    def step(self):
        """Advance one cycle."""
        self.cycle += 1
        if self.metrics.enabled:
            self._record_cycle_metrics()
        if self._owns_ports:
            self.refill_ports()
        self._fire_events()
        self._apply_squash()
        self._commit()
        if self.halted:
            self.stats.cycles = self.cycle
            return
        self._lsq_step()
        self._issue()
        self._dispatch()
        self._fetch()
        self._plugins_end_of_cycle()
        # End-of-program fallback for programs without an explicit HALT.
        if (not self.rob and not self.fetch_buffer and not self.store_queue
                and (self.fetching_halted or self.fetch_pc >= len(self.program))
                and not self.fetch_buffer):
            if not any(self._events.values()):
                self.halted = True
                self.stats.cycles = self.cycle

    def _record_cycle_metrics(self):
        """Per-cycle structure occupancy (enabled-mode only).

        Occupancy integrals are counters (summed across merged trials)
        paired with the ``pipeline.cycles`` counter, so a merged
        record's average occupancy is ``integral / cycles``; high-water
        marks merge by max.
        """
        metrics = self.metrics
        rob = len(self.rob)
        rs = len(self.rs)
        lq = len(self.load_queue)
        sq = len(self.store_queue)
        metrics.inc("pipeline.cycles")
        metrics.inc("pipeline.rob.occupancy_integral", rob)
        metrics.inc("pipeline.rs.occupancy_integral", rs)
        metrics.inc("pipeline.lq.occupancy_integral", lq)
        metrics.inc("pipeline.sq.occupancy_integral", sq)
        metrics.peak("pipeline.rob.high_water", rob)
        metrics.peak("pipeline.rs.high_water", rs)
        metrics.peak("pipeline.lq.high_water", lq)
        metrics.peak("pipeline.sq.high_water", sq)
        if sq and self.store_queue[0].committed:
            metrics.inc("pipeline.sq.head_committed_cycles")

    # ------------------------------------------------------------------
    # squash / recovery
    # ------------------------------------------------------------------

    def _apply_squash(self):
        if self._squash_req is None:
            return
        seq, redirect = self._squash_req
        self._squash_req = None
        if self.metrics.enabled:
            self.metrics.inc("pipeline.flushes")
        trace_on = self.trace.enabled
        if trace_on:
            self.trace.emit("inst", "flush", cycle=self.cycle,
                            info=f"redirect={redirect}")
        squashed_before = self.stats.squashed_instructions
        while self.rob and self.rob[-1].seq > seq:
            dyn = self.rob.pop()
            dyn.squashed = True
            self.stats.squashed_instructions += 1
            if trace_on:
                self.trace.emit("inst", "squash", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc)
            if dyn.pdst is not None:
                self.rename_map[dyn.inst.rd] = dyn.old_pdst
                self._free_preg(dyn.pdst)
        if self.metrics.enabled:
            self.metrics.inc("pipeline.squashed_instructions",
                             self.stats.squashed_instructions
                             - squashed_before)
        self.rs = [d for d in self.rs if not d.squashed]
        self.load_queue = [e for e in self.load_queue if not e.dyn.squashed]
        self.store_queue = [e for e in self.store_queue
                            if not e.dyn.squashed]
        self.fetch_buffer.clear()
        self.fetch_pc = redirect
        self.fetching_halted = False

    def _free_preg(self, preg):
        for plugin in self._reclaim_phys_reg_plugins:
            if plugin.reclaim_phys_reg(preg):
                return
        self.free_list.append(preg)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self):
        committed = 0
        while self.rob and committed < self.config.commit_width:
            dyn = self.rob[0]
            if dyn.state is not InstState.DONE:
                break
            op = dyn.inst.op
            if op is Op.HALT and self.store_queue:
                break  # drain outstanding stores before halting
            self.rob.popleft()
            dyn.state = InstState.COMMITTED
            self.stats.retired += 1
            committed += 1
            if self.trace.enabled:
                self.trace.emit("inst", "retire", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc)
            for plugin in self._on_commit_plugins:
                plugin.on_commit(dyn)
            if dyn.pdst is not None and dyn.old_pdst is not None:
                self._free_preg(dyn.old_pdst)
            if op is Op.STORE:
                for entry in self.store_queue:
                    if entry.dyn is dyn:
                        entry.committed = True
                        entry.committed_cycle = self.cycle
                        break
            elif op is Op.LOAD:
                for index, entry in enumerate(self.load_queue):
                    if entry.dyn is dyn:
                        del self.load_queue[index]
                        # Plug-ins (e.g. the IMP) train on the retired
                        # load stream: program order, no wrong paths.
                        # Forwarded loads never reached the memory
                        # system, so they stay invisible.
                        if not entry.forwarded:
                            for plugin in self._on_load_response_plugins:
                                plugin.on_load_response(
                                    dyn, entry.addr, dyn.result)
                        break
            if op is Op.HALT:
                self.halted = True
                return

    # ------------------------------------------------------------------
    # load/store queue upkeep and store dequeue
    # ------------------------------------------------------------------

    def _lsq_step(self):
        lat = self.hierarchy.latencies
        for entry in self.store_queue:
            dyn = entry.dyn
            if not entry.data_ready:
                preg = dyn.src_pregs[1]
                if preg is None:
                    entry.data = 0
                    entry.data_ready = True
                elif self.prf_ready[preg]:
                    entry.data = self.prf_value[preg] & (
                        (1 << (8 * entry.width)) - 1)
                    entry.data_ready = True
            if (entry.addr_ready and entry.data_ready
                    and dyn.state is not InstState.DONE):
                dyn.state = InstState.DONE
                dyn.done_cycle = self.cycle
            if (entry.ss_load_returned and entry.data_ready
                    and entry.silent is SilentState.UNKNOWN
                    and not entry.performed):
                if entry.ss_load_value == entry.data:
                    entry.silent = SilentState.SILENT
                else:
                    entry.silent = SilentState.NONSILENT

        # In-order store dequeue.  Consecutive silent stores dequeue in the
        # same cycle (Section V-A1); at most one store performs to memory.
        silent_budget = SILENT_DEQUEUE_WIDTH
        dequeue_delay = self.config.store_dequeue_delay
        metrics_on = self.metrics.enabled
        trace_on = self.trace.enabled
        while self.store_queue and self.store_queue[0].committed:
            head = self.store_queue[0]
            if self.cycle < head.committed_cycle + dequeue_delay:
                break
            if head.silent is SilentState.SILENT:
                if silent_budget <= 0:
                    break
                silent_budget -= 1
                head.performed = True
                head.dequeue_cycle = self.cycle
                self.stats.silent_stores += 1
                if metrics_on:
                    self.metrics.inc("pipeline.sq.silent_dequeues")
                if trace_on:
                    self.trace.emit("sq", "silent_dequeue",
                                    cycle=self.cycle, seq=head.dyn.seq,
                                    pc=head.dyn.pc, addr=head.addr)
                self.store_queue.pop(0)
                for plugin in self._on_store_performed_plugins:
                    plugin.on_store_performed(head)
                continue
            # Non-silent (or not-yet-decided) store: needs its line in L1.
            # Every cycle a committed head store spends waiting for its
            # line is head-of-line blocking: nothing younger can dequeue
            # behind it.  This counter is what attributes the Figure 5
            # amplification to the store queue.
            if head.fill_requested:
                if self.cycle < head.fill_ready_cycle:
                    if metrics_on:
                        self.metrics.inc(
                            "pipeline.sq.head_of_line_stall_cycles")
                    if trace_on:
                        self.trace.emit("sq", "hol_stall",
                                        cycle=self.cycle,
                                        seq=head.dyn.seq,
                                        pc=head.dyn.pc, addr=head.addr)
                    break
            elif not self.hierarchy.line_in_l1(head.addr):
                head.fill_requested = True
                fill_latency = self.hierarchy.request_line_for_store(head.addr)
                head.fill_ready_cycle = self.cycle + fill_latency
                if metrics_on:
                    self.metrics.inc("pipeline.sq.store_fills")
                    self.metrics.inc(
                        "pipeline.sq.head_of_line_stall_cycles")
                    self.metrics.observe("pipeline.sq.store_fill_latency",
                                         fill_latency, bin_width=8)
                if trace_on:
                    self.trace.emit("sq", "fill_request",
                                    cycle=self.cycle, seq=head.dyn.seq,
                                    pc=head.dyn.pc, addr=head.addr,
                                    info=f"latency={fill_latency}")
                    self.trace.emit("sq", "hol_stall", cycle=self.cycle,
                                    seq=head.dyn.seq, pc=head.dyn.pc,
                                    addr=head.addr)
                break
            if head.silent is SilentState.UNKNOWN:
                head.silent = SilentState.NO_CANDIDATE
            self.hierarchy.write(head.addr, head.data, head.width)
            # Store-store snoop: this write stales any SS-Load value a
            # younger overlapping store already captured — cancel its
            # candidacy (it will perform normally, always correct).
            for other in self.store_queue[1:]:
                if not other.overlaps(head.addr, head.width):
                    continue
                if (other.ss_load_returned
                        or other.silent in (SilentState.SILENT,
                                            SilentState.NONSILENT)):
                    other.silent = SilentState.NO_CANDIDATE
                    other.ss_load_returned = False
            head.performed = True
            head.dequeue_cycle = self.cycle + lat.store_perform
            self.stats.stores_performed += 1
            if trace_on:
                self.trace.emit("sq", "perform", cycle=self.cycle,
                                seq=head.dyn.seq, pc=head.dyn.pc,
                                addr=head.addr, info=head.silent.value)
            self.store_queue.pop(0)
            for plugin in self._on_store_performed_plugins:
                plugin.on_store_performed(head)
            break  # one memory write port per cycle

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def _sources_ready(self, dyn):
        op = dyn.inst.op
        needed = []
        if reads_rs1(op):
            needed.append(0)
        if reads_rs2(op) and not is_store(op):
            needed.append(1)
        for index in needed:
            preg = dyn.src_pregs[index]
            if preg is not None and not self.prf_ready[preg]:
                return False
        for index in needed:
            preg = dyn.src_pregs[index]
            dyn.src_values[index] = (
                self.prf_value[preg] if preg is not None else 0)
        return True

    def refill_ports(self):
        """Reset per-cycle issue bandwidth (called once per cycle by
        the owner of the port state — this core, or an SMT wrapper)."""
        self.ports["alu"] = self.config.num_alu_ports
        self.ports["load"] = self.config.num_load_ports
        self.ports["store"] = self.config.num_store_ports
        # ALU ops issued this cycle (across SMT siblings when shared):
        # the candidates for operand packing, and the already-packed
        # bookkeeping.
        self.ports["alu_issued"] = []
        self.ports["packed"] = set()

    def _issue(self):
        cfg = self.config
        ports = self.ports
        issued = 0
        issued_alu_ops = ports["alu_issued"]
        packed_partners = ports["packed"]
        taken = []

        for dyn in self.rs:
            if issued >= cfg.issue_width:
                break
            if not self._sources_ready(dyn):
                continue
            op = dyn.inst.op
            if is_load(op):
                if ports["load"] <= 0:
                    continue
                if not self._try_issue_load(dyn):
                    continue
                ports["load"] -= 1
            elif is_store(op):
                if ports["store"] <= 0:
                    continue
                ports["store"] -= 1
                self._issue_store_agen(dyn)
            elif is_mul(op):
                if not self._issue_arith(dyn, cfg.latency_mul,
                                         self.mul_busy_until):
                    continue
            elif is_div(op):
                if not self._issue_arith(dyn, cfg.latency_div,
                                         self.div_busy_until):
                    continue
            else:  # ALU-class: simple ops, branches, LI, RDCYCLE
                if ports["alu"] > 0:
                    ports["alu"] -= 1
                    self._issue_alu(dyn)
                    issued_alu_ops.append(dyn)
                else:
                    partner = self._find_pack_partner(
                        dyn, issued_alu_ops, packed_partners)
                    if partner is None:
                        continue
                    packed_partners.add(id(partner))
                    self.stats.packed_alu_pairs += 1
                    self._issue_alu(dyn)
                    issued_alu_ops.append(dyn)
            dyn.state = InstState.ISSUED
            dyn.issue_cycle = self.cycle
            issued += 1
            self.stats.issued += 1
            if self.trace.enabled:
                self.trace.emit("inst", "issue", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc)
            taken.append(dyn)

        if taken:
            taken_ids = {id(d) for d in taken}
            self.rs = [d for d in self.rs if id(d) not in taken_ids]

    def _find_pack_partner(self, dyn, issued_alu_ops, packed_partners):
        """Operand packing: find an already-issued ALU op to share a slot."""
        if not self._pack_pair_plugins or not is_alu(dyn.inst.op):
            return None
        for partner in issued_alu_ops:
            if id(partner) in packed_partners:
                continue
            if not is_alu(partner.inst.op):
                continue
            for plugin in self._pack_pair_plugins:
                if plugin.pack_pair(partner, dyn):
                    return partner
        return None

    def _issue_arith(self, dyn, latency, busy_until):
        """Issue a multiply/divide; returns False when all units are busy.

        The result is computed only once the op issues (a reuse hit or
        a granted unit): it is a pure function of the operands captured
        at scan time, so a retry while every unit is busy need not pay
        for it.
        """
        for plugin in self._lookup_reuse_plugins:
            if plugin.lookup_reuse(dyn):
                dyn.reused = True
                self.stats.reuse_hits += 1
                value = self._compute_result(dyn)
                self.schedule(1, lambda d=dyn, v=value: self._writeback(d, v))
                return True
        cycle = self.cycle
        for unit_index, until in enumerate(busy_until):
            if until <= cycle:
                break
        else:
            return False
        value = self._compute_result(dyn)
        for plugin in self._execute_latency_plugins:
            latency = plugin.execute_latency(dyn, latency)
        busy_until[unit_index] = cycle + latency
        self.schedule(latency, lambda d=dyn, v=value: self._writeback(d, v))
        return True

    def _issue_alu(self, dyn):
        op = dyn.inst.op
        latency = self.config.latency_alu
        for plugin in self._execute_latency_plugins:
            latency = plugin.execute_latency(dyn, latency)
        if is_branch(op):
            self.schedule(latency, lambda d=dyn: self._resolve_branch(d))
            return
        if op is Op.RDCYCLE:
            value = mask(self.cycle)
        else:
            hit = False
            for plugin in self._lookup_reuse_plugins:
                if plugin.lookup_reuse(dyn):
                    hit = True
                    break
            if hit:
                dyn.reused = True
                self.stats.reuse_hits += 1
                latency = 1
            value = self._compute_result(dyn)
        self.schedule(latency, lambda d=dyn, v=value: self._writeback(d, v))

    def _compute_result(self, dyn):
        return alu_result(dyn.inst.op, dyn.src_values[0], dyn.src_values[1],
                          dyn.inst.imm)

    def _issue_store_agen(self, dyn):
        addr = effective_address(dyn.src_values[0], dyn.inst.imm)
        self.schedule(self.config.latency_agen,
                      lambda d=dyn, a=addr: self._store_addr_resolved(d, a))

    def _store_addr_resolved(self, dyn, addr):
        if dyn.squashed:
            return
        for entry in self.store_queue:
            if entry.dyn is dyn:
                entry.addr = addr
                entry.addr_ready = True
                if self.trace.enabled:
                    self.trace.emit("sq", "address_resolved",
                                    cycle=self.cycle, seq=dyn.seq,
                                    pc=dyn.pc, addr=addr)
                for plugin in self._on_store_address_resolved_plugins:
                    plugin.on_store_address_resolved(entry)
                return

    def _try_issue_load(self, dyn):
        """Disambiguate and launch a load; False if it must wait."""
        addr = effective_address(dyn.src_values[0], dyn.inst.imm)
        width = dyn.inst.width
        forward_entry = None
        for entry in reversed(self.store_queue):
            if entry.dyn.seq > dyn.seq:
                continue
            if entry.performed:
                continue
            if not entry.addr_ready:
                return False  # unknown older store address: wait
            if entry.overlaps(addr, width):
                if (entry.addr == addr and entry.width >= width
                        and entry.data_ready):
                    forward_entry = entry
                    break
                return False  # partial overlap or data not ready: wait
        lq_entry = None
        for candidate in self.load_queue:
            if candidate.dyn is dyn:
                lq_entry = candidate
                break
        if lq_entry is not None:
            lq_entry.addr = addr
        if forward_entry is not None:
            value = forward_entry.data & ((1 << (8 * width)) - 1)
            if lq_entry is not None:
                lq_entry.forwarded = True
            self.stats.loads_forwarded += 1
            self.schedule(self.config.latency_forward,
                          lambda d=dyn, v=value: self._writeback(d, v))
            return True
        value, mem_latency, _level = self.hierarchy.read(addr, width)
        self.stats.loads_from_memory += 1
        total = self.config.latency_agen + mem_latency
        self.schedule(total, lambda d=dyn, v=value, a=addr:
                      self._load_response(d, a, v))
        return True

    def _load_response(self, dyn, addr, value):
        del addr
        if dyn.squashed:
            return
        self._writeback(dyn, value)

    # ------------------------------------------------------------------
    # writeback
    # ------------------------------------------------------------------

    def _writeback(self, dyn, value):
        if dyn.squashed:
            return
        dyn.result = value
        dyn.state = InstState.DONE
        dyn.done_cycle = self.cycle
        if dyn.pdst is not None:
            self.prf_value[dyn.pdst] = value
            self.prf_ready[dyn.pdst] = True
        if self.trace.enabled:
            self.trace.emit("inst", "complete", cycle=self.cycle,
                            seq=dyn.seq, pc=dyn.pc)
        for plugin in self._on_result_plugins:
            plugin.on_result(dyn, value)
        if dyn.vp_predicted and value != dyn.vp_value:
            self.stats.vp_squashes += 1
            if self.trace.enabled:
                self.trace.emit("inst", "squash_request",
                                cycle=self.cycle, seq=dyn.seq,
                                pc=dyn.pc, info="vp")
            self.request_squash(dyn.seq, dyn.pc + 1)

    def _resolve_branch(self, dyn):
        if dyn.squashed:
            return
        taken = branch_taken(dyn.inst.op, dyn.src_values[0],
                             dyn.src_values[1])
        target = dyn.inst.target if taken else dyn.pc + 1
        predicted_target = dyn.pred_target if dyn.pred_taken else dyn.pc + 1
        mispredicted = (taken != dyn.pred_taken or
                        (taken and predicted_target != dyn.inst.target))
        self.branch_predictor.update(dyn.pc, taken, dyn.inst.target,
                                     mispredicted)
        dyn.result = 1 if taken else 0
        dyn.state = InstState.DONE
        dyn.done_cycle = self.cycle
        if self.trace.enabled:
            self.trace.emit("inst", "complete", cycle=self.cycle,
                            seq=dyn.seq, pc=dyn.pc,
                            info="taken" if taken else "not-taken")
        if mispredicted:
            self.stats.branch_squashes += 1
            if self.trace.enabled:
                self.trace.emit("inst", "squash_request",
                                cycle=self.cycle, seq=dyn.seq,
                                pc=dyn.pc, info="branch")
            self.request_squash(dyn.seq, target)

    # ------------------------------------------------------------------
    # dispatch / rename
    # ------------------------------------------------------------------

    def _dispatch_stall(self, kind):
        self.stats.dispatch_stalls[kind] += 1
        if self.metrics.enabled:
            self.metrics.inc("pipeline.dispatch_stall." + kind)

    def _dispatch(self):
        cfg = self.config
        count = 0
        while self.fetch_buffer and count < cfg.dispatch_width:
            inst, pred_taken, pred_target = self.fetch_buffer[0]
            op = inst.op
            if len(self.rob) >= cfg.rob_size:
                self._dispatch_stall("rob")
                break
            if op is Op.FENCE:
                if self.rob or self.store_queue:
                    self._dispatch_stall("fence")
                    break
            needs_rs = op not in (Op.NOP, Op.HALT, Op.FENCE, Op.JMP)
            if needs_rs and len(self.rs) >= cfg.rs_size:
                self._dispatch_stall("rs")
                break
            if is_load(op) and len(self.load_queue) >= cfg.load_queue_size:
                self._dispatch_stall("lq")
                break
            if is_store(op) and len(self.store_queue) >= cfg.store_queue_size:
                self._dispatch_stall("sq")
                break
            wants_dest = writes_register(op) and inst.rd != 0
            pdst = None
            if wants_dest:
                if self.free_list:
                    pdst = self.free_list.popleft()
                else:
                    for plugin in self._provide_phys_reg_plugins:
                        pdst = plugin.provide_phys_reg()
                        if pdst is not None:
                            break
                if pdst is None:
                    self._dispatch_stall("preg")
                    break
            self.fetch_buffer.popleft()
            dyn = DynInst(self._seq, inst)
            self._seq += 1
            dyn.pred_taken = pred_taken
            dyn.pred_target = pred_target
            if reads_rs1(op) and inst.rs1 != 0:
                dyn.src_pregs[0] = self.rename_map[inst.rs1]
            if reads_rs2(op) and inst.rs2 != 0:
                dyn.src_pregs[1] = self.rename_map[inst.rs2]
            if wants_dest:
                dyn.pdst = pdst
                dyn.old_pdst = self.rename_map[inst.rd]
                self.rename_map[inst.rd] = pdst
                self.prf_ready[pdst] = False
                self.arch_version[inst.rd] += 1
            if self.trace.enabled:
                self.trace.emit("inst", "dispatch", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc, info=str(inst))
            self.rob.append(dyn)
            if needs_rs:
                self.rs.append(dyn)
            else:
                dyn.state = InstState.DONE
                dyn.done_cycle = self.cycle
            if is_load(op):
                self.load_queue.append(LQEntry(dyn))
            if is_store(op):
                self.store_queue.append(SQEntry(dyn))
            for plugin in self._on_dispatch_plugins:
                plugin.on_dispatch(dyn)
            self.stats.dispatched += 1
            count += 1

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch(self):
        if self.fetching_halted:
            return
        cfg = self.config
        fetched = 0
        capacity = 2 * cfg.fetch_width
        trace_on = self.trace.enabled
        while fetched < cfg.fetch_width and len(self.fetch_buffer) < capacity:
            if not 0 <= self.fetch_pc < len(self.program):
                self.fetching_halted = True
                break
            inst = self.program[self.fetch_pc]
            op = inst.op
            if trace_on:
                self.trace.emit("fetch", "fetch", cycle=self.cycle,
                                pc=self.fetch_pc)
            if op is Op.HALT:
                self.fetch_buffer.append((inst, False, None))
                self.fetching_halted = True
                break
            if op is Op.JMP:
                self.fetch_buffer.append((inst, True, inst.target))
                self.fetch_pc = inst.target
            elif is_branch(op):
                taken, target = self.branch_predictor.predict(self.fetch_pc)
                self.fetch_buffer.append((inst, taken, target))
                self.fetch_pc = target if taken else self.fetch_pc + 1
            else:
                self.fetch_buffer.append((inst, False, None))
                self.fetch_pc += 1
            fetched += 1

    # ------------------------------------------------------------------
    # plug-ins
    # ------------------------------------------------------------------

    def _plugins_end_of_cycle(self):
        plugins = self._end_of_cycle_plugins
        if not plugins:
            return
        ports = self.ports
        free_ports = max(0, ports["load"])
        for plugin in plugins:
            used = plugin.end_of_cycle(free_ports)
            used = used or 0
            ports["load"] = max(0, ports["load"] - used)
            free_ports = max(0, free_ports - used)

    # ------------------------------------------------------------------
    # inspection helpers (for tests and attack tooling)
    # ------------------------------------------------------------------

    def arch_reg(self, index):
        """Current architectural value of ``x<index>``."""
        if index == 0:
            return 0
        return self.prf_value[self.rename_map[index]]


def run_on_cpu(program, hierarchy, config=None, plugins=(),
               regs=None, max_cycles=None):
    """One-shot helper: build a CPU, preload registers, run, return it."""
    cpu = CPU(program, hierarchy, config=config, plugins=plugins)
    if regs:
        for index, value in regs.items():
            cpu.prf_value[cpu.rename_map[index]] = mask(value)
    cpu.run(max_cycles=max_cycles)
    return cpu
