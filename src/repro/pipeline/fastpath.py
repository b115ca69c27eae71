"""Fast-path simulation kernel: the reference core, only faster.

:class:`FastPathCPU` is a drop-in subclass of the reference
:class:`~repro.pipeline.cpu.CPU` with a hard guarantee: **bitwise
identical** cycle counts, retired-instruction streams, architectural
state, :class:`~repro.pipeline.cpu.CPUStats`, :mod:`repro.stats`
metrics and :mod:`repro.trace` event streams.  It changes how the
simulation is computed, never what it computes — the same contract
production simulators make for their fast paths (gem5's O3 event
queue, Sniper's interval core).  Three mechanisms:

**Decoded-instruction templates.**  Operand-class analysis
(``reads_rs1``/``writes_register``/port kind/...) is a pure function of
a static instruction, yet the reference core re-derives it per dynamic
instance through enum-set membership tests.  Templates are decoded once
per distinct static instruction — keyed by the interned operand tuple
(:meth:`repro.isa.Instruction.intern_key`), so equal instructions
anywhere in a process share one template — and dispatch becomes a cheap
stamp.  :class:`~repro.pipeline.dyninst.DynInst` objects are recycled
through a free-list pool (:meth:`DynInst.stamp` re-initializes every
slot).  Only provably unreferenced objects are pooled: non-store
instructions at commit (their single completion event has fired, their
queue entries are gone) and stores when their queue entry performs.
Squashed instructions are *not* pooled — squash-guarded events and lazy
waiter lists may still reference them, and a recycled object would make
those guards lie.

**Idle-cycle fast-forward.**  After each executed cycle the core checks
whether the cycle was *quiet*: no events fired, nothing dispatched /
issued / retired / squashed / dequeued, fetch idle, no memory-system
activity (:attr:`MemoryHierarchy.epoch`), and no ready instruction
blocked in a way whose retry has plug-in-visible side effects.  A quiet
cycle proves the machine is in a fixpoint that only a *timed* input can
break, and every timed input is enumerable — the event wheel: the
earliest scheduled event (FU completions, writebacks, load responses,
SS-Load returns), the store-queue head's dequeue-eligibility or
DRAM-fill-ready cycle, and each plug-in's declared wakeup
(:attr:`~repro.pipeline.plugins.OptimizationPlugin.ff_policy`).  The
clock jumps to the earliest of those, charging the skipped span's
per-cycle accounting exactly as if ticked: occupancy integrals,
``pipeline.sq.head_of_line_stall_cycles`` (the Figure 5 amplification
counter — the >100-cycle gap must survive fast-forward bit-exactly),
per-cycle ``sq/hol_stall`` trace events with explicit cycle stamps, and
dispatch-stall attribution.  A plug-in that makes no declaration
defaults to ``FF_EVERY_CYCLE``, which pins the jump target to the next
cycle — fast-forward around unknown plug-ins is *disabled*, never
approximate.

A ready multiply/divide that finds every unit busy is a timed input
too: when no plug-in overrides ``lookup_reuse`` its retry has no
plug-in-visible effect, so the earliest unit release joins the wake-up
candidates instead of pinning the clock.  (With a reuse plug-in, each
retry is a counted table lookup, so the wait is ticked.)

**Stage work-lists.**  The reference issue stage re-scans the whole
reservation-station window every cycle, re-testing operand readiness
per entry.  Here a seq-ordered ready list holds exactly the
instructions whose needed sources are all ready; instructions with
unready sources register as waiters on those physical registers and are
woken (and re-inserted in program order) by the producing writeback.
Program-order issue priority — and therefore port allocation, packing
and timing — is preserved exactly; source values are still captured at
scan time, which matters when a value-predicted producer is corrected
in the same cycle a consumer issues.  Issued entries leave the ready
list and the reservation-station list in place.

**Cheap executed cycles.**  Fetch classifies each instruction
(HALT / JMP / conditional branch / other) from its template.  The
per-cycle occupancy samples the reference writes into ``metrics``
(four occupancy integrals plus ``pipeline.cycles``, four high-water
marks, ``pipeline.sq.head_committed_cycles``) accumulate in plain
ints — a fast-forward adds span x occupancy — and are folded into
``metrics`` once, when the core halts.  Every reader of those metrics
runs after the run, and :meth:`SimStats.as_dict` sorts its keys, so
the folded record is identical.  Plug-in hooks are dispatched per hook
to the plug-ins that override them (shared with the reference core).

The speedup telemetry (:class:`FastPathStats`, exposed as
``cpu.fastpath``) deliberately stays **out** of the run's stats,
metrics and :class:`~repro.engine.session.RunResult`: a reference run
and a fast-path run share one spec fingerprint, so their results must
be byte-for-byte interchangeable — including through the result cache.
Wall-clock-ish quantities live caller-side, like the engine's batch
telemetry.
"""

import weakref
from bisect import insort
from operator import attrgetter

from repro.isa.opcodes import (
    Op, is_branch, is_div, is_load, is_mul, is_store, reads_rs1,
    reads_rs2, writes_register,
)
from repro.pipeline.cpu import CPU, SimulationError
from repro.pipeline.dyninst import DynInst, InstState, LQEntry, SQEntry
from repro.pipeline.plugins import FF_PURE, FF_WAKEUP

_SEQ = attrgetter("seq")

#: Process-wide decoded-template cache, keyed by the interned operand
#: tuple.  Bounded by the number of distinct static instructions.
_TEMPLATE_CACHE = {}

#: Per-program ``(templates, instructions)`` lists, indexed by pc.
#: Programs are immutable, so a program shared by many trials decodes
#: once per process instead of once per core.
_PROGRAM_TEMPLATES = weakref.WeakKeyDictionary()

#: Free-list pool ceiling per core; beyond this, retired DynInsts go to
#: the garbage collector like in the reference core.
_POOL_CAP = 512

#: :attr:`InstTemplate.fetch` classes: how fetch steers after the op.
FETCH_NEXT, FETCH_HALT, FETCH_JUMP, FETCH_BRANCH = range(4)


class InstTemplate:
    """Everything decode-time about one static instruction.

    ``kind`` selects the issue path (``alu``/``load``/``store``/
    ``mul``/``div``); ``src_needed`` are the operand indices whose
    readiness gates issue (note a store's data operand does not gate
    its address generation — exactly the reference
    ``_sources_ready`` rule); ``fetch`` is the op's fetch class.
    """

    __slots__ = ("op", "kind", "needs_rs", "wants_dest", "ren1", "ren2",
                 "src_needed", "fetch")

    def __init__(self, inst):
        op = inst.op
        self.op = op
        if is_load(op):
            self.kind = "load"
        elif is_store(op):
            self.kind = "store"
        elif is_mul(op):
            self.kind = "mul"
        elif is_div(op):
            self.kind = "div"
        else:
            self.kind = "alu"
        self.needs_rs = op not in (Op.NOP, Op.HALT, Op.FENCE, Op.JMP)
        self.wants_dest = writes_register(op) and inst.rd != 0
        self.ren1 = reads_rs1(op) and inst.rs1 != 0
        self.ren2 = reads_rs2(op) and inst.rs2 != 0
        needed = []
        if reads_rs1(op):
            needed.append(0)
        if reads_rs2(op) and not is_store(op):
            needed.append(1)
        self.src_needed = tuple(needed)
        if op is Op.HALT:
            self.fetch = FETCH_HALT
        elif op is Op.JMP:
            self.fetch = FETCH_JUMP
        elif is_branch(op):
            self.fetch = FETCH_BRANCH
        else:
            self.fetch = FETCH_NEXT


class FastPathStats:
    """Fast-path telemetry; never part of a :class:`RunResult`."""

    __slots__ = ("cycles_skipped", "fast_forwards", "template_hits",
                 "template_misses", "pool_reuses", "pool_allocations")

    def __init__(self):
        self.cycles_skipped = 0
        self.fast_forwards = 0
        self.template_hits = 0
        self.template_misses = 0
        self.pool_reuses = 0
        self.pool_allocations = 0

    def as_dict(self):
        return {"fastpath." + name: getattr(self, name)
                for name in self.__slots__}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<FastPathStats {inner}>"


class FastPathCPU(CPU):
    """The reference core with templates, work-lists and fast-forward."""

    def __init__(self, program, hierarchy, config=None, plugins=(),
                 metrics=None, trace=None):
        self.fastpath = FastPathStats()
        self._pool = []
        self._ready = []        # dispatched, all needed sources ready
        self._waiters = {}      # preg -> [DynInst] awaiting its writeback
        self._cycle_stall = None
        self._issue_blocked = False
        self._unit_wake = None  # earliest busy mul/div unit release
        self._quiet = False
        # Occupancy accounting, folded into ``metrics`` at halt.
        self._occ_cycles = 0
        self._occ_rob = self._occ_rs = self._occ_lq = self._occ_sq = 0
        self._hw_rob = self._hw_rs = self._hw_lq = self._hw_sq = 0
        self._occ_head_committed = 0
        super().__init__(program, hierarchy, config=config,
                         plugins=plugins, metrics=metrics, trace=trace)
        # The core is its own *last* commit/perform hook, so every
        # plug-in observes an instruction before it is recycled (which
        # can only happen at a later dispatch anyway).
        self._on_commit_plugins += (self,)
        self._on_store_performed_plugins += (self,)
        decoded = _PROGRAM_TEMPLATES.get(program)
        if decoded is None:
            decoded = _PROGRAM_TEMPLATES[program] = (
                [self._template_for(inst) for inst in program],
                list(program))
        self._templates, self._instructions = decoded

    # ------------------------------------------------------------------
    # decoded-instruction templates and the DynInst pool
    # ------------------------------------------------------------------

    def _template_for(self, inst):
        key = inst.key
        if key is None:
            key = inst.intern_key()
        tmpl = _TEMPLATE_CACHE.get(key)
        if tmpl is None:
            tmpl = InstTemplate(inst)
            _TEMPLATE_CACHE[key] = tmpl
            self.fastpath.template_misses += 1
        return tmpl

    def _recycle(self, dyn):
        if len(self._pool) < _POOL_CAP:
            self._pool.append(dyn)

    def on_commit(self, dyn):
        """Final ``on_commit`` hook: recycle a retired non-store."""
        # Stores stay referenced by their SQ entry until they perform.
        if dyn.tmpl is not None and dyn.tmpl.kind != "store":
            self._recycle(dyn)

    def on_store_performed(self, entry):
        """Final ``on_store_performed`` hook: recycle a retired store."""
        dyn = entry.dyn
        if (dyn.tmpl is not None and not dyn.squashed
                and dyn.state is InstState.COMMITTED):
            self._recycle(dyn)

    # ------------------------------------------------------------------
    # fetch: template fetch classes instead of opcode tests
    # ------------------------------------------------------------------

    def _fetch(self):
        if self.fetching_halted:
            return
        fetch_width = self.config.fetch_width
        capacity = 2 * fetch_width
        templates = self._templates
        instructions = self._instructions
        end = len(instructions)
        buffer = self.fetch_buffer
        trace_on = self.trace.enabled
        pc = self.fetch_pc
        fetched = 0
        while fetched < fetch_width and len(buffer) < capacity:
            if not 0 <= pc < end:
                self.fetching_halted = True
                break
            inst = instructions[pc]
            if trace_on:
                self.trace.emit("fetch", "fetch", cycle=self.cycle, pc=pc)
            fetch = templates[pc].fetch
            if fetch == FETCH_NEXT:
                buffer.append((inst, False, None))
                pc += 1
            elif fetch == FETCH_BRANCH:
                taken, target = self.branch_predictor.predict(pc)
                buffer.append((inst, taken, target))
                pc = target if taken else pc + 1
            elif fetch == FETCH_JUMP:
                buffer.append((inst, True, inst.target))
                pc = inst.target
            else:  # FETCH_HALT
                buffer.append((inst, False, None))
                self.fetching_halted = True
                break
            fetched += 1
        self.fetch_pc = pc

    # ------------------------------------------------------------------
    # dispatch: template stamp instead of re-decode
    # ------------------------------------------------------------------

    def _dispatch(self):
        cfg = self.config
        width = cfg.dispatch_width
        rob_size = cfg.rob_size
        rs_size = cfg.rs_size
        templates = self._templates
        fp = self.fastpath
        stats = self.stats
        fetch_buffer = self.fetch_buffer
        rob = self.rob
        rs = self.rs
        rename_map = self.rename_map
        free_list = self.free_list
        prf_ready = self.prf_ready
        pool = self._pool
        waiters = self._waiters
        ready = self._ready
        on_dispatch = self._on_dispatch_plugins
        trace_on = self.trace.enabled
        count = 0
        while fetch_buffer and count < width:
            inst, pred_taken, pred_target = fetch_buffer[0]
            tmpl = templates[inst.pc]
            kind = tmpl.kind
            if len(rob) >= rob_size:
                self._dispatch_stall("rob")
                break
            if tmpl.op is Op.FENCE:
                if rob or self.store_queue:
                    self._dispatch_stall("fence")
                    break
            needs_rs = tmpl.needs_rs
            if needs_rs and len(rs) >= rs_size:
                self._dispatch_stall("rs")
                break
            if (kind == "load"
                    and len(self.load_queue) >= cfg.load_queue_size):
                self._dispatch_stall("lq")
                break
            if (kind == "store"
                    and len(self.store_queue) >= cfg.store_queue_size):
                self._dispatch_stall("sq")
                break
            wants_dest = tmpl.wants_dest
            pdst = None
            if wants_dest:
                if free_list:
                    pdst = free_list.popleft()
                else:
                    for plugin in self._provide_phys_reg_plugins:
                        pdst = plugin.provide_phys_reg()
                        if pdst is not None:
                            break
                if pdst is None:
                    self._dispatch_stall("preg")
                    break
            fetch_buffer.popleft()
            seq = self._seq
            if pool:
                dyn = pool.pop()
                dyn.stamp(seq, inst)
                fp.pool_reuses += 1
            else:
                dyn = DynInst(seq, inst)
                fp.pool_allocations += 1
            dyn.tmpl = tmpl
            fp.template_hits += 1
            self._seq = seq + 1
            dyn.pred_taken = pred_taken
            dyn.pred_target = pred_target
            src_pregs = dyn.src_pregs
            if tmpl.ren1:
                src_pregs[0] = rename_map[inst.rs1]
            if tmpl.ren2:
                src_pregs[1] = rename_map[inst.rs2]
            if wants_dest:
                rd = inst.rd
                dyn.pdst = pdst
                dyn.old_pdst = rename_map[rd]
                rename_map[rd] = pdst
                prf_ready[pdst] = False
                self.arch_version[rd] += 1
            if trace_on:
                self.trace.emit("inst", "dispatch", cycle=self.cycle,
                                seq=seq, pc=dyn.pc, info=str(inst))
            rob.append(dyn)
            if needs_rs:
                rs.append(dyn)
            else:
                dyn.state = InstState.DONE
                dyn.done_cycle = self.cycle
            if kind == "load":
                self.load_queue.append(LQEntry(dyn))
            elif kind == "store":
                self.store_queue.append(SQEntry(dyn))
            for plugin in on_dispatch:
                plugin.on_dispatch(dyn)
            if needs_rs:
                # Register as a waiter on every unready needed source.
                waits = 0
                for index in tmpl.src_needed:
                    preg = src_pregs[index]
                    if preg is not None and not prf_ready[preg]:
                        waiters.setdefault(preg, []).append(dyn)
                        waits += 1
                dyn.waits = waits
                if waits == 0:
                    ready.append(dyn)  # dispatch order == seq order
            stats.dispatched += 1
            count += 1

    def _dispatch_stall(self, kind):
        self._cycle_stall = kind
        super()._dispatch_stall(kind)

    # ------------------------------------------------------------------
    # issue: ready work-list instead of full-window scan
    # ------------------------------------------------------------------

    def _wake(self, preg):
        waiters = self._waiters.pop(preg, None)
        if not waiters:
            return
        for dyn in waiters:
            # Stale entries: squashed waiters stay in the list until
            # the register is rewritten; skipping them here is the
            # reason squashed DynInsts are never pool-recycled.
            if dyn.squashed:
                continue
            dyn.waits -= 1
            if dyn.waits == 0 and dyn.state is InstState.DISPATCHED:
                insort(self._ready, dyn, key=_SEQ)

    def _writeback(self, dyn, value):
        if dyn.squashed:
            return
        super()._writeback(dyn, value)
        if dyn.pdst is not None:
            self._wake(dyn.pdst)

    def _apply_squash(self):
        super()._apply_squash()
        self._ready = [d for d in self._ready if not d.squashed]

    def _issue(self):
        ready = self._ready
        cfg = self.config
        width = cfg.issue_width
        ports = self.ports
        issued = 0
        issued_alu_ops = ports["alu_issued"]
        packed_partners = ports["packed"]
        taken = None
        prf_value = self.prf_value
        stats = self.stats
        cycle = self.cycle
        trace_on = self.trace.enabled
        for dyn in ready:
            if issued >= width:
                break
            tmpl = dyn.tmpl
            src_pregs = dyn.src_pregs
            src_values = dyn.src_values
            # Capture operand values at scan time, as the reference
            # scan does: a value-predicted producer corrected earlier
            # this cycle must be read back corrected.
            for index in tmpl.src_needed:
                preg = src_pregs[index]
                src_values[index] = (prf_value[preg]
                                     if preg is not None else 0)
            kind = tmpl.kind
            if kind == "alu":
                if ports["alu"] > 0:
                    ports["alu"] -= 1
                    self._issue_alu(dyn)
                    issued_alu_ops.append(dyn)
                else:
                    partner = self._find_pack_partner(
                        dyn, issued_alu_ops, packed_partners)
                    if partner is None:
                        self._issue_blocked = True
                        continue
                    packed_partners.add(id(partner))
                    stats.packed_alu_pairs += 1
                    self._issue_alu(dyn)
                    issued_alu_ops.append(dyn)
            elif kind == "load":
                if ports["load"] <= 0:
                    self._issue_blocked = True
                    continue
                if not self._try_issue_load(dyn):
                    # Disambiguation/forwarding wait: the retry is
                    # side-effect-free, so it does not block skipping.
                    continue
                ports["load"] -= 1
            elif kind == "store":
                if ports["store"] <= 0:
                    self._issue_blocked = True
                    continue
                ports["store"] -= 1
                self._issue_store_agen(dyn)
            elif kind == "mul":
                if not self._issue_arith(dyn, cfg.latency_mul,
                                         self.mul_busy_until):
                    self._units_busy(self.mul_busy_until)
                    continue
            else:  # div
                if not self._issue_arith(dyn, cfg.latency_div,
                                         self.div_busy_until):
                    self._units_busy(self.div_busy_until)
                    continue
            dyn.state = InstState.ISSUED
            dyn.issue_cycle = cycle
            issued += 1
            stats.issued += 1
            if trace_on:
                self.trace.emit("inst", "issue", cycle=cycle,
                                seq=dyn.seq, pc=dyn.pc)
            if taken is None:
                taken = [dyn]
            else:
                taken.append(dyn)
        if taken:
            rs = self.rs
            for dyn in taken:
                ready.remove(dyn)
                rs.remove(dyn)

    def _units_busy(self, busy_until):
        """A ready mul/div found every unit busy.

        Its retry only re-offers ``lookup_reuse`` (a counted, plug-in
        visible lookup) and re-tests the units; with no reuse plug-in
        it is side-effect-free until a unit frees, so that release is a
        fast-forward wake-up instead of a reason not to skip.
        """
        if self._lookup_reuse_plugins:
            self._issue_blocked = True
            return
        release = min(busy_until)
        if self._unit_wake is None or release < self._unit_wake:
            self._unit_wake = release

    # ------------------------------------------------------------------
    # the cycle: reference step, quiet-cycle detection, deferred
    # occupancy accounting
    # ------------------------------------------------------------------

    def step(self):
        """One cycle, exactly :meth:`CPU.step`, plus quiet detection."""
        stats = self.stats
        cycle = self.cycle + 1
        self.cycle = cycle
        # A cycle that fires events or applies a squash is never quiet,
        # so its activity snapshot is skipped.
        events = self._events.pop(cycle, None)
        if events is None and self._squash_req is None:
            before = (stats.retired, stats.issued, stats.dispatched,
                      stats.silent_stores, stats.stores_performed,
                      stats.squashed_instructions, len(self.fetch_buffer),
                      self.fetch_pc, self.fetching_halted,
                      self.hierarchy.epoch)
        else:
            before = None
        self._cycle_stall = None
        self._issue_blocked = False
        self._unit_wake = None
        if self.metrics.enabled:
            store_queue = self.store_queue
            rob = len(self.rob)
            rs = len(self.rs)
            lq = len(self.load_queue)
            sq = len(store_queue)
            self._occ_cycles += 1
            self._occ_rob += rob
            self._occ_rs += rs
            self._occ_lq += lq
            self._occ_sq += sq
            if rob > self._hw_rob:
                self._hw_rob = rob
            if rs > self._hw_rs:
                self._hw_rs = rs
            if lq > self._hw_lq:
                self._hw_lq = lq
            if sq:
                if sq > self._hw_sq:
                    self._hw_sq = sq
                if store_queue[0].committed:
                    self._occ_head_committed += 1
        if self._owns_ports:
            self.refill_ports()
        if events is not None:
            for fn in events:  # insertion order
                fn()
        if self._squash_req is not None:
            self._apply_squash()
        self._commit()
        if self.halted:
            stats.cycles = cycle
            self._fold_occupancy()
            self._quiet = False
            return
        if self.store_queue:
            self._lsq_step()
        if self._ready:
            self._issue()
        if self.fetch_buffer:
            self._dispatch()
        if not self.fetching_halted:
            self._fetch()
        if self._end_of_cycle_plugins:
            self._plugins_end_of_cycle()
        # End-of-program fallback for programs without an explicit HALT.
        if (not self.rob and not self.fetch_buffer and not self.store_queue
                and (self.fetching_halted
                     or self.fetch_pc >= len(self._instructions))):
            if not any(self._events.values()):
                self.halted = True
                stats.cycles = cycle
                self._fold_occupancy()
                self._quiet = False
                return
        self._quiet = (
            before is not None and not self._issue_blocked
            and self._squash_req is None
            and before == (stats.retired, stats.issued, stats.dispatched,
                           stats.silent_stores, stats.stores_performed,
                           stats.squashed_instructions,
                           len(self.fetch_buffer), self.fetch_pc,
                           self.fetching_halted, self.hierarchy.epoch))

    def _fold_occupancy(self):
        """Fold the accumulated occupancy samples into ``metrics``.

        Called once, when the core halts; the result equals the
        reference's per-cycle :meth:`CPU._record_cycle_metrics` calls.
        """
        cycles = self._occ_cycles
        if not cycles:
            return
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("pipeline.cycles", cycles)
            metrics.inc("pipeline.rob.occupancy_integral", self._occ_rob)
            metrics.inc("pipeline.rs.occupancy_integral", self._occ_rs)
            metrics.inc("pipeline.lq.occupancy_integral", self._occ_lq)
            metrics.inc("pipeline.sq.occupancy_integral", self._occ_sq)
            metrics.peak("pipeline.rob.high_water", self._hw_rob)
            metrics.peak("pipeline.rs.high_water", self._hw_rs)
            metrics.peak("pipeline.lq.high_water", self._hw_lq)
            metrics.peak("pipeline.sq.high_water", self._hw_sq)
            if self._occ_head_committed:
                metrics.inc("pipeline.sq.head_committed_cycles",
                            self._occ_head_committed)
        self._occ_cycles = 0
        self._occ_rob = self._occ_rs = self._occ_lq = self._occ_sq = 0
        self._hw_rob = self._hw_rs = self._hw_lq = self._hw_sq = 0
        self._occ_head_committed = 0

    # ------------------------------------------------------------------
    # fast-forward
    # ------------------------------------------------------------------

    def advance(self, limit):
        """The cooperative quantum (see :meth:`CPU.advance`), with the
        quiet-cycle fast-forward folded in so a lockstep driver skips
        idle spans exactly like :meth:`run` does."""
        if self.halted:
            return False
        if self.cycle >= limit:
            raise SimulationError(
                f"exceeded {limit} cycles without halting")
        self.step()
        if self._quiet:
            self._fast_forward(limit)
        return not self.halted

    def _fast_forward(self, limit):
        """Jump over the provably-inactive span after a quiet cycle.

        Every candidate below is a cycle at which *something* may act;
        anything later than all of them provably replays the quiet
        cycle verbatim.  Over-waking (a candidate earlier than the real
        next action) merely ticks an extra quiet cycle — always exact.
        """
        cycle = self.cycle
        candidates = []
        if self._events:
            candidates.append(min(self._events))
        if self._unit_wake is not None:
            candidates.append(self._unit_wake)
        head = self.store_queue[0] if self.store_queue else None
        head_waiting = head is not None and head.committed
        hol_stall = False
        if head_waiting:
            eligible = head.committed_cycle + self.config.store_dequeue_delay
            if cycle < eligible:
                candidates.append(eligible)
            elif (head.fill_requested
                    and head.fill_ready_cycle is not None
                    and cycle < head.fill_ready_cycle):
                candidates.append(head.fill_ready_cycle)
                hol_stall = True
            else:
                # A dequeue-eligible head on a quiet cycle should be
                # impossible; degrade to plain ticking, never skip it.
                candidates.append(cycle + 1)
        for plugin in self.plugins:
            policy = plugin.ff_policy
            if policy is FF_PURE or policy == FF_PURE:
                continue
            if policy == FF_WAKEUP:
                wake = plugin.ff_next_cycle()
                if wake is not None:
                    candidates.append(wake if wake > cycle else cycle + 1)
            else:  # FF_EVERY_CYCLE or anything unrecognized
                candidates.append(cycle + 1)
        target = min(candidates) if candidates else limit
        if target > limit:
            target = limit
        skipped = target - cycle - 1
        if skipped <= 0:
            return
        fp = self.fastpath
        fp.cycles_skipped += skipped
        fp.fast_forwards += 1
        # -- charge the span's per-cycle accounting as if ticked -------
        stall_kind = self._cycle_stall
        if stall_kind is not None:
            self.stats.dispatch_stalls[stall_kind] += skipped
        metrics = self.metrics
        if metrics.enabled:
            # High-water marks were already sampled this cycle at the
            # same occupancies; the span cannot raise them.
            self._occ_cycles += skipped
            self._occ_rob += len(self.rob) * skipped
            self._occ_rs += len(self.rs) * skipped
            self._occ_lq += len(self.load_queue) * skipped
            self._occ_sq += len(self.store_queue) * skipped
            if head_waiting:
                self._occ_head_committed += skipped
            if hol_stall:
                metrics.inc("pipeline.sq.head_of_line_stall_cycles",
                            skipped)
            if stall_kind is not None:
                metrics.inc("pipeline.dispatch_stall." + stall_kind,
                            skipped)
        if hol_stall and self.trace.enabled:
            dyn = head.dyn
            for when in range(cycle + 1, target):
                self.trace.emit("sq", "hol_stall", cycle=when,
                                seq=dyn.seq, pc=dyn.pc, addr=head.addr)
        self.cycle = target - 1
