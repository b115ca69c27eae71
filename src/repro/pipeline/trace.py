"""Pipeline event tracing: Figure-4-style instruction timelines.

Since the :mod:`repro.trace` subsystem landed, the core itself emits
every lifecycle and store-queue event into a shared
:class:`~repro.trace.TraceBuffer`.  :class:`PipelineTracer` is now a
thin *consumer* of that stream — there is one source of truth for
pipeline events — that folds events back into per-instruction
:class:`InstructionTrace` records and renders the event timelines of
the paper's Figure 4.

When the attached core already has an enabled trace buffer (e.g. the
engine built one from ``SimSpec.trace``) the tracer piggybacks on it;
otherwise it installs a private buffer restricted to the pipeline
categories (``inst``/``sq``).  Records are rebuilt lazily from the
event stream, so reading ``tracer.records`` mid-run reflects whatever
has been emitted so far.

Record truncation is *visible*: distinct instructions beyond
``max_records`` are dropped from the rebuilt mapping, and the drop
count is surfaced through ``repro.stats`` under
``trace.tracer.records_dropped`` (a peak gauge, so the lazily repeated
rebuilds never double-count).
"""

from dataclasses import dataclass, field

from repro.pipeline.plugins import FF_PURE, OptimizationPlugin
from repro.trace.buffer import PIPELINE_CATEGORIES, TraceBuffer, events_of


@dataclass
class InstructionTrace:
    seq: int
    pc: int
    text: str
    dispatch_cycle: int = None
    issue_cycle: int = None
    complete_cycle: int = None
    commit_cycle: int = None
    squashed: bool = False
    store_events: dict = field(default_factory=dict)

    def event_pairs(self):
        pairs = [("dispatch", self.dispatch_cycle),
                 ("issue", self.issue_cycle),
                 ("complete", self.complete_cycle),
                 ("commit", self.commit_cycle)]
        pairs.extend(sorted(self.store_events.items(),
                            key=lambda item: (item[1] is None, item[1])))
        return [(name, cycle) for name, cycle in pairs
                if cycle is not None]


#: inst-category event name -> InstructionTrace attribute.
_LIFECYCLE_FIELDS = {
    "dispatch": "dispatch_cycle",
    "issue": "issue_cycle",
    "complete": "complete_cycle",
    "retire": "commit_cycle",
}


class PipelineTracer(OptimizationPlugin):
    """Passive observer plug-in: records timing, changes nothing."""

    name = "pipeline-tracer"

    #: Lazy consumer of the shared event stream; never acts on a cycle.
    ff_policy = FF_PURE

    def __init__(self, max_records=4096):
        super().__init__()
        self.max_records = max_records
        self.buffer = None
        self._owns_buffer = False
        self._records = {}
        self._consumed = None  # (emitted, dropped) the cache reflects

    def attach(self, cpu):
        super().attach(cpu)
        if cpu.trace.enabled:
            # Engine-installed buffer: consume the shared stream.
            self.buffer = cpu.trace
            self._owns_buffer = False
        else:
            self.buffer = TraceBuffer(
                capacity=max(1024, 8 * self.max_records),
                categories=PIPELINE_CATEGORIES,
                metrics=cpu.metrics)
            self._owns_buffer = True
            cpu.install_trace(self.buffer)
        self._consumed = None

    def reset(self):
        if self.buffer is not None and self._owns_buffer:
            self.buffer.clear()
        self._records = {}
        self._consumed = None

    # -- event-stream folding ---------------------------------------------

    @property
    def records(self):
        """Per-instruction records, rebuilt lazily from the stream."""
        buffer = self.buffer
        if buffer is None:
            return self._records
        key = (buffer.emitted, buffer.dropped)
        if key != self._consumed:
            self._records = self._rebuild(events_of(buffer))
            self._consumed = key
        return self._records

    def _rebuild(self, events):
        records = {}
        overflow = set()
        for cycle, category, name, seq, pc, _addr, info in events:
            if seq < 0 or seq in overflow:
                continue
            record = records.get(seq)
            if record is None:
                if len(records) >= self.max_records:
                    overflow.add(seq)
                    continue
                text = info if category == "inst" and name == "dispatch" \
                    else "?"
                record = InstructionTrace(seq=seq, pc=pc, text=text)
                records[seq] = record
            if category == "inst":
                fieldname = _LIFECYCLE_FIELDS.get(name)
                if fieldname is not None:
                    setattr(record, fieldname, cycle)
                    if name == "dispatch":
                        record.text = info
                elif name == "squash":
                    record.squashed = True
            elif category == "sq":
                self._fold_store_event(record, name, cycle, info)
        if overflow:
            self.cpu.metrics.peak("trace.tracer.records_dropped",
                              len(overflow))
        return records

    @staticmethod
    def _fold_store_event(record, name, cycle, info):
        store = record.store_events
        if name == "address_resolved":
            store["address_resolves"] = cycle
        elif name in ("ss_load_issued", "ss_load_returned"):
            store[name] = cycle
        elif name == "silent_dequeue":
            store["dequeue"] = cycle
            store["silent_dequeue"] = cycle
        elif name == "perform":
            store["dequeue"] = cycle
            if info == "nonsilent":
                store["performed_nonsilent"] = cycle
            else:
                store["performed_no_candidate"] = cycle

    # -- rendering -------------------------------------------------------

    def timeline(self, seq):
        """Figure-4-style one-line timeline for one instruction."""
        record = self.records.get(seq)
        if record is None:
            return f"#{seq}: (not traced)"
        events = " -> ".join(f"{name}@{cycle}"
                             for name, cycle in record.event_pairs())
        flag = " [SQUASHED]" if record.squashed else ""
        return f"#{record.seq} {record.text}: {events}{flag}"

    def store_timelines(self):
        """Timelines for every traced store, oldest first."""
        records = self.records
        lines = []
        for seq in sorted(records):
            if records[seq].store_events:
                lines.append(self.timeline(seq))
        return lines
