"""Unit checks for the fast-path kernel's cheaper executed cycle.

* Plug-in hooks are dispatched per hook: a plug-in that overrides one
  hook receives every call of it, and the base class's no-op hooks are
  never called at all.
* The fast path accumulates per-cycle occupancy in plain ints and folds
  it into ``metrics`` at halt; the folded record must equal the
  reference's per-cycle one, including for a program that halts by the
  no-HALT fallback, for SMT threads, and for consecutive runs sharing
  one metrics record on a persistent hierarchy.
* A ready mul/div waiting for a busy unit is a timed input: with no
  reuse plug-in the wait is fast-forwarded (bit-exactly); with one, the
  retry is a counted lookup and the wait is ticked.
"""

import json

import pytest

from repro.engine import Session
from repro.isa.assembler import Assembler
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.optimizations.computation_reuse import ComputationReusePlugin
from repro.pipeline.config import CPUConfig
from repro.pipeline.cpu import CPU
from repro.pipeline.fastpath import FastPathCPU
from repro.pipeline.plugins import FF_PURE, HOOKS, OptimizationPlugin
from repro.pipeline.smt import SMTCore
from repro.stats import SimStats

KERNELS = pytest.mark.parametrize("cpu_cls", [CPU, FastPathCPU],
                                  ids=["reference", "fastpath"])


def _hierarchy():
    return MemoryHierarchy(FlatMemory(1 << 16), l1=Cache(num_sets=16,
                                                         ways=4))


def _loop_program(base=0x1000, count=12, halt=True):
    """Loads, stores, a multiply and a branch per iteration."""
    asm = Assembler()
    asm.li(1, base)
    asm.li(2, 0)
    asm.li(3, count)
    asm.label("loop")
    asm.load(4, 1, 0)
    asm.mul(5, 4, 2)
    asm.store(5, 1, 8)
    asm.store(2, 1, 0)
    asm.addi(2, 2, 1)
    asm.blt(2, 3, "loop")
    if halt:
        asm.halt()
    return asm.assemble()


class _Spy(OptimizationPlugin):
    """Overrides ``on_commit`` only and counts its calls."""

    name = "spy"
    ff_policy = FF_PURE

    def __init__(self):
        super().__init__()
        self.commits = 0

    def on_commit(self, dyn):
        self.commits += 1


@KERNELS
def test_overriding_plugin_gets_every_call_and_base_hooks_none(
        cpu_cls, monkeypatch):
    called = []
    for hook in HOOKS:
        if hook == "on_commit":
            continue
        monkeypatch.setattr(
            OptimizationPlugin, hook,
            lambda self, *args, _hook=hook: called.append(_hook))
    spy = _Spy()
    cpu = cpu_cls(_loop_program(), _hierarchy(), plugins=[spy])
    cpu.run()
    assert cpu.stats.retired > 50
    assert spy.commits == cpu.stats.retired
    assert called == []


@KERNELS
def test_hook_assigned_on_an_instance_is_not_seen(cpu_cls):
    spy = _Spy()
    results = []
    spy.on_result = lambda dyn, value: results.append(value)
    cpu = cpu_cls(_loop_program(), _hierarchy(), plugins=[spy])
    cpu.run()
    assert spy.commits == cpu.stats.retired
    assert results == []


def _run_parts(program, fastpath, hierarchy=None, metrics=None, **kw):
    hierarchy = hierarchy if hierarchy is not None else _hierarchy()
    metrics = metrics if metrics is not None else SimStats()
    session = Session.from_parts(program, hierarchy, metrics=metrics,
                                 fastpath=fastpath, **kw)
    return session.run(), session


def test_occupancy_identical_when_halting_by_fallback():
    program = _loop_program(halt=False)
    reference, _ = _run_parts(program, fastpath=False)
    fast, session = _run_parts(program, fastpath=True)
    assert fast.to_json() == reference.to_json()
    counters = fast.metrics["counters"]
    assert counters["pipeline.cycles"] == fast.cycles
    assert counters["pipeline.sq.head_committed_cycles"] > 0
    assert fast.metrics["maxima"]["pipeline.rob.high_water"] > 0
    assert session.cpu.fastpath.cycles_skipped > 0


def test_occupancy_identical_for_smt_threads():
    def run(cpu_cls):
        core = SMTCore(_loop_program(0x1000, 9), _loop_program(0x2000, 14),
                       _hierarchy(), cpu_cls=cpu_cls)
        for thread in core.threads:
            thread.metrics = SimStats()
        core.run()
        return [(thread.cycle, thread.stats.as_dict(),
                 thread.metrics.as_dict()) for thread in core.threads]

    reference = run(CPU)
    assert run(FastPathCPU) == reference
    for _cycle, _stats, metrics in reference:
        assert metrics["counters"]["pipeline.rob.occupancy_integral"] > 0


def test_occupancy_identical_across_consecutive_runs_on_shared_metrics():
    def run(fastpath):
        hierarchy = _hierarchy()
        metrics = SimStats()
        results = [_run_parts(_loop_program(count=count), fastpath,
                              hierarchy=hierarchy, metrics=metrics)[0]
                   for count in (5, 11)]
        return [r.to_json() for r in results], metrics.as_dict()

    reference = run(False)
    assert run(True) == reference
    # The second run's record already holds the first run's cycles.
    first, second = (json.loads(text)["metrics"] for text in reference[0])
    assert (first["counters"]["pipeline.cycles"]
            < second["counters"]["pipeline.cycles"]
            == reference[1]["counters"]["pipeline.cycles"])


def _div_program():
    """Two independent divides: the second waits for the one unit."""
    asm = Assembler()
    asm.li(1, 1000)
    asm.li(2, 7)
    asm.li(5, 3)
    asm.div(3, 1, 2)
    asm.div(4, 1, 5)
    asm.halt()
    return asm.assemble()


class _IssueRecorder(OptimizationPlugin):
    """Records each retired instruction's issue cycle, by pc."""

    name = "issue-recorder"
    ff_policy = FF_PURE

    def __init__(self):
        super().__init__()
        self.issued = {}

    def on_commit(self, dyn):
        self.issued[dyn.pc] = dyn.issue_cycle


class _SpanRecorder(FastPathCPU):
    """Records every fast-forwarded span as (first, last) cycle."""

    def __init__(self, *args, **kwargs):
        self.spans = []
        super().__init__(*args, **kwargs)

    def _fast_forward(self, limit):
        start = self.cycle
        super()._fast_forward(limit)
        if self.cycle > start:
            self.spans.append((start + 1, self.cycle))


def _div_run(cpu_cls, plugins):
    recorder = _IssueRecorder()
    cpu = cpu_cls(_div_program(), _hierarchy(),
                  config=CPUConfig(num_div_units=1),
                  plugins=list(plugins) + [recorder], metrics=SimStats())
    cpu.run()
    first, second = recorder.issued[3], recorder.issued[4]
    return cpu, (first, second)


def _waits_skipped(spans, wait):
    first, second = wait
    return [span for span in spans
            if span[0] < second and span[1] >= first]


def test_busy_div_unit_wait_is_fast_forwarded_without_reuse():
    reference, wait = _div_run(CPU, [])
    fast, fast_wait = _div_run(_SpanRecorder, [])
    assert fast_wait == wait
    assert wait[1] - wait[0] >= CPUConfig().latency_div
    assert fast.fastpath.cycles_skipped > 0
    assert _waits_skipped(fast.spans, wait)
    assert fast.cycle == reference.cycle
    assert fast.stats.as_dict() == reference.stats.as_dict()
    assert fast.metrics.as_dict() == reference.metrics.as_dict()
    assert [fast.arch_reg(r) for r in (3, 4)] == [142, 333]


def test_busy_div_unit_wait_is_ticked_with_computation_reuse():
    reference, wait = _div_run(CPU, [ComputationReusePlugin()])
    fast, fast_wait = _div_run(_SpanRecorder, [ComputationReusePlugin()])
    assert fast_wait == wait
    assert _waits_skipped(fast.spans, wait) == []
    assert fast.cycle == reference.cycle
    assert fast.stats.as_dict() == reference.stats.as_dict()
    assert fast.metrics.as_dict() == reference.metrics.as_dict()
    reuse = [p for p in fast.plugins if p.name == "computation-reuse"][0]
    ref_reuse = [p for p in reference.plugins
                 if p.name == "computation-reuse"][0]
    assert reuse.stats == ref_reuse.stats
    # One lookup per ticked retry: the wait really was ticked.
    assert reuse.stats["lookups"] >= wait[1] - wait[0]
