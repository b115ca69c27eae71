"""The ``repro.stats`` views folded at halt agree with their one source.

``CPUStats`` and each plug-in's ``stats`` dict are the only per-event
record of the counts below; :meth:`repro.pipeline.cpu.CPU._halt`
derives their ``pipeline.*`` and ``opt.*`` counters once, when the core
halts.  A view counter must equal its source and be absent exactly when
the source is zero (as if it had been incremented per event), except
``pipeline.squashed_instructions``, which exists whenever
``pipeline.flushes`` does.
"""

import pytest

from repro.engine import Session, SimStats, merge_all
from repro.engine.specs import PluginSpec, plugin_factory, plugin_names
from repro.isa.assembler import Assembler
from repro.lint.progen import CaseGenerator
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.optimizations import SilentStorePlugin
from repro.pipeline.smt import SMTCore
from tests.spec_catalog import attack_specs

#: ``CPUStats`` field -> folded counter (``dispatch_stalls`` aside).
CPU_VIEWS = {
    "cycles": "pipeline.cycles",
    "silent_stores": "pipeline.sq.silent_dequeues",
}

VIEWED = [name for name in plugin_names()
          if plugin_factory(name).metric_views]


def _specs():
    """The attack catalog plus one trigger case per viewed plug-in
    (the catalog has no IMP spec)."""
    specs = attack_specs()
    for name in VIEWED:
        case = CaseGenerator(seed=0).cases_for(name, 1)[0]
        specs[f"trigger/{name}"] = case.spec(
            plugins=(PluginSpec.of(name),), label=case.name)
    return specs


SPECS = _specs()


def _assert_views(result, plugins):
    counters = result.metrics["counters"]
    sources = {name: result.stats[field]
               for field, name in CPU_VIEWS.items()}
    for kind, count in result.stats["dispatch_stalls"].items():
        sources["pipeline.dispatch_stall." + kind] = count
    for plugin in plugins:
        observed = result.observations["plugins"][plugin.name]
        for key, name in plugin.metric_views.items():
            sources[name] = observed[key]
    for name, count in sources.items():
        if count:
            assert counters[name] == count, name
        else:
            assert name not in counters, name
    squashed = result.stats["squashed_instructions"]
    if "pipeline.flushes" in counters:
        assert counters["pipeline.squashed_instructions"] == squashed
    else:
        assert squashed == 0
        assert "pipeline.squashed_instructions" not in counters


def test_viewed_plugins_are_the_three_mld_counters():
    assert VIEWED == ["indirect-memory-prefetcher", "silent-stores",
                      "value-prediction"]


@pytest.mark.parametrize("name", plugin_names())
def test_metric_views_name_keys_of_a_fresh_stats_dict(name):
    plugin = PluginSpec.of(name).build()
    assert set(plugin.metric_views) <= set(getattr(plugin, "stats", {}))


@pytest.mark.parametrize("fastpath", [False, True],
                         ids=["reference", "fastpath"])
@pytest.mark.parametrize("label", sorted(SPECS))
def test_folded_counters_equal_their_source(label, fastpath):
    session = Session.from_spec(SPECS[label].replace(fastpath=fastpath))
    result = session.run()
    _assert_views(result, session.plugins)


def test_trigger_cases_exercise_every_view():
    for name in VIEWED:
        result = Session.from_spec(SPECS[f"trigger/{name}"]).run()
        counters = result.metrics["counters"]
        assert any(view in counters
                   for view in plugin_factory(name).metric_views.values())


def test_a_reused_plugin_folds_each_run_once():
    spec = SPECS["amplification"]
    plugin = SilentStorePlugin()
    hierarchy = spec.hierarchy.build(memory=spec.build_memory())
    metrics = SimStats()
    for _ in range(2):
        Session.from_parts(spec.program, hierarchy, plugins=[plugin],
                           metrics=metrics).run()
    assert plugin.stats["ss_loads_issued"] > 0
    for key, name in plugin.metric_views.items():
        assert metrics.counters.get(name, 0) == plugin.stats[key], name


def test_a_misspelt_view_fails_loudly():
    class Misspelt(SilentStorePlugin):
        metric_views = {"case_a_slient": "opt.silent_stores.squashes"}

    spec = SPECS["amplification"]
    with pytest.raises(KeyError, match="case_a_slient"):
        Session.from_parts(spec.program, spec.hierarchy.build(),
                           plugins=[Misspelt()], metrics=SimStats())


def test_a_plugin_shared_by_smt_threads_folds_each_event_once():
    asm = Assembler()
    asm.li(1, 0x1000)
    asm.load(2, 1, 0)           # brings the line into L1
    for _ in range(6):
        asm.store(0, 1, 0)      # zero over zero: silent
    asm.halt()
    program = asm.assemble()
    plugin = SilentStorePlugin()
    hierarchy = MemoryHierarchy(FlatMemory(1 << 16), l1=Cache())
    core = SMTCore(program, program, hierarchy,
                   plugins_a=[plugin], plugins_b=[plugin])
    for thread in core.threads:
        thread.metrics = SimStats()
    core.run()
    merged = merge_all(thread.metrics for thread in core.threads)
    assert plugin.stats["case_a_silent"] > 0
    for key, name in plugin.metric_views.items():
        assert merged.counters.get(name, 0) == plugin.stats[key], name
