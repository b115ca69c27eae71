"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`instrument`
wraps the public entry points of each layer (``repro.engine``,
``repro.pipeline`` through ``Session.run``, ``repro.lint``,
``repro.sandbox``, ``repro.attacks``) and :meth:`Tracer.install` swaps
the wrappers in only for traced rounds, so untraced rounds run the
original code objects.  Nothing under ``src/`` is modified on disk.

Every span records its name, start and end (``perf_counter_ns``), its
parent span and the op it belongs to.  A layer's *self time* is its
span durations minus the durations of its direct children; the ``op``
root span's self time is the residual that no layer span covers.
"""

import functools
import gzip
import json
import os
import sys
import time

#: Root span name: one per timed op.
OP_SPAN = "op"


class Tracer:
    """In-memory span store plus the counts recorded at layer edges."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, op]
        self.stack = []
        self.op_id = None
        self.counts = {}
        self._bindings = []      # (namespace, attr, original, wrapper)

    # -- spans ---------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.op_id])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installing the wrappers ----------------------------------------

    def bind(self, namespace, attr, wrapper, original):
        self._bindings.append((namespace, attr, original, wrapper))

    def install(self):
        for namespace, attr, _original, wrapper in self._bindings:
            setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original, _wrapper in self._bindings:
            setattr(namespace, attr, original)

    # -- aggregation -----------------------------------------------------

    def self_times(self):
        """``{name: self_ns}`` over spans inside ops, plus the summed
        ``op`` wall time under ``"op.wall"``."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        wall = 0
        for index, (name, start, end, parent, op) in \
                enumerate(self.spans):
            if op is None:
                continue
            duration = end - start
            if name == OP_SPAN:
                wall += duration
            totals[name] = totals.get(name, 0) + duration \
                - child_ns[index]
        totals["op.wall"] = wall
        return totals

    def write(self, path, meta):
        """Write the spans as gzipped JSON lines (one header line)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op}) + "\n")


def _traced(tracer, name, original, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(result, args)
        return result
    return wrapper


def wrap_method(tracer, cls, attr, name, after=None):
    """Trace ``cls.attr`` (plain method or classmethod)."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapper = classmethod(_traced(tracer, name, raw.__func__, after))
    else:
        wrapper = _traced(tracer, name, raw, after)
    tracer.bind(cls, attr, wrapper, raw)


def wrap_function(tracer, module, attr, name, after=None):
    """Trace a module-level function at every place it is bound.

    ``from x import f`` copies the binding, so every loaded module
    whose namespace holds the same function object gets the wrapper.
    """
    original = getattr(module, attr)
    wrapper = _traced(tracer, name, original, after)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if namespace is not None and namespace.get(attr) is original:
            tracer.bind(loaded, attr, wrapper, original)


def instrument(tracer):
    """Register the layer-boundary wrappers (not yet installed)."""
    from repro.attacks import bsaes_attack, covert_channel, dmp_attack
    from repro.engine import cache, runner, session, specs
    from repro.lint import cfg, checker, contracts, perturb, precision, \
        progen, synthesize, taint
    from repro.sandbox import jit, runtime, verifier

    count = tracer.count

    # engine.specs / engine.session
    wrap_method(tracer, specs.SimSpec, "fingerprint",
                "engine.specs.fingerprint",
                lambda result, args: count("engine.specs.fingerprint_calls"))
    wrap_method(tracer, specs.SimSpec, "build_memory",
                "engine.specs.build_memory")
    wrap_method(tracer, session.Session, "from_spec",
                "engine.session.build")
    wrap_method(tracer, session.Session, "finish",
                "engine.session.finish")

    # pipeline: Session.run is the advance loop (+ the finish child).
    # Per-cycle ``cpu.advance`` is too fine-grained to span.
    original_run = session.Session.__dict__["run"]

    @functools.wraps(original_run)
    def traced_run(self, *args, **kwargs):
        index = tracer.open("pipeline.advance")
        try:
            result = original_run(self, *args, **kwargs)
        finally:
            tracer.close(index)
        cpu = self.cpu
        count("pipeline.traced_cycles", result.cycles)
        fastpath = getattr(cpu, "fastpath", None)
        if fastpath is not None:
            count("pipeline.fastpath.cycles_skipped",
                  fastpath.cycles_skipped)
            count("pipeline.fastpath.template_hits",
                  fastpath.template_hits)
            count("pipeline.fastpath.template_misses",
                  fastpath.template_misses)
        return result

    tracer.bind(session.Session, "run", traced_run, original_run)

    # engine.runner
    def after_batch(results, args):
        count("engine.runner.batches")
        count("engine.runner.trials", len(results))
    wrap_function(tracer, runner, "run_batch", "engine.runner",
                  after_batch)

    # engine.cache
    def after_probe_many(results, args):
        misses = sum(1 for result in results if result is None)
        count("engine.cache.misses", misses)
        count("engine.cache.hits", len(results) - misses)

    def after_get(result, args):
        count("engine.cache.misses" if result is None
              else "engine.cache.hits")
    wrap_method(tracer, cache.ResultCache, "probe_many",
                "engine.cache.probe", after_probe_many)
    wrap_method(tracer, cache.ResultCache, "get", "engine.cache.probe",
                after_get)
    wrap_method(tracer, cache.ResultCache, "put", "engine.cache.put")

    # sandbox + attacks
    wrap_method(tracer, verifier.Verifier, "verify", "sandbox.verify")
    wrap_method(tracer, jit.Jit, "compile", "sandbox.jit")
    wrap_method(tracer, runtime.SandboxRuntime, "load_program",
                "sandbox.load")
    wrap_method(tracer, runtime.SandboxRuntime, "run", "sandbox.run")
    wrap_method(tracer, covert_channel.PrimeProbeReceiver, "prime",
                "attacks.receiver")
    wrap_method(tracer, covert_channel.PrimeProbeReceiver, "probe",
                "attacks.receiver")
    wrap_method(tracer, dmp_attack.DMPSandboxAttack, "leak_byte",
                "attacks.leak")
    wrap_method(tracer, bsaes_attack.BSAESSilentStoreAttack,
                "histogram_specs", "attacks.specs")
    wrap_method(tracer, bsaes_attack.BSAESVictimServer, "__init__",
                "attacks.victim")

    # lint
    def after_lint(report, args):
        count("lint.programs")
        count("lint.instructions", len(args[0]))
        count("lint.leaks_flags", len(report.findings))
    wrap_function(tracer, checker, "lint_program", "lint.checker",
                  after_lint)
    wrap_function(tracer, checker, "lint_spec", "lint.checker")
    wrap_function(tracer, checker, "tainted_tap_pairs", "lint.checker")
    wrap_function(tracer, taint, "analyze_taint", "lint.taint")
    for attr in ("static_successors", "immediate_postdominators",
                 "postdominator_sets", "reaching_definitions",
                 "def_chain", "build_cfg"):
        wrap_function(tracer, cfg, attr, "lint.cfg")
    for attr in ("rows_for_names", "rows_for_specs", "contract_rows"):
        wrap_function(tracer, contracts, attr, "lint.contracts")
    wrap_function(tracer, perturb, "secret_variants", "lint.perturb")
    wrap_method(tracer, progen.CaseGenerator, "cases_for",
                "lint.synthesize.generate")
    wrap_function(tracer, progen, "gated_case",
                  "lint.synthesize.generate")
    wrap_function(tracer, precision, "example_cases",
                  "lint.synthesize.generate")
    wrap_function(tracer, synthesize, "minimize_witness",
                  "lint.synthesize.minimize")

    def after_synthesis(result, args):
        count("lint.synthesize.cases", len(result.observations))
        count("lint.synthesize.divergent",
              sum(1 for obs in result.observations if obs.divergent))
    wrap_function(tracer, synthesize, "check_synthesis",
                  "lint.synthesize", after_synthesis)

    def after_precision(report, args):
        count("lint.precision.flagged",
              sum(1 for outcome in report.outcomes if outcome.flagged))
        count("lint.precision.confirmed",
              sum(1 for outcome in report.outcomes
                  if outcome.flagged and outcome.confirmed))
    wrap_function(tracer, precision, "check_precision", "lint.precision",
                  after_precision)
