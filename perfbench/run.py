#!/usr/bin/env python3
"""Run one benchmark workload as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (``src/`` is put on the import path; there
is no build step).  One process issues one op at a time, each op only
after the previous one returned, for ``--seconds`` of host time
(contract_sweep and lint_audit finish the round they are in).  Every
op's output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the
median over several fresh launches of this script, each timed from
process launch to the point where the first op would start (imports
and warm-up included).

``--trace 1`` reports the per-layer metrics instead.  Rounds alternate
between untraced and traced; the traced ones record a span around
every call into a layer's public entry points (see ``tracing.py``),
keep the spans in memory and write them to
``.perfbench_out/<workload>.spans.jsonl.gz`` at the end.  The slowdown
of traced rounds against untraced ones, in ref units, is the tracing
overhead.

All times are host wall-clock time (``perf_counter``).  A fixed
reference loop is timed right before and right after every op, and the
gated op costs are in units of that time ("ref"), so the host's
drifting speed divides out; the raw host-time figures are printed
beside them.
Simulated cycles and counts are deterministic for a seed; they enter
only as correctness digests and per-layer counts.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Environment switches that select non-default program paths; cleared
#: so the default path is measured.
CLEARED_ENV = ("REPRO_BACKEND", "REPRO_TELEMETRY")
#: Fresh launches timed for ``setup_s`` (the median is reported).
SETUP_LAUNCHES = 5
#: Never used while the benchmark was written or tuned; reserved for
#: confirming a claimed gain on inputs nobody tuned against.
HELD_OUT_SEED = 2021

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_kref": "1/kref", "op_p50_ref": "ref",
    "op_p90_ref": "ref", "kinst_per_kref": "kinst/kref",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}

#: Raw host-time figures, printed on every run but not gated: on a
#: shared host they drift with the host (see README.md).
HOST_TIME_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms",
                   "op_p90_ms": "ms", "kips": "kinst/s", "ref_ms": "ms"}

#: Iterations of the reference loop timed right before and right after
#: every op.  Op costs are reported in units of those two loops' time
#: ("ref"), which divides out the host's speed when the op ran.
REF_ITERATIONS = 1500

#: Span name -> per-layer self-time metric.  Every span the tracer
#: records maps here, so the layer self times plus the residual (the
#: ``op`` span's self time) add up to the traced ops' wall time.
SPAN_METRICS = {
    "engine.specs.fingerprint": "engine.specs.fingerprint_s",
    "engine.specs.build_memory": "engine.specs.build_memory_s",
    "engine.session.build": "engine.session.build_s",
    "engine.session.finish": "engine.session.finish_s",
    "engine.runner": "engine.runner.self_s",
    "engine.cache.probe": "engine.cache.probe_s",
    "engine.cache.put": "engine.cache.put_s",
    "pipeline.advance": "pipeline.advance_s",
    "sandbox.verify": "sandbox.verify_s",
    "sandbox.jit": "sandbox.jit_s",
    "sandbox.load": "sandbox.load_s",
    "sandbox.run": "sandbox.run_s",
    "attacks.receiver": "attacks.receiver_s",
    "attacks.leak": "attacks.leak_s",
    "attacks.specs": "attacks.specs_s",
    "attacks.victim": "attacks.victim_s",
    "lint.cfg": "lint.cfg_s",
    "lint.taint": "lint.taint_s",
    "lint.contracts": "lint.contracts_s",
    "lint.checker": "lint.checker_s",
    "lint.perturb": "lint.perturb_s",
    "lint.synthesize": "lint.synthesize.self_s",
    "lint.synthesize.generate": "lint.synthesize.generate_s",
    "lint.synthesize.minimize": "lint.synthesize.minimize_s",
    "lint.precision": "lint.precision.self_s",
    "op": "trace.residual_s",
}

MEMORY_COUNTERS = ("reads", "writes", "l1_hits", "l2_hits", "prefetches")

#: Plug-in counters reported from ``observations["plugins"]``.
PLUGIN_COUNTERS = {
    "silent-stores": ("ss_loads_issued", "case_a_silent",
                      "case_b_nonsilent", "case_c_no_port",
                      "case_d_late"),
    "indirect-memory-prefetcher": ("stream_advances", "links_confirmed",
                                   "jobs_launched", "prefetches",
                                   "out_of_memory_aborts"),
    "computation-reuse": ("hits",),
    "computation-simplification": ("zero_skip_mul", "pow2_div"),
    "operand-packing": ("packs",),
    "early-terminating-multiplier": ("early_terminations",),
    "register-file-compression": ("compressible_results",),
    "value-prediction": ("predictions", "incorrect"),
}

COUNT_METRICS = (
    "engine.specs.fingerprint_calls", "engine.runner.batches",
    "engine.runner.trials", "engine.cache.hits", "engine.cache.misses",
    "lint.programs", "lint.instructions", "lint.leaks_flags",
)


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {metric: "s" for metric in SPAN_METRICS.values()}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({
        "engine.cache.hit_ratio": "ratio",
        "pipeline.sim_cycles": "cycles",
        "pipeline.retired": "count",
        "pipeline.host_ns_per_sim_cycle": "ns",
        "pipeline.fastpath.skip_ratio": "ratio",
        "pipeline.fastpath.template_hit_ratio": "ratio",
        "lint.synthesize.divergent_ratio": "ratio",
        "lint.precision.confirmed_ratio": "ratio",
        "lint.precision.unattributed_missed": "count",
        "sim.sample_ops": "count",
        "trace.ops": "count",
        "trace.spans": "count",
        "trace.op_wall_s": "s",
        "trace.residual_share": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    for counter in MEMORY_COUNTERS:
        units[f"memory.{counter}"] = "count"
    for plugin, counters in PLUGIN_COUNTERS.items():
        for counter in counters:
            units[f"optimizations.{plugin}.{counter}"] = "count"
    return units


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def clean_environment():
    """Drop the switches in :data:`CLEARED_ENV`; returns those set."""
    found = [name for name in CLEARED_ENV if name in os.environ]
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    return found


def load_workload(name, seed):
    """Import the program, build the workload and warm it up."""
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed)
    workload.warm_up()
    return workload


def time_setup(name, seed):
    """Seconds from launching a fresh process to its first op."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def source_digest():
    """Hash of every ``src/`` Python file: identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for directory, _dirs, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                ref = handle.read().strip()
        return ref
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

@dataclass
class Run:
    """What one measured run keeps: per-op timings in compact arrays,
    aggregates, and the full records of the first ops only, so memory
    stays flat however many ops complete."""

    latency_ns: array = field(default_factory=lambda: array("q"))
    ref_ns: array = field(default_factory=lambda: array("q"))
    traced: bytearray = field(default_factory=bytearray)
    sample: list = field(default_factory=list)
    ok: int = 0
    work: int = 0
    unattributed_missed: int = 0
    failures: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.latency_ns)

    def add(self, latency_ns, ref_ns, traced, record, sample_ops):
        self.latency_ns.append(latency_ns)
        self.ref_ns.append(ref_ns)
        self.traced.append(traced)
        if len(self.sample) < sample_ops:
            self.sample.append(record)
        self.ok += record.ok
        self.work += record.work
        self.unattributed_missed += record.unattributed_missed
        if not record.ok:
            self.failures.append(record.note)


def reference_loop():
    """Nanoseconds a fixed piece of interpreter work takes right now."""
    began = time.perf_counter_ns()
    table = {}
    for index in range(REF_ITERATIONS):
        key = (index * 7) & 255
        table[key] = table.get(key, 0) + index
    return time.perf_counter_ns() - began


def measure(workload, seconds, tracer=None):
    """Run rounds of ops until ``seconds`` have passed; returns a
    :class:`Run`.  A reference loop runs right before and right after
    each op.  With a tracer, odd rounds run traced and even rounds
    untraced."""
    from workloads import OpRecord
    from tracing import OP_SPAN
    run = Run()
    start = time.perf_counter()
    round_index = 0
    while True:
        items = workload.round(round_index)
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
        for item in items:
            ref_ns = reference_loop()
            if traced:
                tracer.op_id = run.attempted
                span = tracer.open(OP_SPAN)
            began = time.perf_counter_ns()
            try:
                output = workload.op(item)
                error = None
            except Exception as exc:     # counted as a failed op
                error = f"{type(exc).__name__}: {exc}"
            ended = time.perf_counter_ns()
            if traced:
                tracer.close(span)
                tracer.op_id = None
            ref_ns += reference_loop()
            if error is None:
                record = workload.check(item, output)
            else:
                record = OpRecord(ok=False, note=error)
            run.add(ended - began, ref_ns, traced, record,
                    workload.sample_ops)
        if traced:
            tracer.uninstall()
        round_index += 1
        # A traced run always includes one traced round.
        if time.perf_counter() - start >= seconds \
                and (tracer is None or round_index >= 2):
            return run


def sample_counts(run):
    """Simulated counts and digest over the run's first ops."""
    digest = hashlib.sha256()
    counts = {"pipeline.sim_cycles": 0, "pipeline.retired": 0,
              "sim.sample_ops": len(run.sample)}
    for counter in MEMORY_COUNTERS:
        counts[f"memory.{counter}"] = 0
    for plugin, counters in PLUGIN_COUNTERS.items():
        for counter in counters:
            counts[f"optimizations.{plugin}.{counter}"] = 0
    for record in run.sample:
        digest.update(record.digest_payload().encode())
        for sim in record.sims:
            counts["pipeline.sim_cycles"] += sim["cycles"]
            counts["pipeline.retired"] += sim["retired"]
            for counter in MEMORY_COUNTERS:
                counts[f"memory.{counter}"] += sim["hierarchy"].get(
                    counter, 0)
            for plugin, values in sim["plugins"].items():
                for counter in PLUGIN_COUNTERS.get(plugin, ()):
                    counts[f"optimizations.{plugin}.{counter}"] += \
                        values.get(counter, 0)
    return counts, digest.hexdigest()[:16]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def p50_p90(values):
    p90 = statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]
    return statistics.median(values), p90


def host_time(run):
    """The raw host-time figures (printed, not gated)."""
    busy_s = sum(run.latency_ns) / 1e9
    p50, p90 = p50_p90(run.latency_ns)
    return {
        "ops_per_s": run.attempted / busy_s,
        "op_p50_ms": p50 / 1e6,
        "op_p90_ms": p90 / 1e6,
        "kips": run.work / 1e3 / busy_s,
        "ref_ms": statistics.median(run.ref_ns) / 1e6,
    }


def end_to_end(run, setups):
    """The gated metrics and the number of ops beyond p90."""
    # Host time spent in ops, in units of the mean reference time.
    refs_spent = sum(run.latency_ns) * run.attempted / sum(run.ref_ns)
    costs = [latency / ref for latency, ref
             in zip(run.latency_ns, run.ref_ns)]
    p50, p90 = p50_p90(costs)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_kref": 1e3 * run.attempted / refs_spent,
        "op_p50_ref": p50,
        "op_p90_ref": p90,
        "kinst_per_kref": run.work / refs_spent,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": run.ok / run.attempted,
    }
    return values, sum(1 for cost in costs if cost > p90)


def per_layer(run, tracer):
    self_ns = tracer.self_times()
    unmapped = set(self_ns) - set(SPAN_METRICS) - {"op.wall"}
    if unmapped:
        raise RuntimeError(f"spans without a layer metric: {unmapped}")
    counts = tracer.counts
    values = {metric: self_ns.get(span, 0) / 1e9
              for span, metric in SPAN_METRICS.items()}
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0)
    cost = {True: [0, 0], False: [0, 0]}      # latency, ref sums
    for latency, ref, traced in zip(run.latency_ns, run.ref_ns,
                                    run.traced):
        cost[bool(traced)][0] += latency
        cost[bool(traced)][1] += ref
    traced_cycles = counts.get("pipeline.traced_cycles", 0)
    template_hits = counts.get("pipeline.fastpath.template_hits", 0)
    wall_ns = self_ns["op.wall"]
    values.update({
        "engine.cache.hit_ratio": ratio(
            counts.get("engine.cache.hits", 0),
            counts.get("engine.cache.hits", 0)
            + counts.get("engine.cache.misses", 0)),
        "pipeline.host_ns_per_sim_cycle": ratio(
            self_ns.get("pipeline.advance", 0), traced_cycles),
        "pipeline.fastpath.skip_ratio": ratio(
            counts.get("pipeline.fastpath.cycles_skipped", 0),
            traced_cycles),
        "pipeline.fastpath.template_hit_ratio": ratio(
            template_hits, template_hits
            + counts.get("pipeline.fastpath.template_misses", 0)),
        "lint.synthesize.divergent_ratio": ratio(
            counts.get("lint.synthesize.divergent", 0),
            counts.get("lint.synthesize.cases", 0)),
        "lint.precision.confirmed_ratio": ratio(
            counts.get("lint.precision.confirmed", 0),
            counts.get("lint.precision.flagged", 0)),
        "lint.precision.unattributed_missed": run.unattributed_missed,
        "trace.ops": sum(run.traced),
        "trace.spans": len(tracer.spans),
        "trace.op_wall_s": wall_ns / 1e9,
        "trace.residual_share": ratio(self_ns.get("op", 0), wall_ns),
        # Op cost in reference-loop units, traced against untraced
        # rounds, so host drift between rounds cancels.
        "trace.overhead_ratio": ratio(ratio(*cost[True]),
                                      ratio(*cost[False])) - 1
        if cost[True][1] and cost[False][1] else 0.0,
    })
    values.update(sample_counts(run)[0])
    return values, self_ns


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("attack_fig6", "contract_sweep",
                                 "urg_fig7", "lint_audit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    cleared = clean_environment()
    if args.setup_probe:
        load_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else [
        time_setup(args.workload, args.seed)
        for _ in range(SETUP_LAUNCHES)]
    workload = load_workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
    run = measure(workload, args.seconds, tracer)

    for note in run.failures[:5]:
        print(f"perfbench: failed op: {note}", file=sys.stderr)
    _, digest = sample_counts(run)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"held_out_seed={HELD_OUT_SEED}")
    print(f"env python={sys.version.split()[0]} nproc={os.cpu_count()} "
          f"commit={git_commit()} src_digest={source_digest()} "
          f"cleared={','.join(CLEARED_ENV)} "
          f"(were set: {','.join(cleared) or 'none'}) disk_cache=none")
    print(f"digest={digest} over the first {len(run.sample)} ops "
          "(simulated outputs and verdicts)")

    if args.trace:
        metrics, self_ns = per_layer(run, tracer)
        units = per_layer_units()
        wall = self_ns["op.wall"] or 1
        print(f"traced ops={metrics['trace.ops']} of {run.attempted}; "
              f"tracing overhead {metrics['trace.overhead_ratio']:+.1%}")
        for span, metric in sorted(SPAN_METRICS.items(),
                                   key=lambda kv: -self_ns.get(kv[0], 0)):
            share = self_ns.get(span, 0) / wall
            if share:
                print(f"  {metric:32s} {share:7.2%} of traced op time")
        tracer.write(os.path.join(OUT_DIR,
                                  f"{args.workload}.spans.jsonl.gz"),
                     {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds})
    else:
        metrics, beyond = end_to_end(run, setups)
        units = END_TO_END_UNITS
        failed = run.attempted - run.ok
        print(f"samples ops={run.attempted} beyond_p90={beyond} "
              f"setup_launches={len(setups)} failed={failed}")
        for name, value in metrics.items():
            print(f"  {name:14s} {value:14.4f} {units[name]}")
        print("host time (not gated):")
        for name, value in host_time(run).items():
            print(f"  {name:14s} {value:14.4f} {HOST_TIME_UNITS[name]}")

    print(json.dumps({
        "correct": run.ok == run.attempted,
        "attempted": run.attempted,
        "failed": run.attempted - run.ok,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
