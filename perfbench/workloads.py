"""The benchmark's four closed-loop workloads.

Each workload turns ``(seed, round index)`` into the inputs of a round
of ops (:meth:`Workload.round`, untimed), runs one op at a time
(:meth:`Workload.op`, the timed call into the program) and checks the
op's output against :meth:`Workload.expected` (untimed).  Inputs are
never repeated within a run: every round derives fresh ones from the
seed, and warm-up uses negative round indices.

The program is reached only through ``repro.attacks``,
``repro.engine``, ``repro.lint`` and ``repro.sandbox``.  Functions are
called through their package (``lint.check_synthesis``) so the traced
run's wrappers apply.  No op passes an on-disk cache; the contract
sweep gives every op a fresh in-memory :class:`RecordingCache`.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

import repro.attacks as attacks
import repro.engine as engine
import repro.lint as lint
from repro.attacks.bsaes_attack import NUM_SLOTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(ROOT, "examples", "programs")


def op_rng(workload, seed, index):
    return random.Random(f"perfbench/{workload}/{seed}/{index}")


def op_seed(workload, seed, index):
    blob = f"perfbench/{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def sim_summary(result, hierarchy=None):
    """The simulated outputs of one run: cycles, retired instructions,
    hierarchy and plug-in counters.  ``hierarchy`` overrides the
    result's (cumulative) hierarchy counters with a per-run delta."""
    observations = result.observations
    return {
        "cycles": result.cycles,
        "retired": result.stats["retired"],
        "hierarchy": dict(hierarchy if hierarchy is not None
                          else observations["hierarchy"]),
        "plugins": {name: dict(counters) for name, counters
                    in observations["plugins"].items()},
    }


@dataclass
class OpRecord:
    """The checked outcome of one op."""

    ok: bool
    work: int = 0               # retired (or linted) instructions
    sims: list = field(default_factory=list)
    verdict: object = None      # JSON-able, folded into the digest
    note: str = ""
    unattributed_missed: int = 0

    def digest_payload(self):
        return json.dumps({"ok": self.ok, "sims": self.sims,
                           "verdict": self.verdict}, sort_keys=True)


class Workload:
    """One closed-loop workload (subclasses fill in the four hooks)."""

    name = ""
    #: The first ``sample_ops`` ops of a run feed the simulated-output
    #: digest and the simulated counts; the op sequence depends only on
    #: the seed, so both are identical across runs of one seed.
    sample_ops = 64
    warm_up_ops = 3

    def __init__(self, seed):
        self.seed = seed

    def round(self, index):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def expected(self, item):
        raise NotImplementedError

    def check(self, item, output):
        raise NotImplementedError

    def warm_up(self):
        items = self.round(-1)[:self.warm_up_ops]
        for item in items:
            self.check(item, self.op(item))


class AttackFig6(Workload):
    """One Figure-6 histogram query per op: 8 fresh-hierarchy trials."""

    name = "attack_fig6"

    def round(self, index):
        rng = op_rng(self.name, self.seed, index)
        return [(rng.randbytes(16), rng.randbytes(16), rng.randbytes(16),
                 rng.randrange(NUM_SLOTS), rng.getrandbits(32))]

    def op(self, item):
        victim_key, attacker_key, plaintext, slot, hist_seed = item
        attack = attacks.BSAESSilentStoreAttack(
            attacks.BSAESVictimServer(victim_key, plaintext),
            attacker_key)
        specs = attack.histogram_specs(runs_per_type=4, target_slot=slot,
                                       seed=hist_seed)
        results = engine.run_batch(specs)
        return [(spec.label.split("/")[0], result)
                for spec, result in zip(specs, results)]

    def expected(self, item):
        """(guess type that runs faster, minimum cycle separation)."""
        return "correct", 100

    def check(self, item, output):
        faster, min_gap = self.expected(item)
        cycles = {"correct": [], "incorrect": []}
        for kind, result in output:
            cycles[kind].append(result.cycles)
        slower = "incorrect" if faster == "correct" else "correct"
        gap = min(cycles[slower]) - max(cycles[faster])
        return OpRecord(
            ok=gap > min_gap,
            work=sum(result.stats["retired"] for _, result in output),
            sims=[sim_summary(result) for _, result in output],
            verdict=gap, note=f"separation {gap} cycles")


class RecordingCache(engine.ResultCache):
    """A fresh in-memory result cache that keeps every deposited
    result, so the op's simulated outputs can be checked afterwards."""

    def __init__(self):
        super().__init__()
        self.recorded = []

    def put(self, result):
        self.recorded.append(result)
        super().put(result)


class ContractSweep(Workload):
    """Synthesis and precision checks, alternating, round-robin over
    every contracted plug-in; the CI legs' budgets."""

    name = "contract_sweep"
    sample_ops = 16
    warm_up_ops = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.plugins = lint.contracted_plugin_names()

    def round(self, index):
        seed = op_seed(self.name, self.seed, index)
        return [(kind, plugin, seed) for plugin in self.plugins
                for kind in ("synthesis", "precision")]

    def op(self, item):
        kind, plugin, seed = item
        cache = RecordingCache()
        if kind == "synthesis":
            result = lint.check_synthesis(plugin, budget=6, seed=seed,
                                          cache=cache)
        else:
            result = lint.check_precision(opts=(plugin,), budget=4,
                                          seed=seed, cache=cache)
        return result, cache.recorded

    def expected(self, item):
        """Soundness escapes."""
        return 0

    def check(self, item, output):
        kind, plugin, seed = item
        result, recorded = output
        unattributed = 0
        if kind == "synthesis":
            escapes = len(result.undeclared) + len(result.when_gaps)
        else:
            # An escape is an unflagged divergence the plug-in caused.
            # When the plug-in-free control also diverged, the
            # divergence is not attributable (lint.synthesize discards
            # such cases); PrecisionReport.missed still counts them, so
            # they are reported apart.
            escapes = sum(1 for outcome in result.outcomes
                          if outcome.missed
                          and not outcome.baseline_divergent)
            unattributed = result.missed - escapes
        return OpRecord(
            ok=escapes == self.expected(item),
            work=sum(run.stats["retired"] for run in recorded),
            sims=[sim_summary(run) for run in recorded],
            verdict=result.to_json_dict(),
            note=f"{kind} {plugin} seed={seed} escapes={escapes}",
            unattributed_missed=unattributed)


class UrgFig7(Workload):
    """One universal-read-gadget byte leak per op on one persistent,
    warmed hierarchy (Figure 7)."""

    name = "urg_fig7"

    def __init__(self, seed):
        super().__init__(seed)
        self.attack = attacks.DMPSandboxAttack()
        self.runs = []
        runtime = self.attack.runtime

        def recording_run(*args, **kwargs):
            before = dict(runtime.hierarchy.stats)
            # Looked up on the class at call time, so the traced run's
            # wrapper applies.
            cpu = type(runtime).run(runtime, *args, **kwargs)
            self.runs.append((before, runtime.last_result))
            return cpu
        runtime.run = recording_run

    def round(self, index):
        """A printable byte planted in the kernel-secret line.

        The attack excludes the L1 sets it pollutes itself; a target in
        any other set than the secret line's comes back undecidable,
        and so do bytes 0x00 and 0xF8-0xFC on this layout.  Both are
        the attack's own limits, so the workload plants text there, as
        the repository's example does.
        """
        rng = op_rng(self.name, self.seed, index)
        addr = self.attack.config.kernel_secret_base + rng.randrange(64)
        return [(addr, rng.randrange(0x20, 0x7F))]

    def op(self, item):
        addr, byte = item
        self.runs.clear()
        runtime = self.attack.runtime
        runtime.place_kernel_secret(addr, bytes([byte]))
        runtime.load_program(self.attack.program)
        return self.attack.leak_byte(addr), list(self.runs)

    def expected(self, item):
        """The planted byte."""
        return item[1]

    def check(self, item, output):
        leak, runs = output
        sims = []
        for before, result in runs:
            after = result.observations["hierarchy"]
            sims.append(sim_summary(result, hierarchy={
                key: after[key] - before.get(key, 0) for key in after}))
        return OpRecord(
            ok=leak.leaked_byte == self.expected(item),
            work=sum(sim["retired"] for sim in sims), sims=sims,
            verdict=[leak.leaked_byte, list(leak.evicted_sets),
                     list(leak.candidate_sets)],
            note=f"planted {item[1]:#04x} leaked {leak.leaked_byte}")


#: What the shipped example programs are documented to do.
EXAMPLE_EXPECTATIONS = {
    "ct_checksum.s": ("clean", None),
    "gated_store.s": ("not_flags", "silent-stores"),
    "leaky_window.s": ("flags", "silent-stores"),
    "ss_probe.s": ("flags", "silent-stores"),
}


class LintAudit(Workload):
    """One ``lint_program`` call per op under the full contracted
    catalog and the default path-sensitive analysis."""

    name = "lint_audit"
    warm_up_ops = 8

    def __init__(self, seed):
        super().__init__(seed)
        self.plugins = lint.contracted_plugin_names()

    def round(self, index):
        """Every trigger template and one generic case per plug-in,
        one gated case, and every example program (assembled afresh)."""
        generator = lint.CaseGenerator(
            seed=op_seed(self.name, self.seed, index))
        items = []
        for plugin in self.plugins:
            budget = len(lint.TRIGGER_TEMPLATES[plugin]) + 1
            for case in generator.cases_for(plugin, budget):
                kind = "generic" if case.name.startswith("generic/") \
                    else "trigger"
                items.append((kind, plugin, case))
        gated = lint.gated_case(op_rng(self.name, self.seed, index),
                                index=abs(index))
        items.append(("gated", None, gated))
        for case in lint.example_cases(directory=EXAMPLES_DIR):
            items.append(("example", case.name.split("/", 1)[1], case))
        return items

    def op(self, item):
        kind, subject, case = item
        return lint.lint_program(
            case.program, opts=self.plugins, taint=case.taint,
            reg_consts=dict(case.regs), program_name=case.name)

    def expected(self, item):
        """``(rule, subject)``: what the verdicts must show."""
        kind, subject, case = item
        if kind == "trigger":
            return "flags", subject
        if kind == "gated":
            return "clean_from", min(case.program.labels.values())
        if kind == "example":
            return EXAMPLE_EXPECTATIONS.get(subject, (None, None))
        return None, None

    def check(self, item, report):
        rule, subject = self.expected(item)
        leaking = report.leaking_plugins()
        if rule == "flags":
            ok = subject in leaking
        elif rule == "not_flags":
            ok = subject not in leaking
        elif rule == "clean":
            ok = report.ok
        elif rule == "clean_from":
            ok = all(finding.pc < subject for finding in report.findings)
        else:
            ok = True           # generic fuzz: recorded in the digest
        verdict = sorted([finding.pc, finding.plugin, finding.mld,
                          list(finding.taps)]
                         for finding in report.findings)
        return OpRecord(ok=ok, work=len(item[2].program),
                        verdict=verdict,
                        note=f"{item[2].name}: {rule} {subject}")


WORKLOADS = {cls.name: cls
             for cls in (AttackFig6, ContractSweep, UrgFig7, LintAudit)}
