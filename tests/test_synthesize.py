"""Mechanics suite for the contract synthesizer.

Pins the pieces :mod:`repro.lint.synthesize` is assembled from — the
(op, tap) pair vocabulary shared between declared rows
(:func:`row_pairs`) and observed signatures
(:func:`tainted_tap_pairs`), control-cohort filtering, witness
minimization — and the cross-backend determinism contract: the same
seed and budget must produce bitwise-identical learned contracts and
witnesses whether the fleet executes serially or across a process
pool.
"""

import random

import pytest

from repro.engine import PluginSpec, PoolBackend, run_batch
from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.lint import (
    applicable_taps, canonical_tap, check_synthesis, lint_program,
    minimize_witness, producing_ops, row_pairs, rows_for_names,
    tainted_tap_pairs,
)
from repro.lint.progen import (
    CaseGenerator, GeneratedCase, SECRET_ADDR, TRIGGER_TEMPLATES,
)
from repro.lint.soundness import control_diverged
from repro.lint.synthesize import _reproduces, _without_instruction

SILENT = PluginSpec.of("silent-stores")


# ----------------------------------------------------------------------
# the pair vocabulary
# ----------------------------------------------------------------------

def test_canonical_tap_folds_aliases_per_op():
    assert canonical_tap(Op.STORE, "store_value") == "rs2"
    assert canonical_tap(Op.LOAD, "address") == "rs1"
    assert canonical_tap(Op.STORE, "address") == "rs1"
    assert canonical_tap(Op.LOAD, "loaded_value") == "result"
    assert canonical_tap(Op.MUL, "rs1") == "rs1"
    assert canonical_tap(Op.STORE, "old_memory_value") == \
        "old_memory_value"


def test_applicable_taps_follow_operand_structure():
    assert applicable_taps(Op.STORE) == \
        ("rs1", "rs2", "old_memory_value")
    assert applicable_taps(Op.LOAD) == ("rs1", "result")
    assert applicable_taps(Op.ADD) == ("rs1", "rs2", "result")
    assert applicable_taps(Op.LI) == ("result",)
    assert applicable_taps(Op.HALT) == ()


def test_producing_ops_are_exactly_the_result_writers():
    ops = producing_ops()
    assert ops == tuple(sorted(set(ops), key=lambda op: op.value))
    assert Op.LOAD in ops and Op.MUL in ops
    assert Op.STORE not in ops and Op.HALT not in ops


def test_row_pairs_compile_declared_contracts_canonically():
    (store_row,) = [row for row in rows_for_names(("silent-stores",))
                    if "old_memory_value" in row.taps]
    assert row_pairs(store_row) == frozenset({
        ("store", "rs2"), ("store", "old_memory_value")})
    (vp_row,) = rows_for_names(("value-prediction",))
    assert row_pairs(vp_row) == frozenset({("load", "result")})


def test_row_pairs_drop_inapplicable_taps():
    # An any-producing-op row over `result` never mentions STORE or
    # branch ops — they produce nothing for the tap to reach.
    (rfc_row,) = rows_for_names(("register-file-compression",))
    pairs = row_pairs(rfc_row)
    assert all(tap == "result" for _, tap in pairs)
    assert ("store", "result") not in pairs
    assert len(pairs) == len(producing_ops())


# ----------------------------------------------------------------------
# signatures vs the checker — the equivalence synthesis relies on
# ----------------------------------------------------------------------

@pytest.mark.parametrize("plugin", sorted(TRIGGER_TEMPLATES))
def test_signature_intersection_matches_checker_verdicts(plugin):
    """For every generated case: the checker flags a plug-in's rows
    iff the case's static signature intersects the rows' pair set."""
    rows = rows_for_names((plugin,))
    declared = frozenset().union(*(row_pairs(row) for row in rows))
    for case in CaseGenerator(seed=3).cases_for(plugin, 6):
        spec = case.spec()
        signature = tainted_tap_pairs(case.program, taint=spec.taint,
                                      reg_consts=dict(spec.regs))
        report = lint_program(case.program, contracts=rows,
                              taint=spec.taint,
                              reg_consts=dict(spec.regs))
        assert bool(report.findings) == bool(signature & declared), \
            case.name


def test_signatures_are_canonical_pairs():
    case = CaseGenerator(seed=0).cases_for("silent-stores", 1)[0]
    spec = case.spec()
    signature = tainted_tap_pairs(case.program, taint=spec.taint,
                                  reg_consts=dict(spec.regs))
    assert ("store", "rs2") in signature
    assert ("store", "store_value") not in signature  # folded to rs2


# ----------------------------------------------------------------------
# control filtering
# ----------------------------------------------------------------------

def _secret_branched_case():
    """A case whose *baseline* machine leaks: a secret-dependent branch
    changes the path length, so cycles diverge with no plug-in at all."""
    asm = Assembler()
    asm.secret(SECRET_ADDR, SECRET_ADDR + 8)
    asm.load(1, 0, SECRET_ADDR)
    asm.beq(1, 0, "skip")               # taken only in the baseline
    for _ in range(8):
        asm.addi(2, 2, 1)
    asm.label("skip")
    asm.halt()
    return GeneratedCase(name="control-divergent",
                         program=asm.assemble(),
                         mem_writes=((SECRET_ADDR, 0, 8),))


def test_control_cohort_flags_baseline_divergence():
    from repro.lint.soundness import secret_variants
    case = _secret_branched_case()
    variants = secret_variants(case.spec(label="control"))
    results = run_batch(variants)
    assert control_diverged(results)
    # ...so the case is not attributable to any plug-in:
    assert not _reproduces(case, SILENT, (0xA5, 0x5A, 0xFF), run_batch)


def test_trigger_cases_keep_a_clean_control():
    case = CaseGenerator(seed=0).cases_for("silent-stores", 1)[0]
    from repro.lint.soundness import secret_variants
    variants = secret_variants(case.spec(label="clean"))
    results = run_batch(variants)
    assert not control_diverged(results)


# ----------------------------------------------------------------------
# witness minimization
# ----------------------------------------------------------------------

def test_without_instruction_renumbers_and_shifts_targets():
    asm = Assembler()
    asm.li(1, 2)
    asm.li(9, 7)                        # deletable noise at pc 1
    asm.label("loop")
    asm.addi(1, 1, -1)
    asm.bne(1, 0, "loop")
    asm.halt()
    program = asm.assemble()
    shrunk = _without_instruction(program, 1)
    assert len(shrunk) == len(program) - 1
    assert [inst.pc for inst in shrunk] == list(range(len(shrunk)))
    (branch,) = [inst for inst in shrunk if inst.op is Op.BNE]
    assert branch.target == 1           # was 2; shifted across the gap
    # Deleting *after* the target leaves it alone.
    assert [inst.target for inst in _without_instruction(program, 4)
            if inst.op is Op.BNE] == [2]


def _padded_silent_store_case():
    template = TRIGGER_TEMPLATES["silent-stores"][0]
    case = template(random.Random(0))
    asm = Assembler()
    for start, end in case.program.secret_regions:
        asm.secret(start, end)
    asm.li(9, 5)                        # junk the minimizer should cut
    asm.add(10, 9, 9)
    asm.xor(11, 9, 10)
    for inst in case.program:
        asm._emit(inst.op, rd=inst.rd, rs1=inst.rs1, rs2=inst.rs2,
                  imm=inst.imm, width=inst.width, target=inst.target)
    program = asm.assemble()
    return GeneratedCase(
        name="padded", program=program, mem_writes=case.mem_writes,
        taint=case.taint, note=case.note), len(case.program)


def test_minimize_witness_deletes_junk_and_keeps_halt():
    case, core_len = _padded_silent_store_case()
    assert _reproduces(case, SILENT, (0xA5,), run_batch)
    witness = minimize_witness(case, SILENT, patterns=(0xA5,))
    assert len(witness.program) < len(case.program)
    assert len(witness.program) <= core_len
    assert witness.program[-1].op is Op.HALT
    assert _reproduces(witness, SILENT, (0xA5,), run_batch)
    # Directives survive minimization — the signature stays computable.
    assert witness.program.secret_regions


# ----------------------------------------------------------------------
# cross-backend determinism
# ----------------------------------------------------------------------

@pytest.mark.parametrize("plugin", [
    "silent-stores", "early-terminating-multiplier"])
def test_learned_contracts_identical_across_backends(plugin):
    serial = check_synthesis(plugin, budget=4, seed=1,
                             backend="serial")
    with PoolBackend(workers=2) as pool:
        pooled = check_synthesis(plugin, budget=4, seed=1,
                                 backend=pool)
    assert serial.to_json_dict() == pooled.to_json_dict()
    assert serial.ok and not serial.vacuous


def test_synthesis_is_deterministic_per_seed_and_budget():
    first = check_synthesis("computation-reuse", budget=5, seed=2)
    again = check_synthesis("computation-reuse", budget=5, seed=2)
    assert first.to_json_dict() == again.to_json_dict()
