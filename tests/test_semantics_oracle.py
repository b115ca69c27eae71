"""The table-driven semantics against the plain if-chain they replaced.

``alu_result`` and ``branch_taken`` dispatch through per-op tables.
The reference below is the straightforward ``op is Op.X`` chain, kept
verbatim; every arithmetic and branch op must agree with it on
arbitrary 64-bit operands, negative immediates, division by zero and
``INT_MIN / -1``, and non-arithmetic ops must raise the same
:class:`SemanticsError` text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.bits import WORD_MASK, mask, to_signed
from repro.isa.opcodes import BRANCH_OPS, Op
from repro.isa.semantics import SemanticsError, alu_result, branch_taken


def reference_alu_result(op, a, b, imm):
    if op is Op.ADD:
        return mask(a + b)
    if op is Op.SUB:
        return mask(a - b)
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    if op is Op.SLL:
        return mask(a << (b & 63))
    if op is Op.SRL:
        return a >> (b & 63)
    if op is Op.SRA:
        return mask(to_signed(a) >> (b & 63))
    if op is Op.SLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op is Op.SLTU:
        return 1 if a < b else 0
    if op is Op.MUL:
        return mask(a * b)
    if op is Op.DIV:
        if b == 0:
            return mask(-1)
        q = abs(to_signed(a)) // abs(to_signed(b))
        if (to_signed(a) < 0) != (to_signed(b) < 0):
            q = -q
        return mask(q)
    if op is Op.REM:
        if b == 0:
            return a
        r = abs(to_signed(a)) % abs(to_signed(b))
        if to_signed(a) < 0:
            r = -r
        return mask(r)
    if op is Op.ADDI:
        return mask(a + imm)
    if op is Op.ANDI:
        return a & mask(imm)
    if op is Op.ORI:
        return a | mask(imm)
    if op is Op.XORI:
        return a ^ mask(imm)
    if op is Op.SLLI:
        return mask(a << (imm & 63))
    if op is Op.SRLI:
        return a >> (imm & 63)
    if op is Op.SLTI:
        return 1 if to_signed(a) < imm else 0
    if op is Op.LI:
        return mask(imm)
    raise SemanticsError(f"{op} is not an arithmetic op")


def reference_branch_taken(op, a, b):
    if op is Op.BEQ:
        return a == b
    if op is Op.BNE:
        return a != b
    if op is Op.BLT:
        return to_signed(a) < to_signed(b)
    if op is Op.BGE:
        return to_signed(a) >= to_signed(b)
    if op is Op.BLTU:
        return a < b
    if op is Op.BGEU:
        return a >= b
    raise SemanticsError(f"{op} is not a conditional branch")


BY_VALUE = {"key": lambda op: op.value}
ARITH_OPS = sorted(
    (op for op in Op
     if op not in (Op.LOAD, Op.STORE, Op.JMP, Op.RDCYCLE, Op.FENCE,
                   Op.NOP, Op.HALT) and op not in BRANCH_OPS), **BY_VALUE)
OTHER_OPS = sorted((op for op in Op
                    if op not in ARITH_OPS and op not in BRANCH_OPS),
                   **BY_VALUE)
INT_MIN = 1 << 63
MINUS_ONE = WORD_MASK

#: 64-bit operands: unsigned draws (biased small), signed draws
#: re-encoded (so half are "negative"), and the corners.
words = st.one_of(
    st.integers(min_value=0, max_value=WORD_MASK),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1).map(
        lambda value: value & WORD_MASK),
    st.sampled_from([0, 1, 2, 63, 64, MINUS_ONE, INT_MIN, INT_MIN - 1,
                     INT_MIN + 1]))
immediates = st.one_of(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.integers(min_value=-4096, max_value=4095))

ORACLE = settings(max_examples=50, deadline=None, derandomize=True)


def test_op_partition_is_complete():
    assert len(ARITH_OPS) == 21
    assert set(ARITH_OPS) | set(OTHER_OPS) | set(BRANCH_OPS) == set(Op)


@pytest.mark.parametrize("op", ARITH_OPS, ids=lambda op: op.value)
@ORACLE
@given(a=words, b=words, imm=immediates)
def test_alu_result_matches_reference(op, a, b, imm):
    assert alu_result(op, a, b, imm) == reference_alu_result(op, a, b, imm)


@pytest.mark.parametrize("a, b", [(INT_MIN, MINUS_ONE), (5, 0),
                                  (MINUS_ONE, 0), (INT_MIN, 0),
                                  (MINUS_ONE - 6, 2), (7, MINUS_ONE - 1)])
@pytest.mark.parametrize("op", [Op.DIV, Op.REM], ids=["div", "rem"])
def test_division_corners_match_reference(op, a, b):
    assert alu_result(op, a, b, 0) == reference_alu_result(op, a, b, 0)


@pytest.mark.parametrize("op", [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI,
                                Op.SLTI, Op.LI], ids=lambda op: op.value)
@pytest.mark.parametrize("imm", [-1, -7, -(1 << 63)])
def test_negative_immediates_match_reference(op, imm):
    for a in (0, 3, MINUS_ONE, INT_MIN):
        assert (alu_result(op, a, 0, imm)
                == reference_alu_result(op, a, 0, imm))


@pytest.mark.parametrize("op", sorted(BRANCH_OPS, **BY_VALUE),
                         ids=lambda op: op.value)
@ORACLE
@given(a=words, b=words)
def test_branch_taken_matches_reference(op, a, b):
    taken = branch_taken(op, a, b)
    assert taken == reference_branch_taken(op, a, b)
    assert type(taken) is bool


@pytest.mark.parametrize("op", OTHER_OPS + sorted(BRANCH_OPS, **BY_VALUE),
                         ids=lambda op: op.value)
def test_non_arithmetic_ops_raise_the_same_text(op):
    with pytest.raises(SemanticsError) as expected:
        reference_alu_result(op, 1, 2, 3)
    with pytest.raises(SemanticsError) as actual:
        alu_result(op, 1, 2, 3)
    assert str(actual.value) == str(expected.value)


@pytest.mark.parametrize("op", OTHER_OPS + ARITH_OPS,
                         ids=lambda op: op.value)
def test_non_branch_ops_raise_the_same_text(op):
    with pytest.raises(SemanticsError) as expected:
        reference_branch_taken(op, 1, 2)
    with pytest.raises(SemanticsError) as actual:
        branch_taken(op, 1, 2)
    assert str(actual.value) == str(expected.value)
