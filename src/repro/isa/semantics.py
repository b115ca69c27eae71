"""Pure functional semantics shared by the interpreter and the pipeline.

Keeping arithmetic and branch evaluation in one place guarantees that the
out-of-order core and the golden-model interpreter can never diverge on
*what* a program computes — they may only differ on *when*.
"""

import operator

from repro.isa.bits import WORD_MASK, mask, to_signed
from repro.isa.opcodes import Op


class SemanticsError(Exception):
    """Raised for undefined operations (unknown opcode for a helper)."""


def _div(a, b, imm):
    if b == 0:
        return WORD_MASK
    q = abs(to_signed(a)) // abs(to_signed(b))
    if (to_signed(a) < 0) != (to_signed(b) < 0):
        q = -q
    return q & WORD_MASK


def _rem(a, b, imm):
    if b == 0:
        return a
    r = abs(to_signed(a)) % abs(to_signed(b))
    if to_signed(a) < 0:
        r = -r
    return r & WORD_MASK


#: Per-op ``(a, b, imm) -> result`` for every arithmetic opcode.
_ALU = {
    Op.ADD: lambda a, b, imm: (a + b) & WORD_MASK,
    Op.SUB: lambda a, b, imm: (a - b) & WORD_MASK,
    Op.AND: lambda a, b, imm: a & b,
    Op.OR: lambda a, b, imm: a | b,
    Op.XOR: lambda a, b, imm: a ^ b,
    Op.SLL: lambda a, b, imm: (a << (b & 63)) & WORD_MASK,
    Op.SRL: lambda a, b, imm: a >> (b & 63),
    Op.SRA: lambda a, b, imm: (to_signed(a) >> (b & 63)) & WORD_MASK,
    Op.SLT: lambda a, b, imm: 1 if to_signed(a) < to_signed(b) else 0,
    Op.SLTU: lambda a, b, imm: 1 if a < b else 0,
    Op.MUL: lambda a, b, imm: (a * b) & WORD_MASK,
    Op.DIV: _div,
    Op.REM: _rem,
    Op.ADDI: lambda a, b, imm: (a + imm) & WORD_MASK,
    Op.ANDI: lambda a, b, imm: a & (imm & WORD_MASK),
    Op.ORI: lambda a, b, imm: a | (imm & WORD_MASK),
    Op.XORI: lambda a, b, imm: a ^ (imm & WORD_MASK),
    Op.SLLI: lambda a, b, imm: (a << (imm & 63)) & WORD_MASK,
    Op.SRLI: lambda a, b, imm: a >> (imm & 63),
    Op.SLTI: lambda a, b, imm: 1 if to_signed(a) < imm else 0,
    Op.LI: lambda a, b, imm: imm & WORD_MASK,
}

#: Per-op ``(a, b) -> taken`` for every conditional branch.
_BRANCH = {
    Op.BEQ: operator.eq,
    Op.BNE: operator.ne,
    Op.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Op.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Op.BLTU: operator.lt,
    Op.BGEU: operator.ge,
}


def alu_result(op, a, b, imm):
    """Compute the result of an arithmetic instruction.

    ``a`` and ``b`` are the unsigned 64-bit source-register values; ``imm``
    is the (possibly negative) immediate.  Returns the unsigned 64-bit
    result.  Division follows RISC-V M semantics: division by zero yields
    all-ones (DIV) / the dividend (REM) rather than trapping.
    """
    try:
        fn = _ALU[op]
    except KeyError:
        raise SemanticsError(f"{op} is not an arithmetic op") from None
    return fn(a, b, imm)


def branch_taken(op, a, b):
    """Evaluate a conditional branch on unsigned source values."""
    try:
        fn = _BRANCH[op]
    except KeyError:
        raise SemanticsError(f"{op} is not a conditional branch") from None
    return fn(a, b)


def effective_address(base, imm):
    """Address of a load/store given its base-register value."""
    return mask(base + imm)
