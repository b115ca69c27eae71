"""Opcode definitions for the simulator's RISC-like ISA.

The ISA is deliberately small: enough to express the attack programs and
victims from the paper (pointer chases, crypto inner loops, covert-channel
receivers) while keeping the out-of-order pipeline model tractable.  It is
modeled after RV64I plus the M extension and a cycle counter.
"""

import enum


class Op(enum.Enum):
    """Every opcode understood by the assembler, interpreter and pipeline."""

    # Register-register ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLTU = "sltu"
    # Multi-cycle integer units.
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # Register-immediate ALU.
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SLTI = "slti"
    # Wide immediate load (pseudo-instruction, one slot).
    LI = "li"
    # Memory.
    LOAD = "load"
    STORE = "store"
    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    JMP = "jmp"
    # Misc.
    RDCYCLE = "rdcycle"
    FENCE = "fence"
    NOP = "nop"
    HALT = "halt"

    # Members are singletons, so identity hashing is exact; it replaces
    # ``Enum.__hash__`` (a Python-level call hashing the member name) on
    # every set-membership test and dict lookup keyed by an opcode.
    __hash__ = object.__hash__


#: Register-register ALU ops (single cycle on the baseline machine).
ALU_RR_OPS = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR,
    Op.SLL, Op.SRL, Op.SRA, Op.SLT, Op.SLTU,
})

#: Register-immediate ALU ops.
ALU_RI_OPS = frozenset({
    Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI, Op.SLTI,
})

#: Simple integer ops, the "Int simple ops" row of Table I.
SIMPLE_ALU_OPS = ALU_RR_OPS | ALU_RI_OPS | {Op.LI}

#: Multi-cycle arithmetic ops.
MUL_OPS = frozenset({Op.MUL})
DIV_OPS = frozenset({Op.DIV, Op.REM})

#: Conditional branches.
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU})

#: All control-flow ops.
CONTROL_OPS = BRANCH_OPS | {Op.JMP, Op.HALT}

MEMORY_OPS = frozenset({Op.LOAD, Op.STORE})


def is_alu(op):
    """True for single-cycle ALU ops (including immediates and LI)."""
    return op in SIMPLE_ALU_OPS


def is_mul(op):
    return op in MUL_OPS


def is_div(op):
    return op in DIV_OPS


def is_load(op):
    return op is Op.LOAD


def is_store(op):
    return op is Op.STORE


def is_branch(op):
    return op in BRANCH_OPS


def is_control(op):
    return op in CONTROL_OPS


def writes_register(op):
    """True when the instruction produces a destination-register value."""
    return (is_alu(op) or is_mul(op) or is_div(op) or is_load(op)
            or op is Op.RDCYCLE)


def reads_rs1(op):
    return op not in (Op.LI, Op.JMP, Op.RDCYCLE, Op.NOP, Op.HALT, Op.FENCE)


def reads_rs2(op):
    return op in ALU_RR_OPS or op in MUL_OPS or op in DIV_OPS \
        or op in BRANCH_OPS or op is Op.STORE
