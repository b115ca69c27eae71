"""A small eBPF-like sandbox bytecode (Section V-B of the paper).

The attacker in the sandbox setting runs code of this form inside the
victim's address space.  Mirroring Linux eBPF as used by the paper:

* programs manipulate ten registers ``r0..r9``;
* arrays are declared up front (``BPF_ARRAY``) and accessed through
  ``lookup`` which returns a *pointer or NULL* — an out-of-bounds lookup
  returns NULL, so the mandatory NULL checks "are bounds checks in
  disguise" (Section V-B1);
* a static verifier rejects programs that dereference possibly-NULL
  pointers or don't terminate (``repro.sandbox.verifier``);
* accepted programs are JIT-compiled to the simulator ISA
  (``repro.sandbox.jit``), with lookups becoming inline bounds checks
  exactly as in the paper's Figure 7b.
"""

import enum
from dataclasses import dataclass

NUM_BPF_REGS = 10


class BpfOp(enum.Enum):
    MOV_IMM = "mov_imm"
    MOV_REG = "mov_reg"
    ADD_IMM = "add_imm"
    ADD_REG = "add_reg"
    SUB_IMM = "sub_imm"
    AND_IMM = "and_imm"
    XOR_REG = "xor_reg"
    LSH_IMM = "lsh_imm"
    RSH_IMM = "rsh_imm"
    LOOKUP = "lookup"
    LOAD = "load"
    STORE = "store"
    JEQ_IMM = "jeq_imm"
    JNE_IMM = "jne_imm"
    JLT_IMM = "jlt_imm"
    JGE_IMM = "jge_imm"
    JMP = "jmp"
    EXIT = "exit"

    # Members are singletons, so identity hashing is exact; it replaces
    # ``Enum.__hash__`` (a Python-level call hashing the member name) on
    # every ``op in ALU_IMM_OPS``-style test the verifier makes.
    __hash__ = object.__hash__


ALU_IMM_OPS = frozenset({BpfOp.MOV_IMM, BpfOp.ADD_IMM, BpfOp.SUB_IMM,
                         BpfOp.AND_IMM, BpfOp.LSH_IMM, BpfOp.RSH_IMM})
ALU_REG_OPS = frozenset({BpfOp.MOV_REG, BpfOp.ADD_REG, BpfOp.XOR_REG})
BRANCH_OPS = frozenset({BpfOp.JEQ_IMM, BpfOp.JNE_IMM, BpfOp.JLT_IMM,
                        BpfOp.JGE_IMM})


@dataclass
class BpfInst:
    op: BpfOp
    rd: int = 0
    rs: int = 0
    imm: int = 0
    array: str = ""
    off: int = 0
    width: int = 8
    target: object = None

    def __str__(self):
        fields = [self.op.value, f"r{self.rd}"]
        if self.array:
            fields.append(self.array)
        if self.op in ALU_REG_OPS or self.op is BpfOp.LOOKUP:
            fields.append(f"r{self.rs}")
        if self.op in ALU_IMM_OPS or self.op in BRANCH_OPS:
            fields.append(str(self.imm))
        if self.target is not None:
            fields.append(f"-> {self.target}")
        return " ".join(fields)


@dataclass(frozen=True)
class BpfArray:
    """A BPF_ARRAY declaration: named, fixed element size and length.

    ``elem_size`` must be a power of two (the JIT scales indices with a
    shift, as in Figure 7b's ``shl``).  Note the attacker may declare
    arrays of *large* elements — e.g. 64-byte structs — which is what
    gives the final prefetch cache-line resolution in the URG attack.
    """

    name: str
    elem_size: int
    length: int

    def __post_init__(self):
        if self.elem_size & (self.elem_size - 1):
            raise ValueError("elem_size must be a power of two")

    @property
    def size_bytes(self):
        return self.elem_size * self.length

    @property
    def shift(self):
        return self.elem_size.bit_length() - 1


class BpfProgramError(Exception):
    """Malformed program (bad register, unresolved label, ...)."""


class BpfProgram:
    """Builder + container for a sandbox program."""

    def __init__(self, arrays=()):
        self.arrays = {array.name: array for array in arrays}
        self.instructions = []
        self.labels = {}

    def declare(self, array):
        if array.name in self.arrays:
            raise BpfProgramError(f"duplicate array {array.name!r}")
        self.arrays[array.name] = array
        return array

    def _reg(self, reg):
        if not 0 <= reg < NUM_BPF_REGS:
            raise BpfProgramError(f"bad register r{reg}")
        return reg

    def _emit(self, **kwargs):
        self.instructions.append(BpfInst(**kwargs))
        return self

    def label(self, name):
        if name in self.labels:
            raise BpfProgramError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)
        return self

    def mov_imm(self, rd, imm):
        return self._emit(op=BpfOp.MOV_IMM, rd=self._reg(rd), imm=imm)

    def mov_reg(self, rd, rs):
        return self._emit(op=BpfOp.MOV_REG, rd=self._reg(rd),
                          rs=self._reg(rs))

    def add_imm(self, rd, imm):
        return self._emit(op=BpfOp.ADD_IMM, rd=self._reg(rd), imm=imm)

    def add_reg(self, rd, rs):
        return self._emit(op=BpfOp.ADD_REG, rd=self._reg(rd),
                          rs=self._reg(rs))

    def sub_imm(self, rd, imm):
        return self._emit(op=BpfOp.SUB_IMM, rd=self._reg(rd), imm=imm)

    def and_imm(self, rd, imm):
        return self._emit(op=BpfOp.AND_IMM, rd=self._reg(rd), imm=imm)

    def xor_reg(self, rd, rs):
        return self._emit(op=BpfOp.XOR_REG, rd=self._reg(rd),
                          rs=self._reg(rs))

    def lsh_imm(self, rd, imm):
        return self._emit(op=BpfOp.LSH_IMM, rd=self._reg(rd), imm=imm)

    def rsh_imm(self, rd, imm):
        return self._emit(op=BpfOp.RSH_IMM, rd=self._reg(rd), imm=imm)

    def lookup(self, rd, array, index_reg):
        """``rd = array.lookup(&index)`` — pointer or NULL."""
        if array not in self.arrays:
            raise BpfProgramError(f"unknown array {array!r}")
        return self._emit(op=BpfOp.LOOKUP, rd=self._reg(rd), array=array,
                          rs=self._reg(index_reg))

    def load(self, rd, ptr_reg, off=0, width=None):
        """``rd = *(ptr + off)`` — verifier requires a NULL-checked ptr."""
        return self._emit(op=BpfOp.LOAD, rd=self._reg(rd),
                          rs=self._reg(ptr_reg), off=off,
                          width=8 if width is None else width)

    def store(self, ptr_reg, src_reg, off=0, width=None):
        """``*(ptr + off) = src`` — same NULL-check discipline as load."""
        return self._emit(op=BpfOp.STORE, rd=self._reg(ptr_reg),
                          rs=self._reg(src_reg), off=off,
                          width=8 if width is None else width)

    def jeq_imm(self, rd, imm, target):
        return self._emit(op=BpfOp.JEQ_IMM, rd=self._reg(rd), imm=imm,
                          target=target)

    def jne_imm(self, rd, imm, target):
        return self._emit(op=BpfOp.JNE_IMM, rd=self._reg(rd), imm=imm,
                          target=target)

    def jlt_imm(self, rd, imm, target):
        return self._emit(op=BpfOp.JLT_IMM, rd=self._reg(rd), imm=imm,
                          target=target)

    def jge_imm(self, rd, imm, target):
        return self._emit(op=BpfOp.JGE_IMM, rd=self._reg(rd), imm=imm,
                          target=target)

    def jmp(self, target):
        return self._emit(op=BpfOp.JMP, target=target)

    def exit(self):
        return self._emit(op=BpfOp.EXIT)

    def finalize(self):
        """Resolve labels in place; returns self."""
        for inst in self.instructions:
            if isinstance(inst.target, str):
                if inst.target not in self.labels:
                    raise BpfProgramError(
                        f"unresolved label {inst.target!r}")
                inst.target = self.labels[inst.target]
            if inst.target is not None and not (
                    0 <= inst.target <= len(self.instructions)):
                raise BpfProgramError(f"target {inst.target} out of range")
        return self

    def listing(self):
        lines = []
        pc_to_labels = {}
        for name, pc in self.labels.items():
            pc_to_labels.setdefault(pc, []).append(name)
        for pc, inst in enumerate(self.instructions):
            for name in pc_to_labels.get(pc, ()):
                lines.append(f"{name}:")
            lines.append(f"  {pc:3d}  {inst}")
        return "\n".join(lines)
