"""The static instruction representation shared by all simulator layers."""

from dataclasses import dataclass, field

from repro.isa.opcodes import Op, is_branch

#: Process-wide intern table for operand tuples.  Programs are tiny
#: (static instructions, not dynamic ones), so this is bounded by the
#: number of distinct static instructions ever assembled.
_KEY_INTERN = {}


@dataclass(slots=True)
class Instruction:
    """One static instruction.

    Fields unused by a given opcode are left at their defaults.  ``target``
    holds a label name before assembly and the resolved instruction index
    afterwards.  ``pc`` is the instruction's index within its program;
    the machine is word-indexed at the instruction level (one pc per
    instruction) which keeps control flow simple without losing anything
    the paper's experiments need.

    ``key`` is the interned operand tuple (op, rd, rs1, rs2, imm, width,
    target) assigned when the instruction enters a
    :class:`~repro.isa.assembler.Program`.  Two instructions with equal
    semantics share one tuple object, so per-instruction structures
    keyed on semantics (the fast-path decoded-template cache) get
    identity-speed lookups.  It excludes ``pc``/``annotation`` — neither
    affects execution — and never enters equality or the wire encoding.
    """

    op: Op
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    width: int = 8
    target: object = None
    pc: int = -1
    annotation: str = ""
    key: object = field(default=None, compare=False, repr=False)

    @property
    def is_load(self):
        return self.op is Op.LOAD

    @property
    def is_store(self):
        return self.op is Op.STORE

    @property
    def is_branch(self):
        return is_branch(self.op)

    def intern_key(self):
        """Assign (and return) the interned operand tuple for ``self``.

        Called after label resolution: ``target`` must be in its final
        form, since the tuple captures it.
        """
        key = (self.op, self.rd, self.rs1, self.rs2, self.imm,
               self.width, self.target)
        self.key = _KEY_INTERN.setdefault(key, key)
        return self.key

    def __str__(self):
        parts = [self.op.value]
        if self.rd:
            parts.append(f"x{self.rd}")
        if self.op in (Op.LOAD,):
            parts.append(f"{self.imm}(x{self.rs1})")
        elif self.op in (Op.STORE,):
            parts = [self.op.value, f"x{self.rs2}", f"{self.imm}(x{self.rs1})"]
        else:
            if self.rs1:
                parts.append(f"x{self.rs1}")
            if self.rs2:
                parts.append(f"x{self.rs2}")
            if self.imm:
                parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"-> {self.target}")
        text = " ".join(parts)
        if self.annotation:
            text += f"  # {self.annotation}"
        return text
