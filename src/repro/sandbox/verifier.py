"""Static verifier for sandbox programs (Section V-B1).

The verifier performs exhaustive symbolic path exploration — like the
Linux eBPF verifier it models — tracking an abstract type per register:

* ``scalar`` (with a known constant when derivable),
* ``ptr(array)`` — a *non-NULL* pointer into a declared array element,
* ``maybe_null(array)`` — the result of ``lookup``; dereferencing it is
  rejected until a branch proves it non-zero.

This is what makes the paper's observation concrete: the attacker's
program with its ``if (!v) return 0`` incantations *passes* ("these are
bounds checks in disguise because an out-of-bounds lookup returns
NULL"), the software never reads out of bounds — and the hardware
prefetcher breaks the sandbox anyway.

Loops are handled by unrolling during exploration (constant-bounded
loops terminate the walk; anything that exceeds the state budget is
rejected as too complex, as real eBPF does).
"""

from typing import NamedTuple

from repro.sandbox.ebpf import (
    ALU_IMM_OPS, ALU_REG_OPS, BpfOp, BRANCH_OPS, NUM_BPF_REGS,
)


class VerifierError(Exception):
    """Program rejected; the message states the offending pc and rule."""


class RegState(NamedTuple):
    """Abstract value of one register.

    A named tuple, so the ``(pc, regs)`` keys of the explored-state set
    hash and compare in C rather than through a Python ``__hash__``
    call per register.
    """

    kind: str                 # "scalar" | "ptr" | "maybe_null"
    array: str = ""
    const: object = None      # known constant for scalars, else None
    tainted: bool = False     # derived from a secret-declared array

    @staticmethod
    def scalar(const=None, tainted=False):
        return RegState("scalar", const=const, tainted=tainted)

    @staticmethod
    def pointer(array, tainted=False):
        return RegState("ptr", array=array, tainted=tainted)

    @staticmethod
    def maybe_null(array, tainted=False):
        return RegState("maybe_null", array=array, tainted=tainted)


INITIAL_REGS = tuple(RegState.scalar(0) for _ in range(NUM_BPF_REGS))


class Verifier:
    """Path-exploring verifier with a state budget.

    ``secret_arrays`` names declared arrays whose contents are secret:
    the verifier then runs a taint pass alongside safety checking and
    records :attr:`taint_flows` — ``(pc, kind, detail)`` events for
    every point where secret-derived data reaches an operation whose
    microarchitectural behaviour depends on its value (``load_secret``,
    ``tainted_alu``, ``tainted_branch``, ``tainted_store``,
    ``tainted_index_lookup``).  Taint never *rejects* a program — the
    paper's point is exactly that the safety rules pass leaky programs;
    the events are what ``repro.lint`` consumes to audit them.
    """

    def __init__(self, state_budget=500_000, secret_arrays=()):
        self.state_budget = state_budget
        self.secret_arrays = frozenset(secret_arrays)
        self.taint_flows = []
        self._flow_keys = set()

    def _flow(self, pc, kind, detail):
        key = (pc, kind, detail)
        if key not in self._flow_keys:
            self._flow_keys.add(key)
            self.taint_flows.append(key)

    def verify(self, program):
        """Raises :class:`VerifierError` if the program is unsafe.

        Returns the number of abstract states explored on success.
        """
        program.finalize()
        self.taint_flows = []
        self._flow_keys = set()
        insts = program.instructions
        if not insts:
            raise VerifierError("empty program")
        worklist = [(0, INITIAL_REGS, False)]
        explored = 0
        seen = set()
        while worklist:
            pc, regs, via_back_edge = worklist.pop()
            state = (pc, regs)
            if state in seen:
                if via_back_edge:
                    # A back-edge reached an abstract state we have
                    # already been in: the verifier cannot prove the
                    # loop terminates.  Real eBPF rejects this.
                    raise VerifierError(
                        f"pc {pc}: cannot prove loop termination")
                continue
            seen.add(state)
            explored += 1
            if explored > self.state_budget:
                raise VerifierError(
                    f"program too complex (> {self.state_budget} states)")
            if pc >= len(insts):
                raise VerifierError(
                    f"pc {pc}: control flow falls off the program")
            inst = insts[pc]
            for succ_pc, succ_regs in self._step(pc, inst, regs, program):
                worklist.append((succ_pc, succ_regs, succ_pc <= pc))
        self.taint_flows.sort()
        return explored

    def _step(self, pc, inst, regs, program):
        """Abstractly execute ``inst``; yields successor (pc, regs)."""
        op = inst.op
        regs = list(regs)
        if op is BpfOp.EXIT:
            return
        if op in ALU_IMM_OPS:
            self._check_scalar(pc, regs[inst.rd], f"r{inst.rd}",
                               allow_fresh=op is BpfOp.MOV_IMM)
            if regs[inst.rd].tainted and op is not BpfOp.MOV_IMM:
                self._flow(pc, "tainted_alu", f"r{inst.rd}")
            regs[inst.rd] = self._alu_imm(op, regs[inst.rd], inst.imm)
            yield (pc + 1, tuple(regs))
            return
        if op in ALU_REG_OPS:
            if op is not BpfOp.MOV_REG:
                self._check_scalar(pc, regs[inst.rd], f"r{inst.rd}")
                self._check_scalar(pc, regs[inst.rs], f"r{inst.rs}")
                for reg_idx in (inst.rd, inst.rs):
                    if regs[reg_idx].tainted:
                        self._flow(pc, "tainted_alu", f"r{reg_idx}")
                regs[inst.rd] = self._alu_reg(op, regs[inst.rd],
                                              regs[inst.rs])
            else:
                regs[inst.rd] = regs[inst.rs]
            yield (pc + 1, tuple(regs))
            return
        if op is BpfOp.LOOKUP:
            self._check_scalar(pc, regs[inst.rs], f"r{inst.rs} (index)")
            if regs[inst.rs].tainted:
                # A secret-dependent lookup index: the access pattern
                # into the array is itself the leak (the DMP gadget).
                self._flow(pc, "tainted_index_lookup", inst.array)
            regs[inst.rd] = RegState.maybe_null(
                inst.array, tainted=regs[inst.rs].tainted)
            yield (pc + 1, tuple(regs))
            return
        if op in (BpfOp.LOAD, BpfOp.STORE):
            ptr_reg = inst.rs if op is BpfOp.LOAD else inst.rd
            ptr = regs[ptr_reg]
            self._check_dereference(pc, ptr, ptr_reg, inst, program)
            if op is BpfOp.LOAD:
                secret_src = ptr.array in self.secret_arrays
                if secret_src:
                    self._flow(pc, "load_secret", ptr.array)
                regs[inst.rd] = RegState.scalar(
                    tainted=secret_src or ptr.tainted)
            else:
                value = regs[inst.rs]
                if value.kind != "scalar":
                    raise VerifierError(
                        f"pc {pc}: storing a pointer r{inst.rs} to "
                        "memory is not allowed (pointer leak)")
                if value.tainted or ptr.tainted:
                    # Secret store value (silent-store channel) or a
                    # secret-selected store target.
                    self._flow(pc, "tainted_store", ptr.array)
            yield (pc + 1, tuple(regs))
            return
        if op is BpfOp.JMP:
            yield (inst.target, tuple(regs))
            return
        if op in BRANCH_OPS:
            yield from self._branch(pc, inst, regs)
            return
        raise VerifierError(f"pc {pc}: unknown opcode {op}")

    def _branch(self, pc, inst, regs):
        reg = regs[inst.rd]
        op = inst.op
        if reg.tainted:
            # Secret-dependent control flow: every later observable
            # (timing, which MLDs fire at all) inherits the secret.
            self._flow(pc, "tainted_branch", f"r{inst.rd}")
        # NULL-check refinement: comparing a maybe_null pointer with 0.
        if reg.kind == "maybe_null" and inst.imm == 0 and op in (
                BpfOp.JEQ_IMM, BpfOp.JNE_IMM):
            null_regs = list(regs)
            null_regs[inst.rd] = RegState.scalar(0)
            ptr_regs = list(regs)
            ptr_regs[inst.rd] = RegState.pointer(reg.array,
                                                 tainted=reg.tainted)
            if op is BpfOp.JEQ_IMM:
                yield (inst.target, tuple(null_regs))   # taken: NULL
                yield (pc + 1, tuple(ptr_regs))          # fall: non-NULL
            else:
                yield (inst.target, tuple(ptr_regs))     # taken: non-NULL
                yield (pc + 1, tuple(null_regs))
            return
        if reg.kind != "scalar":
            raise VerifierError(
                f"pc {pc}: branch on pointer r{inst.rd} without a "
                "NULL comparison")
        if reg.const is not None:
            taken = self._evaluate(op, reg.const, inst.imm)
            yield ((inst.target, tuple(regs)) if taken
                   else (pc + 1, tuple(regs)))
            return
        yield (inst.target, tuple(regs))
        yield (pc + 1, tuple(regs))

    @staticmethod
    def _evaluate(op, value, imm):
        value &= (1 << 64) - 1
        imm &= (1 << 64) - 1
        if op is BpfOp.JEQ_IMM:
            return value == imm
        if op is BpfOp.JNE_IMM:
            return value != imm
        if op is BpfOp.JLT_IMM:
            return value < imm
        if op is BpfOp.JGE_IMM:
            return value >= imm
        raise VerifierError(f"unknown branch {op}")

    @staticmethod
    def _check_dereference(pc, ptr, ptr_reg, inst, program):
        if ptr.kind == "maybe_null":
            raise VerifierError(
                f"pc {pc}: dereference of possibly-NULL pointer "
                f"r{ptr_reg} (missing NULL check after lookup)")
        if ptr.kind != "ptr":
            raise VerifierError(
                f"pc {pc}: dereference of non-pointer r{ptr_reg}")
        array = program.arrays[ptr.array]
        if inst.off < 0 or inst.off + inst.width > array.elem_size:
            raise VerifierError(
                f"pc {pc}: access [{inst.off}, "
                f"{inst.off + inst.width}) outside element of "
                f"{ptr.array!r} (elem_size {array.elem_size})")

    @staticmethod
    def _check_scalar(pc, reg, what, allow_fresh=False):
        if reg.kind != "scalar" and not allow_fresh:
            raise VerifierError(
                f"pc {pc}: arithmetic on pointer {what} is not allowed")

    @staticmethod
    def _alu_imm(op, reg, imm):
        tainted = reg.tainted and op is not BpfOp.MOV_IMM
        if reg.const is None and op is not BpfOp.MOV_IMM:
            return RegState.scalar(tainted=tainted)
        mask64 = (1 << 64) - 1
        value = 0 if reg.const is None else reg.const
        if op is BpfOp.MOV_IMM:
            return RegState.scalar(imm & mask64)
        if op is BpfOp.ADD_IMM:
            return RegState.scalar((value + imm) & mask64, tainted)
        if op is BpfOp.SUB_IMM:
            return RegState.scalar((value - imm) & mask64, tainted)
        if op is BpfOp.AND_IMM:
            return RegState.scalar(value & imm & mask64, tainted)
        if op is BpfOp.LSH_IMM:
            return RegState.scalar((value << (imm & 63)) & mask64,
                                   tainted)
        if op is BpfOp.RSH_IMM:
            return RegState.scalar((value & mask64) >> (imm & 63),
                                   tainted)
        raise VerifierError(f"unknown ALU op {op}")

    @staticmethod
    def _alu_reg(op, reg_d, reg_s):
        tainted = reg_d.tainted or reg_s.tainted
        if reg_d.const is None or reg_s.const is None:
            return RegState.scalar(tainted=tainted)
        mask64 = (1 << 64) - 1
        if op is BpfOp.ADD_REG:
            return RegState.scalar((reg_d.const + reg_s.const) & mask64,
                                   tainted)
        if op is BpfOp.XOR_REG:
            return RegState.scalar((reg_d.const ^ reg_s.const) & mask64,
                                   tainted)
        raise VerifierError(f"unknown ALU op {op}")
