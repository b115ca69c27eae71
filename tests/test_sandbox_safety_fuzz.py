"""The verifier's safety theorem, fuzzed.

Property: for ANY program the verifier accepts, the JITed code's demand
accesses stay inside the declared arrays.  (The whole point of Section
V-B is that this software guarantee holds — and the hardware prefetcher
escapes it anyway.)  Random programs drive both directions: the
verifier must never crash (accept or raise VerifierError), and accepted
programs must be memory-safe under execution.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.interpreter import Interpreter, ArchState
from repro.memory.flatmem import FlatMemory
from repro.sandbox.ebpf import BpfArray, BpfProgram
from repro.sandbox.jit import Jit
from repro.sandbox.verifier import Verifier, VerifierError

ARRAYS = (BpfArray("A", 8, 4), BpfArray("B", 8, 8))
LAYOUT = {"A": 0x1000, "B": 0x2000}
ARRAY_RANGES = [(0x1000, 0x1000 + 32), (0x2000, 0x2000 + 64)]


class RecordingMemory(FlatMemory):
    """Flat memory that logs every read/write address range."""

    def __init__(self, size):
        super().__init__(size)
        self.reads = []
        self.writes = []

    def read(self, addr, width=8):
        self.reads.append((addr, width))
        return super().read(addr, width)

    def write(self, addr, value, width=8):
        self.writes.append((addr, width))
        super().write(addr, value, width)


#: One generator step: ``(kind, rd, rs, imm, array)``.
STEP_KINDS = ("mov_imm", "add_imm", "lookup", "checked_load",
              "unchecked_load", "jeq_skip")


def program_from_steps(steps):
    """Build the program a list of generator steps describes."""
    program = BpfProgram(arrays=ARRAYS)
    skip_counter = 0
    for kind, rd, rs, imm, array in steps:
        if kind == "mov_imm":
            program.mov_imm(rd, imm)
        elif kind == "add_imm":
            program.add_imm(rd, imm)
        elif kind == "lookup":
            program.lookup(rd, array, rs)
        elif kind == "checked_load":
            program.lookup(rd, array, rs)
            label = f"skip_{skip_counter}"
            skip_counter += 1
            program.jeq_imm(rd, 0, label)
            target = 5 if rd == 0 else rd - 1
            program.load(target, rd, 0)
            program.label(label)
        elif kind == "unchecked_load":
            program.lookup(rd, array, rs)
            target = 5 if rd == 0 else rd - 1
            program.load(target, rd, 0)
        elif kind == "jeq_skip":
            label = f"skip_{skip_counter}"
            skip_counter += 1
            program.jeq_imm(rd, imm, label)
            program.add_imm(rd, 1)
            program.label(label)
    program.exit()
    return program


@st.composite
def random_bpf_programs(draw):
    return program_from_steps(draw(st.lists(st.tuples(
        st.sampled_from(STEP_KINDS),
        st.integers(0, 5),                    # rd
        st.integers(0, 5),                    # rs
        st.integers(-4, 12),                  # imm
        st.sampled_from(("A", "B"))), min_size=1, max_size=12)))


@settings(max_examples=150, deadline=None)
@given(random_bpf_programs())
def test_verifier_total_and_accepted_programs_are_memory_safe(program):
    verifier = Verifier(state_budget=50_000)
    try:
        verifier.verify(program)
    except VerifierError:
        return  # rejection is a legitimate outcome; no crash
    # Accepted: execute the JITed code and audit every memory access.
    machine = Jit(program, LAYOUT).compile()
    memory = RecordingMemory(1 << 16)
    state = ArchState(memory=memory)
    Interpreter(machine, state).run(max_steps=50_000)
    for addr, width in memory.reads + memory.writes:
        assert any(lo <= addr and addr + width <= hi
                   for lo, hi in ARRAY_RANGES), \
            f"accepted program accessed [{addr:#x}, {addr + width:#x})"


@settings(max_examples=60, deadline=None)
@given(random_bpf_programs())
def test_jit_matches_verifier_null_semantics(program):
    """For accepted programs, every lookup result the program branches
    on is either NULL or a valid element pointer at runtime."""
    verifier = Verifier(state_budget=50_000)
    try:
        verifier.verify(program)
    except VerifierError:
        return
    machine = Jit(program, LAYOUT).compile()
    memory = RecordingMemory(1 << 16)
    state = ArchState(memory=memory)
    Interpreter(machine, state).run(max_steps=50_000)
    # Termination + no interpreter faults is the assertion here.
    assert state.halted
