"""Sandbox runtime: array layout, map updates, verified execution.

Models the kernel side of the eBPF scenario (Section V-B):

* sandbox arrays live in *kernel* memory, laid out contiguously from
  ``sandbox_base`` — the attacker knows this layout;
* the attacker populates arrays from user space via ``map_update``
  (the moral equivalent of ``bpf(BPF_MAP_UPDATE_ELEM, ...)``);
* kernel secrets live elsewhere in the same physical memory — outside
  the sandbox, unreachable by any verified program, but squarely inside
  the 3-level IMP's universal-read-gadget reach (Section IV-D4);
* ``run`` verifies, JITs and executes the program on the out-of-order
  core with whatever optimization plug-ins are attached (the IMP, for
  the attack).
"""

from repro.engine import Session
from repro.sandbox.jit import Jit
from repro.sandbox.verifier import Verifier


class SandboxError(Exception):
    """Raised for layout problems (overlap, unknown arrays)."""


def _align(value, alignment):
    return (value + alignment - 1) & ~(alignment - 1)


class SandboxRuntime:
    """Owns the memory layout and the verify → JIT → run pipeline."""

    def __init__(self, hierarchy, sandbox_base=0x1_0000,
                 array_alignment=64, verifier=None):
        self.hierarchy = hierarchy
        self.memory = hierarchy.memory
        self.sandbox_base = sandbox_base
        self.array_alignment = array_alignment
        self.verifier = verifier if verifier is not None else Verifier()
        self.layout = {}
        self.sandbox_end = sandbox_base
        self.program = None
        self.machine_program = None
        self.jit = None
        self.verifier_states = None
        self.last_result = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def load_program(self, program):
        """Verify, lay out arrays, and JIT.

        Raises :class:`VerifierError` when the verifier rejects the
        program and :class:`SandboxError` when an array does not fit in
        memory.  A rejected program changes nothing: the runtime keeps
        the program, layout and machine code it had before.
        """
        states = self.verifier.verify(program)
        cursor = self.sandbox_base
        layout = {}
        for array in program.arrays.values():
            cursor = _align(cursor, self.array_alignment)
            if cursor + array.size_bytes > self.memory.size:
                raise SandboxError(
                    f"array {array.name!r} does not fit in memory")
            layout[array.name] = cursor
            cursor += array.size_bytes
        jit = Jit(program, layout)
        machine_program = jit.compile()
        self.verifier_states = states
        self.program = program
        self.layout = layout
        self.sandbox_end = cursor
        self.jit = jit
        self.machine_program = machine_program
        return machine_program

    # ------------------------------------------------------------------
    # user-space map access (attacker-controlled data)
    # ------------------------------------------------------------------

    def _element_addr(self, name, index):
        if name not in self.layout:
            raise SandboxError(f"array {name!r} not laid out")
        array = self.program.arrays[name]
        if not 0 <= index < array.length:
            raise SandboxError(
                f"map_update index {index} out of bounds for {name!r}")
        return self.layout[name] + index * array.elem_size

    def map_update(self, name, index, value):
        """Write one element from "user space" (bounds-checked)."""
        addr = self._element_addr(name, index)
        width = min(8, self.program.arrays[name].elem_size)
        self.memory.write(addr, value, width)

    def map_read(self, name, index):
        addr = self._element_addr(name, index)
        width = min(8, self.program.arrays[name].elem_size)
        return self.memory.read(addr, width)

    def array_base(self, name):
        if name not in self.layout:
            raise SandboxError(f"array {name!r} not laid out")
        return self.layout[name]

    # ------------------------------------------------------------------
    # kernel-side helpers (the victim's world)
    # ------------------------------------------------------------------

    def place_kernel_secret(self, addr, data):
        """Place victim data outside the sandbox (e.g. kernel memory)."""
        if self.sandbox_base <= addr < self.sandbox_end:
            raise SandboxError("secret placed inside the sandbox")
        self.memory.write_bytes(addr, data)

    def read_kernel(self, addr, length):
        return self.memory.read_bytes(addr, length)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, plugins=(), config=None, max_cycles=None,
            fastpath=True):
        """Execute the loaded program; returns the finished CPU.

        Goes through an engine :class:`Session` over the runtime's
        *persistent* hierarchy — sandbox state (arrays, receiver cache
        sets) must survive across runs, so the session wraps existing
        parts instead of building from a spec.  ``fastpath`` selects
        the kernel exactly as :attr:`SimSpec.fastpath` does.
        """
        if self.machine_program is None:
            raise SandboxError("no program loaded")
        session = Session.from_parts(self.machine_program,
                                     self.hierarchy, config=config,
                                     plugins=plugins, fastpath=fastpath)
        self.last_result = session.run(max_cycles=max_cycles)
        return session.cpu
