"""Sandbox runtime: layout, map updates, execution."""

import pytest

from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.sandbox.ebpf import BpfArray, BpfProgram
from repro.sandbox.runtime import SandboxError, SandboxRuntime
from repro.sandbox.verifier import VerifierError


def make_runtime():
    memory = FlatMemory(1 << 18)
    hierarchy = MemoryHierarchy(memory, l1=Cache())
    return SandboxRuntime(hierarchy, sandbox_base=0x1_0000)


def simple_program():
    program = BpfProgram(arrays=(BpfArray("Z", 8, 4),
                                 BpfArray("Y", 1, 16)))
    program.mov_imm(1, 1)
    program.lookup(2, "Z", 1)
    program.jeq_imm(2, 0, "out")
    program.load(3, 2, 0)
    program.label("out")
    program.exit()
    return program


def test_arrays_laid_out_contiguously_and_aligned():
    runtime = make_runtime()
    runtime.load_program(simple_program())
    base_z = runtime.array_base("Z")
    base_y = runtime.array_base("Y")
    assert base_z == 0x1_0000
    assert base_y == base_z + 64            # 32 bytes rounded to 64
    assert base_z % 64 == 0 and base_y % 64 == 0
    assert runtime.sandbox_end >= base_y + 16


def test_rejected_program_is_not_laid_out():
    runtime = make_runtime()
    bad = BpfProgram(arrays=(BpfArray("Z", 8, 4),))
    bad.mov_imm(1, 0)
    bad.lookup(2, "Z", 1)
    bad.load(3, 2, 0)          # unchecked
    bad.exit()
    with pytest.raises(VerifierError):
        runtime.load_program(bad)
    assert runtime.machine_program is None


def test_layout_rejection_keeps_the_loaded_program():
    runtime = make_runtime()
    loaded = runtime.load_program(simple_program())
    before = (runtime.program, dict(runtime.layout), runtime.sandbox_end,
              runtime.jit, runtime.verifier_states)
    oversized = BpfProgram(arrays=(BpfArray("Z", 8, 4),
                                   BpfArray("W", 64, 1 << 12)))
    oversized.exit()
    with pytest.raises(SandboxError, match="does not fit"):
        runtime.load_program(oversized)
    assert runtime.machine_program is loaded
    assert (runtime.program, runtime.layout, runtime.sandbox_end,
            runtime.jit, runtime.verifier_states) == before
    runtime.map_update("Y", 3, 7)
    runtime.map_update("Z", 1, 42)
    cpu = runtime.run()
    from repro.sandbox.jit import machine_reg
    assert cpu.arch_reg(machine_reg(3)) == 42


def test_map_update_and_read_are_bounds_checked():
    runtime = make_runtime()
    runtime.load_program(simple_program())
    runtime.map_update("Z", 2, 123)
    assert runtime.map_read("Z", 2) == 123
    with pytest.raises(SandboxError):
        runtime.map_update("Z", 4, 1)
    with pytest.raises(SandboxError):
        runtime.map_update("nope", 0, 1)


def test_map_update_respects_element_width():
    runtime = make_runtime()
    runtime.load_program(simple_program())
    runtime.map_update("Y", 0, 0x1FF)       # 1-byte elements
    assert runtime.map_read("Y", 0) == 0xFF
    assert runtime.map_read("Y", 1) == 0    # neighbour untouched


def test_kernel_secret_placement_guard():
    runtime = make_runtime()
    runtime.load_program(simple_program())
    with pytest.raises(SandboxError, match="inside the sandbox"):
        runtime.place_kernel_secret(runtime.array_base("Z"), b"x")
    runtime.place_kernel_secret(0x2_0000, b"secret")
    assert runtime.read_kernel(0x2_0000, 6) == b"secret"


def test_run_executes_the_jitted_program():
    runtime = make_runtime()
    runtime.load_program(simple_program())
    runtime.map_update("Z", 1, 42)
    cpu = runtime.run()
    from repro.sandbox.jit import machine_reg
    assert cpu.arch_reg(machine_reg(3)) == 42


def test_run_without_load_rejected():
    runtime = make_runtime()
    with pytest.raises(SandboxError, match="no program loaded"):
        runtime.run()


def test_verifier_states_recorded():
    runtime = make_runtime()
    runtime.load_program(simple_program())
    assert runtime.verifier_states > 0
