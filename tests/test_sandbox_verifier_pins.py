"""Pinned verifier outcomes and the Prime+Probe access sequence.

The verifier's explored-state count, its ``taint_flows`` and every
rejection text are observable results (the example prints the count,
``repro.lint`` consumes the flows), so a change to how the verifier
represents or hashes its states must leave them exactly as they are.
The pins below were generated by the verifier's dataclass-state
implementation.

To re-pin after an *intended* change of verifier behaviour, run

    PYTHONPATH=src python -m tests.test_sandbox_verifier_pins

from the repository root, paste its output over the four pin constants
below, and say in the change's notes why the outcomes moved.
"""

import hashlib
import random

import pytest

from repro.attacks.covert_channel import PrimeProbeReceiver
from repro.attacks.dmp_attack import build_attacker_program
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.sandbox.verifier import Verifier, VerifierError

from tests.test_sandbox_safety_fuzz import STEP_KINDS, program_from_steps

N_ITERATIONS = (1, 2, 3, 8, 16, 24, 40)
SECRET_SETS = ((), ("Y",), ("Z", "Y"))
CORPUS_SEED = 2021
CORPUS_SIZE = 300


def outcome(program, secret_arrays=(), state_budget=500_000):
    """``(explored, flows)`` on acceptance, ``(error_text, flows)`` on
    rejection."""
    verifier = Verifier(state_budget=state_budget,
                        secret_arrays=secret_arrays)
    try:
        result = verifier.verify(program)
    except VerifierError as error:
        result = str(error)
    return result, tuple(f"{pc} {kind} {detail}"
                         for pc, kind, detail in verifier.taint_flows)


def fig7a_outcomes():
    """Every pinned variant of the Figure-7a program, keyed by
    ``(n_iterations, null_checks, secret_arrays)``."""
    return {(n, checks, secret):
            outcome(build_attacker_program(n, null_checks=checks), secret)
            for n in N_ITERATIONS for checks in (True, False)
            for secret in SECRET_SETS}


def fig7a_expected(n, checks, secret):
    if not checks:
        return UNCHECKED_REJECTION, ()
    return FIG7A_EXPLORED[n], FIG7A_FLOWS[secret]


def corpus_steps(rng):
    return [(rng.choice(STEP_KINDS), rng.randint(0, 5), rng.randint(0, 5),
             rng.randint(-4, 12), rng.choice("AB"))
            for _ in range(rng.randint(1, 12))]


def corpus_outcomes():
    """The fuzz generator's programs from a fixed seed, verified with
    and without a secret array."""
    rng = random.Random(CORPUS_SEED)
    results = []
    for _ in range(CORPUS_SIZE):
        program = program_from_steps(corpus_steps(rng))
        results.append(outcome(program, state_budget=50_000))
        results.append(outcome(program, ("A",), state_budget=50_000))
    return results


def corpus_pin():
    results = corpus_outcomes()
    accepted = sum(isinstance(result, int) for result, _ in results)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()[:16]
    return {"accepted": accepted, "rejected": len(results) - accepted,
            "digest": digest}


# -- pins: generated by print_pins() ---------------------------------

FIG7A_EXPLORED = {1: 17, 2: 17, 3: 32, 8: 107, 16: 227, 24: 347, 40: 587}

FIG7A_FLOWS = {
    (): (
    ),
    ('Y',): (
        '7 load_secret Y',
        '8 tainted_index_lookup X',
        '9 tainted_branch r7',
    ),
    ('Z', 'Y'): (
        '4 load_secret Z',
        '5 tainted_index_lookup Y',
        '6 tainted_branch r5',
        '7 load_secret Y',
        '8 tainted_index_lookup X',
        '9 tainted_branch r7',
    ),
}

UNCHECKED_REJECTION = (
    'pc 3: dereference of possibly-NULL pointer r3 (missing NULL check '
    'after lookup)')

CORPUS_PIN = {'accepted': 148, 'rejected': 452, 'digest': '155467ae95b88090'}


@pytest.mark.parametrize("n", N_ITERATIONS)
def test_fig7a_verifier_outcomes_are_pinned(n):
    outcomes = fig7a_outcomes()
    for checks in (True, False):
        for secret in SECRET_SETS:
            assert outcomes[n, checks, secret] == \
                fig7a_expected(n, checks, secret), (n, checks, secret)


def test_fuzz_corpus_verifier_outcomes_are_pinned():
    assert corpus_pin() == CORPUS_PIN


# ----------------------------------------------------------------------
# Prime+Probe issues exactly the way_address sequence
# ----------------------------------------------------------------------

def spied_receiver(use_l2_cache=False):
    memory = FlatMemory(1 << 20)
    hierarchy = MemoryHierarchy(memory, l1=Cache(num_sets=16, ways=2),
                                l2=Cache(num_sets=32, ways=4))
    cache = hierarchy.l2 if use_l2_cache else None
    receiver = PrimeProbeReceiver(hierarchy, 1 << 18, cache=cache)
    reads = []
    real_read = hierarchy.read

    def spy(addr, *args, **kwargs):
        assert not args and not kwargs
        reads.append(addr)
        return real_read(addr)
    hierarchy.read = spy
    return receiver, reads


def expected_sequence(receiver, sets):
    return [receiver.way_address(set_index, way)
            for set_index in sets for way in range(receiver.cache.ways)]


@pytest.mark.parametrize("use_l2_cache", (False, True))
@pytest.mark.parametrize("target_sets", (None, [3], [0, 5, 2, 15]))
def test_prime_and_probe_read_the_way_address_sequence(use_l2_cache,
                                                      target_sets):
    receiver, reads = spied_receiver(use_l2_cache)
    sets = (range(receiver.cache.num_sets) if target_sets is None
            else target_sets)
    expected = expected_sequence(receiver, sets)
    receiver.prime(target_sets)
    assert reads == expected
    reads.clear()
    latencies = receiver.probe(target_sets)
    assert reads == expected
    assert list(latencies) == list(sets)


def print_pins():
    outcomes = fig7a_outcomes()
    explored = {n: outcomes[n, True, ()][0] for n in N_ITERATIONS}
    flows = {secret: outcomes[N_ITERATIONS[0], True, secret][1]
             for secret in SECRET_SETS}
    print(f"FIG7A_EXPLORED = {explored!r}\n")
    print("FIG7A_FLOWS = {")
    for secret, secret_flows in flows.items():
        print(f"    {secret!r}: (")
        for flow in secret_flows:
            print(f"        {flow!r},")
        print("    ),")
    print("}\n")
    print("UNCHECKED_REJECTION = (")
    print(f"    {outcomes[N_ITERATIONS[0], False, ()][0]!r})\n")
    print(f"CORPUS_PIN = {corpus_pin()!r}")


if __name__ == "__main__":
    print_pins()
