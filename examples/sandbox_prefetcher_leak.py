"""Figures 1 & 7 end to end: a verified sandbox program + the 3-level
indirect-memory prefetcher = a universal read gadget.

The attacker's eBPF-style program passes the verifier (its NULL checks
are bounds checks in disguise) and never reads out of bounds itself.
The hardware prefetcher, which has no notion of bounds, dereferences
the attacker-planted target value and transmits the secret byte over a
Prime+Probe cache channel.

Run:  PYTHONPATH=src python examples/sandbox_prefetcher_leak.py

Exits 1 unless every byte of the secret leaks correctly.
"""

from repro.attacks import DMPSandboxAttack, build_attacker_program
from repro.sandbox import Verifier, VerifierError

SECRET = b"The kernel's deepest secret"


def main():
    print("=== Step 1: the sandbox does its job (in software) ===")
    try:
        Verifier().verify(build_attacker_program(16, null_checks=False))
        raise SystemExit("verifier accepted an unsafe program?!")
    except VerifierError as error:
        print(f"unchecked program rejected: {error}")
    checked = build_attacker_program(16, null_checks=True)
    states = Verifier().verify(checked)
    print(f"NULL-checked program accepted ({states} abstract states "
          "explored)\n")

    print("=== Step 2: set the trap ===")
    attack = DMPSandboxAttack()
    secret_addr = attack.config.kernel_secret_base
    attack.runtime.place_kernel_secret(secret_addr, SECRET)
    print(f"sandbox:        [{attack.runtime.sandbox_base:#x}, "
          f"{attack.runtime.sandbox_end:#x})")
    print(f"kernel secret:  {secret_addr:#x} (far outside)\n")

    print("=== Step 3: leak it, byte by byte ===")
    results = attack.leak_bytes(secret_addr, len(SECRET))
    leaked = bytes(r.leaked_byte if r.leaked_byte is not None else 0x3F
                   for r in results)
    print(f"leaked:  {leaked!r}")
    print(f"actual:  {SECRET!r}")
    correct = sum(r.correct for r in results)
    print(f"accuracy: {correct}/{len(results)}\n")

    print("=== What the prefetcher learned (no software told it!) ===")
    for link in attack.last_imp.links:
        print(f"  load@pc{link.producer_pc} feeds load@pc"
              f"{link.consumer_pc}: addr = {link.base:#x} + "
              f"(value << {link.shift})   [confidence "
              f"{link.confidence}]")
    print("\nThe verified program never touched the secret; the "
          "prefetcher read it and\nbroadcast it through the cache — "
          "the universal read gadget of Figure 1.")
    return 0 if correct == len(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
