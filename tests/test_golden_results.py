"""Golden *result* pins: what the simulator computes, not just its key.

``test_golden_fingerprints`` pins what a result is cached under, and
``test_fastpath_equivalence`` checks that the two kernels agree.  The
two kernels share :class:`~repro.pipeline.cpu.CPU`, the ISA semantics,
the plug-in hook dispatch and :class:`~repro.isa.opcodes.Op`, so a bug
in shared code moves both kernels together and the cross-kernel
comparison still passes.  These pins catch that: the SHA-256 of every
serialized :class:`RunResult` (cycles, stats, observations, metrics,
trace, fingerprint) must stay fixed under *both* kernels.

Covered: every ``tests/spec_catalog.py`` attack spec, plain and with
event tracing, and one progen cohort (control + plug-in, each with its
secret-perturbed variants) per contracted plug-in.

If simulated behaviour changed *on purpose*, re-pin with::

    PYTHONPATH=src python - <<'EOF'
    from tests.test_golden_results import all_cases, digest
    for name, specs in sorted(all_cases().items()):
        print(f'    "{name}":\\n        "{digest(specs, True)}",')
    EOF

and say in the commit message what changed and why: every persisted
result cache entry is stale from then on.
"""

import hashlib

import pytest

from repro.engine import TraceSpec, execute_spec
from repro.lint.contracts import contracted_plugin_names
from repro.lint.perturb import secret_variants
from repro.lint.progen import CaseGenerator, plugin_spec_for
from tests.spec_catalog import attack_specs


def all_cases():
    """Pin name -> list of specs whose results are hashed together."""
    cases = {}
    for name, spec in attack_specs().items():
        cases[f"attack/{name}"] = [spec]
        cases[f"attack/{name}/traced"] = [spec.replace(trace=TraceSpec())]
    for plugin in contracted_plugin_names():
        case = CaseGenerator(seed=13).cases_for(plugin, 1)[0]
        cases[f"progen/{plugin}"] = (
            secret_variants(case.spec(label=f"{case.name}/control"))
            + secret_variants(case.spec(plugins=(plugin_spec_for(plugin),))))
    return cases


def digest(specs, fastpath):
    """SHA-256 over the serialized results of ``specs`` on one kernel."""
    sha = hashlib.sha256()
    for spec in specs:
        sha.update(execute_spec(spec.replace(fastpath=fastpath))
                   .to_json().encode())
        sha.update(b"\n")
    return sha.hexdigest()


GOLDEN = {
    "attack/amplification":
        "4d61fd1f39bf9e97c982f04ae07d845e42b950d2cdd86166de6f041b190bf8ad",
    "attack/amplification/traced":
        "67747cf20fde6615b45759ff24a2e19b6bea87793562f14d8e553356f52d4b68",
    "attack/bsaes":
        "9980a522b047918f239e7ca2b348f10d1c9b7a576ee1fd3a452969bd8a3f754a",
    "attack/bsaes/traced":
        "c9f077938e1a8c7d1ba7c24091e84b7bf1126cdb5208066a039a72e792fbaf3f",
    "attack/compsimp":
        "e63069de61442e2a9710df7bef54ea549e03f0bb710fd3ed2c8635be1dd51866",
    "attack/compsimp/traced":
        "8083c70ac55294dc4ddaf484b51f2ce8877b2d6302dee0813d0efb8936cc6bea",
    "attack/packing":
        "8e7871869bd7742e3363ce10530e09c2e52d3ef633b7e255d7abdfa7855c7192",
    "attack/packing/traced":
        "7313ce7e5d8bda9350558eae5b237639ba73053be01f48d74d8ec6db39b825a0",
    "attack/replay":
        "1be81bfc406b1e2dde9369524be96f494e724a5e12d0a431a69768e57dee1e28",
    "attack/replay/traced":
        "11e8b67770e785d6ca1adb66f69ba8cd15c71108d881627cf6454b437c2d7912",
    "attack/reuse":
        "fe040b14e011b3b9c7c1131c213f5a89122fe6224f4c39d44f251ddcfa1945f3",
    "attack/reuse/traced":
        "1d5c1e1003b4770683579881d118847a8ea01102cb5bfdb58ac954648dc1513a",
    "attack/rfc":
        "76f22686e0436cd9c1beeade4a1c87a115a962627d4a5e739497fcaddd390c14",
    "attack/rfc/traced":
        "5d72dc3a2804784ca93ec4834ef88771ca55a52446c7757a71a7d944888b98e2",
    "attack/vp":
        "d0a25dd7c3c205cfed6f5dedaa3f67cd8ca4bcc51fd84732c7cd0e927d34e492",
    "attack/vp/traced":
        "c7ecaa90259851f6c5f9f91110a68b92803616969cebeda0a9f8d706fad19acf",
    "progen/computation-reuse":
        "c35d9fe6b7597a7fe5d18a07059e725423ab725b527d69aa199ebb1ba1eb47b0",
    "progen/computation-simplification":
        "95a3d428c44284129085336db68246c99b61decf56d4d00c9e2fb251328b3172",
    "progen/early-terminating-multiplier":
        "d582abd9c120c03ec97a5fe39b747cafb6327732f5ce32dfe2bc34887366652e",
    "progen/indirect-memory-prefetcher":
        "ebdf711f5dfd9abea6b4d4040a15ddde2534241cb10019f63d9df96d56eb2a51",
    "progen/operand-packing":
        "686b905bfbb9af2536f8f637a609e083bf4faa948e3b0bd36fc90e262b51a956",
    "progen/register-file-compression":
        "146cf77adcc41f131153df66e182649c192effbfdedef8ee7de3aad13dc09e31",
    "progen/silent-stores":
        "5d898e7f8299cb03a2de466d99284da786544f380210f8525a6e492c3817d5b3",
    "progen/value-prediction":
        "8c911a1f1e0162bbe158fcc77329bc5a45ccc1c98f6a4bda40f255e423b7e747",
}


def test_pins_cover_every_case():
    assert sorted(all_cases()) == sorted(GOLDEN)
    assert len(contracted_plugin_names()) == 8


@pytest.mark.parametrize("fastpath", [False, True],
                         ids=["reference", "fastpath"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_are_pinned(name, fastpath):
    assert digest(all_cases()[name], fastpath) == GOLDEN[name]
