"""Fingerprint byte-identity against the plain ``json.dumps`` payload.

:meth:`SimSpec.fingerprint` splices its SHA-256 input from memoized
per-component JSON texts.  The reference below is the straightforward
construction — every field canonicalized afresh, one
``json.dumps(sort_keys=True)`` — and every digest must equal it, for
every spec shape the engine sees.  Because the memo is process-wide,
the tests also pin that it is keyed by *typed content*: neither object
identity nor Python equality (``True == 1 == 1.0``) may leak one
spec's text into another's digest.
"""

import dataclasses
import enum
import hashlib
import json
import random

import pytest

from repro.engine import PluginSpec, TaintSpec, TraceSpec
from repro.lint.contracts import contracted_plugin_names
from repro.lint.progen import CaseGenerator, gated_case, plugin_spec_for
from repro.pipeline.config import CPUConfig
from tests.spec_catalog import attack_specs


def _reference_canonical(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _reference_canonical(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)
                  if not f.name.startswith("_")}
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _reference_canonical(v)
                for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_reference_canonical(item) for item in obj]
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj).hex()
    return obj


def _reference_encode(program):
    records = []
    for inst in program:
        target = -1 if inst.target is None else int(inst.target)
        records.append(f"{inst.op.value},{inst.rd},{inst.rs1},"
                       f"{inst.rs2},{inst.imm},{inst.width},{target}")
    for start, end in program.secret_regions:
        records.append(f".secret,{start},{end}")
    for start, end in program.public_regions:
        records.append(f".public,{start},{end}")
    return "\n".join(records).encode()


def reference_fingerprint(spec):
    """The ``result_version`` 3 digest, built the slow, obvious way."""
    payload = {
        "result_version": 3,
        "program": _reference_encode(spec.program).hex(),
        "config": _reference_canonical(
            spec.config if spec.config is not None else CPUConfig()),
        "hierarchy": _reference_canonical(spec.hierarchy),
        "plugins": _reference_canonical(spec.plugins),
        "mem_writes": _reference_canonical(spec.mem_writes),
        "mem_blobs": [[addr, bytes(data).hex()]
                      for addr, data in spec.mem_blobs],
        "regs": _reference_canonical(spec.regs),
        "max_cycles": spec.max_cycles,
        "seed": spec.seed,
        "record_regs": _reference_canonical(spec.record_regs),
    }
    if not spec.collect_stats:
        payload["collect_stats"] = False
    if spec.trace is not None:
        payload["trace"] = _reference_canonical(spec.trace)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _assert_identical(specs):
    for spec in specs:
        assert spec.fingerprint() == reference_fingerprint(spec), spec.label
        # ... and a fresh instance (no digest memo) agrees too.
        assert spec.replace().fingerprint() == reference_fingerprint(spec)


def test_attack_catalog_digests_match_reference():
    _assert_identical(attack_specs().values())


@pytest.mark.parametrize("plugin", contracted_plugin_names())
def test_progen_cohort_digests_match_reference(plugin):
    assert len(contracted_plugin_names()) == 8
    specs = []
    for case in CaseGenerator(seed=5).cases_for(plugin, 6):
        control = case.spec(label=case.name)
        specs += [control, control.replace(seed=3),
                  case.spec(plugins=(plugin_spec_for(plugin),))]
    specs.append(gated_case(random.Random(plugin)).spec(
        plugins=(plugin_spec_for(plugin),)))
    _assert_identical(specs)


def test_spec_variant_digests_match_reference():
    base = attack_specs()["amplification"]
    config = CPUConfig(store_queue_size=5,
                       plugin_options={"vp": {"confidence": 3},
                                       "window": [1, 2.5, None, True]})
    _assert_identical([
        base.replace(trace=TraceSpec()),
        base.replace(trace=TraceSpec(categories=("sq", "inst"),
                                     sample=4)),
        base.replace(collect_stats=False),
        base.replace(collect_stats=False, trace=TraceSpec()),
        base.replace(taint=TaintSpec.of(secret=((0x100, 0x108),),
                                        secret_regs=(3,))),
        base.replace(mem_blobs=((0x100, b"\x00\x01\xfe"),
                                (0x2000, bytearray(b"blob")))),
        base.replace(regs=((1, 7), (2, -1)), record_regs=(1, 2),
                     max_cycles=12345),
        base.replace(config=config),
        base.replace(config=None),
        base.replace(plugins=(
            PluginSpec.of("value-prediction", confidence=3, table=64),
            PluginSpec.of("silent-stores"))),
        # Dict kwargs key by content; a bytearray bypasses the memo.
        base.replace(plugins=(
            PluginSpec.of("computation-reuse", opts={"b": 2, "a": 1}),
            PluginSpec.of("operand-packing", raw=bytearray(b"\x01")))),
    ])


def test_typed_values_never_share_a_digest_within_a_process():
    """``True == 1 == 1.0`` and ``0.0 == -0.0``, but each serializes
    differently, so an equality-keyed memo would hand the first one's
    text to the others and make the digest depend on which spec the
    process happened to fingerprint first."""
    base = attack_specs()["compsimp"]
    specs = [base.replace(plugins=(
        PluginSpec.of("early-terminating-multiplier", x=value),))
        for value in (1, True, 1.0, 0.0, -0.0)]
    digests = [spec.fingerprint() for spec in specs]
    assert digests == [reference_fingerprint(spec) for spec in specs]
    assert len(set(digests)) == len(specs)


def test_config_memo_is_keyed_by_content_not_identity():
    base = attack_specs()["packing"]
    config = CPUConfig()
    before = base.replace(config=config)
    digest_before = before.fingerprint()
    config.rob_size += 1
    after = base.replace(config=config)
    assert after.fingerprint() != digest_before
    assert after.fingerprint() == reference_fingerprint(after)
    config.plugin_options["knob"] = 1
    nested = base.replace(config=config)
    assert nested.fingerprint() not in (digest_before, after.fingerprint())
    assert nested.fingerprint() == reference_fingerprint(nested)
    # A spec already fingerprinted keeps its digest (memo on the
    # frozen spec), and an equal fresh config maps back to it.
    assert before.fingerprint() == digest_before
    assert base.replace(config=CPUConfig()).fingerprint() == digest_before
