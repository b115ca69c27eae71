"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Tiny runs of every workload check that each metric named in
``BENCHMARK.json`` is printed with its unit, and that a deliberately
wrong expected output is counted as a failed op instead of passing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("attack_fig6", "contract_sweep", "urg_fig7", "lint_audit")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_the_runner():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_cli("--workload", workload, "--seed", "3", "--seconds",
                   "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "end_to_end" if trace == "0" else "per_layer"
    expected = {m["name"]: m["unit"] for m in declared()[kind]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert any(line.startswith("samples ops=") for line in lines)
        for name in expected:
            assert result["metrics"][name]["value"] > 0, name


def wrong_expectation(workload):
    """A patch that makes every op's expected output wrong."""
    if workload == "attack_fig6":
        return lambda self, item: ("incorrect", 100)
    if workload == "contract_sweep":
        return lambda self, item: 1
    if workload == "urg_fig7":
        return lambda self, item: item[1] ^ 0x01   # flipped planted bit
    return lambda self, item: ("flags", "no-such-plugin")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_output_is_counted_as_failed(workload,
                                                    monkeypatch):
    cls = workloads.WORKLOADS[workload]
    bench = cls(seed=3)
    monkeypatch.setattr(cls, "expected", wrong_expectation(workload))
    measured = run.measure(bench, seconds=0)
    metrics, _ = run.end_to_end(measured, setups=[1.0])
    assert measured.attempted >= 1 and measured.ok == 0
    assert len(measured.failures) == measured.attempted
    assert metrics["ok_ratio"] == 0


def test_same_seed_gives_the_same_digest():
    first = run.measure(workloads.LintAudit(seed=5), seconds=0)
    again = run.measure(workloads.LintAudit(seed=5), seconds=0)
    other = run.measure(workloads.LintAudit(seed=6), seconds=0)
    assert run.sample_counts(first) == run.sample_counts(again)
    assert run.sample_counts(first)[1] != run.sample_counts(other)[1]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "lint_audit", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def test_clean_under_the_determinism_lint():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "lint_determinism.py"),
         HERE], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
