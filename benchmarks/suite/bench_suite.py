"""Self-test of the benchmark at smoke scale (a small graph, one set-up).

    PYTHONPATH=src python -m pytest -c benchmarks/pytest.ini benchmarks/suite
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import metric_verdict
from tracing import Tracer
from workloads import SPECS, Workload, corpus_sha256

from repro import CSRGraph

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, run_py: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        capture_output=True, text=True, check=False,
    )


def test_workloads_match_the_spec():
    assert NAMES == list(SPECS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert value > 0 or trace == "1", m["name"]
        assert f"{m['name']} " in proc.stdout and f" {m['unit']}\n" in proc.stdout


@pytest.mark.parametrize("workload", NAMES)
def test_tracing_leaves_the_corpus_unchanged(workload, tmp_path):
    wl = Workload(SPECS[workload], 5, tmp_path, smoke=True)
    wl.setup()
    original = CSRGraph.__dict__["has_edge_pairs"]
    tracer = Tracer()
    assert corpus_sha256(wl.run_op(1)) == corpus_sha256(wl.run_op(1, tracer))
    assert tracer.calls["kernels.advance_frontier"] > 0
    assert CSRGraph.__dict__["has_edge_pairs"] is original


def test_unknown_workload_exits_2():
    assert _run("--workload", "no-such-workload").returncode == 2


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark gives an error, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.relative_to(ROOT),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", run_py=tmp_path / HERE.relative_to(ROOT) / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_rules():
    parent = [100.0 + i % 3 for i in range(10)]
    assert metric_verdict(parent, parent, "higher", 0.1)["verdict"] == "unchanged"
    faster = [x * 1.2 for x in parent]
    assert metric_verdict(parent, faster, "higher", 0.1)["verdict"] == "improved"
    assert metric_verdict(parent, faster, "lower", 0.1)["verdict"] == "regressed"
    # Eight wins in ten pairs fall short of the nine-tenths rule.
    mixed = faster[:8] + parent[8:]
    assert metric_verdict(parent, mixed, "higher", 0.1)["verdict"] == "unchanged"
    # A spread wider than the bound cannot show "unchanged".
    noisy = [50.0, 150.0] * 5
    assert metric_verdict(noisy, noisy[::-1], "higher", 0.1)["verdict"] == "unresolved"
    # ... but a median worse by more than the bound still reads "regressed".
    slower = [x * 0.5 for x in noisy]
    assert metric_verdict(noisy, slower, "higher", 0.1)["verdict"] == "regressed"
    # An absolute floor keeps a tiny metric's small moves from counting.
    tiny = [0.007 + 0.001 * (i % 3) for i in range(10)]
    doubled = [x * 2 for x in tiny]
    assert metric_verdict(tiny, doubled, "lower", 0.1)["verdict"] == "regressed"
    assert metric_verdict(tiny, doubled, "lower", 0.1, 0.05)["verdict"] == "unchanged"
