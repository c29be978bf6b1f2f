"""Smoke test of the benchmark harness at a fiftieth of its size.

Not part of the tier-1 suite (``testpaths = tests``); run it with
``python -m pytest benchmarks/perf/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 5) -> dict:
    command = [sys.executable, *SPEC["command"][1:]]
    command += ["--workload", workload, "--seed", str(seed)]
    command += ["--seconds", "2", "--scale", "0.02", "--trace", str(trace)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=170, cwd=ROOT
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(workload, trace):
    line = _run(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", ["scalar-tick", "batch-tick"])
def test_tick_ledger_repeats_exactly_for_a_seed(workload):
    first, second = (_run(workload, 0)["metrics"] for _ in range(2))
    for name in ("update_ratio", "bytes_per_reading"):
        assert first[name]["value"] == second[name]["value"]
    other = _run(workload, 0, seed=6)["metrics"]
    assert other["update_ratio"]["value"] != first["update_ratio"]["value"]
