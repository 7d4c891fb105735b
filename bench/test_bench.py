"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted, in plain and
traced runs, and that a deliberately corrupted output is counted as a
failure. Reduced size: census up to n = 8, a few small stream items, and
``verify`` over a census up to n = 7 for k = 4 only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(workload, trace):
    result = run.run(workload, seed=7, seconds=1, trace=trace, small=True)
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload):
    result = run.run(workload, seed=7, seconds=1, trace=False, small=True, corrupt=True)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_without_sources_it_fails_without_a_result():
    bare = BENCH.parent / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
