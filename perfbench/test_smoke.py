"""Smoke test: the benchmark end to end at its tiny size, timed and traced.

Runs ``perfbench/run.py`` on the ``tiny`` workload and checks that every
correctness check passed and that the result line reports exactly the
metrics ``BENCHMARK.json`` declares for the mode, with their units.
Timings are not asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
