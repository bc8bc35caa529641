"""Self-test of the benchmark: ``python3 -m pytest bench`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_smoke_runs_every_workload_and_metric():
    proc = _run(ROOT, "--smoke", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    total = json.loads(lines[-1])
    assert total["correct"] and total["failed"] == 0 and total["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for line in lines:
        if line.startswith("smoke "):
            label, _, payload = line[len("smoke "):].partition(": ")
            results[label] = json.loads(payload)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = results[f"{workload} trace={trace}"]
            assert result["correct"], (workload, trace)
            assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    # Every layer is seen calling into the library on some workload.
    for layer in ("core", "gen", "detect", "align", "assignment", "bounds", "oracle", "cli"):
        assert any(r["metrics"][f"{layer}.calls"]["value"] > 0
                   for label, r in results.items() if label.endswith("trace=1")), layer


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "detect", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
