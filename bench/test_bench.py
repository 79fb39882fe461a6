"""The benchmark's own test: every workload at smoke size, with every
check, traced and untraced.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_every_check(workload):
    result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"] for m in SPEC["end_to_end"]} == set(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = _run(workload, trace=1), _run(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(first["metrics"])

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}

    assert counts(first) == counts(second)
    assert counts(first)["forwarding.packets_in"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
