"""Output must not depend on Python's string-hash seed: the same input
gives the same problem list and the same run artifacts under any
PYTHONHASHSEED."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from tollroute.scenario import Defaults

SRC = Path(__file__).resolve().parent.parent / "src"
HASH_SEEDS = ("1", "2")

# Four bad defaults; one problem each.
BAD_DEFAULTS = {"retries": 0, "window_capacity": 0, "send_interval_ms": "x", "candidate_paths": -1}

PARSE = """
import json, sys
from tollroute.scenario import ScenarioError, parse_scenario
doc = {"version": 1, "duration_ms": 10, "defaults": json.loads(sys.argv[1]),
       "nodes": [{"addr": "02-00-00-00-00-01"}]}
try:
    parse_scenario(doc)
except ScenarioError as err:
    print(json.dumps(err.problems))
"""


def _python(hash_seed: str, *args: str, cwd: Path | None = None) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bad_defaults_are_reported_in_field_order():
    lists = [
        json.loads(_python(seed, "-c", PARSE, json.dumps(BAD_DEFAULTS))) for seed in HASH_SEEDS
    ]
    assert lists[0] == lists[1]
    order = [f.name for f in fields(Defaults) if f.name in BAD_DEFAULTS]
    assert lists[0] == [
        "defaults.send_interval_ms must be an integer, got 'x'",
        "defaults.retries must be >= 1, got 0",
        "defaults.window_capacity must be >= 1, got 0",
        "defaults.candidate_paths must be >= 1, got -1",
    ]
    assert [p.split()[0] for p in lists[0]] == [f"defaults.{key}" for key in order]


def test_run_artifacts_are_identical_across_hash_seeds(tmp_path):
    # Addresses hash as their bytes and names as their fields, so any set
    # or dict of them iterates in a seed-dependent order; no artifact may
    # follow it.  mesh10 spreads flows over many relays, churn takes
    # links down and up.
    for scenario in ("diamond.scn", "mesh10.scn", "churn.scn"):
        outs = []
        for seed in HASH_SEEDS:
            out = tmp_path / f"{scenario}-hash-{seed}"
            _python(seed, "-m", "tollroute.cli", "run", scenario, "--out", str(out),
                    cwd=tmp_path)
            outs.append(out)
        for artifact in ("report.json", "trace.jsonl", "ledger.jsonl"):
            first, second = ((out / artifact).read_bytes() for out in outs)
            assert first and first == second, f"{scenario} {artifact}"
