"""Self-test of the benchmark. Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

It is not part of the tier-1 suite (pyproject's testpaths is tests/), and
takes about two minutes: it runs each workload twice with the same seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-workload counters that must be nonzero: the layer the workload exists to load
LOADED = {
    "desk_solve": ["continuous.h_eval.calls", "numerics.quad_nodes", "cli.bytes_written"],
    "verify_xcheck": ["discrete.hn_eval.calls", "montecarlo.path_steps", "proceeds.cells"],
    "manipulate_scan": ["manipulation.lambda_solves_per_point", "proceeds.cells"],
}


def _traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / f"record-{workload}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_repeats_work_counters_and_output_bytes(workload):
    a, rec_a = _traced_run(workload, 11)
    b, rec_b = _traced_run(workload, 11)
    assert a["correct"] and b["correct"]
    counts = [k for k, unit in run.PER_LAYER.items() if unit == "count"]
    got_a = {k: a["metrics"][k]["value"] for k in counts}
    got_b = {k: b["metrics"][k]["value"] for k in counts}
    assert got_a == got_b
    assert all(got_a[k] > 0 for k in LOADED[workload])
    assert rec_a["outputs_sha256"] == rec_b["outputs_sha256"]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
