"""Self-checks of the benchmark (not part of the package's test suite).

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

The repeat test runs every workload twice with tracing on (about two
minutes on two cores) and requires the exact counts to agree bit for bit.
"""

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

EXACT_COUNTS = (
    "averaging.triples",
    "averaging.table_candidates",
    "averaging.zero_branch_share",
    "averaging.kernel_bytes",
    "averaging.qbar_calls",
)
WORKLOADS = ("gas2d-r8-evolve", "gas2d-r6-wcns")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    results = []
    for _ in range(2):
        done = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append({name: result["metrics"][name]["value"] for name in EXACT_COUNTS})
    assert results[0] == results[1]
