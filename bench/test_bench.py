"""Tests of the benchmark itself, on the tiny smoke size of each workload.

Run from the repository root with ``python -m pytest bench -q``.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
from tracing import self_times  # noqa: E402


def _invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, seed: int) -> dict:
    proc = _invoke(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    result = smoke(workload, trace, 3)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_across_seeds(workload):
    counts = [{k: v["value"] for k, v in smoke(workload, 1, seed)["metrics"].items()
               if v["unit"] in ("count", "bytes")} for seed in (3, 4)]
    assert counts[0] == counts[1]


def test_each_workload_stresses_its_layers():
    pairing = {k: v["value"] for k, v in smoke("pairing-g1", 1, 3)["metrics"].items()}
    busy = {k: v for k, v in pairing.items() if k.endswith((".busy_s", ".self_s"))}
    assert max(busy, key=busy.get) == "series.busy_s"

    ball = {k: v["value"] for k, v in smoke("ball-g2", 1, 3)["metrics"].items()}
    assert ball["cache.hit_ratio"] == pytest.approx(1 / 2)
    assert ball["enumerate.elements"] == 3_140 + 297 + 1_113

    cells = {k: v["value"] for k, v in smoke("cells", 1, 3)["metrics"].items()}
    assert cells["enumerate.calls"] == 0 and cells["series.calls"] == 0
    assert cells["threshold.cells"] > 0 and cells["mc.samples"] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        [0, "task", "t", 0.0, 10.0, None, 0, {}, None],
        [1, "quadrature", "petersson", 1.0, 9.0, 0, 0, {}, None],
        [2, "series", "evaluate", 2.0, 5.0, 1, 0, {}, None],
        [3, "series", "evaluate", 5.0, 8.0, 1, 0, {}, None],
    ]
    assert self_times(spans) == [2.0, 2.0, 3.0, 3.0]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _invoke(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
