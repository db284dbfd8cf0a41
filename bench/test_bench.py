"""Smoke test of the benchmark's own code.

Runs every workload at toy size through ``bench/run.py``, untraced and traced,
and checks the result line against ``BENCHMARK.json``. Run with:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracing import PassSpans  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    args = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    proc = _run(ROOT, *args, "--toy")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_fails_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "train-wide", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = _run(tmp_path, *args)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_other_layers_only():
    # model.train [0, 10] > nncore.forward [1, 4], losses.loss [5, 6];
    # model.predict [11, 15] > model.predict_matrix [11, 14] > nncore.forward [12, 13]
    spans = [
        ["model.train", 0.0, 10.0, -1, 0, None],
        ["nncore.forward", 1.0, 4.0, 0, 0, None],
        ["losses.loss", 5.0, 6.0, 0, 0, None],
        ["model.predict", 11.0, 15.0, -1, 0, None],
        ["model.predict_matrix", 11.0, 14.0, 3, 0, None],
        ["nncore.forward", 12.0, 13.0, 4, 0, None],
    ]
    ps = PassSpans(spans, [s[3] for s in spans])
    assert ps.self_time("model.train") == 6.0
    assert ps.foreign_time(0, ("nncore",)) == 3.0
    assert ps.total("model.predict", "model.predict_matrix") == 4.0
    assert ps.self_time("model.predict", "model.predict_matrix") == 3.0
    assert ps.calls("nncore.forward") == 2
    assert ps.nesting_ok()
    spans[2][2] = 11.0  # a child that ends after its parent
    assert not ps.nesting_ok()
