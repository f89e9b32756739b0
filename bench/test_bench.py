"""Smoke run of the benchmark at tiny sizes.

    python -m pytest bench -q

Runs every workload untraced and traced, and checks the output contract:
every metric BENCHMARK.json names is emitted with its unit, the run is
correct, and the traced and untraced runs agree on every call count and
on the output digest.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_PATHS = {"reflected_put_jumps": 1000, "picard_zu": 1000, "oracle_wide": 2000, "verify_battery": 500}


def _run(cwd: Path, workload: str, trace: int, paths: int | None = None):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.1", "--trace", str(trace)]
    if paths is not None:
        cmd += ["--paths", str(paths)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=sorted(TINY_PATHS))
def runs(request):
    name = request.param
    out = {}
    for trace in (0, 1):
        proc = _run(ROOT, name, trace, TINY_PATHS[name])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[trace] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return out


def test_every_metric_emitted_with_unit(runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, result = runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_and_untraced_agree(runs):
    untraced, traced = runs[0][0], runs[1][0]
    assert traced["counts"] == untraced["counts"]
    assert traced["digest"] == untraced["digest"]


def test_predictions_name_known_metrics():
    table = json.loads((BENCH / "predictions.json").read_text())
    layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert table["held_out_seed"] >= 0
    for row in table["predictions"] + table["no_change"]:
        assert set(row["layer_metrics"]) <= layer
        assert row["end_to_end"] in end_to_end
        assert set(row["workloads"]) <= workloads
    predicted = {m for row in table["predictions"] for m in row["layer_metrics"]}
    assert layer - predicted == {m for m in layer if m.startswith("trace.")}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "verify_battery", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
