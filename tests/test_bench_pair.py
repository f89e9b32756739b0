import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_output(raw_solve, raw_setup, scale, rss, digest, failed=0):
    """The two JSON lines ``bench/run.py --trace 0`` ends with, cut to the
    fields the pair driver reads, after a line of other output."""
    report = {"report": {
        "digest": digest,
        "samples": {"setup_s": {"median": raw_setup, "n": 4}, "solve_s": {"median": raw_solve, "n": 4}},
        "calibration": {"cal_ref_s": 0.02, "scale": scale},
    }}
    metrics = {"solve_s": {"value": raw_solve * scale, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "setup_s": {"value": raw_setup * scale, "unit": "s"}}
    result = {"correct": failed == 0, "attempted": 9, "failed": failed, "metrics": metrics}
    return "warm-up done\n" + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def test_summary_of_one_pair(bench_pair):
    parent = bench_pair.parse_run(bench_output(0.5, 0.1, 2.0, 64.0, "a8b5"))
    change = bench_pair.parse_run(bench_output(0.4, 0.1, 2.5, 65.0, "a8b5", failed=1))
    assert parent == {"solve_s": 1.0, "peak_rss_mb": 64.0, "setup_s": 0.2, "raw_solve_s": 0.5,
                      "raw_setup_s": 0.1, "scale": 2.0, "repeats": 4, "attempted": 9,
                      "failed": 0, "digest": "a8b5"}
    runs = [{"workload": "w", "tree": "parent", "pair": 1, "minflt": 1000, **parent},
            {"workload": "w", "tree": "change", "pair": 1, "minflt": 500, **change},
            {"workload": "w", "tree": "change", "pair": 2, "exit": 1, "error": "boom", "minflt": 7}]
    entry = bench_pair.summarize(runs)["w"]
    assert entry["pairs"] == 1 and entry["runs_without_result"] == 1
    assert set(bench_pair.METRICS) < set(entry)
    # (parent median, change median, change / parent, parent IQR, change lower)
    assert entry["solve_s"] == [1.0, 1.0, 1.0, 0, 0]
    assert entry["raw_solve_s"] == [0.5, 0.4, pytest.approx(0.8), 0, 1]
    assert entry["setup_s"] == [0.2, 0.25, pytest.approx(1.25), 0, 0]
    assert entry["scale"] == [2.0, 2.5, 1.25, 0, 0]
    assert entry["peak_rss_mb"] == [64.0, 65.0, pytest.approx(65.0 / 64.0), 0, 0]
    assert entry["minflt"] == [1000, 500, 0.5, 0, 1]
    assert entry["digests"] == {"parent": ["a8b5"], "change": ["a8b5"]}
    assert entry["failed"] == {"parent": 0, "change": 1}


def test_medians_quartiles_and_wins_over_five_pairs(bench_pair):
    runs = []
    for pair, (p, c) in enumerate([(1.0, 0.9), (2.0, 2.1), (3.0, 2.5), (4.0, 3.0), (5.0, 4.0)], 1):
        for tree, solve in (("parent", p), ("change", c)):
            runs.append({"workload": "w", "tree": tree, "pair": pair, "minflt": 0,
                         **bench_pair.parse_run(bench_output(solve, 0.1, 1.0, 64.0, "d"))})
    entry = bench_pair.summarize(runs)["w"]
    assert entry["pairs"] == 5
    assert entry["raw_solve_s"][:2] == [3.0, 2.5]
    assert entry["raw_solve_s"][3] == 2.0  # inclusive quartiles 2.0 and 4.0
    assert entry["raw_solve_s"][4] == 4
    assert entry["minflt"][2] is None  # no ratio over a zero parent median
