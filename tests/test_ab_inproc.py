import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inproc.py"


def test_same_revision_on_both_sides(tmp_path):
    # A/A on a small bundle: both trees load in one process under their own
    # names, run the unedited workloads and give the same digest
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    out = tmp_path / "aa.json"
    subprocess.run([sys.executable, str(TOOL), "--base", "HEAD", "--workloads", "reflected_put_jumps",
                    "--pairs", "2", "--paths", "300", "--out", str(out)],
                   check=True, capture_output=True, timeout=60)
    doc = json.loads(out.read_text())
    assert doc["revisions"]["base"]["commit"] == doc["revisions"]["change"]["commit"]
    entry = doc["workloads"]["reflected_put_jumps"]
    assert entry["digests_agree"] and len(entry["digests"]["base"]) == 1
    assert entry["failed"] == {"base": 0, "change": 0}
    for metric in ("solve_s", "setup_s"):
        summary = entry[metric]
        assert summary["pairs"] == len(summary["ratios"]) == 2
        assert summary["range"][0] <= summary["median"] <= summary["range"][1]
        assert 0.0 <= summary["sign_test_p"] <= 1.0
        assert 0 <= summary["change_lower"] <= 2
