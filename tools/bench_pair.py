"""Alternating parent/change pairs of ``bench/run.py``, in one JSON file.

    python tools/bench_pair.py --base REV [--change REV] --workloads W [W ...] \\
        --pairs N --seed 11 --out FILE.json

Both revisions are checked out with ``git worktree add --detach`` into the
sibling directories ``parent`` and ``change`` of one temporary directory, so
that the two checkout paths have the same length: the path alone moves glibc's
heap placement, and with it the set-up times. Pair k runs the parent first
when k is odd and the change first when k is even. Every run of
``bench/run.py --trace 0``, for BENCHMARK.json's ``run_seconds``, gets the environment in ``PINNED``: glibc's mmap
and trim thresholds fixed, so that the dynamic thresholds a solve's
temporaries set do not decide what the next set-up pays in page faults, and
every BLAS thread variable at 1.

Each run's record holds the scaled end-to-end metrics, the raw medians, the
calibration scale, the digest, the failed operations and the run's minor page
faults, a ``getrusage(RUSAGE_CHILDREN).ru_minflt`` delta. Peak RSS is the
bench's own ``peak_rss_mb``: ``ru_maxrss`` of the children is a running
maximum, not a per-run value. The summary gives, per workload and metric, the
parent and change medians over the complete pairs, their ratio, the parent's
interquartile range and the number of pairs in which the change reads lower.
The worktrees are removed at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
PINNED = {
    "MALLOC_MMAP_THRESHOLD_": "4194304",
    "MALLOC_TRIM_THRESHOLD_": "67108864",
    **{var: "1" for var in BLAS_THREAD_VARS},
}
METRICS = ("solve_s", "setup_s", "peak_rss_mb", "raw_solve_s", "raw_setup_s", "scale", "minflt")
SUMMARY_COLUMNS = ("parent median", "change median", "change / parent",
                   "parent IQR (q3 - q1)", "pairs where the change reads lower")


def parse_run(stdout: str) -> dict:
    """One run's record from ``bench/run.py``'s report line and its result
    line, the last line of its output."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    report = next(line["report"] for line in lines if "report" in line)
    result, samples = lines[-1], report["samples"]
    return {
        **{name: metric["value"] for name, metric in result["metrics"].items()},
        "raw_solve_s": samples["solve_s"]["median"],
        "raw_setup_s": samples["setup_s"]["median"],
        "scale": report["calibration"]["scale"],
        "repeats": samples["solve_s"]["n"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": report["digest"],
    }


def summarize(runs: list[dict]) -> dict:
    """Per workload: one ``SUMMARY_COLUMNS`` row per metric over the pairs
    in which both trees completed a run, with the digests and failed
    operations of each tree."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        done = {tree: {run["pair"]: run for run in runs if run["workload"] == workload
                       and run["tree"] == tree and "digest" in run} for tree in TREES}
        pairs = sorted(done["parent"].keys() & done["change"].keys())
        entry: dict = {"pairs": len(pairs)}
        for metric in METRICS if pairs else ():
            parent, change = ([done[tree][k][metric] for k in pairs] for tree in TREES)
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(pairs) > 1 else (0, 0, 0)
            mid_parent, mid_change = statistics.median(parent), statistics.median(change)
            entry[metric] = [mid_parent, mid_change, mid_change / mid_parent if mid_parent else None,
                             q3 - q1, sum(c < p for p, c in zip(parent, change))]
        entry["digests"] = {tree: sorted({run["digest"] for run in done[tree].values()}) for tree in TREES}
        entry["failed"] = {tree: sum(run["failed"] for run in done[tree].values()) for tree in TREES}
        entry["runs_without_result"] = sum(run["workload"] == workload and "digest" not in run for run in runs)
        out[workload] = entry
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``; its record, or its exit code
    and last error line when it printed no result."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env={**os.environ, **PINNED}, capture_output=True, text=True,
    )
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        return {"exit": proc.returncode, "error": (proc.stderr.strip().splitlines() or [""])[-1],
                "minflt": minflt}
    return {**parse_run(proc.stdout), "minflt": minflt}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the changed revision (default HEAD)")
    parser.add_argument("--workloads", nargs="+", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revs = {"parent": args.base, "change": args.change}
    commits = {tree: _git("rev-parse", "--verify", f"{revs[tree]}^{{commit}}") for tree in TREES}

    workdir = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    paths = {tree: workdir / tree for tree in TREES}
    runs = []
    try:
        for tree in TREES:
            _git("worktree", "add", "--detach", str(paths[tree]), commits[tree])
        for workload in args.workloads:
            for pair in range(1, args.pairs + 1):
                for tree in TREES if pair % 2 else TREES[::-1]:
                    run = {"workload": workload, "tree": tree, "pair": pair,
                           **run_one(paths[tree], workload, args.seed, bench["run_seconds"])}
                    runs.append(run)
                    print(json.dumps(run), file=sys.stderr)
    finally:
        for path in paths.values():
            if path.exists():
                _git("worktree", "remove", "--force", str(path))
        workdir.rmdir()

    doc = {
        "command": " ".join(["python", "tools/bench_pair.py", *(sys.argv[1:] if argv is None else argv)]),
        "revisions": {tree: {"rev": revs[tree], "commit": commits[tree]} for tree in TREES},
        "environment": PINNED,
        "order": "per workload, pairs 1..N; the parent runs first in odd pairs, the change in even ones",
        "summary_columns": SUMMARY_COLUMNS,
        "summary": summarize(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
