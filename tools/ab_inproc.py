"""Paired timing of two revisions in one process.

    python tools/ab_inproc.py --base REV [--change REV] --workloads W [W ...] \\
        --pairs N [--seed 11] [--paths P] [--out FILE.json]

Each revision's ``src`` and ``bench`` are extracted with ``git archive`` into
a temporary directory, and its ``src/rbsdej`` is imported under its own
package name (``rbsdej_base``, ``rbsdej_change``). Each tree's
``bench/workloads.py`` is loaded, and its workloads built, while
``sys.modules`` binds ``rbsdej`` and its submodules to that tree's package,
so the workloads run unedited. Both trees then share one interpreter, one
heap and one host state, and BLAS runs on one thread.

Per workload, after one discarded warm-up per tree at a tenth of the paths,
pair k runs set-up then solve once per tree, the base first when k is even
and the change first when k is odd. The JSON gives, per workload and for
``solve_s`` and ``setup_s``: the per-pair ratios change / base in pair
order, their median and range, the number of pairs in which the change
reads lower, a two-sided sign-test p-value, and both trees' medians; then
both trees' digests and failed gates. Peak RSS is per process, so it is
left to ``bench/run.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
TREES = ("base", "change")
METRICS = ("solve_s", "setup_s")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def extract(commit: str, dest: Path) -> None:
    """``src`` and ``bench`` of ``commit`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit, "src", "bench"))) as tar:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 and later)
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


@contextlib.contextmanager
def bound_as_rbsdej(package):
    """``import rbsdej`` and ``import rbsdej.<sub>`` give ``package`` and its
    submodules inside the block; the previous bindings come back after it."""
    saved = {k: v for k, v in sys.modules.items() if k == "rbsdej" or k.startswith("rbsdej.")}
    for k in saved:
        del sys.modules[k]
    prefix = package.__name__ + "."
    sys.modules.update({"rbsdej." + k[len(prefix):]: v for k, v in list(sys.modules.items())
                        if k.startswith(prefix)}, rbsdej=package)
    try:
        yield
    finally:
        for k in [k for k in sys.modules if k == "rbsdej" or k.startswith("rbsdej.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def load_tree(tree: Path, tag: str):
    """The tree's workloads module, its ``rbsdej`` imported as ``rbsdej_<tag>``."""
    name = f"rbsdej_{tag}"
    init = tree / "src" / "rbsdej" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    with bound_as_rbsdej(package):
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}", tree / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return package, workloads


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``; ties dropped."""
    n, k = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n)


def summarize(samples: dict[str, dict[str, list[float]]]) -> dict:
    """Per metric, the ratios change / base of each pair and their summary."""
    out = {}
    for metric in METRICS:
        base, change = samples["base"][metric], samples["change"][metric]
        ratios = [c / b for b, c in zip(base, change)]
        wins, losses = sum(r < 1.0 for r in ratios), sum(r > 1.0 for r in ratios)
        out[metric] = {
            "ratios": ratios, "median": statistics.median(ratios),
            "range": [min(ratios), max(ratios)], "change_lower": wins, "pairs": len(ratios),
            "sign_test_p": sign_test(wins, losses),
            "base_median_s": statistics.median(base), "change_median_s": statistics.median(change),
        }
    return out


def repeat(workload, seed: int) -> dict:
    """One timed set-up and solve, then the untimed checks and digest."""
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    t1 = time.perf_counter()
    out = workload.solve(state)
    t2 = time.perf_counter()
    gates, _ = workload.check(state, out)
    return {"setup_s": t1 - t0, "solve_s": t2 - t1, "digest": workload.digest(out),
            "failed": sum(not ok for ok in gates.values())}


def measure(name: str, trees: dict, seed: int, pairs: int, paths: int | None, workdir: Path) -> dict:
    """Alternating pairs of one workload on both trees."""
    workloads = {}
    for tag, (package, module) in trees.items():
        kwargs = {} if paths is None else {"paths": paths}
        if name == "verify_battery":
            kwargs["workdir"] = workdir
        with bound_as_rbsdej(package):
            workloads[tag] = module.WORKLOADS[name](**kwargs)
    try:
        for workload in workloads.values():  # discarded warm-up
            small = copy.copy(workload)
            small.paths = max(workload.paths // 10, 200)
            small.solve(small.setup(seed))
        runs = {tag: [] for tag in TREES}
        for k in range(pairs):
            for tag in TREES if k % 2 == 0 else TREES[::-1]:
                runs[tag].append(repeat(workloads[tag], seed))
    finally:
        for workload in workloads.values():
            workload.close()
    entry = summarize({tag: {m: [r[m] for r in runs[tag]] for m in METRICS} for tag in TREES})
    entry["digests"] = {tag: sorted({r["digest"] for r in runs[tag]}) for tag in TREES}
    entry["digests_agree"] = entry["digests"]["base"] == entry["digests"]["change"]
    entry["failed"] = {tag: sum(r["failed"] for r in runs[tag]) for tag in TREES}
    return entry


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the changed revision (default HEAD)")
    parser.add_argument("--workloads", nargs="+", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--paths", type=int, default=None,
                        help="override the workloads' path counts (smoke runs only)")
    parser.add_argument("--out", type=Path, default=None, help="the JSON file (default stdout)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revs = {"base": args.base, "change": args.change}
    commits = {tag: _git("rev-parse", "--verify", f"{revs[tag]}^{{commit}}").decode().strip()
               for tag in TREES}

    # one BLAS thread, set before numpy first loads with the first tree
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    import numpy as np

    with tempfile.TemporaryDirectory(prefix="ab-inproc-") as tmp:
        trees = {}
        for tag in TREES:
            extract(commits[tag], Path(tmp) / tag)
            trees[tag] = load_tree(Path(tmp) / tag, tag)
        results = {name: measure(name, trees, args.seed, args.pairs, args.paths, Path(tmp))
                   for name in args.workloads}

    doc = {
        "command": " ".join(["python", "tools/ab_inproc.py", *(sys.argv[1:] if argv is None else argv)]),
        "revisions": {tag: {"rev": revs[tag], "commit": commits[tag]} for tag in TREES},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1},
        "seed": args.seed, "pairs": args.pairs, "paths": args.paths,
        "order": "per workload, pairs 0..N-1; the base runs first in even pairs, the change in odd ones",
        "ratio": "change / base, so below 1 reads faster",
        "workloads": results,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
