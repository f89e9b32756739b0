"""rbsdej benchmark: one workload per process, timed end to end or traced
per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rbsdej is imported from its ``src/``.
After one discarded warm-up (a whole repeat at a tenth of the paths) the
workload repeats set-up then solve, at least ``MIN_REPEATS`` times and
until the next repeat would overrun ``--seconds``. Every repeat's outputs
are checked and hashed. The script prints a report line (environment,
raw samples, percentiles, digest, call counts, gate failures) and then,
as the last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
BENCHMARK.json; with ``--trace 1`` untraced and traced repeats alternate
and the metrics are the ``per_layer`` ones.

End-to-end times are medians of wall time, scaled to reference seconds:
on a shared 2-vCPU host the speed one process gets moves by 10-30%
within minutes, and every wall time moves with it. At each phase
boundary the run times a fixed numpy kernel that does not touch rbsdej
(`Calibration`); the medians are multiplied by ``CAL_REF_S`` over the
run's median kernel time. Raw wall samples and kernel times are in the report line.
"""
from __future__ import annotations

import os

# BLAS is held to one thread, before numpy loads, so a run uses at most two
# cores: `oracle_wide` simulates on 2 threads and everything else is serial.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPEATS = 3
CAL_REF_S = 0.02  # kernel time that makes one reference second one wall second
EXIT_USAGE = 2


def _environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class Calibration:
    """Fixed numpy work on preallocated arrays (no allocation, so no page
    faults); its time tracks the speed the host currently gives this
    process. Each call takes three ~20 ms samples."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0xCA1)
        self.a, self.b, self.c = rng.standard_normal(4096), rng.standard_normal(4096), np.empty(4096)
        self.samples: list[float] = []

    def __call__(self) -> None:
        import numpy as np

        a, b, c = self.a, self.b, self.c
        for _ in range(3):
            t0 = time.perf_counter_ns()
            for _ in range(1500):
                np.multiply(a, b, out=c)
                np.add(c, a, out=c)
                np.abs(c, out=c)
                np.sqrt(c, out=c)
            self.samples.append((time.perf_counter_ns() - t0) / 1e9)

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


def _summary(samples: list[float]) -> dict:
    """Median, sample count, the highest percentile with at least ten
    samples beyond it (None below 11 samples), and the samples in the
    order they were taken."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    if n >= 11:
        tail = {"pct": int(100 * (n - 10) // n), "value": xs[n - 11]}
    return {"median": statistics.median(xs), "n": n, "tail": tail, "samples": samples}


class Run:
    """Repeats of one workload, their timings and their checks."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.counts: dict | None = None
        self.info: dict = {}
        self.samples: dict[str, list[float]] = {"setup_s": [], "solve_s": [], "traced_solve_s": []}
        self.calibrate = Calibration()
        self.calibrate()
        self.layers: list[dict] = []
        self.last_traced = None

    def _gate(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def repeat(self, timing: bool) -> bool:
        """One set-up + solve under a recorder, then the checks; False when
        rbsdej raised."""
        from spans import Recorder

        rec = Recorder(timing)
        try:
            with rec:
                t0 = time.perf_counter_ns()
                state = self.workload.setup(self.seed)
                t1 = time.perf_counter_ns()
                self.calibrate()
                t2 = time.perf_counter_ns()
                out = self.workload.solve(state)
                t3 = time.perf_counter_ns()
            self.calibrate()
            gates, self.info = self.workload.check(state, out)
            digest = self.workload.digest(out)
        except Exception:  # a failing solve is a failed operation, not a crash
            traceback.print_exc()
            self._gate("no_exception", False)
            return False
        for name, ok in gates.items():
            self._gate(name, bool(ok))
        counts = rec.counts()
        self.digest = self.digest or digest
        self.counts = self.counts or counts
        self._gate("digest_repeats", digest == self.digest)
        self._gate("call_counts_repeat", counts == self.counts)

        solve_s = (t3 - t2) / 1e9
        if timing:
            self.samples["traced_solve_s"].append(solve_s)
            self.layers.append(_layer_metrics(rec, solve_s, t2))
            self.last_traced = rec
        else:
            self.samples["setup_s"].append((t1 - t0) / 1e9)
            self.samples["solve_s"].append(solve_s)
        return True


def _layer_metrics(rec, solve_s: float, solve_start_ns: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the benchmark can emit, for one traced repeat.
    Layer times are raw wall seconds of that repeat."""
    from spans import TRACED

    times = rec.layer_times()
    counts = rec.counts()
    out: dict[str, tuple[float, str]] = {}
    for layer, names in TRACED.items():
        for name in names:
            q = f"{layer}.{name}"
            out[f"{q}.s"] = (times.get(f"{q}.s", 0.0), "s")
            out[f"{q}.self_s"] = (times.get(f"{q}.self_s", 0.0), "s")
            out[f"{q}.calls"] = (counts.get(f"{q}.calls", 0), "count")
    for name in ("simulate.path_steps", "backward.picard_iters", "reflect.penalty_levels"):
        out[name] = (counts.get(name, 0), "count")
    out["simulate.bundle_mb"] = (counts.get("simulate.bundle_bytes", 0) / 1e6, "MB")
    calls = counts.get("backward.obstacle_on_grid.calls", 0)
    distinct = counts["backward.obstacle_on_grid.distinct"]
    out["backward.obstacle_on_grid.useful_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    out["trace.solve_s"] = (solve_s, "s")
    out["trace.self_share"] = (rec.self_total(solve_start_ns) / solve_s, "ratio")
    return out


def _select(wanted: list[dict], have: dict[str, tuple[float, str]]) -> dict:
    metrics = {}
    for m in wanted:
        value, unit = have[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"metric {m['name']}: unit {unit!r} != BENCHMARK.json {m['unit']!r}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return metrics


def measure(workload, seed: int, seconds: float, traced: bool, bench: dict):
    small = copy.copy(workload)
    small.paths = max(workload.paths // 10, 200)
    small.solve(small.setup(seed))  # discarded warm-up
    del small

    run = Run(workload, seed)
    step = 2 if traced else 1  # traced runs alternate untraced, traced
    min_repeats = 2 if traced else MIN_REPEATS
    begin = time.perf_counter()
    reps = 0
    while run.repeat(timing=traced and reps % 2 == 1):
        reps += 1
        elapsed = time.perf_counter() - begin
        if reps >= min_repeats and reps % step == 0 and elapsed * (reps + 1) / reps > seconds:
            break

    samples = run.samples
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": _environment(), "paths": workload.paths,
        "digest": run.digest, "counts": run.counts, "failures": run.failures, "info": run.info,
        "samples": {k: _summary(v) for k, v in samples.items() if v},
        "calibration": {"cal_ref_s": CAL_REF_S, "scale": run.calibrate.scale(),
                        "samples": run.calibrate.samples},
    }
    if not samples["solve_s"] or (traced and not run.layers):
        return run, report, None
    if traced:
        merged = {
            name: (statistics.median(d[name][0] for d in run.layers), unit)
            for name, (_, unit) in run.layers[0].items()
        }
        overhead = statistics.median(samples["traced_solve_s"]) - statistics.median(samples["solve_s"])
        merged["trace.overhead_s"] = (overhead * run.calibrate.scale(), "s")
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_file = spans_dir / f"spans-{workload.name}-seed{seed}.jsonl"
        run.last_traced.write_spans(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        return run, report, _select(bench["per_layer"], merged)
    scale = run.calibrate.scale()
    have = {
        "setup_s": (statistics.median(samples["setup_s"]) * scale, "s"),
        "solve_s": (statistics.median(samples["solve_s"]) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    return run, report, _select(bench["end_to_end"], have)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paths", type=int, default=None,
                        help="override the workload's path count (smoke runs only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "rbsdej" / "__init__.py").is_file():
        print(f"error: no rbsdej sources under {SRC}; run from a full checkout", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(SRC))
    import rbsdej

    if Path(rbsdej.__file__).resolve().parent != SRC / "rbsdej":
        print(f"error: rbsdej imported from {rbsdej.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_USAGE
    from workloads import WORKLOADS

    kwargs = {} if args.paths is None else {"paths": args.paths}
    if args.workload == "verify_battery":
        kwargs["workdir"] = ROOT
    workload = WORKLOADS[args.workload](**kwargs)
    try:
        run, report, metrics = measure(workload, args.seed, args.seconds, bool(args.trace), bench)
    finally:
        workload.close()
    print(json.dumps({"report": report}))
    if metrics is None:
        print("error: no repeat completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
