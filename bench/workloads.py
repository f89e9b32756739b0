"""The benchmark's workloads.

Each workload builds its inputs from the seed (`setup`), produces every
output the workload is about (`solve`), and then, outside the timed
region, checks those outputs (`check`) and hashes them (`digest`). All
rbsdej calls go through module attributes at call time (``rb.x``), so
the recorder in `spans` sees them.

Why these four: `reflected_put_jumps` repeats one per-slice projection
across 11 penalty levels and their diagnostics; `picard_zu` repeats it
across Picard iterates with a never-binding obstacle and no schedule;
`oracle_wide` is a single backward pass over 5x the paths, dominated by
simulation, memory and bandwidth; `verify_battery` is many small solves
where per-call and per-bundle overhead dominates.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np

import rbsdej as rb

STEPS = 50
SCHEDULE = (1.0, 11, 1e-12)  # geometric(n0, levels, stop_tol): runs all 11 levels
# tol sits between the 8th and 9th linear_z residuals (>= 2.3e-12 and
# <= 1.0e-13 over seeds 0-11) and far from linear_gamma's 3rd and 4th, so
# every seed runs the same 9 + 4 passes. At acceptance-10's 1e-10 the
# count moved between 7-8 and 3-4 passes with the seed.
PICARD = dict(n_penalty=64.0, tol=5e-13, max_iter=15)


def _hash_solutions(*sols) -> str:
    h = hashlib.sha256()
    for sol in sols:
        for a in (sol.y, sol.z, sol.u, sol.k_cum, sol.k_jump_T):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


class Workload:
    """setup(seed) -> state; solve(state) -> outputs (the timed parts);
    check(state, outputs) -> (gates, info); digest(outputs) -> sha256 hex.
    ``paths`` is the bundle size, which smoke runs and the warm-up shrink."""

    name: str
    paths: int

    def close(self) -> None:
        """Remove anything the workload left on disk."""


def _finite(*sols) -> bool:
    return all(
        bool(np.all(np.isfinite(a)))
        for sol in sols
        for a in (sol.y, sol.z, sol.u, sol.k_cum, sol.k_jump_T)
    )


class ReflectedPutJumps(Workload):
    """Acceptance-04 shape: 11-level penalization to the reflected limit,
    the dynamic-programming oracle on the same bundle, and the norms."""

    name = "reflected_put_jumps"

    def __init__(self, paths: int = 20_000) -> None:
        self.paths = paths
        self.basis = rb.RegressionBasis(degree=4)

    def setup(self, seed: int):
        spec = rb.build_problem("american_put_jumps")
        return spec, rb.sample_paths(spec, rb.build_grid(1.0, STEPS), self.paths, seed)

    def solve(self, state):
        spec, bundle = state
        run = rb.solve_reflected_penalization(
            spec, bundle, self.basis, rb.PenalizationSchedule.geometric(*SCHEDULE)
        )
        oracle = rb.solve_reflected_dp_oracle(spec, bundle, self.basis)
        norms = rb.estimate_norms(run.solution, bundle, spec.exponents)
        return run, oracle, norms

    def check(self, state, out):
        run, oracle, norms = out
        y0, y0_oracle = run.solution.y0_mean(), oracle.y0_mean()
        gap = abs(y0 - y0_oracle) / abs(y0_oracle)
        norm_values = list(norms.values().values())
        gates = {
            "reaches_level_2^10": run.table[-1].n == 2.0**10,
            "y0_oracle_rel_gap<=1%": gap <= 0.01,
            "outputs_finite": _finite(run.solution, oracle) and bool(np.all(np.isfinite(norm_values))),
        }
        info = {"y0_oracle_rel_gap": gap, "y0": y0, "y0_oracle": y0_oracle}
        return gates, info

    def digest(self, out) -> str:
        run, oracle, norms = out
        h = hashlib.sha256(_hash_solutions(run.solution, oracle).encode())
        h.update(repr(norms.values()).encode())
        return h.hexdigest()

class PicardZU(Workload):
    """Acceptance-10 shape at 50 steps: Picard iteration on the driver's
    z argument (`linear_z`) and its jump argument (`linear_gamma`)."""

    name = "picard_zu"
    problems = ("linear_z", "linear_gamma")

    def __init__(self, paths: int = 20_000) -> None:
        self.paths = paths
        self.basis = rb.RegressionBasis(degree=3)
        self._one_pass: dict = {}  # (problem, seed) -> one-pass (Y0, stderr); repeats share it

    def setup(self, seed: int):
        grid = rb.build_grid(1.0, STEPS)
        specs = [rb.build_problem(name) for name in self.problems]
        return [(spec, rb.sample_paths(spec, grid, self.paths, seed)) for spec in specs]

    def solve(self, state):
        return [rb.picard_solve(spec, bundle, self.basis, **PICARD) for spec, bundle in state]

    def check(self, state, out):
        gates, info = {}, {}
        for name, (spec, bundle), pic in zip(self.problems, state, out):
            res = pic.run.residual_history
            ratios = [res[i + 1] / res[i] for i in range(len(res) - 1)]
            key = (name, bundle.seed)
            if key not in self._one_pass:
                one = rb.solve_penalized(spec, bundle, self.basis, PICARD["n_penalty"])
                self._one_pass[key] = (one.y0_mean(), one.run.y0_stderr)
            one_y0, one_se = self._one_pass[key]
            agree = abs(pic.y0_mean() - one_y0)
            gate = 2.0 * max(one_se, pic.run.y0_stderr, 1e-12)
            gates[f"{name}:last_residual<tol"] = res[-1] < PICARD["tol"]
            gates[f"{name}:residual_ratios<1"] = bool(ratios) and max(ratios) < 1.0
            gates[f"{name}:one_pass_within_2se"] = agree <= gate
            gates[f"{name}:outputs_finite"] = _finite(pic)
            info[name] = {"iters": pic.run.picard_iters, "residuals": list(res), "y0": pic.y0_mean()}
        return gates, info

    def digest(self, out) -> str:
        return _hash_solutions(*out)

class OracleWide(Workload):
    """One dynamic-programming oracle pass over 100k paths, with its
    Skorokhod audit and norms; the bundle is simulated on 2 threads."""

    name = "oracle_wide"

    def __init__(self, paths: int = 100_000) -> None:
        self.paths = paths
        self.basis = rb.RegressionBasis(degree=4)

    def setup(self, seed: int):
        spec = rb.build_problem("american_put_jumps")
        return spec, rb.sample_paths(spec, rb.build_grid(1.0, STEPS), self.paths, seed, n_threads=2)

    def solve(self, state):
        spec, bundle = state
        oracle = rb.solve_reflected_dp_oracle(spec, bundle, self.basis)
        report = rb.skorokhod_report(oracle, spec, bundle)
        norms = rb.estimate_norms(oracle, bundle, spec.exponents)
        return oracle, report, norms

    def check(self, state, out):
        spec, bundle = state
        oracle, report, norms = out
        L = rb.backward.obstacle_on_grid(spec, bundle)
        gates = {
            "y>=L_everywhere": bool(np.all(oracle.y >= L)),
            "complementarity_violation==0": report.complementarity_violation_fraction == 0.0,
            "outputs_finite": _finite(oracle) and bool(np.all(np.isfinite(list(norms.values().values())))),
        }
        return gates, {"y0_oracle": oracle.y0_mean()}

    def digest(self, out) -> str:
        oracle, report, norms = out
        h = hashlib.sha256(_hash_solutions(oracle).encode())
        h.update(repr((report, norms.values())).encode())
        return h.hexdigest()

VERIFY_CONFIG = """\
[problem]
name = flat_obstacle

[grid]
horizon = 1.0
steps = 10

[mc]
paths = 8
seed = 0

[basis]
degree = 0

[exponents]
p = 1.5
beta = auto
eps = 0.5

[schedule]
n0 = 1.0
levels = 2
stop_tol = 1e-3

[run]
mode = verify-all
"""


class VerifyBattery(Workload):
    """`cli.run` in verify-all mode. The battery builds its bundles inside
    the run, so the set-up measured here rebuilds, outside it, the three
    2k-path bundles the battery simulates from the config seed (`SETUP`):
    the per-bundle cost the battery pays many times."""

    name = "verify_battery"

    def __init__(self, paths: int = 2_000, workdir: Path | None = None) -> None:
        import rbsdej.cli  # noqa: F401  (only this workload loads the CLI layer)

        self.paths = paths
        self._tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=workdir)
        self.config = Path(self._tmp) / "verify.ini"
        self.config.write_text(VERIFY_CONFIG)
        self.out_dir = Path(self._tmp) / "out"

    SETUP = (("american_put", 25), ("linear_z", 20), ("linear_gamma", 20))  # (problem, steps)

    def setup(self, seed: int):
        for name, steps in self.SETUP:
            spec = rb.build_problem(name, T=1.0, p=1.5)
            rb.sample_paths(spec, rb.build_grid(1.0, steps), self.paths, seed)
        return seed

    def solve(self, seed):
        with contextlib.redirect_stdout(io.StringIO()):
            return rb.cli.run(self.config, out_dir=self.out_dir, seed=seed, mode_override="verify-all")

    def check(self, state, code):
        return {"exit_code==0": code == 0}, {"exit_code": code}

    def digest(self, code) -> str:
        text = (self.out_dir / "properties.csv").read_text()
        return hashlib.sha256(rb.cli.reproducibility_view(text).encode()).hexdigest()

    def close(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ReflectedPutJumps, PicardZU, OracleWide, VerifyBattery)}
