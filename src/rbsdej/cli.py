"""Configuration-driven experiment runner.

Subcommands: ``solve`` (mode from the config: penalized | reflected |
oracle), ``verify`` (full property battery), ``norms`` (norm report of a
single penalized solve). Configs are INI files with the sections
documented in the README; outputs are CSV tables plus a plain-text
manifest with per-stage timings. Numerical CSV content is byte-reproducible
for a fixed config and seed; wall-clock columns and the manifest
timestamp line are excluded from that contract (see
``reproducibility_view``).
"""
from __future__ import annotations

import argparse
import configparser
import csv
import io
import os
import platform
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .backward import RegressionBasis, SolverError, solve_penalized
from .norms import estimate_norms, write_norms_csv
from .reflect import (
    PenalizationSchedule,
    PenaltyLevelRow,
    _require_finite,
    penalty_error,
    skorokhod_report,
    solve_reflected_dp_oracle,
    solve_reflected_penalization,
    write_convergence_csv,
)
from .registry import PROBLEMS, build_problem
from .simulate import build_grid, sample_paths
from .verify import (
    apriori_suite,
    comparison_suite,
    contraction_suite,
    jump_estimator_crosscheck,
    jump_inequality_suite,
    lenglart_sweep,
    penalty_decay_suite,
    summary_text,
    write_properties_csv,
)

OUT_DIR_ENV = "RBSDEJ_OUT"
MODES = ("penalized", "reflected", "oracle", "norms", "verify-all")

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str) -> None:
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    problem_params: tuple[tuple[str, float], ...]
    horizon: float
    n_steps: int
    n_paths: int
    seed: int
    degree: int
    p: float
    beta: float | None
    eps: float
    n0: float
    levels: int
    stop_tol: float
    mode: str
    threads: int = 1

    def __post_init__(self) -> None:
        """Range checks; they hold for INI values and command-line overrides alike."""
        if self.problem not in PROBLEMS:
            raise ConfigError("problem.name", f"unknown problem {self.problem!r}")
        if not (self.horizon > 0.0):
            raise ConfigError("grid.horizon", "must be positive")
        if self.n_steps < 1:
            raise ConfigError("grid.steps", "must be at least 1")
        if self.n_paths < 1:
            raise ConfigError("mc.paths", "must be at least 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("mc.seed", "must fit in an unsigned 64-bit integer")
        if self.degree < 0:
            raise ConfigError("basis.degree", "must be nonnegative")
        if not (1.0 < self.p < 2.0):
            raise ConfigError("exponents.p", f"must lie strictly inside (1, 2), got {self.p}")
        if self.beta is not None and not (self.beta >= 0.0):
            raise ConfigError("exponents.beta", "must be nonnegative (or 'auto')")
        if not (self.eps > 0.0):
            raise ConfigError("exponents.eps", "must be positive")
        if not (self.n0 > 0.0):
            raise ConfigError("schedule.n0", "must be positive")
        if self.levels < 1:
            raise ConfigError("schedule.levels", "must be at least 1")
        if not (self.stop_tol > 0.0):
            raise ConfigError("schedule.stop_tol", "must be positive")
        if self.mode not in MODES:
            raise ConfigError("run.mode", f"must be one of {MODES}")
        if self.threads < 1:
            raise ConfigError("run.threads", "must be at least 1")

    def schedule(self) -> PenalizationSchedule:
        return PenalizationSchedule.geometric(self.n0, self.levels, self.stop_tol)

    def build(self):
        params = dict(self.problem_params)
        params.update({"T": self.horizon, "p": self.p, "eps": self.eps})
        if self.beta is not None:
            params["beta"] = self.beta
        return build_problem(self.problem, **params)


def _get(cfg: configparser.ConfigParser, section: str, key: str, cast, default=None):
    if cfg.has_option(section, key):
        raw = cfg.get(section, key)
    elif default is not None:
        raw = default
    else:
        raise ConfigError(f"{section}.{key}", "missing required key")
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}: {exc}") from exc


def _beta_value(raw: str) -> float | None:
    return None if raw == "auto" else float(raw)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ConfigError("config", f"cannot read {path!r}")
    for section in ("problem", "grid", "mc", "basis", "exponents", "schedule", "run"):
        if not cfg.has_section(section):
            raise ConfigError(section, "missing section")

    params = tuple(
        (k, _get(cfg, "problem", k, float))
        for k in sorted(cfg.options("problem"))
        if k != "name"
    )
    return ExperimentConfig(
        problem=_get(cfg, "problem", "name", str),
        problem_params=params,
        horizon=_get(cfg, "grid", "horizon", float),
        n_steps=_get(cfg, "grid", "steps", int),
        n_paths=_get(cfg, "mc", "paths", int),
        seed=_get(cfg, "mc", "seed", int),
        degree=_get(cfg, "basis", "degree", int),
        p=_get(cfg, "exponents", "p", float),
        beta=_get(cfg, "exponents", "beta", _beta_value, default="auto"),
        eps=_get(cfg, "exponents", "eps", float),
        n0=_get(cfg, "schedule", "n0", float),
        levels=_get(cfg, "schedule", "levels", int),
        stop_tol=_get(cfg, "schedule", "stop_tol", float),
        mode=_get(cfg, "run", "mode", str),
        threads=_get(cfg, "run", "threads", int, default="1"),
    )


def dump_config(config: ExperimentConfig, fh) -> None:
    """Serialize a config so that parse_config reads back an equal value."""
    cfg = configparser.ConfigParser()
    cfg["problem"] = {"name": config.problem}
    for k, v in config.problem_params:
        cfg["problem"][k] = repr(v)
    cfg["grid"] = {"horizon": repr(config.horizon), "steps": str(config.n_steps)}
    cfg["mc"] = {"paths": str(config.n_paths), "seed": str(config.seed)}
    cfg["basis"] = {"degree": str(config.degree)}
    cfg["exponents"] = {
        "p": repr(config.p),
        "beta": "auto" if config.beta is None else repr(config.beta),
        "eps": repr(config.eps),
    }
    cfg["schedule"] = {
        "n0": repr(config.n0),
        "levels": str(config.levels),
        "stop_tol": repr(config.stop_tol),
    }
    cfg["run"] = {"mode": config.mode, "threads": str(config.threads)}
    cfg.write(fh)


def reproducibility_view(csv_text: str) -> str:
    """Canonical view of a CSV for byte-reproducibility comparisons:
    drops '#' comment lines (timestamps) and any wall_time column."""
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    if not lines:
        return ""
    rows = list(csv.reader(lines))
    header = rows[0]
    drop = [i for i, name in enumerate(header) if name == "wall_time"]
    if drop:
        rows = [[cell for i, cell in enumerate(row) if i not in drop] for row in rows]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _write_solution_csv(sol, fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["y0_mean", "y0_stderr", "k_T_mean", "k_jump_T_mean"])
    w.writerow([
        repr(sol.y0_mean()),
        repr(sol.run.y0_stderr),
        repr(float(np.mean(sol.k_T()))),
        repr(float(np.mean(sol.k_jump_T))),
    ])


def _write_skorokhod_csv(rep, fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow([
        "flat_integral", "jump_condition_residual",
        "complementarity_violation_fraction", "terminal_jump_mass",
    ])
    w.writerow([
        repr(rep.flat_integral), repr(rep.jump_condition_residual),
        repr(rep.complementarity_violation_fraction), repr(rep.terminal_jump_mass),
    ])


def _verify_all(config: ExperimentConfig, out: Path) -> bool:
    """Scaled-down battery of every property suite; sized to finish in
    about a minute. The acceptance test suite runs the full-size gates."""
    seed = config.seed
    results = []
    results.append(jump_inequality_suite(n_samples=100_000, seed=seed))

    flat = build_problem("flat_obstacle", T=1.0, p=config.p, eps=0.5)
    flat_bundle = sample_paths(flat, build_grid(1.0, 100), 8, seed)
    basis0 = RegressionBasis(degree=0)
    results.append(comparison_suite(flat, flat_bundle, basis0, [(1.0, 2.0), (2.0, 4.0)]))
    results.append(
        penalty_decay_suite(
            flat, flat_bundle, basis0,
            PenalizationSchedule.geometric(1.0, 11, 1e-3),
            final_over_first_gate=0.05,
        )
    )
    results.append(apriori_suite(flat, flat_bundle, basis0, n_penalty=64.0))

    put = build_problem("american_put", T=1.0, p=config.p)
    put_bundle = sample_paths(put, build_grid(1.0, 25), 2_000, seed)
    basis = RegressionBasis(degree=3)  # battery problems need state resolution
    results.append(
        replace(
            comparison_suite(put, put_bundle, basis, [(8.0, 16.0)]),
            name="comparison_monotonicity_mc",
        )
    )

    lz = build_problem("linear_z", T=1.0, p=config.p)
    lz_bundle = sample_paths(lz, build_grid(1.0, 20), 2_000, seed)
    results.append(
        replace(
            contraction_suite(lz, lz_bundle, basis, n_penalty=8.0),
            name="picard_contraction_z",
        )
    )
    lg = build_problem("linear_gamma", T=1.0, p=config.p)
    lg_bundle = sample_paths(lg, build_grid(1.0, 20), 2_000, seed)
    results.append(
        replace(
            contraction_suite(lg, lg_bundle, basis, n_penalty=8.0),
            name="picard_contraction_gamma",
        )
    )
    results.append(jump_estimator_crosscheck(lg, lg_bundle, basis, n_penalty=8.0, se_gate=3.0))

    results.append(lenglart_sweep(n_configs=25, n_paths=2_000, seed=seed))

    with open(out / "properties.csv", "w", newline="") as fh:
        write_properties_csv(results, fh)
    text = summary_text(results)
    (out / "summary.txt").write_text(text + "\n")
    print(text)
    return all(r.passed for r in results)


def _solve(config: ExperimentConfig, spec, bundle, timings: list) -> tuple:
    """Run the configured solver mode and its norm report. Returns the
    solution and the (file name, writer, value) tables to write; raises
    SolverError, before anything is written, on a non-finite result."""
    basis = RegressionBasis(degree=config.degree)
    t = time.perf_counter()
    tables = []
    if config.mode == "reflected":
        res = solve_reflected_penalization(spec, bundle, basis, config.schedule())
        timings.append(("solve", time.perf_counter() - t))
        sol = res.solution
        tables += [("convergence.csv", write_convergence_csv, res.table),
                   ("skorokhod.csv", _write_skorokhod_csv, res.skorokhod)]
    elif config.mode == "oracle":
        sol = solve_reflected_dp_oracle(spec, bundle, basis)
        timings.append(("solve", time.perf_counter() - t))
        tables.append(("skorokhod.csv", _write_skorokhod_csv, skorokhod_report(sol, spec, bundle)))
    else:  # penalized / norms: single solve at the schedule's first level
        sol = solve_penalized(spec, bundle, basis, config.n0)
        timings.append(("solve", time.perf_counter() - t))
    if config.mode == "penalized":
        err, err_se = penalty_error(sol, bundle, spec)
        _require_finite({"penalty error": err}, f"at level n={config.n0!r}", spec, bundle)
        row = PenaltyLevelRow(
            n=config.n0,
            penalty_error=err, penalty_error_se=err_se,
            y0_mean=sol.y0_mean(), y0_stderr=sol.run.y0_stderr,
            k_T_mean=float(np.mean(sol.k_T())),
            flat_integral=skorokhod_report(sol, spec, bundle).flat_integral,
            wall_time=timings[-1][1],
        )
        tables.append(("convergence.csv", write_convergence_csv, [row]))

    t = time.perf_counter()
    report = estimate_norms(sol, bundle, spec.exponents)
    timings.append(("norms", time.perf_counter() - t))
    _require_finite(report.values(), "in the norm report", spec, bundle)
    tables += [("norms.csv", write_norms_csv, report), ("solution.csv", _write_solution_csv, sol)]
    return sol, tables


def run(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    threads: int | None = None,
    mode_override: str | None = None,
) -> int:
    """Execute one experiment; returns the process exit code."""
    overrides = {"seed": seed, "threads": threads, "mode": mode_override}
    try:
        config = replace(
            parse_config(config_path),
            **{k: v for k, v in overrides.items() if v is not None},
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    base = Path(out_dir) if out_dir is not None else Path(
        os.environ.get(OUT_DIR_ENV, "results")
    )
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "config.ini", "w") as fh:
        dump_config(config, fh)

    t0 = time.perf_counter()
    timings: list[tuple[str, float]] = []
    ok = True

    if config.mode == "verify-all":
        ok = _verify_all(config, out)
    else:
        try:
            spec = config.build()
        except (KeyError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        grid = build_grid(config.horizon, config.n_steps)
        t = time.perf_counter()
        bundle = sample_paths(spec, grid, config.n_paths, config.seed, n_threads=config.threads)
        timings.append(("simulate", time.perf_counter() - t))
        try:
            sol, tables = _solve(config, spec, bundle, timings)
        except SolverError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SUITE_FAILURE
        for name, write, value in tables:
            with open(out / name, "w", newline="") as fh:
                write(value, fh)
        for w in sol.run.warnings:
            print(f"warning: {w}", file=sys.stderr)

    total = time.perf_counter() - t0
    manifest = [
        f"rbsdej {__version__}",
        f"python {platform.python_version()} numpy {np.__version__}",
        f"mode {config.mode}",
        f"seed {config.seed}",
        f"threads {config.threads}",
        f"# timestamp {datetime.now(timezone.utc).isoformat()}",
        f"total_seconds {total:.3f}",
    ]
    manifest += [f"timing {name} {secs:.3f}" for name, secs in timings]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbsdej",
        description="Solve and property-test reflected backward SDEs with jumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("solve", "run the solver mode named in the config"),
        ("verify", "run the full property battery"),
        ("norms", "norm report of a single penalized solve"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="path to the INI config")
        sp.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./results)")
        sp.add_argument("--seed", type=int, default=None, help="override mc.seed")
        sp.add_argument("--threads", type=int, default=None, help="worker-thread cap (does not change results)")
    args = parser.parse_args(argv)

    override = {"solve": None, "verify": "verify-all", "norms": "norms"}[args.command]
    return run(args.config, out_dir=args.out, seed=args.seed, threads=args.threads,
               mode_override=override)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
