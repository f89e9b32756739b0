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
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .backward import RegressionBasis, RegressionRankError, SolverError, _backward, _require_finite
from .model import AssumptionError
from .norms import estimate_norms
from .reflect import (
    PenalizationSchedule,
    _LevelSums,
    skorokhod_report,
    solve_reflected_dp_oracle,
    solve_reflected_penalization,
)
from .registry import PROBLEMS, ParameterError, build_problem
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
)

OUT_DIR_ENV = "RBSDEJ_OUT"
MODES = ("penalized", "reflected", "oracle", "norms", "verify-all")

# Below this max over paths of A_T the dA-weighted norms are vacuous.
CLOCK_FLOOR = 1e-8

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2

CONVERGENCE_COLUMNS = (
    "n", "penalty_error", "Y0_mean", "Y0_stderr", "K_T_mean", "flat_integral", "wall_time",
)
PROPERTIES_COLUMNS = ("name", "trials", "failures", "worst_margin")
SOLUTION_COLUMNS = ("y0_mean", "y0_stderr", "k_T_mean", "k_jump_T_mean")


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str) -> None:
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


def _positive(v: float) -> bool:
    return 0.0 < v < math.inf


# One row per config field: attribute, INI section.key, parser, default
# (None: required), range check and the message of a failed check.
_FIELDS = (
    ("problem", "problem.name", str, None, lambda v: v in PROBLEMS,
     f"must be one of {', '.join(sorted(PROBLEMS))}"),
    ("horizon", "grid.horizon", float, None, _positive, "must be positive and finite"),
    ("n_steps", "grid.steps", int, None, lambda v: v >= 1, "must be at least 1"),
    ("n_paths", "mc.paths", int, None, lambda v: v >= 1, "must be at least 1"),
    ("seed", "mc.seed", int, None, lambda v: 0 <= v < 2**64,
     "must fit in an unsigned 64-bit integer"),
    ("degree", "basis.degree", int, None, lambda v: v >= 0, "must be nonnegative"),
    ("p", "exponents.p", float, None, lambda v: 1.0 < v < 2.0, "must lie strictly inside (1, 2)"),
    ("beta", "exponents.beta", lambda raw: None if raw == "auto" else float(raw), "auto",
     lambda v: v is None or 0.0 <= v < math.inf, "must be nonnegative and finite (or 'auto')"),
    ("eps", "exponents.eps", float, None, _positive, "must be positive and finite"),
    ("n0", "schedule.n0", float, None, _positive, "must be positive and finite"),
    ("levels", "schedule.levels", int, None, lambda v: v >= 1, "must be at least 1"),
    ("stop_tol", "schedule.stop_tol", float, None, _positive, "must be positive and finite"),
    ("mode", "run.mode", str, None, lambda v: v in MODES, f"must be one of {', '.join(MODES)}"),
    ("threads", "run.threads", int, "1", lambda v: v >= 1, "must be at least 1"),
)


# Factory parameters that build() sets from other sections (INI keys are
# lower case), so a [problem] value for them would be ignored.
_BUILD_KEYS = {"t": "grid.horizon", "p": "exponents.p", "eps": "exponents.eps",
               "beta": "exponents.beta"}


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
        for attr, key, _, _, ok, message in _FIELDS:
            value = getattr(self, attr)
            if not ok(value):
                raise ConfigError(key, f"{message}, got {value!r}")
        for key, value in self.problem_params:
            if key.lower() in _BUILD_KEYS:
                raise ConfigError(f"problem.{key}", f"set {_BUILD_KEYS[key.lower()]} instead")
            if not math.isfinite(value):
                raise ConfigError(f"problem.{key}", f"must be finite, got {value!r}")
        try:
            self.schedule()
        except ValueError as exc:
            raise ConfigError("schedule.levels",
                              f"the penalty levels must stay finite, got {self.levels!r}") from exc

    def schedule(self) -> PenalizationSchedule:
        return PenalizationSchedule.geometric(self.n0, self.levels, self.stop_tol)

    def build(self):
        params = dict(self.problem_params)
        params.update({"T": self.horizon, "p": self.p, "eps": self.eps})
        if self.beta is not None:
            params["beta"] = self.beta
        return build_problem(self.problem, **params)


def _get(cfg: configparser.ConfigParser, key: str, parse, default=None):
    section, _, option = key.partition(".")
    raw = cfg.get(section, option, fallback=default)
    if raw is None:
        raise ConfigError(key, "missing required key")
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {raw!r}: {exc}") from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise ConfigError("config", f"cannot read {path!r}")
    for section in dict.fromkeys(key.partition(".")[0] for _, key, *_ in _FIELDS):
        if not cfg.has_section(section):
            raise ConfigError(section, "missing section")
    params = tuple(
        (k, _get(cfg, f"problem.{k}", float)) for k in sorted(cfg.options("problem")) if k != "name"
    )
    return ExperimentConfig(
        problem_params=params,
        **{attr: _get(cfg, key, parse, default) for attr, key, parse, default, *_ in _FIELDS},
    )


def dump_config(config: ExperimentConfig, fh) -> None:
    """Serialize a config so that parse_config reads back an equal value."""
    sections: dict[str, dict[str, str]] = {}
    for attr, key, *_ in _FIELDS:
        section, _, option = key.partition(".")
        value = getattr(config, attr)
        sections.setdefault(section, {})[option] = "auto" if value is None else str(value)
    sections["problem"].update((k, str(v)) for k, v in config.problem_params)
    cfg = configparser.ConfigParser()
    cfg.read_dict(sections)
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


def _write_csv(path: Path, header, rows) -> None:
    """The one CSV writer: a header row, then every row of cell strings."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _record_table(name: str, record) -> tuple:
    """A dataclass record as a table: its field names and one row of their reprs."""
    names = [f.name for f in fields(record)]
    return name, names, [[repr(getattr(record, n)) for n in names]]


def _convergence_table(rows) -> tuple:
    return "convergence.csv", CONVERGENCE_COLUMNS, [
        [repr(v) for v in (r.n, r.penalty_error, r.y0_mean, r.y0_stderr, r.k_T_mean,
                           r.flat_integral, r.wall_time)]
        for r in rows
    ]


# The config field of the parameter that a simulation's AssumptionError names.
_ASSUMPTION_FIELDS = {"eps": "exponents.eps", "p": "exponents.p", "forward": "problem"}


def _sampled(spec, grid, n_paths: int, seed: int, n_threads: int = 1):
    """``sample_paths``, raising ConfigError naming the config field when
    a^2 < eps, zeta^2 under- or overflows or a forward state is not finite."""
    try:
        return sample_paths(spec, grid, n_paths, seed, n_threads=n_threads)
    except AssumptionError as exc:
        raise ConfigError(_ASSUMPTION_FIELDS[exc.param], str(exc)) from exc


def _battery(config: ExperimentConfig) -> dict:
    """The verify battery's (problem, bundle) pairs by name, at the config's
    p and seed, simulated before anything is written."""
    battery = {}
    for name, eps, n_steps, n_paths in (("flat_obstacle", 0.5, 100, 8), ("american_put", 0.01, 25, 2_000),
                                         ("linear_z", 0.01, 20, 2_000), ("linear_gamma", 0.01, 20, 2_000)):
        spec = build_problem(name, T=1.0, p=config.p, eps=eps)
        battery[name] = spec, _sampled(spec, build_grid(1.0, n_steps), n_paths, config.seed)
    return battery


def _verify_all(config: ExperimentConfig, battery: dict, out: Path) -> bool:
    """Scaled-down battery of every property suite on the ``_battery``
    bundles, at the suites' fixed gates; it takes about half a second. The
    acceptance test suite runs the full-size sweeps."""
    seed = config.seed
    results = []
    results.append(jump_inequality_suite(n_samples=100_000, seed=seed))

    flat, flat_bundle = battery["flat_obstacle"]
    basis0 = RegressionBasis(degree=0)
    results.append(comparison_suite(flat, flat_bundle, basis0, [(1.0, 2.0), (2.0, 4.0)]))
    results.append(penalty_decay_suite(
        flat, flat_bundle, basis0,
        # 12 levels: the exact decay ratio, (1.01 / 21.48)^p, is below the gate for all p > 1
        PenalizationSchedule.geometric(1.0, 12, 1e-3),
    ))
    results.append(apriori_suite(flat, flat_bundle, basis0))

    put, put_bundle = battery["american_put"]
    basis = RegressionBasis(degree=3)  # battery problems need state resolution
    results.append(
        replace(
            comparison_suite(put, put_bundle, basis, [(8.0, 16.0)]),
            name="comparison_monotonicity_mc",
        )
    )

    for suffix in ("z", "gamma"):
        spec, bundle = battery[f"linear_{suffix}"]
        result = contraction_suite(spec, bundle, basis)
        results.append(replace(result, name=f"picard_contraction_{suffix}"))
    # the loop leaves linear_gamma's problem and bundle for the jump crosscheck
    results.append(jump_estimator_crosscheck(spec, bundle, basis))

    results.append(lenglart_sweep(n_configs=25, n_paths=2_000, seed=seed))

    _write_csv(out / "properties.csv", PROPERTIES_COLUMNS,
               [[r.name, str(r.trials), str(r.failures), repr(r.worst_margin)] for r in results])
    text = summary_text(results)
    (out / "summary.txt").write_text(text + "\n")
    print(text)
    return all(r.passed for r in results)


def _simulate(config: ExperimentConfig, timings: list) -> tuple:
    """Build the problem and simulate its bundle. Raises ConfigError when
    the factory does not take or rejects a parameter, or as ``_sampled``."""
    try:
        spec = config.build()
    except KeyError as exc:
        raise ConfigError(f"problem.{exc.args[0]}", f"not a parameter of {config.problem}") from exc
    except ParameterError as exc:
        raise ConfigError(f"problem.{exc.param}", exc.message) from exc
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from exc
    t = time.perf_counter()
    bundle = _sampled(spec, build_grid(config.horizon, config.n_steps), config.n_paths,
                      config.seed, n_threads=config.threads)
    timings.append(("simulate", time.perf_counter() - t))
    return spec, bundle


def _solve(config: ExperimentConfig, spec, bundle, timings: list) -> tuple:
    """Run the configured solver mode, its diagnostics and its norm report.
    Returns the solution and the (file name, header, rows of cell strings)
    tables to write; raises, before anything is written, SolverError on a
    non-finite result and RegressionRankError on a rank-short slice."""
    basis = RegressionBasis(degree=config.degree)
    t = time.perf_counter()
    tables = []
    if config.mode == "reflected":
        res = solve_reflected_penalization(spec, bundle, basis, config.schedule())
        sol = res.solution
        tables += [_convergence_table(res.table), _record_table("skorokhod.csv", res.skorokhod)]
    elif config.mode == "oracle":
        sol = solve_reflected_dp_oracle(spec, bundle, basis)
        tables.append(_record_table("skorokhod.csv", skorokhod_report(sol, spec, bundle)))
    else:  # penalized / norms: solve_penalized at the schedule's first level, observed
        sums = _LevelSums(spec, bundle)
        sol = _backward(spec, bundle, basis, config.n0, observe=sums)
        if config.mode == "penalized":  # the row from the sweep's sums, as a reflected row
            tables.append(_convergence_table([sums.row(0, config.n0, time.perf_counter() - t)]))
    timings.append(("solve", time.perf_counter() - t))

    t = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        report = estimate_norms(sol, bundle, spec.exponents)
    timings.append(("norms", time.perf_counter() - t))
    _require_finite(report.values(), "in the norm report", spec, bundle)
    solution = [repr(v) for v in (sol.y0_mean(), sol.run.y0_stderr, float(np.mean(sol.k_T())),
                                  float(np.mean(sol.k_jump_T)))]
    tables += [_record_table("norms.csv", report), ("solution.csv", SOLUTION_COLUMNS, [solution])]
    return sol, tables


def run(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    threads: int | None = None,
    mode_override: str | None = None,
) -> int:
    """Execute one experiment; returns the process exit code. A config
    error writes nothing; a solver error writes config.ini and a manifest
    with an ``error`` line, but no CSV. Each solver warning is a
    ``warning`` line of the manifest."""
    t0 = time.perf_counter()
    timings: list[tuple[str, float]] = []
    overrides = {"seed": seed, "threads": threads, "mode": mode_override}
    try:
        config = replace(
            parse_config(config_path),
            **{k: v for k, v in overrides.items() if v is not None},
        )
        if config.mode == "verify-all":
            battery = _battery(config)
        else:
            spec, bundle = _simulate(config, timings)
        out = Path(out_dir) if out_dir is not None else Path(os.environ.get(OUT_DIR_ENV, "results"))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out" if out_dir is not None else OUT_DIR_ENV,
                              f"cannot make directory {str(out)!r}: {exc.strerror}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    with open(out / "config.ini", "w") as fh:
        dump_config(config, fh)

    error, warnings_ = None, ()
    if config.mode == "verify-all":
        ok = _verify_all(config, battery, out)
    else:
        try:
            sol, tables = _solve(config, spec, bundle, timings)
        except (SolverError, RegressionRankError) as exc:
            error = str(exc)
            print(f"error: {exc}", file=sys.stderr)
        else:
            for name, header, rows in tables:
                _write_csv(out / name, header, rows)
            warnings_ = sol.run.warnings
            A_T = float(np.max(bundle.A_path[:, -1]))
            if A_T < CLOCK_FLOOR:
                warnings_ += (f"weight clock collapsed: max A_T = {A_T!r} < {CLOCK_FLOOR!r}, "
                              "so the dA-weighted norms are vacuous",)
            for w in warnings_:
                print(f"warning: {w}", file=sys.stderr)
        ok = error is None

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
    manifest += [f"warning {w}" for w in warnings_]
    if error is not None:
        manifest.append(f"error {error}")
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
