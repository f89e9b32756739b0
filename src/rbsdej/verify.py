"""Executable property suites: the pointwise jump inequality, penalty
comparison/decay, scaling consequences of the a-priori bounds, the
fixed-point contraction diagnostics, and a randomized sweep of the
factor-2 jump-energy domination.

Statistical gates (3 sigma pointwise, 0.1% violation fraction, factor-2
stability) are fixed conventions of the shipped suites so that pass/fail
is reproducible.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .backward import (
    BackwardSolution,
    RegressionBasis,
    obstacle_on_grid,
    picard_solve,
    solve_penalized,
)
from .model import Exponents, MarkSpace, ProblemSpec, _rescale_data, driver_uses_zu
from .norms import NormReport, estimate_norms, lenglart_check
from .reflect import PenalizationSchedule, solve_reflected_penalization
from .simulate import PathBundle, build_grid, sample_paths

Array = np.ndarray

MAX_WITNESSES = 10
PROPERTIES_CSV_COLUMNS = ["name", "trials", "failures", "worst_margin"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst_margin: float
    witnesses: tuple = ()
    passed: bool = True
    detail: str = ""

    def __post_init__(self) -> None:
        if self.failures > self.trials:
            raise ValueError("failures cannot exceed trials")
        if (self.failures > 0) != (len(self.witnesses) > 0):
            raise ValueError("witnesses must be nonempty exactly when failures > 0")


def summary_text(results: Sequence[PropertyResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (
            f"{status} {r.name} (trials={r.trials}, failures={r.failures}, "
            f"worst_margin={r.worst_margin:.6g})"
        )
        if r.detail:
            line += f" [{r.detail}]"
        lines.append(line)
    return "\n".join(lines)


def write_properties_csv(results: Sequence[PropertyResult], fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(PROPERTIES_CSV_COLUMNS)
    for r in results:
        w.writerow([r.name, r.trials, r.failures, repr(r.worst_margin)])


# ---------------------------------------------------------------------------
# pointwise jump inequality


def check_jump_inequality(y, u, p):
    """Pointwise lower bound of the second-order jump remainder.

    lhs = |y+u|^p - |y|^p - p |y|^{p-1} sign(y) u
    rhs = c(p) u^2 (|y|^2 v |y+u|^2)^{(p-2)/2} on {|y| v |y+u| != 0}
    Returns (lhs, rhs, pass) with pass = lhs >= rhs - 1e-12 (1 + |lhs|).
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if not np.all((1.0 < np.asarray(p)) & (np.asarray(p) < 2.0)):
        raise ValueError("p must lie in (1, 2)")
    cp = p * (p - 1.0) / 2.0
    yu = y + u
    yhat = np.sign(y)
    lhs = np.abs(yu) ** p - np.abs(y) ** p - p * np.abs(y) ** (p - 1.0) * yhat * u
    mx2 = np.maximum(y * y, yu * yu)
    nz = mx2 > 0.0
    with np.errstate(divide="ignore"):
        rhs = np.where(nz, cp * u * u * np.where(nz, mx2, 1.0) ** ((p - 2.0) / 2.0), 0.0)
    ok = lhs >= rhs - 1e-12 * (1.0 + np.abs(lhs))
    if lhs.ndim == 0:
        return float(lhs), float(rhs), bool(ok)
    return lhs, rhs, ok


def jump_inequality_suite(
    n_samples: int = 1_000_000,
    p_values: Sequence[float] = (1.1, 1.5, 1.9),
    box: float = 10.0,
    seed: int = 0,
) -> PropertyResult:
    """Uniform random sweep of the jump inequality over [-box, box]^2."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x11]))
    failures = 0
    worst = -np.inf
    witnesses: list[tuple] = []
    trials = 0
    for p in p_values:
        y = rng.uniform(-box, box, n_samples)
        u = rng.uniform(-box, box, n_samples)
        lhs, rhs, ok = check_jump_inequality(y, u, p)
        trials += n_samples
        bad = ~ok
        failures += int(np.sum(bad))
        margin = rhs - lhs
        worst = max(worst, float(np.max(margin)))
        if bad.any() and len(witnesses) < MAX_WITNESSES:
            for idx in np.where(bad)[0][: MAX_WITNESSES - len(witnesses)]:
                witnesses.append((float(y[idx]), float(u[idx]), float(p)))
    return PropertyResult(
        name="jump_inequality",
        trials=trials,
        failures=failures,
        worst_margin=worst,
        witnesses=tuple(witnesses),
        passed=failures == 0,
    )


# ---------------------------------------------------------------------------
# penalty comparison


def comparison_suite(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    n_pairs: Sequence[tuple[float, float]],
    max_violation_fraction: float = 1e-3,
) -> PropertyResult:
    """Monotonicity of the penalized solution in the penalty level.

    For each (n, n') with n < n', solves both on the same bundle and
    counts (path, node) entries where y at the smaller level exceeds y at
    the larger level beyond 3 local MC standard errors (with an absolute
    floor of 1e-10 relative to scale, so noise-free problems are held to
    exact monotonicity).
    """
    if driver_uses_zu(spec):
        raise ValueError("comparison_suite requires a driver independent of (z, u)")
    failures = 0
    trials = 0
    worst = -np.inf
    witnesses: list[tuple] = []
    n_paths = bundle.n_paths
    for n_lo, n_hi in n_pairs:
        if not n_lo < n_hi:
            raise ValueError("pairs must be ordered n < n'")
        lo = solve_penalized(spec, bundle, basis, n_lo)
        hi = solve_penalized(spec, bundle, basis, n_hi)
        diff = lo.y - hi.y  # positive entries violate monotonicity
        se = np.std(diff, axis=0, ddof=1) / np.sqrt(n_paths) if n_paths > 1 else np.zeros(diff.shape[1])
        tol = np.maximum(3.0 * se[None, :], 1e-10 * (1.0 + np.abs(hi.y)))
        bad = diff > tol
        trials += diff.size
        failures += int(np.sum(bad))
        worst = max(worst, float(np.max(diff - tol)))
        if bad.any() and len(witnesses) < MAX_WITNESSES:
            for pi, ni in np.argwhere(bad)[: MAX_WITNESSES - len(witnesses)]:
                witnesses.append((float(n_lo), float(n_hi), int(pi), int(ni), float(diff[pi, ni])))
    fraction = failures / trials if trials else 0.0
    return PropertyResult(
        name="comparison_monotonicity",
        trials=trials,
        failures=failures,
        worst_margin=worst,
        witnesses=tuple(witnesses),
        passed=fraction <= max_violation_fraction,
        detail=f"violation fraction {fraction:.2e} (gate {max_violation_fraction:.0e})",
    )


# ---------------------------------------------------------------------------
# penalty decay


def penalty_decay_suite(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    schedule: PenalizationSchedule,
    final_over_first_gate: float | None = None,
) -> PropertyResult:
    """Nonincreasing penalty errors along the schedule, within 2 joint MC
    standard errors, with the last level strictly below the first.
    ``final_over_first_gate`` optionally enforces a decay ratio."""
    if len(schedule.n_values) < 3:
        raise ValueError("schedule needs at least 3 levels")
    run = solve_reflected_penalization(
        spec, bundle, basis, replace(schedule, stop_tol=1e-300)
    )
    errs = np.array([r.penalty_error for r in run.table])
    ses = np.array([r.penalty_error_se for r in run.table])
    failures = 0
    worst = -np.inf
    witnesses: list[tuple] = []
    for k in range(len(errs) - 1):
        joint = float(np.hypot(ses[k], ses[k + 1]))
        margin = float(errs[k + 1] - errs[k] - 2.0 * joint)
        worst = max(worst, margin)
        if margin > 0.0:
            failures += 1
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append((float(run.table[k].n), float(errs[k]), float(errs[k + 1])))
    first, last = float(errs[0]), float(errs[-1])
    ok = failures == 0 and (last < first or first == 0.0)
    detail = f"first={first:.3e} last={last:.3e}"
    if final_over_first_gate is not None and first > 0.0:
        ratio = last / first
        detail += f" ratio={ratio:.3e}"
        ok = ok and ratio <= final_over_first_gate
    if not ok and not witnesses:
        witnesses.append((first, last))
        failures = max(failures, 1)
    return PropertyResult(
        name="penalty_decay",
        trials=len(errs) - 1,
        failures=failures,
        worst_margin=worst,
        witnesses=tuple(witnesses),
        passed=ok,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# scaling/finiteness consequences of the a-priori bounds


def scale_problem_data(spec: ProblemSpec, s: float) -> ProblemSpec:
    """Scale the data (terminal, obstacle, driver inhomogeneity) by s > 0.

    Uses f_s(y, z, u) = s f(y/s, z/s, u/s), which for drivers linear in
    (y, z, u) scales exactly the inhomogeneous part; together with the
    scaled terminal and obstacle the solution fields scale linearly."""
    if s <= 0.0:
        raise ValueError("scale must be positive")
    return _rescale_data(spec, lambda t: s, s)


def data_norms(spec: ProblemSpec, bundle: PathBundle) -> float:
    """Aggregate data size: terminal p-norm, inhomogeneity integral and
    weighted obstacle supremum (the right-hand side of the stability
    bound), p-th powers summed."""
    e = spec.exponents
    p, q, beta = e.p, e.q, e.beta
    A = bundle.A_path
    X = bundle.forward_states
    xi = spec.terminal_values(X[:, -1])
    term = np.exp(0.5 * p * beta * A[:, -1]) * np.abs(xi) ** p
    steps = bundle.grid.steps
    varphi = bundle.coeff_path.varphi
    inhom = np.sum(np.exp(beta * A[:, :-1]) * varphi[:, :-1] ** p * steps[None, :], axis=1)
    L = obstacle_on_grid(spec, bundle)
    obst = np.max(
        (np.exp(0.5 * q * beta * A) * np.maximum(L, 0.0)) ** p, axis=1
    )
    return float(np.mean(term) + np.mean(inhom) + np.mean(obst))


def _report_fields(r: NormReport) -> Array:
    return np.array([r.s_p_beta, r.s_pA_beta, r.h_p_beta, r.l_p_lambda_beta, r.l_p_mu_beta, r.k_p])


def apriori_suite(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    n_penalty: float = 64.0,
    scales: Sequence[float] = (1.0, 2.0, 4.0),
    scaling_rtol: float = 0.05,
    refinement_factor_gate: float = 2.0,
) -> PropertyResult:
    """Three checkable consequences of the a-priori stability bound:
    (i) every norm estimate is finite; (ii) scaling the data by s scales
    every field by s^p within tolerance (exactly on the same bundle for
    linear drivers); (iii) the solution-to-data norm ratio is stable
    under grid refinement N -> 2N (within a factor gate)."""
    e = spec.exponents
    failures = 0
    worst = -np.inf
    witnesses: list[tuple] = []
    trials = 0

    base_sol = solve_penalized(spec, bundle, basis, n_penalty)
    base_rep = _report_fields(estimate_norms(base_sol, bundle, e))
    trials += base_rep.size
    if not np.all(np.isfinite(base_rep)):
        failures += 1
        witnesses.append(("nonfinite", tuple(base_rep)))

    for s in scales:
        if s == 1.0:
            continue
        sc = scale_problem_data(spec, s)
        sol_s = solve_penalized(sc, bundle, basis, n_penalty)
        rep_s = _report_fields(estimate_norms(sol_s, bundle, e))
        expected = base_rep * s**e.p
        denom = np.maximum(np.abs(expected), 1e-30)
        rel = np.abs(rep_s - expected) / denom
        active = expected > 1e-30
        trials += int(np.sum(active))
        margin = float(np.max(np.where(active, rel - scaling_rtol, -np.inf)))
        worst = max(worst, margin)
        bad = active & (rel > scaling_rtol)
        if bad.any():
            failures += int(np.sum(bad))
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append((f"scale {s}", tuple(np.where(bad)[0].tolist())))

    # refinement stability of the bound's shape
    N = bundle.grid.n_steps
    fine_grid = build_grid(bundle.grid.horizon, 2 * N)
    fine_bundle = sample_paths(spec, fine_grid, bundle.n_paths, bundle.seed)
    fine_sol = solve_penalized(spec, fine_bundle, basis, n_penalty)
    fine_rep = _report_fields(estimate_norms(fine_sol, fine_bundle, e))
    lhs_coarse = float(np.sum(base_rep))
    lhs_fine = float(np.sum(fine_rep))
    ratio_coarse = lhs_coarse / max(data_norms(spec, bundle), 1e-300)
    ratio_fine = lhs_fine / max(data_norms(spec, fine_bundle), 1e-300)
    trials += 1
    if ratio_coarse > 0.0 and ratio_fine > 0.0:
        factor = max(ratio_coarse / ratio_fine, ratio_fine / ratio_coarse)
        worst = max(worst, factor - refinement_factor_gate)
        if factor > refinement_factor_gate:
            failures += 1
            witnesses.append(("refinement", ratio_coarse, ratio_fine))
    elif (ratio_coarse > 0.0) != (ratio_fine > 0.0):
        failures += 1
        witnesses.append(("refinement_degenerate", ratio_coarse, ratio_fine))

    return PropertyResult(
        name="apriori_scaling",
        trials=trials,
        failures=failures,
        worst_margin=worst,
        witnesses=tuple(witnesses),
        passed=failures == 0,
    )


# ---------------------------------------------------------------------------
# fixed-point contraction


def contraction_suite(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    beta_values: Sequence[float] | None = None,
    n_penalty: float = 64.0,
    tol: float = 1e-10,
    max_iter: int = 12,
) -> PropertyResult:
    """Residual ratios of the fixed-point iteration across weight
    exponents. Requires every beta to clear the stability threshold
    2(p-1)/p; passes when ratios r_k = d_{k+1}/d_k stay below 1 for
    k >= 1 at the largest beta. Records a ratio-vs-beta table in
    ``detail``."""
    e = spec.exponents
    threshold = 2.0 * (e.p - 1.0) / e.p
    if beta_values is None:
        beta_values = (e.beta,)
    for b in beta_values:
        if b <= threshold:
            raise ValueError(f"beta={b!r} does not exceed the threshold {threshold!r}")
    table = []
    worst = -np.inf
    failures = 0
    witnesses: list[tuple] = []
    trials = 0
    for b in sorted(beta_values):
        spec_b = replace(spec, exponents=e.with_beta(b))
        sol = picard_solve(spec_b, bundle, basis, n_penalty, tol=tol, max_iter=max_iter)
        res = np.asarray(sol.run.residual_history)
        ratios = res[1:] / np.maximum(res[:-1], 1e-300)
        meaningful = res[:-1] > 10.0 * tol
        ratios = ratios[meaningful]
        table.append((b, tuple(round(float(r), 4) for r in ratios)))
        if b == max(beta_values):
            trials = max(len(ratios), 1)
            if len(ratios):
                worst = float(np.max(ratios) - 1.0)
                bad = ratios >= 1.0
                failures = int(np.sum(bad))
                if failures:
                    witnesses.append((b, tuple(float(r) for r in ratios)))
            else:
                worst = -1.0  # converged immediately; vacuous pass
    return PropertyResult(
        name="picard_contraction",
        trials=trials,
        failures=failures,
        worst_margin=worst,
        witnesses=tuple(witnesses),
        passed=failures == 0,
        detail="; ".join(f"beta={b:g}: ratios={r}" for b, r in table),
    )


# ---------------------------------------------------------------------------
# cross-scheme check of the jump-response estimator


def jump_estimator_crosscheck(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    n_penalty: float = 64.0,
    se_gate: float = 2.0,
) -> PropertyResult:
    """Agreement between the two jump-response routes.

    Solves the problem once with the shifted-continuation estimator and
    once with the compensated-increment regression, and requires the
    resulting values to agree within ``se_gate`` Monte Carlo standard
    errors. Meaningful only when the driver consumes the jump argument;
    otherwise the solves coincide and the check passes vacuously."""
    a = solve_penalized(spec, bundle, basis, n_penalty, u_estimator="shifted")
    b = solve_penalized(spec, bundle, basis, n_penalty, u_estimator="compensated")
    gap = abs(a.y0_mean() - b.y0_mean())
    tol = se_gate * max(a.run.y0_stderr, b.run.y0_stderr, 1e-14)
    ok = gap <= tol
    return PropertyResult(
        name="jump_estimator_crosscheck",
        trials=1,
        failures=0 if ok else 1,
        worst_margin=gap - tol,
        witnesses=() if ok else ((a.y0_mean(), b.y0_mean(), tol),),
        passed=ok,
        detail=f"|dY0|={gap:.3e} gate={tol:.3e}",
    )


# ---------------------------------------------------------------------------
# randomized factor-2 sweep


def make_synthetic_solution(bundle: PathBundle, u: Array, mark_weights: Array) -> BackwardSolution:
    """Wrap a jump-response field into a solution shell (zero Y, Z, K) so
    the norm estimators can run on it."""
    from .backward import RunRecord

    n, nodes = bundle.n_paths, bundle.grid.nodes.size
    zeros = np.zeros((n, nodes))
    return BackwardSolution(
        y=zeros, z=zeros, u=u, gamma=zeros,
        k_cum=zeros, k_jump_T=np.zeros(n),
        run=RunRecord(
            n_penalty=0.0, picard_iters=0, residual_history=(),
            seed=bundle.seed, wall_time=0.0,
        ),
        mark_weights=np.asarray(mark_weights, dtype=float),
    )


def lenglart_sweep(
    n_configs: int = 100,
    n_paths: int = 10_000,
    n_steps: int = 16,
    seed: int = 0,
) -> PropertyResult:
    """Randomized configurations (U-field, intensities, beta) checked
    against the factor-2 domination of realized jump energy."""
    from .registry import pure_jump_counter

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x13]))
    failures = 0
    worst = -np.inf
    witnesses: list[tuple] = []
    for c in range(n_configs):
        m = int(rng.integers(1, 4))
        weights = tuple(float(w) for w in rng.uniform(0.2, 2.0, m))
        marks = tuple(float(e) for e in rng.uniform(-1.0, 1.0, m))
        p = float(rng.uniform(1.05, 1.95))
        beta = float(rng.uniform(0.0, 2.0))
        spec = pure_jump_counter(T=1.0)
        spec = replace(
            spec,
            marks=MarkSpace(marks=marks, weights=weights),
            exponents=Exponents.from_p(p, beta=beta, eps=0.01),
        )
        bundle = sample_paths(spec, build_grid(1.0, n_steps), n_paths, seed=int(rng.integers(2**32)))
        t_nodes = bundle.grid.nodes
        base = rng.uniform(-2.0, 2.0, m)
        wobble = rng.uniform(0.5, 3.0, m)
        path_factor = 1.0 + 0.5 * rng.random(n_paths)
        u = (
            path_factor[:, None, None]
            * (base[None, None, :] + np.sin(wobble[None, None, :] * t_nodes[None, :, None]))
        )
        sol = make_synthetic_solution(bundle, u, np.asarray(weights))
        lhs, rhs, ok = lenglart_check(sol, bundle, spec.exponents)
        worst = max(worst, lhs - 2.0 * rhs)
        if not ok:
            failures += 1
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append((c, lhs, rhs, p, beta))
    return PropertyResult(
        name="lenglart_factor2",
        trials=n_configs,
        failures=failures,
        worst_margin=worst,
        witnesses=tuple(witnesses),
        passed=failures == 0,
    )
