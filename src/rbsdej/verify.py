"""Executable property suites: sampled probes of the assumptions on the
problem data, the pointwise jump inequality, penalty
comparison/decay, scaling consequences of the a-priori bounds, the
fixed-point contraction diagnostics, and a randomized sweep of the
factor-2 jump-energy domination.

Statistical gates (3 sigma pointwise, 0.1% violation fraction, factor-2
stability, the penalty decay ratio, the scaling tolerance and the
crosscheck's standard-error multiple) and the exponents of the jump sweep
are fixed conventions of the shipped suites so that pass/fail is
reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Sequence

import numpy as np

from .backward import (
    BackwardSolution,
    RegressionBasis,
    RunRecord,
    SolverError,
    picard_solve,
    solve_penalized,
)
from .model import (
    Exponents,
    MarkSpace,
    ProblemSpec,
    _require_count,
    _rescale_data,
    aggregate_rate,
    driver_uses_zu,
)
from .norms import NormReport, _weights, estimate_norms, lenglart_check
from .reflect import PenalizationSchedule, solve_reflected_penalization
from .simulate import PathBundle, build_grid, sample_paths

Array = np.ndarray

MAX_WITNESSES = 10
JUMP_BOX = 10.0  # the jump inequality is swept over [-JUMP_BOX, JUMP_BOX]^2
MAX_VIOLATION_FRACTION = 1e-3  # comparison suite: share of (path, node) allowed to violate
REFINEMENT_FACTOR_GATE = 2.0  # a-priori suite: norm-to-data ratio drift under N -> 2N
JUMP_P_VALUES = (1.1, 1.5, 1.9)  # jump inequality suite: the exponents p swept
DECAY_RATIO_GATE = 0.05  # penalty decay suite: largest last-to-first error ratio
APRIORI_N_PENALTY = 64.0  # a-priori suite: the penalty level of its solves
APRIORI_SCALES = (2.0, 4.0)  # a-priori suite: the data scales s checked against s^p
APRIORI_SCALING_RTOL = 0.05  # a-priori suite: relative tolerance of the s^p scaling
CONTRACTION_N_PENALTY = 8.0  # contraction suite: the penalty level of its Picard runs
CONTRACTION_TOL = 1e-10  # contraction suite: Picard tolerance; ratios count above 10x it
CONTRACTION_MAX_ITER = 12  # contraction suite: Picard iterations per weight exponent
CROSSCHECK_N_PENALTY = 8.0  # jump crosscheck: the penalty level of its two solves
CROSSCHECK_SE_GATE = 3.0  # jump crosscheck: allowed gap in Monte Carlo standard errors
LENGLART_N_STEPS = 16  # Lenglart sweep: grid steps of each configuration's bundle


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


@dataclass
class _Tally:
    """Running trials, failures and worst margin of one suite; keeps the
    first MAX_WITNESSES witnesses."""

    trials: int = 0
    failures: int = 0
    worst: float = -np.inf
    witnesses: list = field(default_factory=list)

    def add(self, trials: int, failures: int, margin: float = -np.inf, witnesses=()) -> None:
        self.trials += trials
        self.failures += failures
        if margin > self.worst or math.isnan(margin):  # a NaN margin sticks
            self.worst = margin
        self.witnesses += islice(witnesses, max(MAX_WITNESSES - len(self.witnesses), 0))

    def result(self, name: str, passed: bool | None = None, detail: str = "") -> PropertyResult:
        """The suite's result; it passes without failures unless ``passed`` says otherwise."""
        return PropertyResult(
            name=name, trials=self.trials, failures=self.failures, worst_margin=self.worst,
            witnesses=tuple(self.witnesses),
            passed=self.failures == 0 if passed is None else passed, detail=detail,
        )


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


# ---------------------------------------------------------------------------
# assumption probes


def validate_assumptions(
    spec: ProblemSpec, probe_budget: int = 256, seed: int = 0
) -> tuple[PropertyResult, ...]:
    """One result per structural assumption on (terminal, driver, obstacle),
    from ``probe_budget`` sampled rows (t, x, y, y', z, z', u, u'); a row
    whose margin exceeds the check's allowance fails, witnessed by its
    draws. Growth also needs varphi >= 1 at the first 8 sampled times:
    1 - varphi_min enters its worst margin, and a violation adds one
    ("varphi_min", value) failure unless every row failed already."""
    n = _require_count("probe_budget", probe_budget, 8)
    _require_count("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]))
    T, m, x0 = spec.horizon, spec.marks.m, spec.forward.x0
    t_s = rng.uniform(0.0, T, n)
    x_s = x0 + (1.0 + abs(x0)) * rng.standard_normal(n)
    y_s, y2_s = 3.0 * rng.standard_normal((2, n))
    z_s, z2_s = 2.0 * rng.standard_normal((2, n))
    u_s, u2_s = 1.5 * rng.standard_normal((2, n, m))

    # coefficient rates vary with t, so probe row by row
    rows = []
    for i in range(n):
        t, x = float(t_s[i]), x_s[i : i + 1]
        y, z, u = y_s[i : i + 1], z_s[i : i + 1], u_s[i : i + 1]
        r = spec.coeffs.rates(t, x)
        f = spec.driver_values(t, x, y, z, u)[0]
        f_y2 = spec.driver_values(t, x, y2_s[i : i + 1], z, u)[0]
        f_zu2 = spec.driver_values(t, x, y, z2_s[i : i + 1], u2_s[i : i + 1])[0]
        f_00 = spec.driver_values(t, x, y, np.zeros(1), np.zeros((1, m)))[0]
        f_dy = spec.driver_values(t, x, y + 1e-7, z, u)[0]
        dy = y_s[i] - y2_s[i]
        du = float(spec.marks.norm_lambda(u_s[i] - u2_s[i]))
        rows.append((
            # monotonicity in y: (y - y') (f(y) - f(y')) <= alpha |y - y'|^2
            -np.inf if abs(dy) < 1e-12
            else float(dy * (f - f_y2) - r["alpha"][0] * dy * dy) / (dy * dy),
            # Lipschitz in (z, u): |f(z, u) - f(z', u')| <= eta |z - z'| + delta ||u - u'||
            float(abs(f - f_zu2) - (r["eta"][0] * abs(z_s[i] - z2_s[i]) + r["delta"][0] * du)),
            # growth: |f(t, y, 0, 0)| <= varphi + phi |y|
            float(abs(f_00) - (r["varphi"][0] + r["phi"][0] * abs(y_s[i]))),
            # aggregate rate floor: a^2 >= eps
            spec.exponents.eps - float(aggregate_rate(r)[0]),
            # driver continuity in y, finite-difference probe
            float(abs(f_dy - f) - 1e-3 * (1.0 + abs(f))),
        ))
    mono, lip, growth, floor, cont = np.array(rows, dtype=float).T
    varphi_min = min(float(np.min(spec.coeffs.rates(float(t), x_s)["varphi"])) for t in t_s[:8])
    # barrier consistency at the horizon: obstacle(T, x) <= terminal(x)
    xi, LT = spec.terminal_values(x_s), spec.obstacle_values(T, x_s)

    tol = 1e-9
    results = []
    for name, margins, allowance, draws in (
        ("monotonicity_y", mono, tol, (t_s, x_s, y_s, y2_s)),
        ("lipschitz_zu", lip, tol, (t_s, x_s, z_s, z2_s)),
        ("growth", growth, tol, (t_s, x_s, y_s)),
        ("rate_floor", floor, tol, (t_s, x_s)),
        ("y_continuity_probe", cont, 0.0, (t_s, x_s, y_s)),
        ("obstacle_below_terminal", LT - xi, tol * (1.0 + float(np.max(np.abs(xi)))),
         (x_s, LT, xi)),
    ):
        bad = np.flatnonzero(~(margins <= allowance))  # a NaN margin fails
        tally, detail = _Tally(), ""
        if name == "growth":
            side = not varphi_min >= 1.0 - 1e-12 and bad.size < n
            tally.add(0, int(side), 1.0 - varphi_min, [("varphi_min", varphi_min)] if side else ())
            detail = "includes varphi >= 1"
        tally.add(n, bad.size, float(margins[np.argmax(margins)]),  # first worst row, or NaN
                  (tuple(float(c[i]) for c in draws) for i in bad))
        results.append(tally.result(name, detail=detail))
    return tuple(results)


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


def jump_inequality_suite(n_samples: int = 1_000_000, seed: int = 0) -> PropertyResult:
    """Uniform random sweep of the jump inequality over [-JUMP_BOX, JUMP_BOX]^2,
    ``n_samples`` draws for each p in JUMP_P_VALUES."""
    _require_count("n_samples", n_samples, 1)
    _require_count("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x11]))
    tally = _Tally()
    for p in JUMP_P_VALUES:
        y = rng.uniform(-JUMP_BOX, JUMP_BOX, n_samples)
        u = rng.uniform(-JUMP_BOX, JUMP_BOX, n_samples)
        lhs, rhs, ok = check_jump_inequality(y, u, p)
        bad = np.flatnonzero(~ok)
        tally.add(n_samples, bad.size, float(np.max(rhs - lhs)),
                  ((float(y[i]), float(u[i]), float(p)) for i in bad))
    return tally.result("jump_inequality")


# ---------------------------------------------------------------------------
# penalty comparison


def comparison_suite(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    n_pairs: Sequence[tuple[float, float]],
) -> PropertyResult:
    """Monotonicity of the penalized solution in the penalty level.

    For each (n, n') with n < n', solves both on the same bundle and
    counts (path, node) entries where y at the smaller level exceeds y at
    the larger level beyond 3 local MC standard errors (with an absolute
    floor of 1e-10 relative to scale, so noise-free problems are held to
    exact monotonicity).
    """
    if not len(n_pairs):
        raise ValueError("n_pairs must hold at least one pair")
    if driver_uses_zu(spec):
        raise ValueError("comparison_suite requires a driver independent of (z, u)")
    tally = _Tally()
    n_paths = bundle.n_paths
    for n_lo, n_hi in n_pairs:
        if not n_lo < n_hi:
            raise ValueError("pairs must be ordered n < n'")
        lo = solve_penalized(spec, bundle, basis, n_lo)
        hi = solve_penalized(spec, bundle, basis, n_hi)
        diff = lo.y - hi.y  # positive entries violate monotonicity
        se = np.std(diff, axis=0, ddof=1) / np.sqrt(n_paths) if n_paths > 1 else np.zeros(diff.shape[1])
        tol = np.maximum(3.0 * se[None, :], 1e-10 * (1.0 + np.abs(hi.y)))
        bad = np.argwhere(diff > tol)
        tally.add(diff.size, len(bad), float(np.max(diff - tol)), (
            (float(n_lo), float(n_hi), int(pi), int(ni), float(diff[pi, ni])) for pi, ni in bad
        ))
    fraction = tally.failures / tally.trials if tally.trials else 0.0
    return tally.result(
        "comparison_monotonicity",
        passed=fraction <= MAX_VIOLATION_FRACTION,
        detail=f"violation fraction {fraction:.2e} (gate {MAX_VIOLATION_FRACTION:.0e})",
    )


# ---------------------------------------------------------------------------
# penalty decay


def penalty_decay_suite(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    schedule: PenalizationSchedule,
) -> PropertyResult:
    """Nonincreasing penalty errors along the schedule, within 2 joint MC
    standard errors, with the last level strictly below the first and,
    when the first is positive, at most DECAY_RATIO_GATE times it."""
    if len(schedule.n_values) < 3:
        raise ValueError("schedule needs at least 3 levels")
    run = solve_reflected_penalization(
        spec, bundle, basis, replace(schedule, stop_tol=1e-300)
    )
    errs = np.array([r.penalty_error for r in run.table])
    ses = np.array([r.penalty_error_se for r in run.table])
    tally = _Tally()
    for k in range(len(errs) - 1):
        joint = float(np.hypot(ses[k], ses[k + 1]))
        margin = float(errs[k + 1] - errs[k] - 2.0 * joint)
        bad = margin > 0.0
        tally.add(1, int(bad), margin,
                  [(float(run.table[k].n), float(errs[k]), float(errs[k + 1]))] if bad else [])
    first, last = float(errs[0]), float(errs[-1])
    ok = tally.failures == 0 and (last < first or first == 0.0)
    detail = f"first={first:.3e} last={last:.3e}"
    if first > 0.0:
        ratio = last / first
        detail += f" ratio={ratio:.3e}"
        ok = ok and ratio <= DECAY_RATIO_GATE
    if not ok and not tally.witnesses:  # a failed decay gate witnesses (first, last)
        tally.add(0, 1, witnesses=[(first, last)])
    return tally.result("penalty_decay", detail=detail)


# ---------------------------------------------------------------------------
# scaling/finiteness consequences of the a-priori bounds


def scale_problem_data(spec: ProblemSpec, s: float) -> ProblemSpec:
    """Scale the data (terminal, obstacle, driver inhomogeneity) by s > 0.

    Uses f_s(y, z, u) = s f(y/s, z/s, u/s), which for drivers linear in
    (y, z, u) scales exactly the inhomogeneous part; together with the
    scaled terminal and obstacle the solution fields scale linearly."""
    if not 0.0 < s < np.inf:
        raise ValueError(f"scale s must be positive and finite, got {s!r}")
    return _rescale_data(spec, lambda t: s, s)


def data_norms(sol: BackwardSolution, spec: ProblemSpec, bundle: PathBundle) -> float:
    """Aggregate data size of a solve: terminal p-norm, inhomogeneity
    integral and weighted obstacle supremum (the right-hand side of the
    stability bound), p-th powers summed. The terminal values are the
    solution's last column, the obstacle is the one it carries and the
    inhomogeneity is ``spec``'s, at the bundle's states."""
    e, A, steps = spec.exponents, bundle.A_path, bundle.grid.steps
    term = _weights(A[:, -1], e.beta, 0.5 * e.p)[0] * np.abs(sol.y[:, -1]) ** e.p
    inhom, obst = np.zeros(A.shape[0]), np.zeros(A.shape[0])
    for i, t in enumerate(bundle.grid.nodes):
        at_step = i < steps.size  # node N has no dt-integral, so no e^{beta A} weight
        w_q, *w = _weights(A[:, i], e.beta, 0.5 * e.q, *([1.0] if at_step else []))
        L_i = np.maximum(sol.obstacle[:, i], 0.0)
        np.maximum(obst, (w_q * L_i) ** e.p, out=obst)
        if at_step:  # a full column, so a scalar varphi takes the array ** p
            varphi = np.full(A.shape[0], spec.coeffs.varphi(float(t), bundle.forward_states[:, i]))
            inhom += w[0] * varphi ** e.p * steps[i]
    return float(np.mean(term) + np.mean(inhom) + np.mean(obst))


def _report_fields(r: NormReport) -> Array:
    return np.array([r.s_p_beta, r.s_pA_beta, r.h_p_beta, r.l_p_lambda_beta, r.l_p_mu_beta, r.k_p])


def apriori_suite(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
) -> PropertyResult:
    """Three checkable consequences of the a-priori stability bound, from
    penalized solves at level APRIORI_N_PENALTY: (i) every norm estimate
    is finite; (ii) scaling the data by each s in APRIORI_SCALES scales
    every field by s^p within relative tolerance APRIORI_SCALING_RTOL
    (exactly on the same bundle for linear drivers); (iii) the
    solution-to-data norm ratio is stable under grid refinement N -> 2N
    (within a factor gate); a ratio that is not finite fails that trial."""
    e = spec.exponents
    tally = _Tally()

    base_sol = solve_penalized(spec, bundle, basis, APRIORI_N_PENALTY)
    base_rep = _report_fields(estimate_norms(base_sol, bundle, e))
    finite = bool(np.all(np.isfinite(base_rep)))
    tally.add(base_rep.size, int(not finite),
              witnesses=[] if finite else [("nonfinite", tuple(base_rep))])

    for s in APRIORI_SCALES:
        sc = scale_problem_data(spec, s)
        sol_s = solve_penalized(sc, bundle, basis, APRIORI_N_PENALTY)
        rep_s = _report_fields(estimate_norms(sol_s, bundle, e))
        expected = base_rep * s**e.p
        denom = np.maximum(np.abs(expected), 1e-30)
        rel = np.abs(rep_s - expected) / denom
        active = expected > 1e-30
        bad = active & (rel > APRIORI_SCALING_RTOL)
        tally.add(int(np.sum(active)), int(np.sum(bad)),
                  float(np.max(np.where(active, rel - APRIORI_SCALING_RTOL, -np.inf))),
                  [(f"scale {s}", tuple(np.where(bad)[0].tolist()))] if bad.any() else [])

    # refinement stability of the bound's shape
    N = bundle.grid.n_steps
    fine_grid = build_grid(bundle.grid.horizon, 2 * N)
    fine_bundle = sample_paths(spec, fine_grid, bundle.n_paths, bundle.seed)
    fine_sol = solve_penalized(spec, fine_bundle, basis, APRIORI_N_PENALTY)
    fine_rep = _report_fields(estimate_norms(fine_sol, fine_bundle, e))
    lhs_coarse = float(np.sum(base_rep))
    lhs_fine = float(np.sum(fine_rep))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf weight on 0 data reads NaN
        data = data_norms(base_sol, spec, bundle), data_norms(fine_sol, spec, fine_bundle)
    ratio_coarse, ratio_fine = lhs_coarse / max(data[0], 1e-300), lhs_fine / max(data[1], 1e-300)
    if not all(map(math.isfinite, (ratio_coarse, ratio_fine, *data))):  # inf data: a ratio of 0
        tally.add(1, 1, math.nan, [("refinement_nonfinite", ratio_coarse, ratio_fine, *data)])
    elif ratio_coarse > 0.0 and ratio_fine > 0.0:
        factor = max(ratio_coarse / ratio_fine, ratio_fine / ratio_coarse)
        bad = factor > REFINEMENT_FACTOR_GATE
        tally.add(1, int(bad), factor - REFINEMENT_FACTOR_GATE,
                  [("refinement", ratio_coarse, ratio_fine)] if bad else [])
    else:
        bad = (ratio_coarse > 0.0) != (ratio_fine > 0.0)
        tally.add(1, int(bad),
                  witnesses=[("refinement_degenerate", ratio_coarse, ratio_fine)] if bad else [])
    return tally.result("apriori_scaling")


# ---------------------------------------------------------------------------
# fixed-point contraction


def contraction_suite(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    beta_values: Sequence[float] | None = None,
) -> PropertyResult:
    """Residual ratios of the fixed-point iteration across weight
    exponents, from ``picard_solve`` at CONTRACTION_N_PENALTY,
    CONTRACTION_TOL and CONTRACTION_MAX_ITER. Requires every beta to clear
    the stability threshold 2(p-1)/p; passes when ratios r_k = d_{k+1}/d_k
    stay below 1 for k >= 1 at the largest beta. A run whose residual is
    not finite fails the property, with its SolverError message as the
    witness. Records a ratio-vs-beta table in ``detail``."""
    e = spec.exponents
    threshold = 2.0 * (e.p - 1.0) / e.p
    if beta_values is None:
        beta_values = (e.beta,)
    if not len(beta_values):
        raise ValueError("beta_values must hold at least one weight exponent")
    for b in beta_values:
        if b <= threshold:
            raise ValueError(f"beta={b!r} does not exceed the threshold {threshold!r}")
    table = []
    tally = _Tally()
    for b in sorted(beta_values):
        spec_b = replace(spec, exponents=replace(e, beta=b))
        try:
            sol = picard_solve(spec_b, bundle, basis, CONTRACTION_N_PENALTY,
                               tol=CONTRACTION_TOL, max_iter=CONTRACTION_MAX_ITER)
        except SolverError as exc:  # a residual that is not finite
            table.append((b, "failed"))
            tally.add(1, 1, math.nan, [(b, str(exc))])
            continue
        res = np.asarray(sol.run.residual_history)
        ratios = res[1:] / np.maximum(res[:-1], 1e-300)
        meaningful = res[:-1] > 10.0 * CONTRACTION_TOL
        ratios = ratios[meaningful]
        table.append((b, tuple(round(float(r), 4) for r in ratios)))
        if b == max(beta_values):  # no meaningful ratio: converged at once, a vacuous pass
            bad = ~(ratios < 1.0)
            tally.add(max(len(ratios), 1), int(np.sum(bad)),
                      float(np.max(ratios) - 1.0) if len(ratios) else -1.0,
                      [(b, tuple(float(r) for r in ratios))] if bad.any() else [])
    return tally.result(
        "picard_contraction", detail="; ".join(f"beta={b:g}: ratios={r}" for b, r in table)
    )


# ---------------------------------------------------------------------------
# cross-scheme check of the jump-response estimator


def jump_estimator_crosscheck(
    spec: ProblemSpec, bundle: PathBundle, basis: RegressionBasis
) -> PropertyResult:
    """Agreement between the two jump-response routes.

    Solves the problem at level CROSSCHECK_N_PENALTY once with the
    shifted-continuation estimator and once with the compensated-increment
    regression, and requires the resulting values to agree within
    CROSSCHECK_SE_GATE Monte Carlo standard errors. Meaningful only when
    the driver consumes the jump argument; otherwise the solves coincide
    and the check passes vacuously."""
    a = solve_penalized(spec, bundle, basis, CROSSCHECK_N_PENALTY, u_estimator="shifted")
    b = solve_penalized(spec, bundle, basis, CROSSCHECK_N_PENALTY, u_estimator="compensated")
    gap = abs(a.y0_mean() - b.y0_mean())
    tol = CROSSCHECK_SE_GATE * max(a.run.y0_stderr, b.run.y0_stderr, 1e-14)
    ok = gap <= tol
    tally = _Tally()
    tally.add(1, int(not ok), gap - tol, [] if ok else [(a.y0_mean(), b.y0_mean(), tol)])
    return tally.result("jump_estimator_crosscheck", detail=f"|dY0|={gap:.3e} gate={tol:.3e}")


# ---------------------------------------------------------------------------
# randomized factor-2 sweep


def make_synthetic_solution(bundle: PathBundle, u: Array, mark_weights: Array) -> BackwardSolution:
    """Wrap a jump-response field into a solution shell (zero Y, Z, K and
    obstacle) so the norm estimators can run on it."""
    n, nodes = bundle.n_paths, bundle.grid.nodes.size
    zeros = np.zeros((n, nodes), order="F")
    return BackwardSolution(
        y=zeros, z=zeros, u=u, k_cum=zeros, k_jump_T=np.zeros(n), obstacle=zeros,
        run=RunRecord(), mark_weights=np.asarray(mark_weights, dtype=float),
    )


def lenglart_sweep(
    n_configs: int = 100,
    n_paths: int = 10_000,
    seed: int = 0,
) -> PropertyResult:
    """Randomized configurations (U-field, intensities, beta) checked
    against the factor-2 domination of realized jump energy, each on a
    bundle of LENGLART_N_STEPS grid steps."""
    from .registry import pure_jump_counter

    _require_count("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x13]))
    tally = _Tally()
    for c in range(_require_count("n_configs", n_configs, 1)):
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
        bundle = sample_paths(spec, build_grid(1.0, LENGLART_N_STEPS), n_paths,
                              seed=int(rng.integers(2**32)))
        t_nodes = bundle.grid.nodes
        base = rng.uniform(-2.0, 2.0, m)
        wobble = rng.uniform(0.5, 3.0, m)
        path_factor = 1.0 + 0.5 * rng.random(n_paths)
        u = np.multiply(
            path_factor[:, None, None],
            base[None, None, :] + np.sin(wobble[None, None, :] * t_nodes[None, :, None]),
            out=np.empty((n_paths, t_nodes.size, m), order="F"),
        )
        sol = make_synthetic_solution(bundle, u, np.asarray(weights))
        lhs, rhs, ok = lenglart_check(sol, bundle, spec.exponents)
        tally.add(1, int(not ok), lhs - 2.0 * rhs, [] if ok else [(c, lhs, rhs, p, beta)])
    return tally.result("lenglart_factor2")
