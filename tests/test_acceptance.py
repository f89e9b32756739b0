"""Acceptance battery: every criterion at its stated tolerance, one
printed pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`
(or -rA) to see the lines."""
import math
import time

import numpy as np
import pytest

import rbsdej as rb
import rbsdej.cli as cli


def _report(k: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {k:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


BASIS0 = rb.RegressionBasis(degree=0)
BASIS4 = rb.RegressionBasis(degree=4)


def test_01_deterministic_penalization_closed_form():
    t0 = time.perf_counter()
    spec = rb.build_problem("flat_obstacle")
    bundle = rb.sample_paths(spec, rb.build_grid(1.0, 1000), 4, seed=7)
    sol = rb.solve_penalized(spec, bundle, BASIS0, 10.0)
    elapsed = time.perf_counter() - t0
    target = 1.0 - math.exp(-10.0)
    y_gap = abs(sol.y0_mean() - target)
    k_gap = abs(float(np.mean(sol.k_T())) - target)
    _report(
        1, "deterministic penalization closed form",
        y_gap <= 2e-2 and k_gap <= 2e-2 and elapsed < 1.0,
        f"|Y0-target|={y_gap:.2e}, |K_T-target|={k_gap:.2e}, {elapsed:.2f}s",
    )


def test_02_reflected_limit_with_terminal_jump():
    spec = rb.build_problem("flat_obstacle")
    bundle = rb.sample_paths(spec, rb.build_grid(1.0, 1000), 4, seed=7)
    run = rb.solve_reflected_penalization(
        spec, bundle, BASIS0, rb.PenalizationSchedule.geometric(1.0, 11, 1e-3),
    )
    sol = run.solution
    y_gap = abs(sol.y0_mean() - 1.0)
    k_gap = abs(float(np.mean(sol.k_T())) - 1.0)
    mass = float(np.mean(sol.k_jump_T))
    _report(
        2, "reflected limit and predictable terminal jump",
        y_gap <= 5e-3 and k_gap <= 5e-3 and mass >= 0.99,
        f"|Y0-1|={y_gap:.1e}, |K_T-1|={k_gap:.1e}, jump mass={mass:.4f}",
    )


def _oracle_equivalence(name: str, time_limit: float):
    t0 = time.perf_counter()
    spec = rb.build_problem(name)
    bundle = rb.sample_paths(spec, rb.build_grid(1.0, 50), 20_000, seed=11)
    run = rb.solve_reflected_penalization(
        spec, bundle, BASIS4, rb.PenalizationSchedule.geometric(1.0, 11, 1e-12),
    )
    dp = rb.solve_reflected_dp_oracle(spec, bundle, BASIS4)
    elapsed = time.perf_counter() - t0
    assert run.table[-1].n == 2.0**10
    rel = abs(run.solution.y0_mean() - dp.y0_mean()) / abs(dp.y0_mean())
    return rel, elapsed, elapsed < time_limit and rel <= 0.01


def test_03_oracle_equivalence_diffusion():
    rel, elapsed, ok = _oracle_equivalence("american_put", 60.0)
    _report(3, "oracle equivalence (diffusion)", ok, f"rel gap={rel:.3%}, {elapsed:.1f}s")


def test_04_oracle_equivalence_jumps():
    rel, elapsed, ok = _oracle_equivalence("american_put_jumps", 120.0)
    _report(4, "oracle equivalence (jumps)", ok, f"rel gap={rel:.3%}, {elapsed:.1f}s")


def test_05_comparison_monotonicity():
    flat = rb.build_problem("flat_obstacle")
    flat_bundle = rb.sample_paths(flat, rb.build_grid(1.0, 100), 8, seed=7)
    det = rb.comparison_suite(flat, flat_bundle, BASIS0, [(1.0, 2.0), (2.0, 4.0)])
    put = rb.build_problem("american_put")
    put_bundle = rb.sample_paths(put, rb.build_grid(1.0, 25), 10_000, seed=11)
    mc = rb.comparison_suite(
        put, put_bundle, rb.RegressionBasis(degree=3), [(4.0, 8.0), (8.0, 16.0)]
    )
    _report(
        5, "comparison monotonicity",
        det.failures == 0 and mc.passed,
        f"deterministic failures={det.failures}; MC {mc.detail}",
    )


def test_06_penalty_decay():
    assert rb.verify.DECAY_RATIO_GATE == 0.05
    flat = rb.build_problem("flat_obstacle")
    flat_bundle = rb.sample_paths(flat, rb.build_grid(1.0, 100), 8, seed=7)
    res_flat = rb.penalty_decay_suite(
        flat, flat_bundle, BASIS0,
        rb.PenalizationSchedule.geometric(1.0, 11, 1e-3),
    )
    put = rb.build_problem("american_put")
    put_bundle = rb.sample_paths(put, rb.build_grid(1.0, 25), 10_000, seed=11)
    res_put = rb.penalty_decay_suite(
        put, put_bundle, rb.RegressionBasis(degree=3),
        rb.PenalizationSchedule.geometric(1.0, 11, 1e-12),
    )
    free = rb.build_problem("brownian_terminal")
    free_bundle = rb.sample_paths(free, rb.build_grid(1.0, 10), 2_000, seed=11)
    res_free = rb.penalty_decay_suite(
        free, free_bundle, rb.RegressionBasis(degree=3),
        rb.PenalizationSchedule.geometric(1.0, 3, 1e-12),
    )
    _report(
        6, "penalty decay",
        res_flat.passed and res_put.passed and res_free.passed,
        f"flat[{res_flat.detail}] put[{res_put.detail}] free[{res_free.detail}]",
    )


def test_07_jump_inequality_million_samples():
    assert rb.verify.JUMP_P_VALUES == (1.1, 1.5, 1.9)
    t0 = time.perf_counter()
    res = rb.jump_inequality_suite(n_samples=1_000_000, seed=0)
    elapsed = time.perf_counter() - t0
    _report(
        7, "pointwise jump inequality",
        res.failures == 0 and elapsed < 5.0,
        f"{res.trials} samples, failures={res.failures}, {elapsed:.2f}s",
    )


def test_08_lenglart_factor_two():
    res = rb.lenglart_sweep(n_configs=100, n_paths=10_000, seed=0)
    _report(
        8, "factor-2 jump-energy domination",
        res.passed,
        f"configs={res.trials}, failures={res.failures}, worst margin={res.worst_margin:.3e}",
    )


def test_09_homogeneity_of_norms():
    # deterministic problem: exact s^p scaling of every field
    flat = rb.build_problem("flat_obstacle")
    flat_bundle = rb.sample_paths(flat, rb.build_grid(1.0, 100), 8, seed=7)
    put = rb.build_problem("american_put")
    put_bundle = rb.sample_paths(put, rb.build_grid(1.0, 25), 10_000, seed=11)
    worst_det, worst_mc = 0.0, 0.0
    for spec, bundle, basis, is_det in (
        (flat, flat_bundle, BASIS0, True),
        (put, put_bundle, rb.RegressionBasis(degree=3), False),
    ):
        e = spec.exponents
        base = rb.solve_penalized(spec, bundle, basis, 64.0)
        rep0 = rb.estimate_norms(base, bundle, e)
        for s in (2.0, 4.0):
            sol_s = rb.solve_penalized(rb.scale_problem_data(spec, s), bundle, basis, 64.0)
            rep_s = rb.estimate_norms(sol_s, bundle, e)
            for name in ("s_p_beta", "s_pA_beta", "h_p_beta",
                         "l_p_lambda_beta", "l_p_mu_beta", "k_p"):
                b = getattr(rep0, name)
                v = getattr(rep_s, name)
                if b <= 1e-300:
                    continue
                rel = abs(v - s**e.p * b) / (s**e.p * b)
                if is_det:
                    worst_det = max(worst_det, rel)
                else:
                    worst_mc = max(worst_mc, rel)
    _report(
        9, "homogeneity of the stability-bound shape",
        worst_det <= 1e-10 and worst_mc <= 0.05,
        f"worst deterministic rel={worst_det:.2e}, worst MC rel={worst_mc:.2e}",
    )


def test_10_picard_contraction():
    details = []
    ok = True
    for name in ("linear_z", "linear_gamma"):
        spec = rb.build_problem(name)  # default beta
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 10_000, seed=3)
        basis = rb.RegressionBasis(degree=3)
        pic = rb.picard_solve(spec, bundle, basis, 64.0, tol=1e-10, max_iter=15)
        res = pic.run.residual_history
        ratios = [res[i + 1] / res[i] for i in range(len(res) - 1) if res[i] > 1e-9]
        one = rb.solve_penalized(spec, bundle, basis, 64.0)
        agree = abs(pic.y0_mean() - one.y0_mean())
        gate = 2.0 * max(one.run.y0_stderr, pic.run.y0_stderr, 1e-12)
        this_ok = bool(ratios) and max(ratios) < 1.0 and agree <= gate
        ok = ok and this_ok
        details.append(f"{name}: max ratio={max(ratios):.3f}, |dY0|={agree:.1e}<= {gate:.1e}")
    _report(10, "fixed-point contraction and cross-scheme agreement", ok, "; ".join(details))


def test_11_reproducibility_across_threads(tmp_path):
    config = """\
[problem]
name = american_put_jumps

[grid]
horizon = 1.0
steps = 12

[mc]
paths = 8192
seed = 23

[basis]
degree = 3

[exponents]
p = 1.5
beta = auto
eps = 0.01

[schedule]
n0 = 1.0
levels = 4
stop_tol = 1e-9

[run]
mode = reflected
"""
    f = tmp_path / "exp.ini"
    f.write_text(config)
    views = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = cli.run(f, out_dir=out, threads=threads)
        assert code == cli.EXIT_OK
        views[threads] = {
            name: cli.reproducibility_view((out / name).read_text())
            for name in ("convergence.csv", "norms.csv", "solution.csv", "skorokhod.csv")
        }
    same = views[1] == views[2] == views[8]
    _report(
        11, "byte-identical CSVs across 1/2/8 worker threads",
        same,
        f"{sum(len(v) for v in views[1].values())} bytes compared per run",
    )
