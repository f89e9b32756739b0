import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbsdej as rb


class TestCondexpRegression:
    def test_exact_affine_representation(self):
        rng = np.random.default_rng(0)
        states = rng.uniform(-2.0, 5.0, 500)
        targets = 3.0 + 2.0 * states
        _, fitted = rb.condexp_regression(targets, states, rb.RegressionBasis(degree=1))
        assert np.max(np.abs(fitted - targets)) < 1e-10
        _, fitted2 = rb.condexp_regression(targets, states, rb.RegressionBasis(degree=4))
        assert np.max(np.abs(fitted2 - targets)) < 1e-9

    def test_constant_targets_coefficients(self):
        rng = np.random.default_rng(1)
        states = rng.uniform(0.0, 1.0, 200)
        coeffs, fitted = rb.condexp_regression(np.full(200, 5.0), states, rb.RegressionBasis(degree=2))
        assert coeffs == pytest.approx([5.0, 0.0, 0.0], abs=1e-9)
        assert fitted == pytest.approx(np.full(200, 5.0), abs=1e-9)

    def test_ols_consistency_quadratic(self):
        # oracle: OLS coefficient covariance sigma^2 (X'X)^{-1} in the
        # standardized coordinate s = (x - lo) / span, where x^2 has the
        # s^2 coefficient span^2
        rng = np.random.default_rng(2)
        n = 10000
        states = rng.uniform(-1.0, 1.0, n)
        noise = rng.standard_normal(n)
        targets = states**2 + noise
        coeffs, fitted = rb.condexp_regression(targets, states, rb.RegressionBasis(degree=2))
        lo, span = states.min(), states.max() - states.min()
        design = np.vander((states - lo) / span, 3, increasing=True)
        resid = targets - fitted
        sigma2 = float(resid @ resid) / (n - 3)
        cov = sigma2 * np.linalg.inv(design.T @ design)
        assert abs(coeffs[2] - span**2) < 4.0 * math.sqrt(cov[2, 2])

    def test_degenerate_states_collapse_to_mean(self):
        states = np.full(50, 1.25)
        targets = np.linspace(0.0, 1.0, 50)
        coeffs, fitted = rb.condexp_regression(targets, states, rb.RegressionBasis(degree=3))
        assert fitted == pytest.approx(np.full(50, 0.5), abs=1e-12)

    def test_too_few_paths_raises(self):
        with pytest.raises(rb.RegressionRankError, match="degree"):
            rb.condexp_regression(np.arange(3.0), np.arange(3.0), rb.RegressionBasis(degree=5))


class TestTruncateQn:
    def test_examples(self):
        assert rb.truncate_qn(3.0, 2.0) == pytest.approx(2.0)
        assert rb.truncate_qn(3.0, 5.0) == pytest.approx(3.0)
        assert rb.truncate_qn(-7.0, 3.0) == pytest.approx(-3.0)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            rb.truncate_qn(1.0, 0.0)

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=300)
    def test_bounds(self, x, n):
        out = rb.truncate_qn(x, n)
        assert abs(out) <= min(abs(x), n) + 1e-12 * (1.0 + abs(x))
        assert out * x >= 0.0  # sign preserved

    def test_pointwise_convergence(self):
        # q_n(x) -> x along a doubling schedule
        for x in (-17.3, 0.0, 2.5, 123.0):
            errs = [abs(rb.truncate_qn(x, 2.0**k) - x) for k in range(12)]
            assert errs[-1] == 0.0
            assert all(a >= b for a, b in zip(errs, errs[1:]))


class TestSolvePenalized:
    def test_flat_obstacle_closed_form(self, flat_spec, flat_bundle, basis0):
        # oracle: backward ODE Y' = -n (Y - 1)^-, Y(T) = 0 has
        # Y(t) = 1 - e^{-n (T - t)}
        sol = rb.solve_penalized(flat_spec, flat_bundle, basis0, 10.0)
        target = 1.0 - math.exp(-10.0)
        assert abs(sol.y0_mean() - target) <= 2e-2
        assert abs(float(np.mean(sol.k_T())) - target) <= 2e-2
        # interior closed form at a few nodes
        nodes = flat_bundle.grid.nodes
        for idx in (250, 500, 900):
            t = nodes[idx]
            assert abs(sol.y[0, idx] - (1.0 - math.exp(-10.0 * (1.0 - t)))) < 5e-3

    def test_martingale_case(self):
        spec = rb.build_problem("brownian_terminal", x0=0.7)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 20000, seed=9)
        sol = rb.solve_penalized(spec, bundle, rb.RegressionBasis(degree=3), 8.0)
        se = np.std(bundle.forward_states[:, -1]) / np.sqrt(bundle.n_paths)
        assert abs(sol.y0_mean() - 0.7) < 4.0 * se
        assert np.all(sol.k_cum == 0.0)

    def test_linear_driver_ode(self, basis0):
        # oracle: y' = y backwards from 1 gives e^{-T}
        spec = rb.build_problem("linear_y")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 800), 4, seed=2)
        sol = rb.solve_penalized(spec, bundle, basis0, 1.0)
        assert abs(sol.y0_mean() - math.exp(-1.0)) < 1e-3

    def test_terminal_row_exact(self, put_spec, put_bundle_small, basis3):
        sol = rb.solve_penalized(put_spec, put_bundle_small, basis3, 4.0)
        xi = put_spec.terminal_values(put_bundle_small.forward_states[:, -1])
        assert np.array_equal(sol.y[:, -1], xi)

    def test_k_bookkeeping_identity(self, put_spec, put_bundle_small, basis3):
        n = 16.0
        sol = rb.solve_penalized(put_spec, put_bundle_small, basis3, n)
        L = rb.backward.obstacle_on_grid(put_spec, put_bundle_small)
        dt = put_bundle_small.grid.steps
        expected = np.sum(n * dt[None, :] * np.maximum(L[:, :-1] - sol.y[:, :-1], 0.0), axis=1)
        assert np.max(np.abs(sol.k_cum[:, -1] - expected)) < 1e-12 * (1.0 + np.max(expected))
        assert np.all(np.diff(sol.k_cum, axis=1) >= 0.0)
        assert np.all(sol.k_cum[:, 0] == 0.0)

    def test_monotone_in_penalty_deterministic(self, flat_spec, flat_bundle_coarse, basis0):
        sols = [rb.solve_penalized(flat_spec, flat_bundle_coarse, basis0, n) for n in (1.0, 2.0, 4.0, 8.0)]
        for lo, hi in zip(sols, sols[1:]):
            assert np.all(hi.y >= lo.y - 1e-10)

    def test_frozen_mode_reproduces_one_pass(self, put_spec, put_bundle_small, basis3):
        # the one-pass solution is the exact fixed point of the frozen map
        one = rb.solve_penalized(put_spec, put_bundle_small, basis3, 8.0)
        again = rb.solve_penalized(put_spec, put_bundle_small, basis3, 8.0, frozen_zu=(one.z, one.u))
        assert np.array_equal(one.y, again.y)

    def test_nonaffine_driver_bisection(self, basis0):
        # driver with curvature in y: falls back to bisection and still
        # solves the implicit equation to high accuracy
        spec = rb.build_problem("linear_y")
        spec = replace(spec, driver=lambda t, x, y, z, u: -np.tanh(np.asarray(y, dtype=float)))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 50), 4, seed=3)
        sol = rb.solve_penalized(spec, bundle, basis0, 1.0)
        # residual of the implicit relation at step 0
        y0, y1 = sol.y[:, 0], sol.y[:, 1]
        dt = bundle.grid.steps[0]
        resid = y0 - (y1 + dt * (-np.tanh(y0)))
        assert np.max(np.abs(resid)) < 1e-10

    def test_unstable_step_reported(self, basis0):
        spec = rb.build_problem("linear_y")
        spec = replace(spec, driver=lambda t, x, y, z, u: 100.0 * np.asarray(y, dtype=float),
                       coeffs=replace(spec.coeffs, alpha=lambda t, x: np.full(np.shape(x), 100.0)))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 4, seed=3)
        with pytest.raises(rb.SolverError, match="step"):
            rb.solve_penalized(spec, bundle, basis0, 1.0)


class TestPicard:
    def test_zu_free_driver_single_iteration(self, flat_spec, flat_bundle_coarse, basis0):
        sol = rb.picard_solve(flat_spec, flat_bundle_coarse, basis0, 4.0)
        assert sol.run.picard_iters == 1
        assert sol.run.residual_history == (0.0,)

    def test_z_driver_contracts(self):
        spec = rb.build_problem("linear_z")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 4000, seed=3)
        basis = rb.RegressionBasis(degree=3)
        pic = rb.picard_solve(spec, bundle, basis, 8.0, tol=1e-10, max_iter=15)
        res = pic.run.residual_history
        assert len(res) >= 2
        ratios = [res[i + 1] / res[i] for i in range(len(res) - 1) if res[i] > 1e-9]
        assert all(r < 1.0 for r in ratios)
        one = rb.solve_penalized(spec, bundle, basis, 8.0)
        assert abs(pic.y0_mean() - one.y0_mean()) <= 2.0 * max(one.run.y0_stderr, 1e-12)

    def test_gamma_driver_contracts(self):
        spec = rb.build_problem("linear_gamma")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 4000, seed=3)
        basis = rb.RegressionBasis(degree=3)
        pic = rb.picard_solve(spec, bundle, basis, 8.0, tol=1e-10, max_iter=15)
        res = pic.run.residual_history
        ratios = [res[i + 1] / res[i] for i in range(len(res) - 1) if res[i] > 1e-9]
        assert ratios and max(ratios) < 1.0

    def test_residual_history_ordered(self):
        spec = rb.build_problem("linear_z", coef=0.4)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 15), 2000, seed=4)
        pic = rb.picard_solve(spec, bundle, rb.RegressionBasis(degree=2), 4.0, tol=1e-9)
        res = pic.run.residual_history
        assert list(res) == sorted(res, reverse=True)
