import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rbsdej as rb


class TestCondexpRegression:
    def test_exact_affine_representation(self):
        rng = np.random.default_rng(0)
        states = rng.uniform(-2.0, 5.0, 500)
        targets = 3.0 + 2.0 * states
        _, fitted = rb.backward._fit_slice(states, targets, rb.RegressionBasis(degree=1))[1:]
        assert np.max(np.abs(fitted - targets)) < 1e-10
        _, fitted2 = rb.backward._fit_slice(states, targets, rb.RegressionBasis(degree=4))[1:]
        assert np.max(np.abs(fitted2 - targets)) < 1e-9

    def test_constant_targets_coefficients(self):
        rng = np.random.default_rng(1)
        states = rng.uniform(0.0, 1.0, 200)
        coeffs, fitted = rb.backward._fit_slice(states, np.full(200, 5.0), rb.RegressionBasis(degree=2))[1:]
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
        coeffs, fitted = rb.backward._fit_slice(states, targets, rb.RegressionBasis(degree=2))[1:]
        lo, span = states.min(), states.max() - states.min()
        design = np.vander((states - lo) / span, 3, increasing=True)
        resid = targets - fitted
        sigma2 = float(resid @ resid) / (n - 3)
        cov = sigma2 * np.linalg.inv(design.T @ design)
        assert abs(coeffs[2] - span**2) < 4.0 * math.sqrt(cov[2, 2])

    def test_degenerate_states_collapse_to_mean(self):
        states = np.full(50, 1.25)
        targets = np.linspace(0.0, 1.0, 50)
        coeffs, fitted = rb.backward._fit_slice(states, targets, rb.RegressionBasis(degree=3))[1:]
        assert fitted == pytest.approx(np.full(50, 0.5), abs=1e-12)

    def test_too_few_paths_raises(self):
        with pytest.raises(rb.RegressionRankError, match="degree"):
            rb.backward._fit_slice(np.arange(3.0), np.arange(3.0), rb.RegressionBasis(degree=5))

    # True used to be accepted as degree 1
    @pytest.mark.parametrize("degree", [2.5, 3.0, -1, "3", True])
    def test_bad_degree_named(self, degree):
        with pytest.raises(ValueError, match="^degree must be a nonnegative integer"):
            rb.RegressionBasis(degree=degree)


def _reference_sweep(spec, bundle, basis, n_penalty, u_estimator):
    """The penalized sweep with one Vandermonde build and one least-squares
    solve per target, each fit evaluated by Horner's rule."""

    def fit(states, targets):
        lo, hi = states.min(), states.max()
        span = hi - lo
        if span <= 1e-12 * (1.0 + abs(hi)):
            return lambda x: np.full(np.shape(x), np.mean(targets))
        design = np.vander((states - lo) / span, basis.degree + 1, increasing=True)
        coeffs = np.linalg.lstsq(design, targets, rcond=None)[0]
        return lambda x: np.polyval(coeffs[::-1], (x - lo) / span)

    X, N = bundle.forward_states, bundle.grid.n_steps
    marks, lam = spec.marks.marks_array(), spec.marks.weights_array()
    L = rb.backward.obstacle_on_grid(spec, bundle)
    y, z, u = np.empty_like(X), np.zeros_like(X), np.zeros(X.shape + (spec.marks.m,))
    y[:, N] = spec.terminal_values(X[:, N])
    for i in range(N - 1, -1, -1):
        t, dt, xi = bundle.grid.nodes[i], bundle.grid.steps[i], X[:, i]
        cont = fit(xi, y[:, i + 1])
        c = cont(xi)
        z[:, i] = fit(xi, y[:, i + 1] * bundle.brownian_increments[:, i] / dt)(xi)
        for j in range(spec.marks.m):
            if u_estimator == "shifted":
                u[:, i, j] = cont(xi + spec.forward.jump_size(t, xi, marks[j])) - c
            else:
                comp = bundle.jump_counts[:, i, j] - lam[j] * dt
                u[:, i, j] = fit(xi, y[:, i + 1] * comp / (lam[j] * dt))(xi)
        fy = lambda yv: spec.driver_values(t, xi, yv, z[:, i], u[:, i, :])  # noqa: E731
        y[:, i] = rb.backward._solve_implicit_step(fy, c, L[:, i], dt, n_penalty, i)
    return y, z, u


class TestSliceFit:
    def test_multi_target_matches_one_fit_per_target(self):
        rng = np.random.default_rng(3)
        states = rng.lognormal(0.0, 0.3, 2000)
        targets = np.column_stack([
            np.maximum(1.1 - states, 0.0), np.sin(3.0 * states),
            states**3 + rng.standard_normal(2000), rng.standard_normal(2000),
        ])
        basis = rb.RegressionBasis(degree=4)

        def assert_matches_one_shot(sl, fit_coeffs, fitted, targets):
            assert sl.degree == 4 and fit_coeffs.shape == (5, 4) and fitted.shape == (2000, 4)
            for k in range(4):
                coeffs, one = rb.backward._fit_slice(states, targets[:, k], basis)[1:]
                assert np.max(np.abs(fit_coeffs[:, k] - coeffs)) <= 1e-12 * (1.0 + np.max(np.abs(coeffs)))
                assert np.max(np.abs(fitted[:, k] - one)) <= 1e-12

        assert_matches_one_shot(*rb.backward._fit_slice(states, targets, basis), targets)
        # with a factor store the first fit factors the slice and a later
        # fit of new targets reuses the factors
        fits = {}
        assert_matches_one_shot(*rb.backward._fit_slice(states, targets, basis, fits, 7), targets)
        factors = fits[7]
        assert list(fits) == [7] and factors.u.shape == (2000, 5)
        later = np.cos(targets[:, ::-1] + states[:, None])
        assert_matches_one_shot(*rb.backward._fit_slice(states, later, basis, fits, 7), later)
        assert list(fits) == [7] and fits[7] is factors

    @pytest.mark.parametrize("u_estimator", ["shifted", "compensated"])
    def test_sweep_matches_per_target_reference(self, u_estimator):
        spec = rb.build_problem("american_put_jumps")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 2000, seed=5)
        basis = rb.RegressionBasis(degree=3)
        sol = rb.solve_penalized(spec, bundle, basis, 16.0, u_estimator=u_estimator)
        y, z, u = _reference_sweep(spec, bundle, basis, 16.0, u_estimator)
        assert np.max(np.abs(sol.y - y)) <= 1e-12
        assert np.max(np.abs(sol.z - z)) <= 1e-12
        assert np.max(np.abs(sol.u - u)) <= 1e-12

    def test_rank_short_slice_names_the_step(self):
        # at intensity 0.5 the 200 jump counts take three distinct values
        # on the last slice, so a cubic basis is rank short there
        spec = rb.build_problem("pure_jump_counter", intensity=0.5)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 200, seed=1)
        basis = rb.RegressionBasis(degree=3)
        rank_short = pytest.raises(rb.RegressionRankError, match=r"^step \d+: design matrix rank")
        with rank_short:
            rb.solve_penalized(spec, bundle, basis, 4.0)
        # the factored fits of the swept schedule (a driver that ignores
        # (z, u)) and of the Picard iterates (one that reads z) read the
        # same rank
        with rank_short:
            rb.solve_reflected_penalization(spec, bundle, basis,
                                            rb.PenalizationSchedule.geometric(1.0, 3, 1e-12))
        z_spec = replace(spec, driver=lambda t, x, y, z, u: 0.1 * np.asarray(z, dtype=float))
        assert rb.model.driver_uses_zu(z_spec)
        with rank_short:
            rb.picard_solve(z_spec, bundle, basis, 4.0)


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

    @pytest.mark.parametrize("n_penalty", [float("nan"), float("inf"), -5.0])
    def test_bad_penalty_level_named(self, put_spec, put_bundle_small, n_penalty):
        # each of these used to return a value (a negative y0 at n = -5)
        with pytest.raises(ValueError, match=r"^n_penalty must"):
            rb.solve_penalized(put_spec, put_bundle_small, rb.RegressionBasis(degree=2), n_penalty)

    @pytest.mark.parametrize("u_estimator", ["shifted", "compensated"])
    def test_mark_count_mismatch_named(self, u_estimator):
        # a 2-mark problem on a bundle without jump counts used to solve
        # silently (shifted) or fail with an IndexError (compensated)
        bundle = rb.sample_paths(rb.build_problem("linear_z"), rb.build_grid(1.0, 5), 50, seed=3)
        with pytest.raises(rb.SolverError, match=r"^bundle has 0 marks, the problem 2$"):
            rb.solve_penalized(rb.build_problem("linear_gamma"), bundle,
                               rb.RegressionBasis(degree=2), 4.0, u_estimator=u_estimator)

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

    def test_frozen_mode_reproduces_one_pass(self, basis3):
        # the one-pass solution is the exact fixed point of the frozen map;
        # these drivers read (z, u), so freezing them at zero moves y
        for name in ("linear_z", "linear_gamma"):
            spec = rb.build_problem(name)
            bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 500, seed=11)
            one = rb.solve_penalized(spec, bundle, basis3, 8.0)
            again = rb.backward._backward(spec, bundle, basis3, 8.0, frozen_zu=(one.z, one.u))
            assert np.array_equal(one.y, again.y), name
            zero = rb.backward._backward(spec, bundle, basis3, 8.0,
                                         frozen_zu=(np.zeros_like(one.z), np.zeros_like(one.u)))
            assert not np.array_equal(one.y, zero.y), name

    def test_no_level_is_the_oracle_projection(self, basis3):
        # n_penalty None is the DP oracle's step: y = max(L, y_free)
        spec = rb.build_problem("american_put_jumps")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 500, seed=11)
        swept = rb.backward._backward(spec, bundle, basis3, None)
        oracle = rb.solve_reflected_dp_oracle(spec, bundle, basis3)
        for field in ("y", "z", "u"):
            assert getattr(swept, field).tobytes() == getattr(oracle, field).tobytes(), field

    def test_negative_level_in_a_level_array_named(self, put_spec, put_bundle_small, basis3):
        with pytest.raises(ValueError, match=r"^n_penalty must be nonnegative and finite"):
            rb.backward._backward(put_spec, put_bundle_small, basis3, np.array([1.0, -1.0]))

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

    def test_unstable_element_of_a_level_block_named_by_path_and_level(self):
        # an (n, K) block holds K penalty levels; the error names the path
        # and the level of the first unstable element, not its flat index
        slopes = np.zeros((5, 3), order="F")
        slopes[2, 1] = 100.0
        c = np.ones((5, 3), order="F")
        with pytest.raises(rb.SolverError, match=r"step 7, path 2 at level n=2\.0: driver slope 100\.0"):
            rb.backward._solve_implicit_step(lambda y: slopes * y, c, np.zeros((5, 1)), 0.1,
                                             np.array([1.0, 2.0, 4.0]), 7)


# per-path data of one implicit step: c, L and the driver
# f(y) = a - b y - k tanh(y), nonincreasing in y and affine where k = 0
_step_row = st.tuples(
    st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
    st.floats(-5.0, 5.0), st.floats(0.0, 5.0), st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
)
_step_rows = st.lists(_step_row, min_size=1, max_size=8).map(lambda rows: np.array(rows).T)
_dt = st.floats(1e-3, 0.5)
_level = st.floats(0.0, 1e4)


def _step_driver(a, b, k):
    return lambda y: a - b * y - k * np.tanh(y)


def _implicit_residual(y, c, L, dt, n, fy):
    return y - c - dt * fy(y) - n * dt * np.maximum(L - y, 0.0)


def _root_width(y):
    return rb.backward.BISECT_TOL * (1.0 + float(np.max(np.abs(y))))


class TestImplicitStep:
    @given(_step_rows, _dt, _level)
    @settings(max_examples=200, deadline=None)
    # tanh is flat to 1e-8 at the probes c and c + h but not at the root,
    # which lies below c (first) or between c and L (second)
    @example(np.array([[8.0], [0.0], [0.0], [1.0], [1.0]]), 0.5, 0.0)
    @example(np.array([[8.0], [9.0], [0.0], [1.0], [1.0]]), 0.5, 10.0)
    def test_root_solves_the_step_equation(self, rows, dt, n):
        # the residual increases in y, so a root within the tolerance of y
        # shows as a sign change across [y - w, y + w]
        c, L, a, b, k = rows
        fy = _step_driver(a, b, k)
        y = rb.backward._solve_implicit_step(fy, c, L, dt, n, 0)
        w = _root_width(y)
        assert np.all(_implicit_residual(y - w, c, L, dt, n, fy) <= 0.0)
        assert np.all(_implicit_residual(y + w, c, L, dt, n, fy) >= 0.0)

    @given(_step_rows, _dt, _level, _level)
    @settings(max_examples=200, deadline=None)
    def test_root_nondecreasing_in_penalty(self, rows, dt, n1, n2):
        c, L, a, b, k = rows
        fy = _step_driver(a, b, k)
        lo, hi = (rb.backward._solve_implicit_step(fy, c, L, dt, n, 0) for n in sorted((n1, n2)))
        assert np.all(hi >= lo - 2.0 * max(_root_width(lo), _root_width(hi)))

    @given(_step_rows, _dt, _level)
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_bisection(self, rows, dt, n):
        # one curved path (tanh at c = 1) sends the whole batch to bisection;
        # the closed form costs two probes and one residual evaluation
        c, L, a, b, _ = rows
        calls = []

        def counted(fy):
            return lambda y: calls.append(1) or fy(y)

        closed = rb.backward._solve_implicit_step(counted(_step_driver(a, b, 0.0)), c, L, dt, n, 0)
        assert len(calls) == 3
        a, b, k, c, L = (np.append(v, e) for v, e in
                         ((a, 0.0), (b, 0.0), (np.zeros_like(a), 1.0), (c, 1.0), (L, 0.0)))
        bisected = rb.backward._solve_implicit_step(counted(_step_driver(a, b, k)), c, L, dt, n, 0)
        assert len(calls) > 8
        assert np.max(np.abs(bisected[:-1] - closed)) <= 2.0 * _root_width(bisected)

    def test_nan_inside_the_bracket_named(self):
        # the driver is finite at the probes and the bracket ends but NaN
        # near path 1's root (about 0.5065); a NaN midpoint moved the
        # bracket, which used to end on a finite non-root
        def fy(y):
            return np.where(np.abs(y - 0.5065) < 2e-3, np.nan, -0.5 * y**2)

        c, L = np.array([0.2, 0.52, 1.0]), np.zeros(3)
        with pytest.raises(rb.SolverError, match=r"^no finite root of the implicit step at step 7, path 1:"):
            rb.backward._solve_implicit_step(fy, c, L, 0.1, 0.0, 7)

    def test_curved_driver_with_a_steep_secant_is_unstable(self):
        # 30 tanh(y) breaks alpha dt < 1 at dt = 0.1: the step equation has
        # the three roots 0 and +-2.98, and the secant over [0, 1] (22.8)
        # names the step instead of returning one of them
        with pytest.raises(rb.SolverError, match=r"step 4, path 0: driver slope"):
            rb.backward._solve_implicit_step(lambda y: 30.0 * np.tanh(y), np.zeros(3),
                                             np.full(3, -10.0), 0.1, 0.0, 4)


def _constant(v):
    return lambda t, x: np.full(np.shape(x), v)


def _assert_same_bits(a, b):
    for field in ("y", "z", "u", "k_cum"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


class TestAffineDriver:
    def test_evaluates_slope_times_y_plus_offset(self):
        f = rb.AffineDriver(_constant(-0.5), lambda t, x, z, u: z + u @ np.array([1.0, 2.0]))
        y, z, u = np.array([1.0, -2.0]), np.array([0.5, 0.25]), np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(f(0.0, np.zeros(2), y, z, u), [1.0, 3.25])

    @pytest.mark.parametrize("name", sorted(rb.PROBLEMS))
    def test_registry_drivers_give_the_plain_route_bits(self, name):
        # the closed form in the declared slope and f(0) against the secant
        # of the same driver behind a plain callable, on every solver
        spec = rb.build_problem(name)
        assert isinstance(spec.driver, rb.AffineDriver)
        plain = replace(spec, driver=lambda *a: spec.driver(*a))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 300, seed=5)
        basis = rb.RegressionBasis(degree=1 if name == "pure_jump_counter" else 3)
        schedule = rb.PenalizationSchedule.geometric(1.0, 4, 1e-12)
        for solve in (lambda s: rb.solve_penalized(s, bundle, basis, 8.0),
                      lambda s: rb.solve_reflected_dp_oracle(s, bundle, basis),
                      lambda s: rb.solve_reflected_penalization(s, bundle, basis, schedule).solution):
            affine, secant = solve(spec), solve(plain)
            _assert_same_bits(affine, secant)
            assert affine.run.y0_stderr == secant.run.y0_stderr

    def test_one_offset_call_per_step_and_the_driver_only_for_the_stderr(self):
        base = rb.build_problem("linear_z")
        calls = []

        def counted(key, fn):
            return lambda *a: calls.append(key) or fn(*a)

        class CountedDriver(rb.AffineDriver):
            def __call__(self, *a):
                calls.append("driver")
                return base.driver(*a)

        spec = replace(base, driver=CountedDriver(counted("slope", base.driver.slope),
                                                  counted("offset", base.driver.offset)))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 200, seed=3)
        sol = rb.solve_penalized(spec, bundle, rb.RegressionBasis(degree=2), 8.0)
        assert (calls.count("offset"), calls.count("slope"), calls.count("driver")) == (10, 10, 1)
        _assert_same_bits(sol, rb.solve_penalized(base, bundle, rb.RegressionBasis(degree=2), 8.0))

    def test_offset_returning_its_z_argument_is_not_written(self):
        # the offset's result is a view of the fitted z_i: a step that
        # wrote into it would change the solution's z
        base = rb.build_problem("linear_z", coef=1.0)
        spec = replace(base, driver=rb.AffineDriver(base.driver.slope, lambda t, x, z, u: z))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 300, seed=3)
        basis = rb.RegressionBasis(degree=2)
        plain = replace(spec, driver=lambda *a: spec.driver(*a))
        for solve in (lambda s: rb.solve_penalized(s, bundle, basis, 8.0),
                      lambda s: rb.solve_reflected_dp_oracle(s, bundle, basis)):
            _assert_same_bits(solve(spec), solve(plain))

    def test_nan_offset_names_the_step_and_path(self):
        def offset(t, x, z, u):
            out = np.zeros(np.shape(x))
            out[3] = np.nan
            return out

        base = rb.build_problem("american_put")
        spec = replace(base, driver=rb.AffineDriver(base.driver.slope, offset))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 5), 50, seed=3)
        with pytest.raises(rb.SolverError, match=r"^no finite root of the implicit step at step 4, path 3:"):
            rb.solve_penalized(spec, bundle, rb.RegressionBasis(degree=2), 4.0)

    def test_steep_slope_named(self):
        base = rb.build_problem("linear_y")
        spec = replace(base, driver=rb.AffineDriver(_constant(20.0), base.driver.offset))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 4, seed=3)
        with pytest.raises(rb.SolverError, match=r"^implicit step unstable at step 9, path 0: "
                                                 r"driver slope 20\.0 too large for dt="):
            rb.solve_penalized(spec, bundle, rb.RegressionBasis(degree=0), 1.0)
        # in an (n, K) block of levels the error names the path and the level
        slope = np.zeros((5, 1))
        slope[2] = 100.0
        with pytest.raises(rb.SolverError, match=r"step 7, path 2 at level n=1\.0: driver slope 100\.0"):
            rb.backward._solve_implicit_step(
                lambda y: slope * y, np.ones((5, 3), order="F"), np.zeros((5, 1)), 0.1,
                np.array([1.0, 2.0, 4.0]), 7, (slope, np.zeros((5, 3), order="F")))

    def test_scaled_and_normalized_problems_take_the_secant(self):
        spec = rb.build_problem("american_put", rate=0.3)
        with pytest.warns(UserWarning, match="already satisfies"):
            normalized = rb.normalize_driver(spec)[0]
        for derived in (rb.scale_problem_data(spec, 2.0), normalized):
            assert not isinstance(derived.driver, rb.AffineDriver)


def _solve_scheme(scheme):
    """(spec, bundle, solution) of one scheme on a small jump bundle; the
    reflected solution has its terminal jump extracted."""
    spec = rb.build_problem("linear_z" if scheme == "picard" else "american_put_jumps")
    bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 500, seed=3)
    basis = rb.RegressionBasis(degree=2)
    if scheme == "penalized":
        sol = rb.solve_penalized(spec, bundle, basis, 16.0)
    elif scheme == "picard":
        sol = rb.picard_solve(spec, bundle, basis, 16.0, tol=1e-10, max_iter=5)
        assert sol.run.picard_iters > 1
    elif scheme == "oracle":
        sol = rb.solve_reflected_dp_oracle(spec, bundle, basis)
    else:
        sol = rb.solve_reflected_penalization(
            spec, bundle, basis, rb.PenalizationSchedule.geometric(1.0, 3, 1e-12)
        ).solution
    return spec, bundle, sol


class TestSolutionFields:
    @pytest.mark.parametrize("scheme", ["penalized", "picard", "oracle", "reflected"])
    def test_solution_carries_the_sampled_obstacle(self, scheme):
        spec, bundle, sol = _solve_scheme(scheme)
        np.testing.assert_array_equal(sol.obstacle, rb.backward.obstacle_on_grid(spec, bundle))

    @pytest.mark.parametrize("scheme", ["penalized", "picard", "oracle", "reflected"])
    def test_grids_are_column_major(self, scheme):
        # the bundle's layout carries through every solver and diagnostic
        _, _, sol = _solve_scheme(scheme)
        for field in ("y", "z", "u", "k_cum", "obstacle"):
            assert getattr(sol, field).flags.f_contiguous, field

    def test_gamma_is_the_compensator_aggregate(self, flat_spec, flat_bundle_coarse, basis0):
        spec = rb.build_problem("american_put_jumps")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 500, seed=3)
        sol = rb.solve_penalized(spec, bundle, rb.RegressionBasis(degree=2), 16.0)
        gamma = sol.gamma()
        np.testing.assert_array_equal(gamma, sol.u @ sol.mark_weights)
        lam = spec.marks.weights_array()
        by_mark = sum(lam[j] * sol.u[:, :, j] for j in range(spec.marks.m))
        np.testing.assert_allclose(gamma, by_mark, rtol=1e-14, atol=1e-15)
        assert gamma.shape == sol.y.shape and np.all(gamma[:, -1] == 0.0)
        flat = rb.solve_penalized(flat_spec, flat_bundle_coarse, basis0, 4.0)
        np.testing.assert_array_equal(flat.gamma(), np.zeros_like(flat.y))


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

    @pytest.mark.parametrize("kwargs, field", [
        ({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
        ({"tol": 0.0}, "tol"), ({"tol": -1e-6}, "tol"), ({"tol": float("nan")}, "tol"),
        ({"n_penalty": float("nan")}, "n_penalty"), ({"n_penalty": float("inf")}, "n_penalty"),
        ({"n_penalty": -5.0}, "n_penalty"),
        ({"tol": float("inf")}, "tol"), ({"max_iter": 2.5}, "max_iter"),
    ])
    def test_bad_arguments_named(self, kwargs, field):
        # a NaN tol must not run to max_iter and read as "not converged",
        # and an infinite one must not return the first iterate, whose
        # (z, u) are frozen at zero, as converged
        spec = rb.build_problem("linear_z")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 5), 100, seed=3)
        kwargs = {"n_penalty": 4.0, **kwargs}
        with pytest.raises(ValueError, match=rf"^{field} must"):
            rb.picard_solve(spec, bundle, rb.RegressionBasis(degree=2), **kwargs)

    def test_non_finite_residual_named(self):
        # beta * A_T far above 709 overflows the contraction weights: the
        # residuals used to read (inf, nan, ...) and end as "max_iter above tol"
        spec = rb.build_problem("linear_z", beta=4e4)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 200, seed=3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            rb.SolverError, match=r"^residual inf at Picard iteration 1; largest beta\*A_T = "
        ):
            rb.picard_solve(spec, bundle, rb.RegressionBasis(degree=2), 8.0, tol=1e-10, max_iter=6)

    def test_residual_history_ordered(self):
        spec = rb.build_problem("linear_z", coef=0.4)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 15), 2000, seed=4)
        pic = rb.picard_solve(spec, bundle, rb.RegressionBasis(degree=2), 4.0, tol=1e-9)
        res = pic.run.residual_history
        assert list(res) == sorted(res, reverse=True)
