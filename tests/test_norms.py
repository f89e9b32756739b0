import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbsdej as rb
from rbsdej.verify import make_synthetic_solution


def constant_solution(bundle, y=0.0, z=0.0, u=(), k=0.0, lam=()):
    """Solution shell with constant fields and mark weights ``lam``, for
    closed-form norm checks."""
    n, nodes = bundle.n_paths, bundle.grid.nodes.size
    m = len(u)
    shell = make_synthetic_solution(bundle, np.zeros((n, nodes, m)), np.asarray(lam, dtype=float))
    return rb.BackwardSolution(
        y=np.full((n, nodes), y),
        z=np.full((n, nodes), z),
        u=np.broadcast_to(np.asarray(u, dtype=float), (n, nodes, m)).copy(),
        k_cum=np.linspace(0.0, k, nodes)[None, :].repeat(n, axis=0),
        k_jump_T=np.zeros(n),
        obstacle=shell.obstacle,
        run=shell.run,
        mark_weights=shell.mark_weights,
    )


@pytest.fixture(scope="module")
def zero_beta_exponents():
    return rb.Exponents.from_p(1.5, beta=0.0, eps=0.01)


@pytest.fixture(scope="module")
def counter_bundle():
    spec = rb.build_problem("pure_jump_counter", intensity=2.0)
    return rb.sample_paths(spec, rb.build_grid(1.0, 20), 20000, seed=13)


class TestEstimateNorms:
    def test_constant_y(self, counter_bundle, zero_beta_exponents):
        sol = constant_solution(counter_bundle, y=-2.0)
        rep = rb.estimate_norms(sol, counter_bundle, zero_beta_exponents)
        assert rep.s_p_beta == pytest.approx(2.0**1.5, abs=1e-12)
        assert rep.s_p_beta_se < 1e-15

    def test_constant_z_unit_horizon(self, counter_bundle, zero_beta_exponents):
        sol = constant_solution(counter_bundle, z=1.0)
        rep = rb.estimate_norms(sol, counter_bundle, zero_beta_exponents)
        assert rep.h_p_beta == pytest.approx(1.0, abs=1e-12)

    def test_constant_u_jensen(self, counter_bundle, zero_beta_exponents):
        # lambda T u0^2 compensator energy; realized energy via E[N^{p/2}]
        u0, lam, T, p = 0.7, 2.0, 1.0, 1.5
        sol = constant_solution(counter_bundle, u=(u0,), lam=(lam,))
        rep = rb.estimate_norms(sol, counter_bundle, zero_beta_exponents)
        assert rep.l_p_lambda_beta == pytest.approx((lam * T * u0**2) ** (p / 2.0), rel=1e-12)
        # oracle: E[N_T^{p/2}] by direct summation of the Poisson pmf
        mean_pow = sum(
            (k ** (p / 2.0)) * math.exp(-lam * T) * (lam * T) ** k / math.factorial(k)
            for k in range(80)
        )
        expected_mu = (u0**2) ** (p / 2.0) * mean_pow
        assert rep.l_p_mu_beta == pytest.approx(expected_mu, rel=4.0 * rep.l_p_mu_beta_se / expected_mu)
        # Jensen: realized side is dominated by the compensator side
        assert rep.l_p_mu_beta <= 2.0 * rep.l_p_lambda_beta + 3.0 * rep.l_p_mu_beta_se

    def test_k_norm(self, counter_bundle, zero_beta_exponents):
        sol = constant_solution(counter_bundle, k=3.0)
        rep = rb.estimate_norms(sol, counter_bundle, zero_beta_exponents)
        assert rep.k_p == pytest.approx(3.0**1.5, abs=1e-12)

    def test_weight_monotonic_in_beta(self, put_spec, put_bundle_small, basis3):
        sol = rb.solve_penalized(put_spec, put_bundle_small, basis3, 16.0)
        lo = rb.estimate_norms(sol, put_bundle_small, replace(put_spec.exponents, beta=0.5))
        hi = rb.estimate_norms(sol, put_bundle_small, replace(put_spec.exponents, beta=1.5))
        for name in ("s_p_beta", "s_pA_beta", "h_p_beta", "l_p_lambda_beta", "l_p_mu_beta", "k_p"):
            assert getattr(hi, name) >= getattr(lo, name) - 1e-15

    def test_homogeneity_exact(self, put_spec, put_bundle_small, basis3):
        sol = rb.solve_penalized(put_spec, put_bundle_small, basis3, 16.0)
        e = put_spec.exponents
        base = rb.estimate_norms(sol, put_bundle_small, e)
        for s in (2.0, 4.0):
            scaled = rb.estimate_norms(rb.scale_solution(sol, s), put_bundle_small, e)
            for name in ("s_p_beta", "s_pA_beta", "h_p_beta", "l_p_lambda_beta", "l_p_mu_beta", "k_p"):
                b = getattr(base, name)
                assert getattr(scaled, name) == pytest.approx(s**e.p * b, rel=1e-12, abs=1e-300)

    def test_mapped_back_solution_keeps_mark_weights(self):
        spec = rb.build_problem("linear_gamma")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tspec, norm = rb.normalize_driver(spec)
        grid = rb.build_grid(1.0, 10)
        bundle = rb.sample_paths(tspec, grid, 500, seed=2)
        sol = rb.solve_penalized(tspec, bundle, rb.RegressionBasis(degree=2), 4.0)
        back = norm.map_back_solution(sol, grid)
        assert np.array_equal(back.mark_weights, spec.marks.weights_array())
        rep = rb.estimate_norms(back, bundle, spec.exponents)
        assert np.isfinite(rep.l_p_lambda_beta) and rep.l_p_lambda_beta > 0.0


    def test_solution_transforms_carry_the_obstacle(self, basis3):
        # scaling y and L together scales the penalty error by s^p; mapping
        # back the normalized solve (R(t) = -0.3 t) restores the obstacle
        spec = rb.build_problem("american_put", rate=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tspec, norm = rb.normalize_driver(spec)
        grid = rb.build_grid(1.0, 10)
        bundle = rb.sample_paths(tspec, grid, 1000, seed=2)
        sol = rb.solve_penalized(tspec, bundle, basis3, 4.0)
        err = rb.penalty_error(sol, bundle, tspec)[0]
        scaled = rb.penalty_error(rb.scale_solution(sol, 2.0), bundle, tspec)[0]
        assert err > 0.0 and scaled == pytest.approx(2.0**tspec.exponents.p * err, rel=1e-12)
        back = norm.map_back_solution(sol, grid)
        L = rb.backward.obstacle_on_grid(spec, bundle)
        np.testing.assert_allclose(back.obstacle, L, rtol=1e-13, atol=1e-15)
        assert not np.allclose(sol.obstacle, L)


class TestWeightedDistance:
    @pytest.mark.parametrize("name", ["linear_z", "linear_gamma"])  # m = 0 and m = 2
    def test_matches_the_norm_parts(self, name):
        # the contraction distance is the p-th root of the summed means of
        # the y-in-dA, z and compensator-u terms that estimate_norms uses
        spec = rb.build_problem(name)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 1000, seed=6)
        basis, lam = rb.RegressionBasis(degree=2), spec.marks.weights_array()
        a, b = (rb.solve_penalized(spec, bundle, basis, n) for n in (4.0, 8.0))
        old = (a.y, a.z, a.u)
        news = [(b.y, b.z, b.u), old, (b.y, a.z, b.u)]
        assert a.u.shape[2] == (2 if name == "linear_gamma" else 0)
        for new in news:
            dy, dz, du = (x - x0 for x, x0 in zip(new, old))
            got = rb.weighted_distance(new, old, bundle, spec.exponents, lam)
            _, sa, h, ll, _, _ = rb.norms._norm_parts(
                dy, dz, du, np.zeros(bundle.n_paths), bundle, spec.exponents, lam)
            want = float(np.mean(sa) + np.mean(h) + np.mean(ll)) ** (1.0 / spec.exponents.p)
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("name", ["linear_z", "linear_gamma"])
    def test_is_the_picard_residual(self, name):
        # residual_history[k] is the distance between iterates k and k + 1,
        # iterate 0 being the zero fields; a max_iter = k run returns iterate k
        spec = rb.build_problem(name)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 500, seed=5)
        basis, lam = rb.RegressionBasis(degree=2), spec.marks.weights_array()
        runs = [rb.picard_solve(spec, bundle, basis, 4.0, tol=1e-300, max_iter=k)
                for k in (1, 2, 3, 4)]
        history = runs[-1].run.residual_history
        assert len(history) == 4
        iterates = [tuple(np.zeros_like(a) for a in (runs[0].y, runs[0].z, runs[0].u))]
        iterates += [(r.y, r.z, r.u) for r in runs]
        for k, residual in enumerate(history):
            got = rb.weighted_distance(iterates[k + 1], iterates[k], bundle, spec.exponents, lam)
            assert got == residual, k


# The full-grid expressions that the node-by-node sums replaced, kept as
# references. The solver's grids are column-major, so np.sum along the node
# axis adds one column at a time, and the sums must agree bit for bit.
def reference_weights(bundle, exponents):
    A = bundle.A_path
    return np.exp(0.5 * exponents.p * exponents.beta * A), np.exp(exponents.beta * A)


def reference_norm_parts(y, z, u, k_total, bundle, exponents, lam):
    p, steps = exponents.p, bundle.grid.steps
    w_half, w_full = reference_weights(bundle, exponents)
    lam = np.asarray(lam, dtype=float)
    sup_term = np.max(w_half * np.abs(y) ** p, axis=1)
    dA = np.diff(bundle.A_path, axis=1)
    sA_term = np.sum(w_half[:, :-1] * np.abs(y[:, :-1]) ** p * dA, axis=1)
    h_term = np.sum(w_full[:, :-1] * z[:, :-1] ** 2 * steps[None, :], axis=1) ** (p / 2.0)
    if u.shape[2]:
        u2l = np.sum(lam[None, None, :] * u**2, axis=2)
        l_lam = np.sum(w_full[:, :-1] * u2l[:, :-1] * steps[None, :], axis=1) ** (p / 2.0)
        real = np.sum(u[:, :-1, :] ** 2 * bundle.jump_counts, axis=2)
        l_mu = np.sum(w_full[:, :-1] * real, axis=1) ** (p / 2.0)
    else:
        l_lam = l_mu = np.zeros(y.shape[0])
    return sup_term, sA_term, h_term, l_lam, l_mu, np.abs(k_total) ** p


def reference_distance(dy, dz, du, bundle, exponents, lam):
    p = exponents.p
    w_half, w_full = reference_weights(bundle, exponents)
    y_dA = w_half[:, :-1] * np.diff(bundle.A_path, axis=1)
    dt = w_full[:, :-1] * bundle.grid.steps
    total = float(np.mean(np.sum(y_dA * np.abs(dy[:, :-1]) ** p, axis=1)))
    total += float(np.mean(np.sum(dt * dz[:, :-1] ** 2, axis=1) ** (p / 2.0)))
    if du.shape[2]:
        u2l = sum(lam[j] * du[:, :-1, j] ** 2 for j in range(du.shape[2]))
        total += float(np.mean(np.sum(dt * u2l, axis=1) ** (p / 2.0)))
    return total ** (1.0 / p)


def reference_data_norms(sol, spec, bundle):
    p, q, beta = spec.exponents.p, spec.exponents.q, spec.exponents.beta
    A, steps = bundle.A_path, bundle.grid.steps
    term = np.exp(0.5 * p * beta * A[:, -1]) * np.abs(sol.y[:, -1]) ** p
    varphi = np.empty_like(A[:, :-1])
    for i, t in enumerate(bundle.grid.nodes[:-1]):
        varphi[:, i] = spec.coeffs.varphi(float(t), bundle.forward_states[:, i])
    inhom = np.sum(np.exp(beta * A[:, :-1]) * varphi ** p * steps[None, :], axis=1)
    obst = np.max((np.exp(0.5 * q * beta * A) * np.maximum(sol.obstacle, 0.0)) ** p, axis=1)
    return float(np.mean(term) + np.mean(inhom) + np.mean(obst))


def same(a, b) -> bool:
    """Equal, with NaN equal to NaN."""
    return np.array_equal(a, b, equal_nan=True)


# beta A_T is about 2600 here, so e^{beta A} is inf on the later nodes; the
# zeroed paths then read inf * 0 = NaN
OVERFLOW_BETA = 1e5


@pytest.fixture(scope="module", params=["linear_z", "linear_gamma"])  # m = 0 and m = 2
def iterates(request):
    """A problem, its bundle and two penalized solves on it. The second
    has y zeroed and z equal to the first's on five paths."""
    spec = rb.build_problem(request.param)
    bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 1000, seed=6)
    a, b = (rb.solve_penalized(spec, bundle, rb.RegressionBasis(degree=2), n) for n in (4.0, 8.0))
    y, z = b.y.copy(order="F"), b.z.copy(order="F")
    y[:5], z[:5] = 0.0, a.z[:5]
    return spec, bundle, a, replace(b, y=y, z=z)


class TestExactReferences:
    @pytest.mark.parametrize("beta", [None, OVERFLOW_BETA], ids=["default_beta", "overflow"])
    def test_norm_parts_and_reports(self, iterates, beta):
        spec, bundle, _, sol = iterates
        if beta is not None:
            spec = replace(spec, exponents=replace(spec.exponents, beta=beta))
        e, lam = spec.exponents, sol.mark_weights
        k_total = sol.k_cum[:, -1] + sol.k_jump_T
        with np.errstate(all="ignore"):
            got = rb.norms._norm_parts(sol.y, sol.z, sol.u, k_total, bundle, e, lam)
            want = reference_norm_parts(sol.y, sol.z, sol.u, k_total, bundle, e, lam)
            report = rb.estimate_norms(sol, bundle, e)
            lenglart = rb.lenglart_check(sol, bundle, e)
            data = (rb.verify.data_norms(sol, spec, bundle), reference_data_norms(sol, spec, bundle))
            stats = [rb.norms._mc(w) for w in want]
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            assert g.shape == w.shape and same(g, w)
        # the report's fields are (mean, se) of each part, in order
        assert same(list(report.values().values()), [x for mean_se in stats for x in mean_se])
        assert same(lenglart[:2], [stats[4][0], stats[3][0]])
        assert same(*data)
        if beta is not None:
            assert np.isinf(want[0]).any() and np.isnan(want[0]).any()

    @pytest.mark.parametrize("beta", [None, OVERFLOW_BETA], ids=["default_beta", "overflow"])
    def test_contraction_distance(self, iterates, beta):
        spec, bundle, a, b = iterates
        e, lam = spec.exponents, spec.marks.weights_array()
        if beta is not None:
            e = replace(e, beta=beta)
        with np.errstate(all="ignore"):
            got = rb.weighted_distance((b.y, b.z, b.u), (a.y, a.z, a.u), bundle, e, lam)
            want = reference_distance(b.y - a.y, b.z - a.z, b.u - a.u, bundle, e, lam)
        assert same(got, want)
        assert math.isnan(want) if beta is not None else math.isfinite(want)

    @pytest.mark.parametrize("name", ["linear_z", "linear_gamma"])
    def test_contraction_distance_on_few_paths(self, name):
        # with 4 paths a rounding change in one path's sum over 200 nodes
        # reaches the mean; the fields are random column-major grids, and
        # each case moves one field so that no term hides in another's sum
        spec = rb.build_problem(name)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 200), 4, seed=3)
        rng, m = np.random.default_rng(4), spec.marks.m
        new, old = ([np.asfortranarray(rng.standard_normal(shape)) for shape in
                     [(4, 201), (4, 201), (4, 201, m)]] for _ in range(2))
        lam = spec.marks.weights_array()
        for beta in (spec.exponents.beta, 50.0 * spec.exponents.beta):
            e = replace(spec.exponents, beta=beta)
            for k in range(3):
                moved = [a if j == k else b for j, (a, b) in enumerate(zip(new, old))]
                diff = [a - b for a, b in zip(moved, old)]
                got = rb.weighted_distance(moved, old, bundle, e, lam)
                assert got == reference_distance(*diff, bundle, e, lam), (beta, k)


class TestWeights:
    def test_an_overflowing_weight_reads_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (w,) = rb.norms._weights(np.array([1e4]), 1.0, 1.0)
        assert w.tolist() == [np.inf]

    @pytest.mark.parametrize("beta", [0.7, OVERFLOW_BETA], ids=["finite", "overflow"])
    def test_each_weight_is_the_expression_it_replaced(self, beta):
        # every caller forms c * beta before the product with A, as the
        # expressions in norms, reflect and verify did
        A = np.random.default_rng(9).uniform(0.0, 0.02, (64, 21))
        p = 1.37
        q = p / (p - 1.0)
        with np.errstate(over="ignore"):
            want = (np.exp(0.5 * p * beta * A), np.exp(0.5 * q * beta * A),
                    np.exp(beta * A), np.exp(0.5 * beta * A))
        got = rb.norms._weights(A, beta, 0.5 * p, 0.5 * q, 1.0, 0.5)
        assert len(got) == 4 and all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        if beta == OVERFLOW_BETA:
            assert np.isinf(want[0]).any() and np.isfinite(want[0]).any()


class TestLenglartCheck:
    def test_zero_field(self, counter_bundle, zero_beta_exponents):
        sol = constant_solution(counter_bundle, u=(0.0,), lam=(2.0,))
        lhs, rhs, ok = rb.lenglart_check(sol, counter_bundle, zero_beta_exponents)
        assert (lhs, rhs, ok) == (0.0, 0.0, True)

    def test_constant_field(self, counter_bundle, zero_beta_exponents):
        sol = constant_solution(counter_bundle, u=(0.7,), lam=(2.0,))
        lhs, rhs, ok = rb.lenglart_check(sol, counter_bundle, zero_beta_exponents)
        assert ok and lhs > 0.0

    def test_randomized_sweep(self):
        res = rb.lenglart_sweep(n_configs=30, n_paths=4000, seed=21)
        assert res.passed, res


class TestPowerSumBound:
    def test_examples(self):
        lhs, rhs = rb.power_sum_bound([1.0, 1.0], 2.0)
        assert (lhs, rhs) == (4.0, 4.0)
        lhs, rhs = rb.power_sum_bound([3.0], 1.5)
        assert lhs == pytest.approx(3.0**1.5) and rhs == pytest.approx(3.0**1.5)
        lhs, rhs = rb.power_sum_bound([1.0, 2.0, 3.0], 1.5)
        assert lhs == pytest.approx(6.0**1.5)
        assert rhs == pytest.approx(3.0**0.5 * (1.0 + 2.0**1.5 + 3.0**1.5))
        assert lhs <= rhs

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            rb.power_sum_bound([1.0], 0.5)

    # NaN used to return (nan, nan) and inf an infinite or NaN pair
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_bad_p_named(self, p):
        with pytest.raises(ValueError, match="^p must be finite and at least 1"):
            rb.power_sum_bound([1.0], p)

    @given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=20),
           st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=300)
    def test_inequality_property(self, xs, p):
        lhs, rhs = rb.power_sum_bound(xs, p)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12
