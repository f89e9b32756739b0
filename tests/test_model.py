import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbsdej as rb
from rbsdej.model import EQUALITY_RTOL


class TestConjugateExponent:
    def test_known_values(self):
        assert rb.conjugate_exponent(1.5) == pytest.approx(3.0, abs=1e-14)
        assert rb.conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 1.0, 0.5, 2.5, -1.0])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            rb.conjugate_exponent(p)

    @given(st.floats(min_value=1.0 + 1e-6, max_value=2.0 - 1e-6))
    @settings(max_examples=200)
    def test_involution(self, p):
        q = rb.conjugate_exponent(p)
        assert abs(rb.conjugate_exponent(q) - p) < 1e-12 * (1.0 + p) if 1 < q < 2 else True
        assert abs(1.0 / p + 1.0 / q - 1.0) < 1e-12


class TestExponents:
    def test_from_p(self):
        e = rb.Exponents.from_p(1.5, beta=2.0, eps=0.5)
        assert e.q == rb.conjugate_exponent(1.5) == 3.0
        assert e.beta == 2.0

    def test_default_beta(self):
        e = rb.Exponents.from_p(1.5)
        assert e.beta == pytest.approx(1.0 + 2.0 * 0.5 / 1.5 + 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            rb.Exponents.from_p(2.0)
        with pytest.raises(ValueError):
            rb.Exponents.from_p(1.5, eps=0.0)

    @pytest.mark.parametrize("field", ["beta", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            rb.Exponents(**{"p": 1.5, "beta": 1.0, "eps": 0.01, field: value})


class TestAggregateCoefficients:
    """sample_paths builds a^2 = phi + eta^2 + delta^2 and zeta^2 =
    (a^2)^{q/2} on every (path, node) and enforces a^2 >= eps."""

    @staticmethod
    def _spec(phi, eta, delta, p=1.5):
        c = lambda v: v if callable(v) else (lambda t, x: np.full(np.shape(x), v) if np.ndim(x) else v)
        spec = rb.build_problem("brownian_terminal")
        return replace(spec, exponents=rb.Exponents.from_p(p, eps=0.5),
                       coeffs=rb.CoefficientSpec(alpha=c(0.0), eta=c(eta), delta=c(delta),
                                                 phi=c(phi), varphi=c(1.0)))

    @staticmethod
    def _coeff_path(spec):
        return rb.sample_paths(spec, rb.build_grid(1.0, 4), 3, seed=0).coeff_path

    def test_unit_sum(self):
        cp = self._coeff_path(self._spec(1.0, 1.0, 1.0))
        assert np.array_equal(cp.a2, cp.phi + cp.eta**2 + cp.delta**2)
        assert cp.a2 == pytest.approx(np.full((3, 5), 3.0))
        assert cp.zeta2 == pytest.approx(np.full((3, 5), 3.0**1.5))
        assert float(cp.zeta2[0, 0]) == pytest.approx(5.196152422706632)

    def test_unit_fixed_point(self):
        for p in (1.2, 1.5, 1.9):
            spec = self._spec(1.0, 0.0, 0.0, p)
            cp = self._coeff_path(spec)
            assert cp.a2 == pytest.approx(np.ones((3, 5)))
            assert np.array_equal(cp.zeta2, cp.a2 ** (spec.exponents.q / 2.0))
            assert cp.zeta2 == pytest.approx(np.ones((3, 5)))

    def test_floor_violation(self):
        # phi drops below eps = 0.5 where t >= 1/2 and x > 1: the error
        # names the first such (path, node) of the sampled grid (path 5,
        # node 2 at seed 0)
        grid = rb.build_grid(1.0, 4)
        X = rb.sample_paths(self._spec(1.0, 0.0, 0.0), grid, 16, seed=0).forward_states
        p0, i0 = np.argwhere((X > 1.0) & (grid.nodes >= 0.5))[0]
        phi = lambda t, x: np.where((t >= 0.5) & (np.asarray(x) > 1.0), 0.1, 1.0)
        with pytest.raises(rb.AssumptionError,
                           match=rf"^a\^2 >= eps violated on path {p0} at node {i0}: a\^2=0\.1") as err:
            rb.sample_paths(self._spec(phi, 0.0, 0.0), grid, 16, seed=0)
        assert err.value.param == "eps"

    def test_zeta_underflow_names_p(self):
        # at p = 1.0001 (q = 10001), zeta^2 = 0.6^5000.5 underflows to 0
        # although a^2 = 0.6 >= eps = 0.5: the error names the first such
        # (path, node) among the nodes that A reads, a^2 and q; it used to
        # blame eps
        grid = rb.build_grid(1.0, 4)
        X = rb.sample_paths(self._spec(1.0, 0.0, 0.0), grid, 16, seed=0).forward_states
        p0, i0 = np.argwhere(X[:, :-1] > 1.0)[0]
        phi = lambda t, x: np.where(np.asarray(x) > 1.0, 0.6, 1.0)
        spec = self._spec(phi, 0.0, 0.0, p=1.0001)
        q = spec.exponents.q
        with pytest.raises(rb.AssumptionError, match=(
                rf"^zeta\^2 = \(a\^2\)\^\(q/2\) underflows to 0 on path {p0} at node {i0}: "
                rf"a\^2=0\.6, q={q!r}$")) as err:
            rb.sample_paths(spec, grid, 16, seed=0)
        assert err.value.param == "p"

    def test_zeta_overflow_names_p(self):
        # at p = 1.001 (q = 1001), zeta^2 = 30^500.5 overflows float64: the
        # error names the first (path, node) that A reads, a^2 and q; it used
        # to end as a solver error on an infinite penalty error
        grid = rb.build_grid(1.0, 4)
        X = rb.sample_paths(self._spec(1.0, 0.0, 0.0), grid, 16, seed=0).forward_states
        p0, i0 = np.argwhere(X[:, :-1] > 1.0)[0]
        phi = lambda t, x: np.where(np.asarray(x) > 1.0, 30.0, 1.0)
        spec = self._spec(phi, 0.0, 0.0, p=1.001)
        q = spec.exponents.q
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(rb.AssumptionError, match=(
                    rf"^zeta\^2 = \(a\^2\)\^\(q/2\) overflows on path {p0} at node {i0}: "
                    rf"a\^2=30\.0, q={q!r}$")) as err:
                rb.sample_paths(spec, grid, 16, seed=0)
        assert err.value.param == "p"

    def test_nan_rate_violates_the_floor(self):
        # a NaN phi fails no `a^2 < eps` test: it gave NaN A_path entries
        # with no error, a finite Y0 and NaN norms
        grid = rb.build_grid(1.0, 4)
        X = rb.sample_paths(self._spec(1.0, 0.0, 0.0), grid, 16, seed=0).forward_states
        p0, i0 = np.argwhere(X > 0.5)[0]
        phi = lambda t, x: np.where(np.asarray(x) > 0.5, np.nan, 1.0)
        with pytest.raises(rb.AssumptionError,
                           match=rf"^a\^2 >= eps violated on path {p0} at node {i0}: a\^2=nan"):
            rb.sample_paths(self._spec(phi, 0.0, 0.0), grid, 16, seed=0)

    def test_zeta_floor_algebra(self):
        # zeta >= eps^{q/4} whenever a^2 >= eps
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.uniform(1.05, 1.95)
            eps = rng.uniform(1e-3, 2.0)
            e = rb.Exponents.from_p(p, eps=eps)
            a2 = eps + rng.uniform(0.0, 3.0)
            zeta2 = a2 ** (e.q / 2.0)
            assert math.sqrt(zeta2) >= eps ** (e.q / 4.0) - 1e-12


class TestCumulativeA:
    def test_constant_integrand(self):
        grid = rb.build_grid(1.0, 4)
        A = rb.cumulative_A(grid, np.ones(4))
        assert A == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_nondecreasing_random(self):
        rng = np.random.default_rng(3)
        grid = rb.build_grid(2.0, 37)
        z2 = rng.uniform(0.01, 5.0, (6, 37))
        A = rb.cumulative_A(grid, z2)
        assert A.shape == (6, 38)
        assert np.all(A[:, 0] == 0.0)
        assert np.all(np.diff(A, axis=1) >= 0.0)

    def test_zero_integrand_rejected(self):
        grid = rb.build_grid(1.0, 4)
        with pytest.raises(rb.AssumptionError):
            rb.cumulative_A(grid, np.zeros(4))

    def test_nan_integrand_rejected(self):
        # used to return a NaN clock from the second node on
        grid = rb.build_grid(1.0, 4)
        with pytest.raises(rb.AssumptionError, match="^zeta\\^2 must stay strictly positive"):
            rb.cumulative_A(grid, [1.0, np.nan, 1.0, 1.0])

    @pytest.mark.parametrize("shape, order", [((7, 13), "C"), ((7, 13), "F"), ((13,), "C")])
    def test_running_sum_is_cumsum_bit_for_bit(self, shape, order):
        # mixed signs and magnitudes, so a change of summation order shows
        rng = np.random.default_rng(5)
        inc = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        inc[..., 0] = -0.0
        inc = np.asarray(inc, order=order)
        ref = np.concatenate([np.zeros(shape[:-1] + (1,)), np.cumsum(inc, axis=-1)], axis=-1)
        out = rb.model._running_sum(inc)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        assert out.flags.f_contiguous

    def test_linear_integrand_quadrature(self):
        # oracle: exact integral of 2t over [0, 1] is 1
        N = 4000
        grid = rb.build_grid(1.0, N)
        z2 = 2.0 * grid.nodes[:-1] + 1e-9
        A = rb.cumulative_A(grid, z2)
        assert abs(A[-1] - 1.0) < 2.0 / N


class TestMarkSpace:
    def test_total_intensity(self):
        ms = rb.MarkSpace(marks=(0.5, -0.5), weights=(0.3, 0.7))
        assert ms.total_intensity == pytest.approx(1.0)
        assert ms.m == 2

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            rb.MarkSpace(marks=(1.0,), weights=(0.0,))

    # it failed as "total jump intensity must be finite"
    def test_nan_weight_named(self):
        with pytest.raises(ValueError, match="^all mark weights must be strictly positive"):
            rb.MarkSpace(marks=(1.0, 1.0), weights=(1.0, float("nan")))

    # a NaN mark was accepted and failed later as "bundle contains N
    # non-finite paths"
    @pytest.mark.parametrize("mark", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mark_named(self, mark):
        with pytest.raises(ValueError, match="^marks must be finite"):
            rb.MarkSpace(marks=(0.5, mark), weights=(1.0, 1.0))

    def test_norm_lambda(self):
        ms = rb.MarkSpace(marks=(1.0, 2.0), weights=(2.0, 0.5))
        u = np.array([1.0, 2.0])
        assert float(ms.norm_lambda(u)) == pytest.approx(math.sqrt(2.0 + 2.0))


def check_named(results, name):
    return {r.name: r for r in results}[name]


class TestProblemSpecValidation:
    def test_assumptions_pass_on_registry(self):
        for name in ("flat_obstacle", "american_put", "linear_z", "linear_gamma"):
            rep = rb.validate_assumptions(rb.build_problem(name), probe_budget=64)
            assert all(r.passed for r in rep), f"{name}:\n{rb.summary_text(rep)}"

    def test_monotonicity_failure_witnessed(self):
        spec = rb.build_problem("linear_y")
        bad = replace(spec, driver=lambda t, x, y, z, u: +np.asarray(y, dtype=float))
        rep = rb.validate_assumptions(bad, probe_budget=64)
        chk = check_named(rep, "monotonicity_y")
        assert not chk.passed
        assert chk.witnesses
        assert chk.worst_margin == pytest.approx(2.0, abs=1e-9)  # secant 1 minus alpha -1

    def test_lipschitz_failure_detected(self):
        spec = rb.build_problem("linear_z")
        bad = replace(spec, driver=lambda t, x, y, z, u: 2.0 * np.asarray(z, dtype=float))
        rep = rb.validate_assumptions(bad, probe_budget=256)
        chk = check_named(rep, "lipschitz_zu")
        assert not chk.passed

    def test_obstacle_above_terminal_detected(self):
        spec = rb.build_problem("flat_obstacle")
        bad = replace(spec, obstacle=lambda t, x: np.full(np.shape(x), 0.5))
        rep = rb.validate_assumptions(bad, probe_budget=64)
        assert not check_named(rep, "obstacle_below_terminal").passed

    @pytest.mark.parametrize(
        "name, edit, margin",
        [
            # |5 - y| - (1 + |y|) peaks at 4 (linear_y has varphi = phi = 1)
            ("growth", lambda s: replace(s, driver=lambda t, x, y, z, u: 5.0 - np.asarray(y)), 4.0),
            # 1 - varphi_min
            ("growth", lambda s: replace(s, coeffs=replace(s.coeffs, varphi=lambda t, x: 0.5)), 0.5),
            # eps - a^2 with a^2 = 1
            ("rate_floor", lambda s: replace(s, exponents=rb.Exponents.from_p(1.5, eps=2.0)), 1.0),
            ("y_continuity_probe",
             lambda s: replace(s, driver=lambda t, x, y, z, u: np.sin(1e7 * np.asarray(y))), None),
        ],
        ids=["growth", "varphi_below_one", "rate_floor", "y_continuity"],
    )
    def test_failure_witnessed(self, name, edit, margin):
        rep = rb.validate_assumptions(edit(rb.build_problem("linear_y")), probe_budget=64)
        chk = check_named(rep, name)
        assert not chk.passed
        assert chk.witnesses
        if margin is not None:
            assert chk.worst_margin == pytest.approx(margin, abs=1e-9)

    def test_deterministic_under_seed(self):
        spec = rb.build_problem("american_put")
        a = rb.validate_assumptions(spec, probe_budget=64, seed=9)
        b = rb.validate_assumptions(spec, probe_budget=64, seed=9)
        assert a == b

    @pytest.mark.parametrize("T", [float("inf"), float("nan"), 0.0])
    def test_horizon_named(self, T):
        with pytest.raises(ValueError, match="^horizon must be positive and finite"):
            rb.build_problem("american_put", T=T)


class TestNormalizeDriver:
    def test_identity_transform(self, flat_spec, basis0):
        # alpha = 0, eps 0: the transform multiplies by e^0 everywhere
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tspec, norm = rb.normalize_driver(flat_spec)
        assert float(np.exp(norm.log_factor(0.7))) == 1.0
        grid = rb.build_grid(1.0, 50)
        a = rb.sample_paths(flat_spec, grid, 4, seed=1)
        b = rb.sample_paths(tspec, grid, 4, seed=1)
        sa = rb.solve_penalized(flat_spec, a, basis0, 4.0)
        sb = norm.map_back_solution(rb.solve_penalized(tspec, b, basis0, 4.0), grid)
        assert np.max(np.abs(sa.y - sb.y)) < 1e-10
        assert np.max(np.abs(sa.k_cum - sb.k_cum)) < 1e-10

    def test_slope_normalization_with_eps(self):
        spec = rb.build_problem("linear_y")
        spec = replace(
            spec,
            driver=lambda t, x, y, z, u: 2.0 * np.asarray(y, dtype=float),
            coeffs=replace(
                spec.coeffs,
                alpha=lambda t, x: np.full(np.shape(x), 2.0) if np.ndim(x) else 2.0,
            ),
        )
        tspec, _ = rb.normalize_driver(spec, eps_knob=0.5)
        x = np.zeros(2)
        f = tspec.driver(0.3, x, np.array([0.0, 1.0]), np.zeros(2), np.zeros((2, 0)))
        slope = float(f[1] - f[0])
        # a^2 = 1 for this problem, so the normalized slope is -eps * a^2
        assert slope == pytest.approx(-0.5, abs=1e-9)
        rep = rb.validate_assumptions(tspec, probe_budget=64)
        assert check_named(rep, "monotonicity_y").passed

    def test_round_trip_within_solver_tolerance(self, basis0):
        spec = rb.build_problem("linear_y")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tspec, norm = rb.normalize_driver(spec)
        gaps = []
        for N in (100, 400):
            grid = rb.build_grid(1.0, N)
            bd = rb.sample_paths(spec, grid, 4, seed=5)
            bt = rb.sample_paths(tspec, grid, 4, seed=5)
            direct = rb.solve_penalized(spec, bd, basis0, 1.0)
            back = norm.map_back_solution(rb.solve_penalized(tspec, bt, basis0, 1.0), grid)
            gaps.append(abs(direct.y0_mean() - back.y0_mean()))
            assert gaps[-1] < 5.0 / N  # scheme-order agreement
        assert gaps[1] < 0.5 * gaps[0]  # shrinks under refinement

    def test_rejects_state_dependent_rates(self):
        spec = rb.build_problem("linear_y")
        spec = replace(
            spec,
            coeffs=replace(spec.coeffs, alpha=lambda t, x: np.asarray(x, dtype=float)),
        )
        with pytest.raises(ValueError, match="state-independent"):
            rb.normalize_driver(spec)

    # a NaN knob used to pass the sign check and make R NaN at every node
    # but the first
    @pytest.mark.parametrize("eps_knob", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_knob_named(self, eps_knob):
        with pytest.raises(ValueError, match="^eps_knob must be nonnegative and finite"):
            rb.normalize_driver(rb.build_problem("linear_y"), eps_knob=eps_knob)


def test_equality_rtol_is_strict():
    assert EQUALITY_RTOL == 1e-8
