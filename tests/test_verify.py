from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbsdej as rb
from rbsdej.verify import MAX_WITNESSES, PropertyResult, summary_text, write_properties_csv


class TestJumpInequality:
    def test_degenerate_zero_displacement(self):
        lhs, rhs, ok = rb.check_jump_inequality(1.0, 0.0, 1.5)
        assert (lhs, rhs, ok) == (0.0, 0.0, True)

    def test_from_zero(self):
        lhs, rhs, ok = rb.check_jump_inequality(0.0, 1.0, 1.5)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(0.375)  # c(1.5) = 1.5 * 0.5 / 2
        assert ok

    def test_sign_flip(self):
        lhs, rhs, ok = rb.check_jump_inequality(1.0, -2.0, 1.5)
        assert lhs == pytest.approx(3.0)
        assert rhs == pytest.approx(1.5)
        assert ok

    def test_vectorized(self):
        y = np.array([0.0, 1.0, -2.0])
        u = np.array([1.0, -2.0, 0.5])
        lhs, rhs, ok = rb.check_jump_inequality(y, u, 1.5)
        assert ok.all()

    def test_p_domain(self):
        with pytest.raises(ValueError):
            rb.check_jump_inequality(1.0, 1.0, 2.0)

    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=-10, max_value=10),
           st.sampled_from([1.1, 1.5, 1.9]))
    @settings(max_examples=500)
    def test_property(self, y, u, p):
        _, _, ok = rb.check_jump_inequality(y, u, p)
        assert ok

    def test_suite_clean(self):
        res = rb.jump_inequality_suite(n_samples=50_000, seed=3)
        assert res.passed and res.failures == 0


class TestComparisonSuite:
    def test_deterministic_zero_failures(self, flat_spec, flat_bundle_coarse, basis0):
        res = rb.comparison_suite(flat_spec, flat_bundle_coarse, basis0,
                                  [(1.0, 2.0), (2.0, 4.0)])
        assert res.failures == 0
        assert res.passed
        assert res.witnesses == ()

    def test_never_binding_identical(self, basis3):
        spec = rb.build_problem("brownian_terminal")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 8), 1000, seed=2)
        res = rb.comparison_suite(spec, bundle, basis3, [(1.0, 8.0)])
        assert res.failures == 0

    def test_mc_fraction_gate(self, put_spec, put_bundle_small, basis3):
        res = rb.comparison_suite(put_spec, put_bundle_small, basis3,
                                  [(4.0, 8.0), (8.0, 16.0)])
        assert res.passed, res.detail

    def test_rejects_zu_driver(self, basis3):
        spec = rb.build_problem("linear_z")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 5), 100, seed=1)
        with pytest.raises(ValueError, match="independent"):
            rb.comparison_suite(spec, bundle, basis3, [(1.0, 2.0)])

    @pytest.mark.parametrize("active", [lambda t: t < 0.5, lambda t: t > 0.5],
                             ids=["t<T/2", "t>T/2"])
    def test_rejects_driver_reading_z_on_half_the_horizon(self, active, basis3):
        # 0.2 z 1{t < T/2} and 0.2 z 1{t > T/2} (T = 1) both ignore z at t = T/2
        spec = rb.build_problem("brownian_terminal")
        spec = replace(spec, driver=lambda t, x, y, z, u: 0.2 * np.asarray(z, dtype=float) * active(t))
        assert rb.model.driver_uses_zu(spec)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 4), 100, seed=1)
        with pytest.raises(ValueError, match="independent"):
            rb.comparison_suite(spec, bundle, basis3, [(1.0, 2.0)])


class TestPenaltyDecaySuite:
    def test_flat_obstacle_strict_decay(self, flat_spec, flat_bundle_coarse, basis0):
        res = rb.penalty_decay_suite(
            flat_spec, flat_bundle_coarse, basis0,
            rb.PenalizationSchedule.geometric(1.0, 11, 1e-3),
            final_over_first_gate=0.05,
        )
        assert res.passed, res.detail

    def test_never_binding_all_zero(self, basis3):
        spec = rb.build_problem("brownian_terminal")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 8), 500, seed=4)
        res = rb.penalty_decay_suite(
            spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, 3, 1e-9),
        )
        assert res.passed

    def test_binding_mc_problem(self, put_spec, put_bundle_small, basis3):
        res = rb.penalty_decay_suite(
            put_spec, put_bundle_small, basis3,
            rb.PenalizationSchedule.geometric(1.0, 9, 1e-12),
            final_over_first_gate=0.05,
        )
        assert res.passed, res.detail

    def test_binding_jump_problem(self, basis3):
        spec = rb.build_problem("american_put_jumps")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 4000, seed=19)
        res = rb.penalty_decay_suite(
            spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, 8, 1e-12),
        )
        assert res.passed, res.detail

    def test_requires_three_levels(self, flat_spec, flat_bundle_coarse, basis0):
        with pytest.raises(ValueError, match="3 levels"):
            rb.penalty_decay_suite(
                flat_spec, flat_bundle_coarse, basis0,
                rb.PenalizationSchedule.geometric(1.0, 2, 1e-3),
            )


class TestAprioriSuite:
    def test_flat_obstacle_exact_scaling(self, flat_spec, flat_bundle_coarse, basis0):
        res = rb.apriori_suite(flat_spec, flat_bundle_coarse, basis0, n_penalty=64.0)
        assert res.passed, res.witnesses

    def test_zero_data_zero_solution(self, basis0):
        spec = rb.build_problem("flat_obstacle", level=0.0)
        spec = replace(spec, obstacle=lambda t, x: np.full(np.shape(x), -1.0),
                       obstacle_left_limit_T=lambda x: np.full(np.shape(x), -1.0))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 4, seed=5)
        sol = rb.solve_penalized(spec, bundle, basis0, 64.0)
        rep = rb.estimate_norms(sol, bundle, spec.exponents)
        assert rep.s_p_beta == 0.0 and rep.k_p == 0.0 and rep.h_p_beta == 0.0

    def test_put_scaling_mc(self, put_spec, put_bundle_small, basis3):
        res = rb.apriori_suite(put_spec, put_bundle_small, basis3, n_penalty=64.0)
        assert res.passed, res.witnesses


class TestScaleProblemData:
    def test_linear_driver_scales_exactly(self, put_spec, put_bundle_small, basis3):
        s = 2.0
        scaled = rb.scale_problem_data(put_spec, s)
        sol1 = rb.solve_penalized(put_spec, put_bundle_small, basis3, 32.0)
        sol2 = rb.solve_penalized(scaled, put_bundle_small, basis3, 32.0)
        assert np.max(np.abs(sol2.y - s * sol1.y)) < 1e-10 * (1.0 + np.max(np.abs(sol1.y)))
        assert np.max(np.abs(sol2.k_cum - s * sol1.k_cum)) < 1e-10


    # s = 1 must be the identity; a power of two commutes with rounding, so
    # drivers linear in (y, z, u) scale bit for bit
    @pytest.mark.parametrize(
        "name, s", [("american_put_jumps", 1.0), ("linear_z", 2.0), ("linear_gamma", 2.0)]
    )
    def test_scaling_is_exact(self, basis3, name, s):
        spec = rb.build_problem(name)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 2000, seed=5)
        sol1 = rb.solve_penalized(spec, bundle, basis3, 16.0)
        sol2 = rb.solve_penalized(rb.scale_problem_data(spec, s), bundle, basis3, 16.0)
        for field in ("y", "z", "u", "k_cum", "k_jump_T", "obstacle"):
            np.testing.assert_array_equal(getattr(sol2, field), s * getattr(sol1, field))


class TestDataNorms:
    # the inhomogeneity term is the given spec's, not the sampling spec's,
    # so all three terms of the data norm scale by s^p
    @pytest.mark.parametrize("name", ["american_put_jumps", "linear_z", "flat_obstacle"])
    def test_scaled_data_scale_by_s_to_the_p(self, basis3, name):
        spec = rb.build_problem(name)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 2000, seed=5)
        scaled = rb.scale_problem_data(spec, 2.0)
        base = rb.verify.data_norms(rb.solve_penalized(spec, bundle, basis3, 16.0), spec, bundle)
        sc = rb.verify.data_norms(rb.solve_penalized(scaled, bundle, basis3, 16.0), scaled, bundle)
        assert sc / (2.0**spec.exponents.p * base) == pytest.approx(1.0, rel=1e-12)


class TestJumpEstimatorCrosscheck:
    def test_gamma_driver_agreement(self):
        spec = rb.build_problem("linear_gamma")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 10_000, seed=3)
        res = rb.jump_estimator_crosscheck(spec, bundle, rb.RegressionBasis(degree=3))
        assert res.passed, res.detail

    def test_jump_free_vacuous(self, flat_spec, flat_bundle_coarse, basis0):
        res = rb.jump_estimator_crosscheck(flat_spec, flat_bundle_coarse, basis0, n_penalty=8.0)
        assert res.passed and res.worst_margin < 0.0

    def test_unknown_estimator_rejected(self, flat_spec, flat_bundle_coarse, basis0):
        with pytest.raises(ValueError, match="u_estimator"):
            rb.solve_penalized(flat_spec, flat_bundle_coarse, basis0, 1.0, u_estimator="magic")


class TestContractionSuite:
    def test_z_driver(self):
        spec = rb.build_problem("linear_z")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 15), 2000, seed=6)
        res = rb.contraction_suite(spec, bundle, rb.RegressionBasis(degree=2),
                                   beta_values=(1.0, spec.exponents.beta), n_penalty=8.0)
        assert res.passed, res.detail
        assert "ratios" in res.detail

    def test_gamma_driver(self):
        spec = rb.build_problem("linear_gamma")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 15), 2000, seed=6)
        res = rb.contraction_suite(spec, bundle, rb.RegressionBasis(degree=2), n_penalty=8.0)
        assert res.passed, res.detail

    def test_zu_free_vacuous_pass(self, flat_spec, flat_bundle_coarse, basis0):
        res = rb.contraction_suite(flat_spec, flat_bundle_coarse, basis0, n_penalty=8.0)
        assert res.passed
        assert res.trials == 1 and res.failures == 0

    def test_beta_threshold_enforced(self, flat_spec, flat_bundle_coarse, basis0):
        p = flat_spec.exponents.p
        low = 2.0 * (p - 1.0) / p  # not strictly above the threshold
        with pytest.raises(ValueError, match="threshold"):
            rb.contraction_suite(flat_spec, flat_bundle_coarse, basis0, beta_values=(low,))


class TestFailingBranches:
    """Each suite driven into failure through its own gate: the tally counts
    the failures and keeps between one and MAX_WITNESSES witnesses."""

    @pytest.mark.parametrize("case", ["penalty_decay", "apriori", "crosscheck", "contraction_nan"])
    def test_failure_witnessed(self, case):
        if case == "penalty_decay":
            spec = rb.build_problem("flat_obstacle")
            bundle = rb.sample_paths(spec, rb.build_grid(1.0, 40), 4, seed=1)
            res = rb.penalty_decay_suite(
                spec, bundle, rb.RegressionBasis(degree=0),
                rb.PenalizationSchedule.geometric(1.0, 6, 1e-3), final_over_first_gate=1e-9,
            )
        elif case == "apriori":
            spec = rb.build_problem("american_put")
            bundle = rb.sample_paths(spec, rb.build_grid(1.0, 15), 1500, seed=2)
            res = rb.apriori_suite(spec, bundle, rb.RegressionBasis(degree=3), scaling_rtol=1e-18)
        elif case == "crosscheck":
            spec = rb.build_problem("linear_gamma")
            bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 1000, seed=4)
            res = rb.jump_estimator_crosscheck(spec, bundle, rb.RegressionBasis(degree=3),
                                               se_gate=1e-9)
        else:
            # beta * A_T ~ 2700 overflows the weights: picard_solve raises on
            # the first residual, and the suite records its message as the witness
            spec = rb.build_problem("linear_z")
            bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 500, seed=1)
            with np.errstate(over="ignore", invalid="ignore"):
                res = rb.contraction_suite(spec, bundle, rb.RegressionBasis(degree=2),
                                           beta_values=(1e5,), n_penalty=8.0)
        assert not res.passed
        assert res.failures >= 1
        assert 1 <= len(res.witnesses) <= MAX_WITNESSES
        if case == "contraction_nan":
            assert "at Picard iteration 1; largest beta*A_T" in res.witnesses[0][1]


class TestPropertyResultPlumbing:
    def test_witness_invariant(self):
        with pytest.raises(ValueError):
            PropertyResult(name="x", trials=2, failures=1, worst_margin=0.0, witnesses=())
        with pytest.raises(ValueError):
            PropertyResult(name="x", trials=1, failures=2, worst_margin=0.0,
                           witnesses=((1,), (2,)))

    def test_summary_and_csv(self, tmp_path):
        results = [
            PropertyResult(name="a", trials=10, failures=0, worst_margin=-1.0),
            PropertyResult(name="b", trials=5, failures=2, worst_margin=0.3,
                           witnesses=((1,), (2,)), passed=False),
        ]
        text = summary_text(results)
        assert "PASS a" in text and "FAIL b" in text
        f = tmp_path / "props.csv"
        with open(f, "w", newline="") as fh:
            write_properties_csv(results, fh)
        lines = f.read_text().splitlines()
        assert lines[0] == "name,trials,failures,worst_margin"
        assert lines[1].startswith("a,10,0,")

    def test_suites_deterministic_under_seed(self):
        a = rb.jump_inequality_suite(n_samples=10_000, seed=5)
        b = rb.jump_inequality_suite(n_samples=10_000, seed=5)
        assert a == b
        c = rb.lenglart_sweep(n_configs=5, n_paths=500, seed=5)
        d = rb.lenglart_sweep(n_configs=5, n_paths=500, seed=5)
        assert c == d
