import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import rbsdej as rb
import rbsdej.cli as cli
from rbsdej.model import EQUALITY_RTOL


def with_zu_driver(spec):
    """``spec`` with the driver -0.05 y + 0.1 z + 0.1 sum_j w_j u_j."""
    w = spec.marks.weights_array()

    def driver(t, x, y, z, u):
        return -0.05 * np.asarray(y, dtype=float) + 0.1 * np.asarray(z, dtype=float) \
            + 0.1 * (np.asarray(u, dtype=float) @ w)

    return replace(spec, driver=driver)


# a driver that ignores (z, u), and one that reads both
DRIVERS = pytest.mark.parametrize("zu", [False, True], ids=["zu_free", "zu_driver"])


class TestSchedule:
    def test_geometric(self):
        s = rb.PenalizationSchedule.geometric(1.0, 5, 1e-3)
        assert s.n_values == (1.0, 2.0, 4.0, 8.0, 16.0)

    # n0 * 2.0**k overflowed in 2.0**k from k = 1024 on, and a last level
    # past float64 raised a bare OverflowError
    @pytest.mark.parametrize("n0", [1.0, 0.3, 5e-324, 1e-300, 7.0e300])
    def test_geometric_levels_are_exact(self, n0):
        levels = 1 + next(k for k in range(2200) if Fraction(n0) * 2**k >= 2**1023)
        s = rb.PenalizationSchedule.geometric(n0, levels, 1e-3)
        assert s.n_values == tuple(float(Fraction(n0) * 2**k) for k in range(levels))
        assert s.n_values[:1024] == tuple(n0 * 2.0**k for k in range(min(levels, 1024)))
        with pytest.raises(ValueError, match=r"^levels: n0 \* 2\^\(levels - 1\) overflows float64"):
            rb.PenalizationSchedule.geometric(n0, levels + 1, 1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            rb.PenalizationSchedule(n_values=(2.0, 1.0), stop_tol=1e-3)
        with pytest.raises(ValueError):
            rb.PenalizationSchedule(n_values=(1.0,), stop_tol=0.0)
        with pytest.raises(ValueError):
            rb.PenalizationSchedule(n_values=(), stop_tol=1e-3)

    # 2.5 used to raise a TypeError from range, and True built one level
    @pytest.mark.parametrize("levels", [2.5, 11.0, 0, -1, True])
    def test_level_count_named(self, levels):
        with pytest.raises(ValueError, match="^levels must be an integer of at least 1"):
            rb.PenalizationSchedule.geometric(1.0, levels, 1e-3)

    # each of these used to run: a NaN stop_tol ran the schedule to
    # exhaustion, an infinite one stopped at level 1, and a NaN level
    # stopped there as converged
    @pytest.mark.parametrize("n_values, stop_tol, field", [
        ((1.0, 2.0), float("nan"), "stop_tol"),
        ((1.0, 2.0), float("inf"), "stop_tol"),
        ((float("nan"), 2.0), 1e-3, "n_values"),
        ((1.0, float("nan"), 4.0), 1e-3, "n_values"),
    ])
    def test_non_finite_values_named(self, n_values, stop_tol, field):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            rb.PenalizationSchedule(n_values=n_values, stop_tol=stop_tol)


class TestReflectedPenalization:
    def test_flat_obstacle_limit(self, flat_spec, flat_bundle, basis0):
        run = rb.solve_reflected_penalization(
            flat_spec, flat_bundle, basis0,
            rb.PenalizationSchedule.geometric(1.0, 11, 1e-3),
        )
        sol = run.solution
        assert abs(sol.y0_mean() - 1.0) <= 5e-3
        assert abs(float(np.mean(sol.k_T())) - 1.0) <= 5e-3
        assert float(np.mean(sol.k_jump_T)) >= 0.99
        assert not run.reached_tol  # sup error is O(1) for the jumping barrier
        assert any("schedule exhausted" in w for w in sol.run.warnings)
        # closed form: K^n_T = 1 - e^{-n T} along the schedule
        for row in run.table[:6]:
            assert row.k_T_mean == pytest.approx(1.0 - math.exp(-row.n), abs=2e-2)

    def test_closed_form_k_at_top_level(self, flat_spec, flat_bundle, basis0):
        run = rb.solve_reflected_penalization(
            flat_spec, flat_bundle, basis0,
            rb.PenalizationSchedule.geometric(1.0, 11, 1e-12),
        )
        assert abs(run.table[-1].k_T_mean - 1.0) <= 1e-3

    def test_never_binding_stops_early(self, basis3):
        spec = rb.build_problem("brownian_terminal")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 2000, seed=3)
        run = rb.solve_reflected_penalization(
            spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, 8, 1e-6),
        )
        assert run.reached_tol
        assert len(run.table) == 1  # first level already below tolerance
        assert np.all(run.solution.k_T() == 0.0)
        assert run.skorokhod.terminal_jump_mass == 0.0

    def test_errors_nonincreasing_on_binding_problem(self, put_spec, put_bundle_small, basis3):
        run = rb.solve_reflected_penalization(
            put_spec, put_bundle_small, basis3,
            rb.PenalizationSchedule.geometric(1.0, 9, 1e-12),
        )
        errs = [r.penalty_error for r in run.table]
        ses = [r.penalty_error_se for r in run.table]
        for k in range(len(errs) - 1):
            assert errs[k + 1] <= errs[k] + 2.0 * math.hypot(ses[k], ses[k + 1])

    @DRIVERS
    def test_records_single_picard_pass(self, put_spec, basis3, zu):
        # every schedule is swept: a level is one pass, its own fixed point
        spec = with_zu_driver(put_spec) if zu else put_spec
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 1000, seed=4)
        run = rb.solve_reflected_penalization(
            spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, 2, 1e-12),
        )
        assert run.solution.run.picard_iters == 1
        assert run.solution.run.residual_history == (0.0,)

    def test_one_pass_solves_record_one_iterate(self, flat_spec, flat_bundle_coarse, basis0):
        # the oracle and a penalized solve recorded (0, ()) for the pass
        # that picard_solve and the swept schedule record as (1, (0.0,))
        for sol in (rb.solve_reflected_dp_oracle(flat_spec, flat_bundle_coarse, basis0),
                    rb.solve_penalized(flat_spec, flat_bundle_coarse, basis0, 4.0)):
            assert (sol.run.picard_iters, sol.run.residual_history) == (1, (0.0,))

    @staticmethod
    def counted_calls(monkeypatch):
        """Counts of backward sweeps, obstacle samples and slice
        factorizations, through every import of the names."""
        calls = {"sweep": 0, "obstacle": 0, "factor": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        names = (("sweep", "_backward"), ("obstacle", "obstacle_on_grid"), ("factor", "_factor_slice"))
        for module in (rb.backward, rb.reflect, rb.verify, rb.norms):
            for name, attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
        return calls

    @DRIVERS
    def test_obstacle_sampled_once_per_sweep(self, put_spec, basis3, monkeypatch, zu):
        # the three levels are swept in chunks [1] and [2, 3] that share
        # one sampled obstacle and one factorization of each of the 10
        # slices, and the penalty errors and Skorokhod reports read the
        # solution's own obstacle
        spec = with_zu_driver(put_spec) if zu else put_spec
        calls = self.counted_calls(monkeypatch)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 1000, seed=4)
        run = rb.solve_reflected_penalization(
            spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, 3, 1e-12),
        )
        assert len(run.table) == 3
        assert calls == {"sweep": 2, "obstacle": 1, "factor": 10}

    def test_picard_samples_the_obstacle_and_factors_each_slice_once(self, basis3, monkeypatch):
        calls = self.counted_calls(monkeypatch)
        spec = rb.build_problem("linear_gamma")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 1000, seed=4)
        sol = rb.picard_solve(spec, bundle, basis3, 16.0, tol=1e-12, max_iter=6)
        assert sol.run.picard_iters >= 3
        assert calls == {"sweep": sol.run.picard_iters, "obstacle": 1, "factor": 10}

    def test_overflowing_weights_raise(self, basis3):
        # q = 21 makes zeta^2 = a^{21} large, so e^{(p/2) beta A} overflows
        spec = rb.build_problem("american_put", rate=2.0, p=1.05)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), 2000, seed=3)
        with np.errstate(all="ignore"), pytest.raises(rb.SolverError, match=r"n=1\.0.*beta\*A_T"):
            rb.solve_reflected_penalization(
                spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, 3, 1e-3),
            )


ROW_FIELDS = ("penalty_error", "penalty_error_se", "y0_mean", "y0_stderr", "k_T_mean", "flat_integral")


def replay_penalty_error(sol, bundle, spec):
    """The weighted sup penalty error by hand, node column by node column:
    an overflowed weight counts only on a shortfall."""
    beta, p = spec.exponents.beta, spec.exponents.p
    sup = np.zeros(bundle.n_paths)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(bundle.grid.nodes.size):
            short = np.maximum(sol.obstacle[:, i] - sol.y[:, i], 0.0)
            w = np.exp(0.5 * beta * bundle.A_path[:, i])
            sup = np.maximum(sup, np.where(short > 0.0, w * short, 0.0))
        v = sup ** p
        return float(np.mean(v)), float(np.std(v, ddof=1) / np.sqrt(v.size))


class TestPenaltyError:
    @pytest.mark.parametrize("name, params, steps, paths, degree, overflows", [
        ("american_put_jumps", {}, 10, 2000, 3, False),
        ("flat_obstacle", {}, 100, 8, 0, False),
        ("american_put", {"rate": 2.0, "p": 1.05}, 10, 2000, 3, True),  # beta A_T about 3000
    ])
    def test_matches_a_node_column_replay_bit_for_bit(self, name, params, steps, paths, degree,
                                                      overflows):
        spec = rb.build_problem(name, **params)
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, steps), paths, seed=5)
        sol = rb.solve_penalized(spec, bundle, rb.RegressionBasis(degree=degree), 8.0)
        want = replay_penalty_error(sol, bundle, spec)
        assert math.isinf(want[0]) == overflows
        if overflows:  # an infinite error is named, as a convergence row names it
            with pytest.raises(rb.SolverError, match=r"penalty error inf .*largest beta\*A_T"):
                rb.penalty_error(sol, bundle, spec)
        else:
            got = rb.penalty_error(sol, bundle, spec)
            assert [x.hex() for x in got] == [x.hex() for x in want]


def grid_row(sol, spec, bundle, n):
    """The convergence row of a penalized solve, read off its grids."""
    err, err_se = rb.penalty_error(sol, bundle, spec)
    flat = np.sum((sol.y[:, :-1] - sol.obstacle[:, :-1]) * np.diff(sol.k_cum, axis=1), axis=1)
    return rb.reflect.PenaltyLevelRow(
        n=n, penalty_error=err, penalty_error_se=err_se, y0_mean=sol.y0_mean(),
        y0_stderr=sol.run.y0_stderr, k_T_mean=float(np.mean(sol.k_cum[:, -1])),
        flat_integral=abs(float(np.mean(flat))), wall_time=0.0,
    )


def per_level_reference(spec, bundle, basis, schedule):
    """The schedule solved one level at a time, with the rows and the
    terminal-jump split of the reflected run."""
    rows = []
    for n in schedule.n_values:
        sol = rb.solve_penalized(spec, bundle, basis, n)
        rows.append(grid_row(sol, spec, bundle, n))
        if rows[-1].penalty_error < schedule.stop_tol:
            break
    return rows, rb.reflect.extract_terminal_jump(sol, spec, bundle, rows[-1].n)


def assert_matches_per_level(run, rows, sol, rtol=1e-12):
    assert [r.n for r in run.table] == [r.n for r in rows]
    for got, want in zip(run.table, rows):
        for name in ROW_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= rtol * abs(b), (got.n, name, a, b)
    for name in ("y", "z", "u", "k_cum", "k_jump_T", "obstacle"):
        a, b = getattr(run.solution, name), getattr(sol, name)
        assert np.max(np.abs(a - b), initial=0.0) <= rtol * np.max(np.abs(b), initial=0.0), name


class TestSweptSchedule:
    """Every schedule is swept in chunks of levels; rows and solution must
    match solving the levels one at a time, also when the driver reads
    (z, u)."""

    @pytest.mark.parametrize("name, steps, paths, degree, levels, stop_tol, n_rows, zu", [
        ("american_put_jumps", 10, 2000, 3, 6, 1e-12, 6, False),  # jump-shifted continuations
        ("american_put_jumps", 10, 2000, 3, 6, 1e-12, 6, True),  # each column its own (z, u)
        ("flat_obstacle", 100, 8, 0, 11, 1e-3, 11, False),  # degenerate slices, never reaches tol
        ("brownian_terminal", 10, 2000, 3, 8, 1e-6, 1, False),  # never binds: stops at level 1
    ], ids=[
        "american_put_jumps-10-2000-3-6-1e-12-6", "american_put_jumps-zu_driver-10-2000-3-6-1e-12-6",
        "flat_obstacle-100-8-0-11-0.001-11", "brownian_terminal-10-2000-3-8-1e-06-1",
    ])
    def test_rows_and_solution_match_per_level_solves(
        self, name, steps, paths, degree, levels, stop_tol, n_rows, zu
    ):
        spec = rb.build_problem(name)
        spec = with_zu_driver(spec) if zu else spec
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, steps), paths, seed=12)
        basis = rb.RegressionBasis(degree=degree)
        schedule = rb.PenalizationSchedule.geometric(1.0, levels, stop_tol)
        run = rb.solve_reflected_penalization(spec, bundle, basis, schedule)
        rows, sol = per_level_reference(spec, bundle, basis, schedule)
        assert len(run.table) == n_rows
        assert_matches_per_level(run, rows, sol)

    def test_stop_inside_the_schedule_resweeps_that_level(self, put_spec, basis3):
        bundle = rb.sample_paths(put_spec, rb.build_grid(1.0, 10), 2000, seed=13)
        full = rb.solve_reflected_penalization(
            put_spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, 8, 1e-300),
        )
        errs = [r.penalty_error for r in full.table]
        assert errs[3] < min(errs[:3])
        # level 4 opens the chunk [4, 8]; a tolerance one ulp above its
        # chunk row stops there whatever the re-swept row rounds to
        schedule = rb.PenalizationSchedule.geometric(1.0, 8, float(np.nextafter(errs[3], np.inf)))
        run = rb.solve_reflected_penalization(put_spec, bundle, basis3, schedule)
        assert run.reached_tol and len(run.table) == 4
        assert not any("exhausted" in w for w in run.solution.run.warnings)
        first_four = rb.PenalizationSchedule(schedule.n_values[:4], 1e-300)
        assert_matches_per_level(run, *per_level_reference(put_spec, bundle, basis3, first_four))

    @pytest.mark.parametrize("levels, stop_at, columns", [
        (11, None, [1, 2, 4, 4]),  # never stops: chunks of 1, 2, 4, then the rest
        (8, 4, [1, 2, 4, 1]),  # stop at the first column of [4, 7]: one re-sweep
        (8, 3, [1, 2]),  # stop at the last column of [2, 3]: no re-sweep
    ])
    def test_early_stop_sweeps_only_its_chunks(self, put_spec, basis3, monkeypatch,
                                               levels, stop_at, columns):
        bundle = rb.sample_paths(put_spec, rb.build_grid(1.0, 10), 2000, seed=13)
        full = rb.solve_reflected_penalization(
            put_spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, levels, 1e-300),
        )
        tol = 1e-300 if stop_at is None else full.table[stop_at - 1].penalty_error * (1 + 1e-9)
        swept = []

        def counted(spec, bundle, basis, n_penalty, **kwargs):
            swept.append(np.size(n_penalty))
            return backward(spec, bundle, basis, n_penalty, **kwargs)

        backward = rb.reflect._backward
        monkeypatch.setattr(rb.reflect, "_backward", counted)
        run = rb.solve_reflected_penalization(
            put_spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, levels, tol),
        )
        assert swept == columns
        assert len(run.table) == (stop_at or levels)


class TestDPOracle:
    def test_flat_obstacle_hand_dp(self, flat_spec, flat_bundle, basis0):
        # hand recursion: y_i = max(1, y_{i+1}) = 1 for i < N, jump mass 1 at T
        dp = rb.solve_reflected_dp_oracle(flat_spec, flat_bundle, basis0)
        assert dp.y0_mean() == pytest.approx(1.0, abs=1e-12)
        assert float(np.mean(dp.k_T())) == pytest.approx(1.0, abs=1e-12)
        assert float(np.mean(dp.k_jump_T)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.mean(dp.k_cum[:, -1])) == pytest.approx(0.0, abs=1e-12)
        # terminal-jump consistency: proxy node sits on the barrier
        assert np.all(np.abs(dp.y[:, -2] - 1.0) < 1e-12)

    def test_never_binding_equals_unreflected(self, basis3):
        spec = rb.build_problem("brownian_terminal")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 12), 3000, seed=6)
        dp = rb.solve_reflected_dp_oracle(spec, bundle, basis3)
        plain = rb.solve_penalized(spec, bundle, basis3, 1.0)
        assert np.max(np.abs(dp.y - plain.y)) < 1e-12
        assert np.all(dp.k_T() == 0.0)

    def test_obstacle_domination_exact(self, put_spec, put_bundle_small, basis3):
        dp = rb.solve_reflected_dp_oracle(put_spec, put_bundle_small, basis3)
        L = rb.backward.obstacle_on_grid(put_spec, put_bundle_small)
        assert np.all(dp.y[:, :-1] >= L[:, :-1] - 1e-12)

    def test_comparison_in_obstacle(self, basis0):
        # raising the barrier raises the value, deterministically
        lo = rb.build_problem("flat_obstacle", level=0.5)
        hi = rb.build_problem("flat_obstacle", level=0.8)
        grid = rb.build_grid(1.0, 50)
        b_lo = rb.sample_paths(lo, grid, 4, seed=8)
        b_hi = rb.sample_paths(hi, grid, 4, seed=8)
        y_lo = rb.solve_reflected_dp_oracle(lo, b_lo, basis0).y0_mean()
        y_hi = rb.solve_reflected_dp_oracle(hi, b_hi, basis0).y0_mean()
        assert y_hi >= y_lo

    def test_oracle_equivalence_small(self, put_spec, put_bundle_small, basis3):
        dp = rb.solve_reflected_dp_oracle(put_spec, put_bundle_small, basis3)
        run = rb.solve_reflected_penalization(
            put_spec, put_bundle_small, basis3,
            rb.PenalizationSchedule.geometric(1.0, 11, 1e-12),
        )
        rel = abs(run.solution.y0_mean() - dp.y0_mean()) / abs(dp.y0_mean())
        assert rel <= 0.01


def reference_skorokhod(sol, spec, bundle):
    """The full-grid report that the node-by-node sums replaced."""
    L = sol.obstacle
    dKc = np.diff(sol.k_cum, axis=1)
    clearance = sol.y[:, :-1] - L[:, :-1]
    xN = bundle.forward_states[:, -1]
    jump = np.maximum(spec.obstacle_left_limit(xN) - spec.terminal_values(xN), 0.0)
    tol_k = 1e-10 * (1.0 + float(np.max(sol.k_cum[:, -1], initial=0.0)))
    tol_y = EQUALITY_RTOL * (1.0 + np.abs(L[:, :-1]))
    return rb.SkorokhodReport(
        flat_integral=abs(float(np.mean(np.sum(clearance * dKc, axis=1)))),
        jump_condition_residual=float(np.mean(np.abs(sol.k_jump_T - jump))),
        complementarity_violation_fraction=float(np.mean((dKc > tol_k) & (clearance > tol_y))),
        terminal_jump_mass=float(np.mean(sol.k_jump_T)),
    )


class TestSkorokhodReport:
    def test_matches_the_full_grid_reference(self, put_spec, put_bundle_small, basis3):
        # a penalized solve, its terminal-jump split, the oracle, and a
        # synthetic solution with K increments off the obstacle and a
        # terminal jump on every path, so that every field is nonzero
        sol = rb.solve_penalized(put_spec, put_bundle_small, basis3, 4.0)
        n = put_bundle_small.n_paths
        off = np.where(sol.y[:, :-1] > sol.obstacle[:, :-1] + 0.01, 1e-3, 0.0)
        k_cum = sol.k_cum + np.cumsum(np.hstack([np.zeros((n, 1)), off]), axis=1)
        synthetic = replace(sol, k_cum=np.asfortranarray(k_cum), k_jump_T=np.full(n, 0.01))
        cases = [
            sol,
            rb.reflect.extract_terminal_jump(sol, put_spec, put_bundle_small, 4.0),
            rb.solve_reflected_dp_oracle(put_spec, put_bundle_small, basis3),
            synthetic,
        ]
        for case in cases:
            got = rb.skorokhod_report(case, put_spec, put_bundle_small)
            assert got == reference_skorokhod(case, put_spec, put_bundle_small)
        assert all(v != 0.0 for v in vars(got).values()), got

    def test_dp_complementarity_exact(self, put_spec, put_bundle_small, basis3):
        dp = rb.solve_reflected_dp_oracle(put_spec, put_bundle_small, basis3)
        rep = rb.skorokhod_report(dp, put_spec, put_bundle_small)
        assert rep.complementarity_violation_fraction == 0.0

    def test_zero_k_all_zero(self, basis3):
        spec = rb.build_problem("brownian_terminal")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 10), 500, seed=9)
        sol = rb.solve_penalized(spec, bundle, basis3, 4.0)
        rep = rb.skorokhod_report(sol, spec, bundle)
        assert rep.flat_integral == 0.0
        assert rep.jump_condition_residual == 0.0
        assert rep.complementarity_violation_fraction == 0.0
        assert rep.terminal_jump_mass == 0.0

    def test_dp_jump_condition_zero_residual(self, flat_spec, flat_bundle, basis0):
        dp = rb.solve_reflected_dp_oracle(flat_spec, flat_bundle, basis0)
        rep = rb.skorokhod_report(dp, flat_spec, flat_bundle)
        assert rep.jump_condition_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.flat_integral == pytest.approx(0.0, abs=1e-12)

    def test_penalized_flat_integral_decays(self, put_spec, put_bundle_small, basis3):
        flats = []
        for n in (4.0, 64.0, 1024.0):
            sol = rb.solve_penalized(put_spec, put_bundle_small, basis3, n)
            flats.append(rb.skorokhod_report(sol, put_spec, put_bundle_small).flat_integral)
        assert flats[2] < flats[0]

    def test_bermudan_flat_integral_small(self, put_spec, put_bundle_small, basis3):
        run = rb.solve_reflected_penalization(
            put_spec, put_bundle_small, basis3,
            rb.PenalizationSchedule.geometric(1.0, 11, 1e-12),
        )
        scale = abs(run.solution.y0_mean())
        assert run.skorokhod.flat_integral <= 5e-3 * scale


class TestExtractTerminalJump:
    # 0 raised an unnamed ZeroDivisionError, and NaN, -1 and inf each
    # silently took one slice as the layer
    @pytest.mark.parametrize("n", [0.0, float("nan"), -1.0, float("inf")])
    def test_bad_level_named(self, flat_spec, flat_bundle_coarse, basis0, n):
        sol = rb.solve_penalized(flat_spec, flat_bundle_coarse, basis0, 4.0)
        with pytest.raises(ValueError, match="^n_penalty must be positive and finite"):
            rb.reflect.extract_terminal_jump(sol, flat_spec, flat_bundle_coarse, n)


class TestPenalizedJumpResidual:
    """The audit of a penalized run measures the extracted terminal jump
    against the jump that the data force, (L_{T-} - xi)^+, and not against
    a proxy that the penalized y never meets (it used to read the
    extracted mass itself)."""

    @pytest.mark.parametrize("N", [10, 100, 1000])
    def test_flat_obstacle_residual_is_the_missing_mass(self, N):
        # the data force a unit jump on every path
        spec = rb.build_problem("flat_obstacle")
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, N), 4, seed=7)
        run = rb.solve_reflected_penalization(
            spec, bundle, rb.RegressionBasis(degree=0),
            rb.PenalizationSchedule.geometric(1.0, 11, 1e-3),
        )
        rep = run.skorokhod
        assert 0.9 < rep.terminal_jump_mass < 1.0
        assert rep.jump_condition_residual == pytest.approx(1.0 - rep.terminal_jump_mass, abs=1e-12)

    def test_brownian_terminal_under_a_dropping_barrier(self):
        # L = 0.2 before T and xi = X_T: the data force (0.2 - X_T)^+
        spec = replace(
            rb.build_problem("brownian_terminal"),
            obstacle=lambda t, x: np.full(np.shape(x), 0.2) if t < 1.0 else np.asarray(x, dtype=float),
            obstacle_left_limit_T=lambda x: np.full(np.shape(x), 0.2),
        )
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 25), 4000, seed=5)
        run = rb.solve_reflected_penalization(
            spec, bundle, rb.RegressionBasis(degree=3),
            rb.PenalizationSchedule.geometric(1.0, 11, 1e-3),
        )
        rep = run.skorokhod
        jump = np.maximum(0.2 - bundle.forward_states[:, -1], 0.0)
        assert rep.jump_condition_residual == pytest.approx(
            float(np.mean(np.abs(run.solution.k_jump_T - jump))), abs=1e-12)
        assert rep.jump_condition_residual < 0.25 * rep.terminal_jump_mass


class TestConvergenceCSV:
    def test_columns_and_roundtrip(self, tmp_path, flat_spec, flat_bundle_coarse, basis0):
        import csv as csvmod

        run = rb.solve_reflected_penalization(
            flat_spec, flat_bundle_coarse, basis0,
            rb.PenalizationSchedule.geometric(1.0, 4, 1e-9),
        )
        name, header, cells = cli._convergence_table(run.table)
        f = tmp_path / name
        cli._write_csv(f, header, cells)
        rows = list(csvmod.reader(f.read_text().splitlines()))
        assert rows[0] == ["n", "penalty_error", "Y0_mean", "Y0_stderr",
                           "K_T_mean", "flat_integral", "wall_time"]
        assert len(rows) == 1 + len(run.table)
        assert float(rows[1][0]) == 1.0


class TestNonFiniteDriver:
    # a driver that is NaN above y = 0.05 fails every comparison of the
    # implicit step; each solver used to return NaN (or blame the weights)
    @pytest.mark.parametrize("solver", ["penalized", "oracle", "reflected"])
    def test_step_and_path_named(self, solver, basis3):
        spec = replace(rb.build_problem("american_put"),
                       driver=lambda t, x, y, z, u: np.where(np.asarray(y) > 0.05, np.nan, 0.0))
        bundle = rb.sample_paths(spec, rb.build_grid(1.0, 5), 500, seed=3)
        solve = {
            "penalized": lambda: rb.solve_penalized(spec, bundle, basis3, 4.0),
            "oracle": lambda: rb.solve_reflected_dp_oracle(spec, bundle, basis3),
            "reflected": lambda: rb.solve_reflected_penalization(
                spec, bundle, basis3, rb.PenalizationSchedule.geometric(1.0, 4, 1e-3)),
        }[solver]
        with pytest.raises(rb.SolverError, match=r"^no finite root of the implicit step at step 4, path \d+"):
            solve()
