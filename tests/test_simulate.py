from dataclasses import fields, replace

import numpy as np
import pytest

import rbsdej as rb


class TestBuildGrid:
    def test_uniform(self):
        g = rb.build_grid(1.0, 4)
        assert g.nodes == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        assert rb.build_grid(2.0, 1).nodes == pytest.approx([0.0, 2.0])

    @pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0)])
    def test_rejects_bad_inputs(self, T, N):
        with pytest.raises(ValueError):
            rb.build_grid(T, N)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_non_finite_horizon_named(self, T):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            rb.build_grid(T, 4)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rb.TimeGrid(nodes=np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            rb.TimeGrid(nodes=np.array([0.1, 0.5, 1.0]))

    @pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [np.nan, 1.0]])
    def test_rejects_non_finite_nodes(self, nodes):
        with pytest.raises(ValueError, match="grid nodes must be finite"):
            rb.TimeGrid(nodes=nodes)


def assert_same_bundle(a, b):
    """Every array of two bundles, and their seeds, bit for bit."""
    assert a.seed == b.seed
    c, d = a.coeff_path, b.coeff_path
    pairs = [(a.grid.nodes, b.grid.nodes), (a.brownian_increments, b.brownian_increments),
             (a.jump_counts, b.jump_counts), (a.forward_states, b.forward_states),
             (a.A_path, b.A_path), (a.flagged_paths, b.flagged_paths)]
    pairs += [(getattr(c, k.name), getattr(d, k.name)) for k in fields(c)]
    for x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


class TestSamplePaths:
    def test_deterministic_euler(self):
        # drift 1, vol 0, no jumps: X_T = 1 exactly on every path
        spec = rb.build_problem("brownian_terminal")
        spec = replace(spec, forward=replace(spec.forward, drift=lambda t, x: np.ones(np.shape(x)),
                                             vol=lambda t, x: np.zeros(np.shape(x))))
        b = rb.sample_paths(spec, rb.build_grid(1.0, 64), 16, seed=0)
        assert b.forward_states[:, -1] == pytest.approx(np.ones(16), abs=1e-12)

    def test_same_seed_bit_identical(self):
        spec = rb.build_problem("american_put_jumps")
        g = rb.build_grid(1.0, 16)
        a = rb.sample_paths(spec, g, 5000, seed=42)
        b = rb.sample_paths(spec, g, 5000, seed=42)
        assert_same_bundle(a, b)

    def test_thread_count_does_not_change_output(self):
        spec = rb.build_problem("american_put_jumps")
        g = rb.build_grid(1.0, 8)
        a = rb.sample_paths(spec, g, 9000, seed=1, n_threads=1)
        b = rb.sample_paths(spec, g, 9000, seed=1, n_threads=4)
        assert_same_bundle(a, b)

    def test_different_seed_differs(self):
        spec = rb.build_problem("brownian_terminal")
        g = rb.build_grid(1.0, 8)
        a = rb.sample_paths(spec, g, 100, seed=1)
        b = rb.sample_paths(spec, g, 100, seed=2)
        assert not np.array_equal(a.brownian_increments, b.brownian_increments)

    def test_brownian_moments(self):
        spec = rb.build_problem("brownian_terminal")
        g = rb.build_grid(1.0, 10)
        b = rb.sample_paths(spec, g, 20000, seed=3)
        dt = g.steps[0]
        for i in range(10):
            inc = b.brownian_increments[:, i]
            se = np.sqrt(dt / b.n_paths)
            assert abs(np.mean(inc)) < 4.0 * se
            assert abs(np.var(inc) - dt) < 0.05 * dt

    def test_jump_count_mean(self):
        # E X_T = lambda * T for the unit-jump counter
        spec = rb.build_problem("pure_jump_counter", intensity=2.0)
        b = rb.sample_paths(spec, rb.build_grid(1.0, 10), 10000, seed=4)
        xT = b.forward_states[:, -1]
        se = np.sqrt(2.0 / b.n_paths)  # var of Poisson(2) over paths
        assert abs(np.mean(xT) - 2.0) < 4.0 * se
        lam_dt = 2.0 * b.grid.steps[0]
        counts = b.jump_counts[:, :, 0]
        se_step = np.sqrt(lam_dt / b.n_paths)
        assert np.all(np.abs(np.mean(counts, axis=0) - lam_dt) < 4.0 * se_step)

    def test_brownian_jump_independence(self):
        spec = rb.build_problem("american_put_jumps")
        b = rb.sample_paths(spec, rb.build_grid(1.0, 6), 20000, seed=5)
        for i in range(6):
            for j in range(2):
                c = np.corrcoef(b.brownian_increments[:, i], b.jump_counts[:, i, j])[0, 1]
                assert abs(c) < 4.0 / np.sqrt(b.n_paths)

    def test_A_path_nondecreasing(self, put_spec):
        b = rb.sample_paths(put_spec, rb.build_grid(1.0, 12), 500, seed=6)
        assert np.all(np.diff(b.A_path, axis=1) >= 0.0)
        assert np.all(b.A_path[:, 0] == 0.0)

    def test_nan_paths_flagged(self):
        spec = rb.build_problem("brownian_terminal")
        def bad_drift(t, x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.4, np.nan, 0.0)
        spec = replace(spec, forward=replace(spec.forward, drift=bad_drift))
        b = rb.sample_paths(spec, rb.build_grid(1.0, 16), 200, seed=7)
        assert b.flagged_paths.size > 0
        with pytest.raises(rb.SolverError, match="non-finite"):
            rb.solve_penalized(spec, b, rb.RegressionBasis(degree=1), 1.0)


class TestBundleIO:
    def test_grids_are_column_major(self):
        # a node's column is a contiguous view for every reader of the bundle
        spec = rb.build_problem("american_put_jumps")
        b = rb.sample_paths(spec, rb.build_grid(1.0, 9), 300, seed=8)
        c = b.coeff_path
        grids = [b.brownian_increments, b.jump_counts, b.forward_states,
                 b.A_path, rb.backward.obstacle_on_grid(spec, b)]
        grids += [getattr(c, k.name) for k in fields(c)]
        assert all(g.flags.f_contiguous for g in grids)
