import struct

import numpy as np
import pytest
from dataclasses import fields, replace

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

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rb.TimeGrid(nodes=np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            rb.TimeGrid(nodes=np.array([0.1, 0.5, 1.0]))


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
        assert rb.bundles_equal(a, b)

    def test_thread_count_does_not_change_output(self):
        spec = rb.build_problem("american_put_jumps")
        g = rb.build_grid(1.0, 8)
        a = rb.sample_paths(spec, g, 9000, seed=1, n_threads=1)
        b = rb.sample_paths(spec, g, 9000, seed=1, n_threads=4)
        assert rb.bundles_equal(a, b)

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
    def test_round_trip(self, tmp_path):
        spec = rb.build_problem("american_put_jumps")
        b = rb.sample_paths(spec, rb.build_grid(1.0, 9), 300, seed=8)
        f = tmp_path / "bundle.bin"
        rb.save_bundle(f, b)
        loaded = rb.load_bundle(f)
        assert rb.bundles_equal(b, loaded)
        assert np.array_equal(loaded.coeff_path.varphi, b.coeff_path.varphi)
        # the file holds the grids in C order whatever their layout in memory
        c = b.coeff_path
        c_order = replace(
            b, brownian_increments=np.ascontiguousarray(b.brownian_increments),
            jump_counts=np.ascontiguousarray(b.jump_counts),
            forward_states=np.ascontiguousarray(b.forward_states),
            A_path=np.ascontiguousarray(b.A_path),
            coeff_path=replace(c, **{k.name: np.ascontiguousarray(getattr(c, k.name))
                                     for k in fields(c)}),
        )
        assert not c_order.forward_states.flags.f_contiguous
        rb.save_bundle(tmp_path / "c_order.bin", c_order)
        assert (tmp_path / "c_order.bin").read_bytes() == f.read_bytes()

    def test_grids_are_column_major(self, tmp_path):
        # a node's column is a contiguous view for every reader of the bundle
        spec = rb.build_problem("american_put_jumps")
        b = rb.sample_paths(spec, rb.build_grid(1.0, 9), 300, seed=8)
        f = tmp_path / "bundle.bin"
        rb.save_bundle(f, b)
        for bundle in (b, rb.load_bundle(f)):
            c = bundle.coeff_path
            grids = [bundle.brownian_increments, bundle.jump_counts, bundle.forward_states,
                     bundle.A_path, rb.backward.obstacle_on_grid(spec, bundle)]
            grids += [getattr(c, k.name) for k in fields(c)]
            assert all(g.flags.f_contiguous for g in grids)

    def test_rejects_truncated_file(self, tmp_path):
        spec = rb.build_problem("american_put_jumps")
        b = rb.sample_paths(spec, rb.build_grid(1.0, 9), 300, seed=8)
        f = tmp_path / "bundle.bin"
        rb.save_bundle(f, b)
        data = f.read_bytes()
        # cut inside the Brownian increments, which follow the 44-byte header and 10 nodes
        f.write_bytes(data[: 44 + 8 * 10 + 100])
        with pytest.raises(rb.simulate.SimulationError, match="brownian_increments"):
            rb.load_bundle(f)

    # each of these headers used to escape as MemoryError, ValueError
    # ("cannot reshape") or OverflowError
    @pytest.mark.parametrize("n_paths, N, match", [
        (2**40, 9, "section 'brownian_increments' needs"),
        (2**62, 4, "section 'brownian_increments' needs"),
        (300, 0, "header"),
        (0, 9, "header"),
    ])
    def test_rejects_impossible_header(self, tmp_path, n_paths, N, match):
        spec = rb.build_problem("american_put_jumps")
        b = rb.sample_paths(spec, rb.build_grid(1.0, 9), 300, seed=8)
        f = tmp_path / "bundle.bin"
        rb.save_bundle(f, b)
        data = bytearray(f.read_bytes())
        data[8:24] = struct.pack("<QQ", n_paths, N)  # after the magic and the version
        f.write_bytes(bytes(data))
        with pytest.raises(rb.simulate.SimulationError, match=match):
            rb.load_bundle(f)

    def test_rejects_foreign_file(self, tmp_path):
        f = tmp_path / "junk.bin"
        f.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(Exception, match="magic|bundle"):
            rb.load_bundle(f)
