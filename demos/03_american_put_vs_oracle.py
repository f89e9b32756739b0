"""Early-exercise valuation two ways, with and without jumps.

A put obstacle on an upward-drifting geometric-Brownian forward makes
waiting costly, so the barrier binds and K is genuinely active. The
penalized solver (driven up a geometric schedule) and the reflected
dynamic-programming recursion are independent discretizations of the
same object; on a shared path bundle they should agree to well under a
percent. Adding two-sided relative jumps to the forward exercises the
jump-response fields U(e_j) and their compensator aggregate.
"""
import time

import numpy as np

import rbsdej as rb

for name in ("american_put", "american_put_jumps"):
    t0 = time.perf_counter()
    spec = rb.build_problem(name)
    grid = rb.build_grid(1.0, 50)
    bundle = rb.sample_paths(spec, grid, n_paths=20_000, seed=11)
    basis = rb.RegressionBasis(degree=4)

    schedule = rb.PenalizationSchedule.geometric(1.0, 11, 1e-12)
    run = rb.solve_reflected_penalization(spec, bundle, basis, schedule)
    dp = rb.solve_reflected_dp_oracle(spec, bundle, basis)
    elapsed = time.perf_counter() - t0

    pen_y0 = run.solution.y0_mean()
    dp_y0 = dp.y0_mean()
    print(f"== {name} ==")
    print(f"  penalized (n=2^10) Y0 = {pen_y0:.6f} +- {run.solution.run.y0_stderr:.1e}")
    print(f"  DP oracle          Y0 = {dp_y0:.6f}")
    print(f"  relative gap          = {abs(pen_y0 - dp_y0) / dp_y0:.4%}")
    print(f"  K_T (activity of the barrier): penalized {float(np.mean(run.solution.k_T())):.5f}, "
          f"oracle {float(np.mean(dp.k_T())):.5f}")
    print(f"  flat integral (penalized) = {run.skorokhod.flat_integral:.2e}")
    print(f"  {elapsed:.1f}s")
    if name == "american_put_jumps":
        gamma = run.solution.gamma()
        print(f"  mean |Gamma| across nodes = {float(np.mean(np.abs(gamma[:, :-1]))):.4f} "
              "(compensator-weighted jump response)")
    print()
