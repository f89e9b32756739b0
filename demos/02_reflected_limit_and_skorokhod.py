"""Driving the penalty to the reflected limit.

The reflected solution of the flat-obstacle problem equals the barrier
up to the horizon and drops to the terminal value there, so all of K is
one predictable jump at T. The schedule runner reports the per-level
penalty errors, classifies the terminal boundary layer of K as that
jump, and audits the Skorokhod flat-off conditions. The weighted sup
penalty error stays O(1) here -- the barrier itself jumps at T, so the
sup over times never dies -- which is exactly why schedule exhaustion is
a warning rather than a failure.
"""
import numpy as np

import rbsdej as rb

spec = rb.build_problem("flat_obstacle")
grid = rb.build_grid(1.0, 1000)
bundle = rb.sample_paths(spec, grid, n_paths=4, seed=7)
basis = rb.RegressionBasis(degree=0)

schedule = rb.PenalizationSchedule.geometric(n0=1.0, levels=11, stop_tol=1e-3)
run = rb.solve_reflected_penalization(spec, bundle, basis, schedule)

print("      n   penalty error    Y0          K_T")
for row in run.table:
    print(f"{row.n:7.0f}   {row.penalty_error:.5e}   {row.y0_mean:.6f}   {row.k_T_mean:.6f}")

sol = run.solution
print()
print(f"reached stop_tol: {run.reached_tol}")
for w in sol.run.warnings:
    print(f"warning: {w}")
print()
print(f"final Y0          = {sol.y0_mean():.6f}   (reflected value 1)")
print(f"final K_T         = {float(np.mean(sol.k_T())):.6f}   (unit mass)")
print(f"terminal jump     = {float(np.mean(sol.k_jump_T)):.6f}   (should carry ~all of K)")
print()
print("Skorokhod audit of the final solution:")
rep = run.skorokhod
print(f"  flat integral |sum (Y-L) dK^c|      = {rep.flat_integral:.3e}")
print(f"  jump condition residual             = {rep.jump_condition_residual:.3e}   (should be ~0)")
print(f"  complementarity violation fraction  = {rep.complementarity_violation_fraction:.3e}")
print(f"  terminal jump mass                  = {rep.terminal_jump_mass:.6f}")

print()
print("independent check: dynamic-programming oracle on the same bundle")
dp = rb.solve_reflected_dp_oracle(spec, bundle, basis)
print(f"  oracle Y0 = {dp.y0_mean():.6f}, K_T = {float(np.mean(dp.k_T())):.6f}, "
      f"jump = {float(np.mean(dp.k_jump_T)):.6f}")
