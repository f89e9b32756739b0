"""Assumption probes and the monotonicity-normalizing change of variables.

Every solver in this package assumes a one-sided monotone driver with
stochastic Lipschitz control arguments and a rate floor a^2 >= eps. The
validator samples those conditions and reports worst margins with
witnesses. A driver whose monotonicity rate is positive can be pushed
into the normalized regime by the exponential change of variables
Y -> e^{R} Y with R accumulating (alpha + eps_knob a^2); the transformed
problem solves like any other and maps back.
"""
import warnings
from dataclasses import replace

import numpy as np

import rbsdej as rb

print("validator on a healthy problem:")
healthy = rb.validate_assumptions(rb.build_problem("american_put_jumps"), probe_budget=256)
print(rb.summary_text(healthy))

print()
print("validator catching a broken driver (f = +y with alpha still 0):")
spec = rb.build_problem("linear_y")
bad = replace(spec, driver=lambda t, x, y, z, u: +np.asarray(y, dtype=float),
              coeffs=replace(spec.coeffs, alpha=lambda t, x: np.zeros(np.shape(x))))
broken = rb.validate_assumptions(bad, probe_budget=128)
print(rb.summary_text(broken))
print(f"  first witness (t, x, y, y'): {broken[0].witnesses[0]}")

print()
print("normalizing f = 2y (monotonicity rate +2) with eps_knob = 0.5:")
grow = replace(
    spec,
    driver=lambda t, x, y, z, u: 2.0 * np.asarray(y, dtype=float),
    coeffs=replace(spec.coeffs,
                   alpha=lambda t, x: np.full(np.shape(x), 2.0) if np.ndim(x) else 2.0),
)
tspec, norm = rb.normalize_driver(grow, eps_knob=0.5)
f = tspec.driver(0.3, np.zeros(2), np.array([0.0, 1.0]), np.zeros(2), np.zeros((2, 0)))
print(f"  transformed driver slope in y: {float(f[1] - f[0]):+.3f}  (target -eps_knob * a^2 = -0.5)")
print(f"  accumulation factor e^R at T:  {float(np.exp(norm.log_factor(1.0))):.4f}")

print()
print("round trip on the solvable f = -y problem (exact value e^{-T}):")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # already normalized, transform warns
    tspec, norm = rb.normalize_driver(spec)
grid = rb.build_grid(1.0, 800)
basis = rb.RegressionBasis(degree=0)
direct = rb.solve_penalized(spec, rb.sample_paths(spec, grid, 4, seed=5), basis, 1.0)
mapped = norm.map_back_solution(
    rb.solve_penalized(tspec, rb.sample_paths(tspec, grid, 4, seed=5), basis, 1.0), grid
)
print(f"  direct    Y0 = {direct.y0_mean():.8f}")
print(f"  roundtrip Y0 = {mapped.y0_mean():.8f}")
print(f"  exact        = {np.exp(-1.0):.8f}")
print("  (the transformed run integrates the rate exactly, the direct one")
print("   at scheme order; the gap shrinks linearly with the step size)")
