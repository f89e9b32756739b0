"""Fixed-point iteration on the driver's control arguments.

When the driver consumes z (the Brownian control) or the jump responses,
the backward pass can either feed it its own freshly regressed fields
(one-pass mode) or be iterated with those arguments frozen at the
previous sweep. Starting from zero fields, the frozen iteration
contracts geometrically towards the one-pass solution, and the residual
decay rate is the observable image of the contraction constant. The
weight exponent beta enters through the metric the residuals are
measured in.
"""
import rbsdej as rb

basis = rb.RegressionBasis(degree=3)

for name, label in (("linear_z", "f = 0.2 z"), ("linear_gamma", "f = 0.2 Gamma")):
    spec = rb.build_problem(name)
    bundle = rb.sample_paths(spec, rb.build_grid(1.0, 20), n_paths=10_000, seed=3)
    pic = rb.picard_solve(spec, bundle, basis, n_penalty=64.0, tol=1e-10, max_iter=15)
    one = rb.solve_penalized(spec, bundle, basis, 64.0)
    res = pic.run.residual_history
    ratios = [res[i + 1] / res[i] for i in range(len(res) - 1) if res[i] > 1e-12]
    print(f"== {label} (beta = {spec.exponents.beta:.4g}) ==")
    print(f"  iterations: {pic.run.picard_iters}")
    print("  residuals: " + "  ".join(f"{r:.2e}" for r in res))
    print("  ratios   : " + "  ".join(f"{r:.3f}" for r in ratios))
    print(f"  one-pass Y0 {one.y0_mean():.6f} vs fixed point {pic.y0_mean():.6f} "
          f"(|gap| {abs(one.y0_mean() - pic.y0_mean()):.2e})")
    print()

print("ratio-vs-beta table from the contraction suite (f = 0.2 z):")
spec = rb.build_problem("linear_z")
bundle = rb.sample_paths(spec, rb.build_grid(1.0, 15), n_paths=4_000, seed=6)
res = rb.contraction_suite(spec, bundle, rb.RegressionBasis(degree=2),
                           beta_values=(1.0, 2.0, spec.exponents.beta))
print(" ", res.detail.replace("; ", "\n  "))
print("  suite:", "PASS" if res.passed else "FAIL")

print()
print("a driver that ignores (z, u) converges in a single sweep:")
flat = rb.build_problem("flat_obstacle")
fb = rb.sample_paths(flat, rb.build_grid(1.0, 100), 4, seed=1)
sol = rb.picard_solve(flat, fb, rb.RegressionBasis(degree=0), 8.0)
print(f"  iterations = {sol.run.picard_iters}, residual history = {sol.run.residual_history}")
