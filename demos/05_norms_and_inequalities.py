"""Weighted norms and the inequalities that hold them together.

The solution norms carry exponential weights e^{beta A_t} built from the
coefficient clock A_t; this script estimates all six of them on a solved
problem, checks their exact s^p homogeneity, and exercises the two
standalone inequalities: the factor-2 domination of realized jump energy
by its compensator (which fails for no configuration we can throw at
it), and the elementary p-power bound (sum |x_i|)^p <= n^{p-1} sum |x_i|^p.
"""
import numpy as np

import rbsdej as rb

spec = rb.build_problem("american_put_jumps")
bundle = rb.sample_paths(spec, rb.build_grid(1.0, 25), n_paths=10_000, seed=11)
basis = rb.RegressionBasis(degree=3)
sol = rb.solve_penalized(spec, bundle, basis, n_penalty=64.0)

rep = rb.estimate_norms(sol, bundle, spec.exponents)
print("norm estimates (p-th powers, with MC standard errors):")
for field in ("s_p_beta", "s_pA_beta", "h_p_beta", "l_p_lambda_beta", "l_p_mu_beta", "k_p"):
    v = getattr(rep, field)
    se = getattr(rep, field + "_se")
    print(f"  {field:16s} = {v:.6e} +- {se:.1e}")

print()
print("homogeneity: scaling the solution by s multiplies every field by s^p")
scaled = rb.estimate_norms(rb.scale_solution(sol, 2.0), bundle, spec.exponents)
p = spec.exponents.p
for field in ("s_p_beta", "h_p_beta", "k_p"):
    base = getattr(rep, field)
    got = getattr(scaled, field)
    print(f"  {field:16s}: {got:.6e} vs 2^p * base = {2.0**p * base:.6e}")

print()
lhs, rhs, ok = rb.lenglart_check(sol, bundle, spec.exponents)
print(f"factor-2 jump-energy domination: lhs={lhs:.4e} <= 2*rhs={2*rhs:.4e}  ->  {ok}")
sweep = rb.lenglart_sweep(n_configs=40, n_paths=4_000, seed=1)
print(f"randomized sweep: {sweep.trials} configs, failures={sweep.failures}, "
      f"worst margin {sweep.worst_margin:.3e}")

print()
print("p-power bound on a few vectors:")
for xs in ([1.0, 1.0], [1.0, 2.0, 3.0], list(np.linspace(-2, 2, 7))):
    lhs, rhs = rb.power_sum_bound(xs, 1.5)
    print(f"  n={len(xs)}: lhs={lhs:10.4f} <= rhs={rhs:10.4f}")

print()
print("pointwise jump inequality, a million random corners per exponent:")
res = rb.jump_inequality_suite(n_samples=1_000_000, seed=0)
print(f"  trials={res.trials}, failures={res.failures}, worst margin={res.worst_margin:.2e}")
