import inspect

import numpy as np
import pytest

import rbsdej as rb


def _state_callables(spec):
    """(what, f(x, y, z, u)) for every callable of ``spec`` that takes a state."""
    T = spec.horizon
    out = [
        ("terminal", lambda x, *_: spec.terminal(x)),
        ("left limit", lambda x, *_: spec.obstacle_left_limit_T(x)),
        ("drift", lambda x, *_: spec.forward.drift(0.5 * T, x)),
        ("vol", lambda x, *_: spec.forward.vol(0.5 * T, x)),
        ("driver", lambda x, y, z, u: spec.driver(0.5 * T, x, y, z, u)),
    ]
    out += [(f"obstacle at t={t}", lambda x, *_, t=t: spec.obstacle(t, x)) for t in (0.0, T)]
    out += [(f"jump size at mark {e}", lambda x, *_, e=e: spec.forward.jump_size(0.5 * T, x, e))
            for e in spec.marks.marks]
    out += [(rate, lambda x, *_, f=getattr(spec.coeffs, rate): f(0.5 * T, x))
            for rate in ("alpha", "eta", "delta", "phi", "varphi")]
    return out


@pytest.mark.parametrize("name", sorted(rb.registry.PROBLEMS))
def test_callables_agree_on_scalar_and_array_states(name):
    # the factories answer a float state with a scalar and an (n,) state
    # with an array; the two must agree at every state
    spec = rb.build_problem(name)
    m = spec.marks.m
    x = np.array([0.4, 0.9, 1.3, 2.0])
    y, z = np.array([-0.5, 0.0, 0.2, 1.5]), np.array([0.3, -1.0, 0.0, 2.0])
    u = np.linspace(-0.3, 0.4, 4 * m).reshape(4, m)
    for what, f in _state_callables(spec):
        whole = np.asarray(f(x, y, z, u))
        assert whole.shape == x.shape, what
        for k in range(x.size):
            one = f(float(x[k]), float(y[k]), float(z[k]), u[k])
            assert np.ndim(one) == 0, what
            np.testing.assert_allclose(whole[k], one, rtol=1e-15, atol=0.0, err_msg=what)


def test_put_with_jumps_is_the_put_at_unit_intensity():
    # american_put_jumps is american_put with total_intensity = 1; the plain
    # put has no marks, and both take the same 11 parameters by name
    jumps, put = (rb.build_problem(name, total_intensity=1.0)
                  for name in ("american_put_jumps", "american_put"))
    assert jumps.marks == put.marks == rb.MarkSpace(marks=(-0.1, 0.1), weights=(0.5, 0.5))
    assert rb.build_problem("american_put").marks.m == 0
    grid = rb.build_grid(1.0, 12)
    a, b = (rb.sample_paths(spec, grid, 300, seed=4) for spec in (jumps, put))
    for x, y in [(a.brownian_increments, b.brownian_increments), (a.jump_counts, b.jump_counts),
                 (a.forward_states, b.forward_states), (a.A_path, b.A_path)]:
        assert x.dtype == y.dtype and np.array_equal(x, y)
    params = [set(inspect.signature(rb.registry.PROBLEMS[name]).parameters)
              for name in ("american_put_jumps", "american_put")]
    assert params[0] == params[1] == {"T", "x0", "kappa", "mu", "sigma", "rate", "p", "beta",
                                      "eps", "jump_size", "total_intensity"}


@pytest.mark.parametrize("name", ["american_put", "american_put_jumps"])
@pytest.mark.parametrize("value", [-1.0, float("inf"), float("nan")])
def test_total_intensity_named(name, value):
    with pytest.raises(rb.registry.ParameterError, match="^total_intensity must be nonnegative"):
        rb.build_problem(name, total_intensity=value)


@pytest.mark.parametrize("name", sorted(rb.registry.PROBLEMS))
def test_driver_slope_is_the_monotonicity_rate(name):
    # each registry problem states its rate once, as coeffs.alpha
    spec = rb.build_problem(name)
    assert spec.driver.slope is spec.coeffs.alpha
