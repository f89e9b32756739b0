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
