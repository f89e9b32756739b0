"""Named built-in problems: payoffs, obstacles and drivers wired into
complete instances with numeric parameters. The config file selects from
this registry; custom problems are added in code.
"""
from __future__ import annotations

import functools
import inspect
import math
from typing import Callable

import numpy as np

from .model import (
    AffineDriver,
    CoefficientSpec,
    Exponents,
    ForwardModel,
    MarkSpace,
    ProblemSpec,
)

NEVER_BINDING = -1.0e9


class ParameterError(ValueError):
    """A factory parameter outside its range; ``param`` names it."""

    def __init__(self, param: str, message: str) -> None:
        self.param = param
        self.message = message
        super().__init__(f"{param} {message}")


def _const(v: float):
    return lambda t, x: np.full(np.shape(x), v) if np.ndim(x) else v


def _coeffs(alpha=0.0, eta=0.0, delta=0.0, phi=0.05, varphi=1.0) -> CoefficientSpec:
    return CoefficientSpec(
        alpha=_const(alpha), eta=_const(eta), delta=_const(delta),
        phi=_const(phi), varphi=_const(varphi),
    )


def _zero(t, x, z, u):
    return np.zeros(np.shape(x))


def _mark_jump(t, x, e):
    return np.full(np.shape(x), e) if np.ndim(x) else e


def _problem(
    T: float, p: float, beta: float | None, eps: float, *, coeffs: CoefficientSpec,
    marks: MarkSpace = MarkSpace.empty(), x0: float = 0.0, drift=_const(0.0), vol=_const(0.0),
    jump_size=lambda t, x, e: np.zeros(np.shape(x)),
    offset=_zero,
    terminal=lambda x: np.asarray(x, dtype=float),
    obstacle=_const(NEVER_BINDING),
) -> ProblemSpec:
    """A registry problem from the pieces in which it differs from the
    shared defaults: a still forward at 0, a zero driver offset, terminal
    X_T and a never-binding obstacle. The driver's slope in y is the rate
    ``coeffs.alpha``. Every registry obstacle is constant in time before
    the horizon, so its left limit at T is its value at t = 0."""
    return ProblemSpec(
        exponents=Exponents.from_p(p, beta=beta, eps=eps), coeffs=coeffs, marks=marks,
        forward=ForwardModel(x0=x0, drift=drift, vol=vol, jump_size=jump_size),
        driver=AffineDriver(coeffs.alpha, offset), terminal=terminal, obstacle=obstacle,
        obstacle_left_limit_T=lambda x: obstacle(0.0, x), horizon=T,
    )


def flat_obstacle(
    T: float = 1.0,
    level: float = 1.0,
    p: float = 1.5,
    beta: float | None = None,
    eps: float = 0.5,
) -> ProblemSpec:
    """Zero payoff, zero driver, obstacle pinned at ``level`` until just
    before the horizon. The reflected solution is the constant ``level``
    with a predictable unit jump of K at T; the penalized value at level
    n is 1 - e^{-n (T - t)} (for level = 1), which makes the whole
    penalization pipeline checkable in closed form."""
    T_cut = T * (1.0 - 1e-12)

    def obstacle(t, x):
        v = level if t < T_cut else 0.0
        return np.full(np.shape(x), v) if np.ndim(x) else v

    return _problem(T, p, beta, eps, coeffs=_coeffs(phi=1.0),
                    terminal=lambda x: np.zeros(np.shape(x)), obstacle=obstacle)


def american_put(
    T: float = 1.0,
    x0: float = 1.0,
    kappa: float = 1.1,
    mu: float = 0.08,
    sigma: float = 0.25,
    rate: float = 0.0,
    p: float = 1.5,
    beta: float | None = None,
    eps: float = 0.01,
    jump_size: float = 0.1,
    total_intensity: float = 0.0,
) -> ProblemSpec:
    """Early-exercise put on a geometric-Brownian forward, obstacle equal
    to the payoff at every time. ``rate`` > 0 adds the discounting driver
    f = -rate * y; a positive ``total_intensity`` adds symmetric relative
    jumps of the forward, sizes +-jump_size with the intensity split
    evenly."""
    if not (0.0 < jump_size < 1.0):
        raise ParameterError("jump_size", "must lie in (0, 1)")
    if not 0.0 <= total_intensity < math.inf:
        raise ParameterError("total_intensity", "must be nonnegative and finite")
    marks = MarkSpace.empty() if total_intensity == 0.0 else MarkSpace(
        marks=(-jump_size, jump_size), weights=(0.5 * total_intensity, 0.5 * total_intensity))

    def payoff(x):
        return np.maximum(kappa - np.asarray(x, dtype=float), 0.0)

    return _problem(
        T, p, beta, eps,
        coeffs=_coeffs(alpha=-rate, phi=max(0.05, rate)),
        marks=marks,
        x0=x0,
        drift=lambda t, x: mu * np.asarray(x, dtype=float),
        vol=lambda t, x: sigma * np.asarray(x, dtype=float),
        jump_size=lambda t, x, e: e * np.asarray(x, dtype=float),
        terminal=payoff,
        obstacle=lambda t, x: payoff(x),
    )


def brownian_terminal(
    T: float = 1.0,
    x0: float = 0.0,
    p: float = 1.5,
    beta: float | None = None,
    eps: float = 0.01,
) -> ProblemSpec:
    """Terminal payoff X_T on a standard Brownian forward, zero driver,
    obstacle far below: the solution is the martingale E[X_T | F_t]."""
    return _problem(T, p, beta, eps, coeffs=_coeffs(phi=0.05), x0=x0, vol=_const(1.0))


def linear_y(
    T: float = 1.0,
    xi: float = 1.0,
    p: float = 1.5,
    beta: float | None = None,
    eps: float = 0.5,
) -> ProblemSpec:
    """f = -y with constant terminal value: Y_t = xi * e^{-(T - t)}."""
    return _problem(
        T, p, beta, eps, coeffs=_coeffs(alpha=-1.0, phi=1.0),
        terminal=lambda x: np.full(np.shape(x), xi) if np.ndim(x) else xi,
    )


def linear_z(
    T: float = 1.0,
    coef: float = 0.2,
    x0: float = 0.0,
    p: float = 1.5,
    beta: float | None = None,
    eps: float = 0.01,
) -> ProblemSpec:
    """f = coef * z on a Brownian forward with terminal X_T; exercises the
    fixed-point iteration in the z argument."""
    return _problem(
        T, p, beta, eps, coeffs=_coeffs(eta=abs(coef), phi=0.05), x0=x0, vol=_const(1.0),
        offset=lambda t, x, z, u: coef * np.asarray(z, dtype=float),
    )


def linear_gamma(
    T: float = 1.0,
    coef: float = 0.2,
    x0: float = 0.0,
    jump_sizes: tuple[float, ...] = (-0.1, 0.1),
    jump_weights: tuple[float, ...] = (0.5, 0.5),
    p: float = 1.5,
    beta: float | None = None,
    eps: float = 0.01,
) -> ProblemSpec:
    """f = coef * sum_j w_j u_j (the compensated-jump aggregate) on a
    Brownian-plus-jumps forward; exercises the fixed point in u."""
    marks = MarkSpace(marks=tuple(jump_sizes), weights=tuple(jump_weights))
    w = marks.weights_array()
    return _problem(
        T, p, beta, eps, coeffs=_coeffs(delta=abs(coef) * math.sqrt(marks.total_intensity)),
        marks=marks, x0=x0, vol=_const(1.0), jump_size=_mark_jump,
        offset=lambda t, x, z, u: coef * (np.asarray(u, dtype=float) @ w),
    )


def pure_jump_counter(
    T: float = 1.0,
    intensity: float = 2.0,
    jump: float = 1.0,
    p: float = 1.5,
    beta: float | None = None,
    eps: float = 0.01,
) -> ProblemSpec:
    """Forward that only counts jumps (drift 0, vol 0, unit jumps):
    useful for moment checks of the simulator."""
    if intensity <= 0.0:
        raise ParameterError("intensity", "must be positive")
    return _problem(T, p, beta, eps, coeffs=_coeffs(phi=0.05),
                    marks=MarkSpace(marks=(jump,), weights=(intensity,)), jump_size=_mark_jump)


# the put with symmetric +-10% relative jumps at unit total intensity
american_put_jumps = functools.partial(american_put, total_intensity=1.0)


PROBLEMS: dict[str, Callable[..., ProblemSpec]] = {
    "flat_obstacle": flat_obstacle,
    "american_put": american_put,
    "american_put_jumps": american_put_jumps,
    "brownian_terminal": brownian_terminal,
    "linear_y": linear_y,
    "linear_z": linear_z,
    "linear_gamma": linear_gamma,
    "pure_jump_counter": pure_jump_counter,
}


def build_problem(name: str, **params) -> ProblemSpec:
    """Instantiate a registry problem by name with numeric overrides. A
    parameter that the factory does not take raises ``KeyError(parameter)``,
    one outside its range, or a number for a tuple-valued parameter, raises
    ``ParameterError``."""
    if name not in PROBLEMS:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(sorted(PROBLEMS))}"
        )
    factory = PROBLEMS[name]
    accepted = inspect.signature(factory).parameters
    for key, value in params.items():
        if key not in accepted:
            raise KeyError(key)
        if isinstance(accepted[key].default, tuple) and not isinstance(value, tuple):
            raise ParameterError(
                key, f"takes a tuple of values and cannot be set from a config, got {value!r}")
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"{name}: {exc}") from exc
