"""Problem data for one-dimensional reflected backward SDEs with jumps.

Exponent bookkeeping, coefficient processes with the aggregate rate
a^2 = phi + eta^2 + delta^2 and its companion zeta^2 = (a^2)^{q/2},
finite mark-space jump measures, Markovian forward carriers, sampled
assumption probes, and the exponential change of variables that
normalizes the monotonicity rate of the driver.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

Array = np.ndarray

# Relative tolerance used by obstacle/terminal equality indicators.
EQUALITY_RTOL = 1e-8
# Intervals of the dense grid on which normalize_driver integrates the rate.
QUAD_STEPS = 4096


class AssumptionError(ValueError):
    """A structural assumption on the problem data is violated."""


def default_beta(p: float) -> float:
    """Weight exponent used when none is given: the stability threshold
    2(p-1)/p plus one, plus a unit safety margin."""
    return 1.0 + 2.0 * (p - 1.0) / p + 1.0


def conjugate_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1 for p strictly inside (1, 2)."""
    if not (1.0 < p < 2.0):
        raise ValueError(f"p must lie in the open interval (1, 2), got {p!r}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class Exponents:
    """Integrability/weight exponents of one problem instance.

    p drives the solution norms, beta weights the exponential factors
    e^{beta A_t}, and eps is the uniform lower bound on a^2; q, the
    conjugate of p, follows from p.
    """

    p: float
    beta: float
    eps: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p < 2.0):
            raise ValueError(f"p must lie in (1, 2), got {self.p!r}")
        if not (0.0 <= self.beta < math.inf):
            raise ValueError(f"beta must be nonnegative and finite, got {self.beta!r}")
        if not (0.0 < self.eps < math.inf):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)

    @classmethod
    def from_p(cls, p: float, beta: float | None = None, eps: float = 0.01) -> "Exponents":
        if beta is None:
            beta = default_beta(p)
        return cls(p=p, beta=beta, eps=eps)

    def with_beta(self, beta: float) -> "Exponents":
        return replace(self, beta=beta)


# Coefficient functions map (t, state) -> scalar or array broadcastable
# against the state, so "stochastic" rates enter through the forward state.
CoeffFn = Callable[[float, Array], object]


def _shaped(v: object, like: Array) -> Array:
    """``v`` as a float array of the shape of ``like`` (a broadcast copy if needed)."""
    v = np.asarray(v, dtype=float)
    return v if v.shape == np.shape(like) else np.broadcast_to(v, np.shape(like)).copy()


def _eval(fn: CoeffFn, t: float, x: Array) -> Array:
    return _shaped(fn(t, x), x)


@dataclass(frozen=True)
class CoefficientSpec:
    """Rate processes of the driver, evaluated at (time, forward state).

    alpha    monotonicity rate in y (may be negative), 1/time
    eta      Lipschitz rate in z, nonnegative
    delta    Lipschitz rate in the jump argument, nonnegative
    phi      growth slope in |y|, strictly positive; enters a^2
    varphi   inhomogeneity level (>= 1); enters the data norms only
    """

    alpha: CoeffFn
    eta: CoeffFn
    delta: CoeffFn
    phi: CoeffFn
    varphi: CoeffFn

    def rates(self, t: float, x: Array) -> dict[str, Array]:
        x = np.asarray(x, dtype=float)
        return {
            "alpha": _eval(self.alpha, t, x),
            "eta": _eval(self.eta, t, x),
            "delta": _eval(self.delta, t, x),
            "phi": _eval(self.phi, t, x),
            "varphi": _eval(self.varphi, t, x),
        }


def aggregate_rate(r: Mapping[str, Array]) -> Array:
    """a^2 = phi + eta^2 + delta^2 from evaluated rates (as `rates` returns)."""
    return r["phi"] + r["eta"] ** 2 + r["delta"] ** 2


def cumulative_A(grid: "TimeGrid", zeta2_steps: Array) -> Array:
    """Left-endpoint accumulation A_{i+1} = A_i + zeta^2(t_i) * dt_i.

    ``zeta2_steps`` holds one value per step, shape (N,) or (n_paths, N).
    Returns an array with one extra node, starting at 0 and nondecreasing.
    """
    steps = grid.steps
    z = np.asarray(zeta2_steps, dtype=float)
    if z.shape[-1] != steps.size:
        raise ValueError(
            f"expected {steps.size} per-step zeta^2 values, got shape {z.shape}"
        )
    if np.any(z <= 0.0):
        raise AssumptionError("zeta^2 must stay strictly positive (a^2 >= eps > 0)")
    return _running_sum(z * steps)


def _running_sum(inc: Array) -> Array:
    """Zero, then the running sums of ``inc`` along its last axis, column by
    column: ``np.cumsum``'s order, so the same bits, on contiguous columns."""
    out = np.zeros(inc.shape[:-1] + (inc.shape[-1] + 1,), order="F")
    out[..., 1:2] = inc[..., :1]
    for i in range(1, inc.shape[-1]):
        np.add(out[..., i], inc[..., i], out=out[..., i + 1])
    return out


@dataclass(frozen=True)
class MarkSpace:
    """Finite jump-mark measure: point masses weights[j] at marks[j]."""

    marks: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.marks) != len(self.weights):
            raise ValueError("marks and weights must have equal length")
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("all mark weights must be strictly positive")
        if not math.isfinite(self.total_intensity):
            raise ValueError("total jump intensity must be finite")

    @property
    def m(self) -> int:
        return len(self.marks)

    @property
    def total_intensity(self) -> float:
        return float(sum(self.weights))

    def weights_array(self) -> Array:
        return np.asarray(self.weights, dtype=float)

    def marks_array(self) -> Array:
        return np.asarray(self.marks, dtype=float)

    def norm_lambda(self, u: Array) -> Array:
        """Weighted l2 norm sqrt(sum_j w_j u_j^2) along the last axis."""
        u = np.asarray(u, dtype=float)
        if self.m == 0:
            return np.zeros(u.shape[:-1], dtype=float)
        return np.sqrt(np.sum(self.weights_array() * u * u, axis=-1))

    @classmethod
    def empty(cls) -> "MarkSpace":
        return cls(marks=(), weights=())


@dataclass(frozen=True)
class ForwardModel:
    """Markovian carrier X for terminal payoff, obstacle and coefficients."""

    x0: float
    drift: Callable[[float, Array], object]
    vol: Callable[[float, Array], object]
    jump_size: Callable[[float, Array, float], object]


# driver(t, state, y, z, u) with u the vector of jump responses at the
# marks, shape (..., m); must broadcast over a batch of paths.
DriverFn = Callable[[float, Array, Array, Array, Array], object]


@dataclass(frozen=True)
class ProblemSpec:
    """One complete problem instance.

    ``obstacle(t, x)`` is sampled at grid nodes (right-continuous
    convention); ``obstacle_left_limit_T(x)`` supplies the left limit of
    the barrier at the horizon, which a discrete grid cannot infer.
    """

    exponents: Exponents
    coeffs: CoefficientSpec
    marks: MarkSpace
    forward: ForwardModel
    driver: DriverFn
    terminal: Callable[[Array], object]
    obstacle: Callable[[float, Array], object]
    obstacle_left_limit_T: Callable[[Array], object]
    horizon: float

    def __post_init__(self) -> None:
        if not (0.0 < self.horizon < math.inf):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")

    def terminal_values(self, x: Array) -> Array:
        return np.asarray(self.terminal(np.asarray(x, dtype=float)), dtype=float)

    def obstacle_values(self, t: float, x: Array) -> Array:
        return _shaped(self.obstacle(t, np.asarray(x, dtype=float)), x)

    def obstacle_left_limit(self, x: Array) -> Array:
        return _shaped(self.obstacle_left_limit_T(np.asarray(x, dtype=float)), x)

    def driver_values(self, t: float, x: Array, y: Array, z: Array, u: Array) -> Array:
        return _shaped(self.driver(t, x, y, z, u), y)


def driver_uses_zu(spec: ProblemSpec) -> bool:
    """Probe whether the driver reacts to its (z, u) arguments at 8 fixed
    random states, at each of 9 times evenly spaced over [0, T]."""
    n_probe = 8
    rng = np.random.default_rng(np.random.SeedSequence([0, 0x2D]))
    x0 = spec.forward.x0
    x = x0 + (1.0 + abs(x0)) * rng.standard_normal(n_probe)
    y = rng.standard_normal(n_probe)
    m = spec.marks.m
    zero_z, zero_u = np.zeros(n_probe), np.zeros((n_probe, m))
    bumps = [(np.ones(n_probe), zero_u)]
    bumps += [(zero_z, np.tile(np.eye(m)[j], (n_probe, 1))) for j in range(m)]
    for t in np.linspace(0.0, spec.horizon, 9).tolist():
        base = spec.driver_values(t, x, y, zero_z, zero_u)
        tol = 1e-12 * (1.0 + np.max(np.abs(base)))
        if any(np.max(np.abs(spec.driver_values(t, x, y, z, u) - base)) > tol for z, u in bumps):
            return True
    return False


# ---------------------------------------------------------------------------
# assumption probes


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    worst_margin: float
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"{status:4s}  {c.name:24s} worst_margin={c.worst_margin:.3e}"
            if not c.passed and c.witness is not None:
                line += f"  witness={c.witness}"
            lines.append(line)
        return "\n".join(lines)

    def check(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_assumptions(
    spec: ProblemSpec, probe_budget: int = 256, seed: int = 0
) -> AssumptionReport:
    """Sampled diagnostics for the structural assumptions on (terminal,
    driver, obstacle).

    Draws ``probe_budget`` tuples (t, x, y, y', z, z', u, u') and reports
    the worst violation margin per assumption; a positive margin beyond
    the numerical allowance fails the check and carries a witness tuple.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]))
    n = int(probe_budget)
    if n < 8:
        raise ValueError("probe_budget must be at least 8")
    T = spec.horizon
    m = spec.marks.m
    x0 = spec.forward.x0
    scale = 1.0 + abs(x0)

    t_s = rng.uniform(0.0, T, n)
    x_s = x0 + scale * rng.standard_normal(n)
    y_s = 3.0 * rng.standard_normal(n)
    y2_s = 3.0 * rng.standard_normal(n)
    z_s = 2.0 * rng.standard_normal(n)
    z2_s = 2.0 * rng.standard_normal(n)
    u_s = 1.5 * rng.standard_normal((n, m))
    u2_s = 1.5 * rng.standard_normal((n, m))

    tol = 1e-9

    def verdict(name, margin, witness, allowance=tol, side_ok=True, side_margin=-np.inf, detail=""):
        # coefficient rates vary with t, so probe row by row; the worst row
        # decides and, on failure, supplies the witness
        margins = np.array([margin(i) for i in range(n)], dtype=float)
        worst = int(np.argmax(margins))
        passed = margins[worst] <= allowance and side_ok
        return AssumptionCheck(
            name,
            bool(passed),
            float(max(margins[worst], side_margin)),
            None if passed else tuple(float(w[worst]) for w in witness),
            detail,
        )

    # monotonicity in y: (y - y') (f(y) - f(y')) <= alpha |y - y'|^2
    def mono_margin(i):
        t, x = float(t_s[i]), x_s[i : i + 1]
        fy = spec.driver_values(t, x, y_s[i : i + 1], z_s[i : i + 1], u_s[i : i + 1])
        fy2 = spec.driver_values(t, x, y2_s[i : i + 1], z_s[i : i + 1], u_s[i : i + 1])
        dy = y_s[i] - y2_s[i]
        if abs(dy) < 1e-12:
            return -np.inf
        alpha = float(_eval(spec.coeffs.alpha, t, x)[0])
        return float(dy * (fy[0] - fy2[0]) - alpha * dy * dy) / (dy * dy)

    # Lipschitz in (z, u): |f(z,u) - f(z',u')| <= eta |z-z'| + delta ||u-u'||
    def lip_margin(i):
        t, x = float(t_s[i]), x_s[i : i + 1]
        f1 = spec.driver_values(t, x, y_s[i : i + 1], z_s[i : i + 1], u_s[i : i + 1])
        f2 = spec.driver_values(t, x, y_s[i : i + 1], z2_s[i : i + 1], u2_s[i : i + 1])
        eta = float(_eval(spec.coeffs.eta, t, x)[0])
        delta = float(_eval(spec.coeffs.delta, t, x)[0])
        bound = eta * abs(z_s[i] - z2_s[i]) + delta * float(
            spec.marks.norm_lambda(u_s[i] - u2_s[i])
        )
        return float(abs(f1[0] - f2[0]) - bound)

    # growth: |f(t, y, 0, 0)| <= varphi + phi |y|, with varphi >= 1
    def growth_margin(i):
        t, x = float(t_s[i]), x_s[i : i + 1]
        f0 = spec.driver_values(t, x, y_s[i : i + 1], np.zeros(1), np.zeros((1, m)))
        r = spec.coeffs.rates(t, x)
        return float(abs(f0[0]) - (r["varphi"][0] + r["phi"][0] * abs(y_s[i])))

    varphi_min = min(
        float(np.min(spec.coeffs.rates(float(t), x_s)["varphi"])) for t in t_s[:8]
    )

    # aggregate rate floor: a^2 >= eps everywhere sampled
    def a2_margin(i):
        t, x = float(t_s[i]), x_s[i : i + 1]
        a2 = float(aggregate_rate(spec.coeffs.rates(t, x))[0])
        return spec.exponents.eps - a2

    # driver continuity in y, finite-difference probe
    def cont_margin(i):
        t, x = float(t_s[i]), x_s[i : i + 1]
        f0 = spec.driver_values(t, x, y_s[i : i + 1], z_s[i : i + 1], u_s[i : i + 1])
        f1 = spec.driver_values(
            t, x, y_s[i : i + 1] + 1e-7, z_s[i : i + 1], u_s[i : i + 1]
        )
        return float(abs(f1[0] - f0[0]) - 1e-3 * (1.0 + abs(f0[0])))

    # barrier consistency at the horizon: obstacle(T, x) <= terminal(x)
    xi = spec.terminal_values(x_s)
    LT = spec.obstacle_values(T, x_s)

    return AssumptionReport(checks=(
        verdict("monotonicity_y", mono_margin, (t_s, x_s, y_s, y2_s)),
        verdict("lipschitz_zu", lip_margin, (t_s, x_s, z_s, z2_s)),
        verdict(
            "growth", growth_margin, (t_s, x_s, y_s),
            side_ok=varphi_min >= 1.0 - 1e-12, side_margin=1.0 - varphi_min,
            detail="includes varphi >= 1",
        ),
        verdict("rate_floor", a2_margin, (t_s, x_s)),
        verdict("y_continuity_probe", cont_margin, (t_s, x_s, y_s), allowance=0.0),
        verdict(
            "obstacle_below_terminal", lambda i: LT[i] - xi[i], (x_s, LT, xi),
            allowance=tol * (1.0 + float(np.max(np.abs(xi)))),
        ),
    ))


# ---------------------------------------------------------------------------
# rescaled data and the monotonicity-normalizing change of variables


def _rescale_data(spec: ProblemSpec, g: Callable[[float], float], g_T: float) -> ProblemSpec:
    """Problem data of the rescaled value g(t) Y_t: obstacle and varphi
    times g(t), terminal value and the obstacle's left limit at T times
    g_T, and the driver g(t) f(t, x, y/g, z/g, u/g)."""

    def driver(t, x, y, z, u):
        gt = g(t)
        f = spec.driver(t, x, np.asarray(y) / gt, np.asarray(z) / gt, np.asarray(u) / gt)
        return gt * np.asarray(f, dtype=float)

    varphi = spec.coeffs.varphi
    left = spec.obstacle_left_limit_T
    return replace(
        spec,
        driver=driver,
        terminal=lambda x: g_T * np.asarray(spec.terminal(x), dtype=float),
        obstacle=lambda t, x: g(t) * np.asarray(spec.obstacle(t, x), dtype=float),
        obstacle_left_limit_T=lambda x: g_T * np.asarray(left(x), dtype=float),
        coeffs=replace(
            spec.coeffs, varphi=lambda t, x: g(t) * np.asarray(varphi(t, x), dtype=float)
        ),
    )


@dataclass(frozen=True)
class DriverNormalization:
    """Bookkeeping for the exponential change of variables Y -> e^{R} Y.

    ``log_factor(t)`` returns R(t) = int_0^t (alpha_s + eps_knob a_s^2) ds,
    computed on a dense quadrature grid. ``map_back_solution`` undoes the
    transform on a solved grid solution.
    """

    _dense_nodes: Array
    _dense_R: Array

    def log_factor(self, t: Array | float) -> Array:
        return np.interp(np.asarray(t, dtype=float), self._dense_nodes, self._dense_R)

    def factors(self, t: Array | float) -> Array:
        return np.exp(self.log_factor(t))

    def map_back_solution(self, sol, grid):
        """Undo the transform on a BackwardSolution computed on ``grid``."""
        g = np.exp(-self.log_factor(grid.nodes))  # e^{-R(t_i)}
        return replace(
            sol,
            y=sol.y * g,
            z=sol.z * g,
            u=sol.u * g[None, :, None],
            k_cum=_running_sum(np.diff(sol.k_cum, axis=1) * g[:-1]),
            k_jump_T=sol.k_jump_T * g[-1],
            obstacle=sol.obstacle * g,
        )


def normalize_driver(
    spec: ProblemSpec, eps_knob: float = 0.0
) -> tuple[ProblemSpec, DriverNormalization]:
    """Exponential change of variables taking the monotonicity rate of the
    driver to -eps_knob * a^2 (to 0 for the default eps_knob = 0).

    Only state-independent rate processes are supported: a state-dependent
    rate would make the accumulated factor an extra non-Markov state.
    Warns when the driver is already normalized; the transform still
    applies (and reduces to the identity when the rate integrates to 0).
    """
    if eps_knob < 0.0:
        raise ValueError("eps_knob must be nonnegative")
    T = spec.horizon
    x0 = spec.forward.x0
    probe_x = np.array([x0 - 1.0 - abs(x0), x0, x0 + 1.0 + abs(x0)])
    tq = np.linspace(0.0, T, QUAD_STEPS + 1)

    def rate_at(t: float) -> float:
        r = spec.coeffs.rates(t, probe_x)
        vals = r["alpha"] + eps_knob * aggregate_rate(r)
        if np.max(vals) - np.min(vals) > 1e-10 * (1.0 + float(np.max(np.abs(vals)))):
            raise ValueError(
                "normalize_driver requires state-independent rate processes; "
                f"alpha + eps*a^2 varies across states at t={t!r}"
            )
        return float(vals[0])

    rdot = np.array([rate_at(float(t)) for t in tq[:-1]])
    if np.all(rdot <= 1e-12):
        warnings.warn(
            "driver already satisfies alpha + eps*a^2 <= 0; transform is "
            "a no-op up to the accumulated factor",
            stacklevel=2,
        )
    dense_R = np.zeros(QUAD_STEPS + 1)
    dense_R[1:] = np.cumsum(rdot * np.diff(tq))
    norm = DriverNormalization(_dense_nodes=tq, _dense_R=dense_R)

    scaled = _rescale_data(
        spec, lambda t: float(np.exp(norm.log_factor(t))), float(np.exp(dense_R[-1]))
    )

    def rate_fn(t: float) -> float:
        return float(np.interp(t, tq[:-1], rdot))

    def new_driver(t, x, y, z, u):
        return scaled.driver(t, x, y, z, u) - rate_fn(t) * np.asarray(y)

    def new_alpha(t, x):
        r = spec.coeffs.rates(t, np.atleast_1d(np.asarray(x, dtype=float)))
        out = -eps_knob * aggregate_rate(r)
        return out if np.ndim(x) else float(out[0])

    new_coeffs = replace(scaled.coeffs, alpha=new_alpha)
    return replace(scaled, coeffs=new_coeffs, driver=new_driver), norm
