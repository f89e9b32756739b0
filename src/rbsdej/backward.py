"""Backward solvers for the penalized equation.

One backward pass per penalty level: regression-based conditional
expectations in the Markov state, jump responses read off the fitted
continuation at shifted states, and an implicit-in-y penalty step that
stays stable for arbitrarily large penalty levels. A fixed-point wrapper
re-runs the pass with the driver's (z, u) arguments frozen at the
previous iterate until the weighted distance between iterates stalls
below tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from . import norms as _norms
from .model import AffineDriver, ProblemSpec, _require_count, _running_sum, _shaped
from .simulate import PathBundle

Array = np.ndarray

BISECT_TOL = 1e-12
# largest design condition number a one-shot fit solves by the normal
# equations: up to it, one refinement step lands as close to the exact
# least-squares solution as an SVD solve does
ONE_SHOT_COND_MAX = 1e5
# log of the largest float64, about 709.78: e^x overflows above it
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


class RegressionRankError(RuntimeError):
    """Design matrix is rank deficient; a smaller degree will fit."""


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial-in-state basis with per-slice affine standardization."""

    degree: int

    def __post_init__(self) -> None:
        if not (isinstance(self.degree, (int, np.integer)) and not isinstance(self.degree, bool)
                and self.degree >= 0):
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree!r}")


@dataclass(frozen=True)
class _Slice:
    """One time slice's regression: the standardization (lo, span) of its
    states and the degree of its power basis, 0 on a degenerate slice,
    which takes the constant fit. A factored slice keeps the thin SVD
    U s Vᵀ of its design: a fit is U (Uᵀ Y), with coefficients w (Uᵀ Y),
    w = V / s."""

    lo: float
    span: float
    degree: int
    u: Array | None = None
    w: Array | None = None

    @classmethod
    def of(cls, states: Array, basis: RegressionBasis) -> "_Slice":
        """The slice of ``states``: degree 0, and span 1, when they carry
        no spread."""
        lo, hi = float(np.min(states)), float(np.max(states))
        span = hi - lo
        if span <= 1e-12 * (1.0 + abs(hi)) or basis.degree == 0:
            return cls(lo, 1.0, 0)
        if states.size < basis.degree + 1:
            raise RegressionRankError(
                f"{states.size} paths cannot identify a degree-{basis.degree} basis; "
                "reduce the degree"
            )
        return cls(lo, span, basis.degree)

    def design(self, x: Array) -> Array:
        """The (n, d+1) standardized power design at states x (n,)."""
        # powers written column by column: the same products as a row-wise
        # Vandermonde build, on contiguous columns
        design = np.empty((x.size, self.degree + 1), order="F")
        design[:, 0] = 1.0
        design[:, 1] = (x - self.lo) / self.span
        for k in range(2, self.degree + 1):
            np.multiply(design[:, k - 1], design[:, 1], out=design[:, k])
        return design

    def at(self, x: Array, coeffs: Array) -> Array:
        """The fit at states x (n,), for (d+1, k) coeffs: (n, k), column-major."""
        shape = (x.size, coeffs.shape[1])
        if self.degree == 0:
            return np.full(shape, coeffs[0])
        s = ((x - self.lo) / self.span)[:, None]
        out = np.zeros(shape, order="F")
        for c in coeffs[::-1]:
            out *= s
            out += c
        return out


def _check_rank(rank: int, cols: int) -> None:
    if rank < cols:
        raise RegressionRankError(
            f"design matrix rank {rank} < {cols}; reduce the degree"
        )


def _factor_slice(states: Array, basis: RegressionBasis) -> _Slice:
    """The slice with its factors, and the numerical rank of its design:
    the singular values above eps·max(n, d+1)·s_max, the rank rule of a
    rank-revealing least-squares solve at its default cutoff."""
    sl = _Slice.of(states, basis)
    if sl.degree == 0:
        return sl
    design = sl.design(states)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    _check_rank(int(np.sum(s > np.finfo(float).eps * max(design.shape) * s[0])), design.shape[1])
    return replace(sl, u=u, w=vt.T / s)


def _normal_fit(design: Array, targets: Array) -> tuple[Array, Array] | None:
    """(coefficients, column-major fitted values) from the normal equations
    with one refinement step, or None when the Gram matrix is not positive
    definite or the design's condition number exceeds ``ONE_SHOT_COND_MAX``.
    The Gram matrix of a power design is the Hankel matrix of the power
    sums m_0..m_2d; its Cholesky factor has the design's singular values."""
    d = design.shape[1] - 1
    sums = np.concatenate((design.sum(axis=0), design[:, d] @ design[:, 1:]))
    try:
        chol = np.linalg.cholesky(sums[np.add.outer(np.arange(d + 1), np.arange(d + 1))])
    except np.linalg.LinAlgError:
        return None
    s = np.linalg.svd(chol, compute_uv=False)
    if not s[0] <= ONE_SHOT_COND_MAX * s[-1]:  # a NaN goes to the SVD too
        return None
    inv = np.linalg.inv(chol)
    gram_inv = inv.T @ inv
    coeffs = gram_inv @ (design.T @ targets)
    resid = (coeffs.T @ design.T).T
    np.subtract(targets, resid, out=resid)  # the residual Y - D c
    coeffs += gram_inv @ (design.T @ resid)
    return coeffs, (coeffs.T @ design.T).T


def _fit_slice(
    states: Array, targets: Array, basis: RegressionBasis,
    fits: dict[int, _Slice] | None = None, key: int = 0,
) -> tuple[_Slice, Array, Array]:
    """One least-squares solve for every column of ``targets`` on the
    slice's standardized power basis: (slice, coefficients, fitted values).

    ``targets`` is (n,) or (n, k); the coefficients are (d+1,) or
    (d+1, k) to match, and the fitted values at ``states`` come back
    column-major in the shape of ``targets``. Without a factor store
    ``fits`` the solve is one shot: the normal equations from the power
    sums with one refinement step (``_normal_fit``) when the design's
    condition number is at most ``ONE_SHOT_COND_MAX``, the slice's thin
    SVD (``_factor_slice``), not kept, otherwise. With one, the slice is
    factored once under ``key`` and every later fit on the same states
    reuses its factors.
    """
    states = np.asarray(states, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if fits is None:
        sl = _Slice.of(states, basis)
        if sl.degree:
            fit = _normal_fit(sl.design(states), targets)
            if fit is not None:
                return (sl, *fit)
            sl = _factor_slice(states, basis)
    else:
        if key not in fits:
            fits[key] = _factor_slice(states, basis)
        sl = fits[key]
    if sl.degree:
        g = sl.u.T @ targets
        return sl, sl.w @ g, (g.T @ sl.u.T).T
    coeffs = np.zeros((basis.degree + 1,) + targets.shape[1:])
    coeffs[0] = np.mean(targets, axis=0)
    return sl, coeffs, np.broadcast_to(coeffs[0], targets.shape).copy(order="F")


@dataclass(frozen=True)
class RunRecord:
    """Solver metadata: fixed-point iteration count and residuals (in
    iteration order) and warnings. ``y0_stderr`` is the cross-path
    standard error of the step-0 target mean (the usual conditional
    standard error of a regression Monte Carlo value)."""

    picard_iters: int = 0
    residual_history: tuple[float, ...] = ()
    y0_stderr: float = 0.0
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class BackwardSolution:
    """Discrete (Y, Z, U, K) on the grid, per path, with the obstacle the
    solve was judged against.

    ``k_cum`` accumulates the solver's K increments with k_cum[:, 0] = 0;
    ``k_jump_T`` holds the mass classified as the predictable terminal
    jump (zero for raw penalized output, populated by the reflected
    extraction and by the dynamic-programming oracle). ``obstacle`` is
    L at every (path, node), as the sweep sampled it.
    """

    y: Array
    z: Array
    u: Array
    k_cum: Array
    k_jump_T: Array
    obstacle: Array
    run: RunRecord
    mark_weights: Array

    def y0_mean(self) -> float:
        return float(np.mean(self.y[:, 0]))

    def k_T(self) -> Array:
        return self.k_cum[:, -1] + self.k_jump_T

    def gamma(self) -> Array:
        """Compensator aggregate Gamma = sum_j lambda_j U(e_j) per (path, node)."""
        return self.u @ self.mark_weights


def obstacle_on_grid(spec: ProblemSpec, bundle: PathBundle) -> Array:
    """Obstacle sampled at every (path, node)."""
    X = bundle.forward_states
    nodes = bundle.grid.nodes
    L = np.empty_like(X)
    for i in range(nodes.size):
        L[:, i] = spec.obstacle_values(float(nodes[i]), X[:, i])
    return L


def _flagged(mask: Array, n_penalty: float | Array) -> tuple[tuple[int, ...], str]:
    """Index of the first flagged element of an (n,) or (n, K) block, and
    its path, with its penalty level when the block has several."""
    at = np.unravel_index(int(np.argmax(mask)), mask.shape)
    if mask.ndim == 1 or mask.shape[1] == 1:
        return at, f"path {at[0]}"
    return at, f"path {at[0]} at level n={float(np.broadcast_to(n_penalty, mask.shape)[at])!r}"


# an affine driver's slope, (n, 1), and f(0), (n, K), at one step
AffineStep = tuple[Array, Array]


def _solve_implicit_step(
    fy: Callable[[Array], Array],
    c: Array,
    L: Array,
    dt: float,
    n_penalty: float | Array,
    step_index: int,
    affine: AffineStep | None = None,
) -> Array:
    """Root of y = c + dt f(y) + n dt (y - L)^- for every path at once.

    c is (n,) or an (n, K) block of K equations, with n_penalty a float or
    one level per column and L broadcasting against c. For a driver affine
    in y, ``affine`` holds its slope b, (n, 1), and f(0), (n, K), and the
    root is the closed two-branch form in b and f(0) whenever it is
    finite. Without them, the closed form of the driver's secant over
    [c, c + h], h = |c| + 1, whenever its residual certifies it as the
    root to the bisection tolerance; vectorized bisection with bracket
    expansion otherwise. A slope of 1/dt or more breaks the monotonicity
    bound alpha dt < 1 and is an error.
    """

    pen_rate = n_penalty * dt

    # the arithmetic below runs in place where it can (these blocks are the
    # sweep's largest cost), with the operations of the plain expressions
    # in the comments, so the results are the same bits
    def g(yv: Array) -> Array:  # yv - c - dt f(yv) - n dt (L - yv)^+
        r = yv - c
        r -= dt * fy(yv)
        short = L - yv
        np.maximum(short, 0.0, out=short)
        short *= pen_rate
        r -= short
        return r

    if affine is None:
        h = np.abs(c)
        h += 1.0
        f0 = fy(c)
        b = fy(c + h) - f0  # f0 may be the driver's own array: never written
        b /= h  # the secant slope (f(c + h) - f(c)) / h
        f_at_0 = np.subtract(f0, b * c)
    else:
        b, f_at_0 = affine  # f_at_0 may be the offset's own array: never written
    denom_free = b * dt
    np.subtract(1.0, denom_free, out=denom_free)
    denom_pen = np.add(denom_free, pen_rate, out=np.empty_like(c))  # c's layout, also for (n, 1) b
    bad = denom_free <= 1e-12  # denom_pen >= denom_free, as n dt >= 0
    if np.any(bad):
        bad = np.broadcast_to(bad, c.shape)
        at, where = _flagged(bad, n_penalty)
        raise SolverError(
            f"implicit step unstable at step {step_index}, {where}: "
            f"driver slope {float(np.broadcast_to(b, bad.shape)[at])!r} too large for dt={dt!r}"
        )
    # a root past float64 is not warned: it fails the checks below and
    # goes to the bisection, which names it
    with np.errstate(over="ignore", invalid="ignore"):
        y_free = f_at_0 * dt
        y_free += c  # c + f(0) dt
        y = np.multiply(L, pen_rate, out=np.empty_like(c))
        y += y_free
        y /= denom_pen  # y_pen = (c + f(0) dt + n dt L) / (1 - b dt + n dt)
        y_free /= denom_free
    # monotone one-branch consistency: y_free where it clears the obstacle,
    # else y_pen, which lands on the obstacle where it would cross it; on a
    # tie np.minimum returns its second argument, so y_pen keeps its sign
    # of zero, and a NaN y_pen stays NaN
    np.minimum(L, y, out=y)
    np.copyto(y, y_free, where=y_free >= L)
    if affine is not None:
        # exact for an affine driver; a non-finite root goes to the
        # bisection, which names its step and path
        if np.isfinite(y).all():
            return y
    else:
        # the secant is exact for a driver affine in y; any curvature
        # between the probes and the root shows in the residual, and
        # |g(y)| / g'(y) bounds the distance to the root
        slope = denom_free  # g'(y)
        np.copyto(slope, denom_pen, where=y < L)
        slope *= BISECT_TOL * (1.0 + float(np.max(np.abs(y))))
        if np.all(np.abs(g(y)) <= slope):
            return y
    # the bisection's last check names a root that is not finite, so
    # values past float64 on the way there are not warned
    with np.errstate(over="ignore", invalid="ignore"):
        if affine is not None:
            f0 = fy(c)
        lo = np.minimum(c, L) - 1.0 - dt * np.abs(f0)
        hi = np.maximum(c, L) + 1.0 + dt * np.abs(f0)
        width = hi - lo
        for _ in range(60):
            glo, ghi = g(lo), g(hi)
            bad_lo, bad_hi = glo > 0.0, ghi < 0.0
            if not (bad_lo.any() or bad_hi.any()):
                break
            lo = np.where(bad_lo, lo - width, lo)
            hi = np.where(bad_hi, hi + width, hi)
            width = hi - lo
        else:
            _, where = _flagged((g(lo) > 0.0) | (g(hi) < 0.0), n_penalty)
            raise SolverError(f"no bracket for the implicit step at step {step_index}, {where}")
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            take_hi = gm > 0.0
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
            if float(np.max(hi - lo)) <= BISECT_TOL * (1.0 + float(np.max(np.abs(mid)))):
                break
        # a NaN fails every comparison above, so the bisection can end on a
        # NaN root or on a bracket that a NaN of g moved: g(lo) <= 0 <= g(hi)
        # must still hold
        lost = ~((g(lo) <= 0.0) & (g(hi) >= 0.0))
        if lost.any():
            _, where = _flagged(lost, n_penalty)
            raise SolverError(f"no finite root of the implicit step at step {step_index}, {where}: "
                              "the driver, continuation or obstacle is not finite in its bracket")
    return 0.5 * (lo + hi)


def _check_bundle(spec: ProblemSpec, bundle: PathBundle) -> None:
    if abs(bundle.grid.horizon - spec.horizon) > 1e-12 * (1.0 + spec.horizon):
        raise SolverError("bundle grid does not match the problem horizon")
    if bundle.n_marks != spec.marks.m:
        raise SolverError(f"bundle has {bundle.n_marks} marks, the problem {spec.marks.m}")


def _require_finite(
    values: Mapping[str, float], where: str, spec: ProblemSpec, bundle: PathBundle
) -> None:
    """Raise SolverError naming the non-finite ``values`` and the largest
    beta*A_T, which names the weights as the cause only when e^(beta A_T)
    itself overflows float64. The caller computes ``values`` with overflow
    and invalid-value warnings off, so the error is what a run reports."""
    bad = [f"{name} {v!r}" for name, v in values.items() if not np.isfinite(v)]
    if bad:
        beta_A = spec.exponents.beta * float(np.max(bundle.A_path[:, -1]))
        cause = ("a weight e^(c beta A) overflows float64 above c beta A = 709.78"
                 if beta_A > _LOG_FLOAT_MAX else
                 "the weights are finite; the values themselves leave float64")
        raise SolverError(f"{', '.join(bad)} {where}; largest beta*A_T = {beta_A!r} ({cause})")


Observer = Callable[..., None]


def _backward(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    n_penalty: float | Array | None,
    frozen_zu: tuple[Array, Array] | None = None,
    u_estimator: str = "shifted",
    observe: Observer = lambda *args: None,
    obstacle: Array | None = None,
    fits: dict[int, _Slice] | None = None,
) -> BackwardSolution:
    """The backward regression sweep shared by every scheme.

    Per step i (backward): fit the continuation c of y_{i+1} on X_i; read
    jump responses off the fitted continuation at jump-shifted states (or
    regress against compensated counts); regress y_{i+1} dB_i / dt_i for
    z_i; then take the implicit step at the penalty level ``n_penalty``:
    y_i the root of y = c + dt f(y) + n dt (y - L_i)^- and
    dK_i = n dt (L_i - y_i)^+. ``n_penalty`` None is the projection of the
    dynamic-programming oracle: y_i = max(L_i, y_free) and
    dK_i = (L_i - y_free)^+, with y_free the root at n = 0. A negative or
    non-finite level raises ValueError.

    A (K,) array of levels sweeps K equations at once: each slice fits
    all their targets in one solve, the step sees (n, K) blocks with L_i
    as (n, 1), and the driver their column-major flattening, with x tiled
    to match. Grids are kept for the last column only. A driver that
    declares it reads neither z nor u (an ``AffineDriver`` without an
    offset) gets f(0) = 0 and no (z, u): the z regressand and the jump
    responses are then fitted and evaluated for the last column alone, so
    a slice solves K + 1 columns, not 2K. ``frozen_zu`` feeds
    the driver a previous iterate's (z, u) instead of the pass's own; the
    run record is a one-pass solve's (one iterate, residual 0), which
    ``picard_solve`` overwrites. ``observe(i, y_i, L_i, dK_i, y0_stderr)``
    sees each node's (n, K) blocks, from i = N (dK_i None) down to 0, and
    at i = 0 the step-0 target standard error of every column.
    ``obstacle`` is the sampled L grid, sampled here when not given.
    ``fits`` is a factor store (see ``_fit_slice``) for callers that
    sweep one bundle several times with one basis; it is keyed by step.
    """
    if n_penalty is not None and not np.all((np.asarray(n_penalty) >= 0.0) & np.isfinite(n_penalty)):
        raise ValueError(f"n_penalty must be nonnegative and finite, got {n_penalty!r}")
    if u_estimator not in ("shifted", "compensated"):
        raise ValueError(f"unknown u_estimator {u_estimator!r}")
    _check_bundle(spec, bundle)
    grid = bundle.grid
    N = grid.n_steps
    steps = grid.steps
    X = bundle.forward_states
    n_paths, K = bundle.n_paths, np.size(n_penalty)
    m = spec.marks.m
    marks = spec.marks.marks_array()
    lam = spec.marks.weights_array()

    # column-major grids: every per-step read and write below is a
    # contiguous column
    y = np.empty((n_paths, N + 1), order="F")
    z = np.zeros((n_paths, N + 1), order="F")
    u = np.zeros((n_paths, N + 1, m), order="F")
    k_inc = np.zeros((n_paths, N), order="F")
    y[:, N] = spec.terminal_values(X[:, N])
    L_nodes = obstacle_on_grid(spec, bundle) if obstacle is None else obstacle
    y_next = np.tile(y[:, N], (K, 1)).T  # (n, K), column-major
    y0_stderr = None
    observe(N, y_next, L_nodes[:, N], None, y0_stderr)
    zu_free = isinstance(spec.driver, AffineDriver) and spec.driver.offset is None
    kz = 1 if zu_free else K  # the columns whose (z_i, u_i) are fitted and evaluated
    compensated = u_estimator == "compensated"
    rhs = np.empty((n_paths, K + kz * (1 + (m if compensated else 0))), order="F")

    for i in range(N - 1, -1, -1):
        t = float(grid.nodes[i])
        dt = float(steps[i])
        xi, L_i = X[:, i], L_nodes[:, i]
        dB = bundle.brownian_increments[:, i, None]
        y_kept = y_next[:, K - kz:]
        # targets of the slice, fitted in one solve: K continuation columns,
        # then kz columns each of the z regressand and, compensated, of one
        # jump regressand per mark. A target or fit past float64 is not
        # warned: the implicit step, or the CLI's norm report, names it
        with np.errstate(over="ignore", invalid="ignore"):
            rhs[:, :K] = y_next
            rhs[:, K:K + kz] = y_kept * dB / dt
            if compensated:
                for j in range(m):
                    comp = bundle.jump_counts[:, i, j] - lam[j] * dt
                    rhs[:, K + (1 + j) * kz:K + (2 + j) * kz] = y_kept * comp[:, None] / (lam[j] * dt)
            try:
                sl, coeffs, fitted = _fit_slice(xi, rhs, basis, fits, i)
            except RegressionRankError as exc:
                raise RegressionRankError(f"step {i}: {exc}") from exc
        c, z_i = fitted[:, :K], fitted[:, K:K + kz]  # column-major views
        if compensated:
            u_i = fitted[:, K + kz:].reshape(n_paths, m, kz).transpose(0, 2, 1)
        else:
            u_i = np.empty((n_paths, kz, m), order="F")
            for j in range(m):
                shifted = xi + np.asarray(
                    spec.forward.jump_size(t, xi, float(marks[j])), dtype=float
                )
                u_i[:, :, j] = sl.at(shifted, coeffs[:, K - kz:K]) - c[:, K - kz:]

        if zu_free:
            zd = ud = None
        elif frozen_zu is not None:
            zd, ud = np.tile(frozen_zu[0][:, i], K), np.tile(frozen_zu[1][:, i, :], (K, 1))
        else:
            zd, ud = z_i.ravel("F"), u_i.reshape((n_paths * K, m), order="F")
        xd = np.tile(xi, K)

        def fy(yv: Array) -> Array:
            return spec.driver_values(t, xd, yv.ravel("F"), zd, ud).reshape(yv.shape, order="F")

        affine = None
        if isinstance(spec.driver, AffineDriver):
            f_at_0 = (np.zeros(c.shape, order="F") if zu_free else
                      _shaped(spec.driver.offset(t, xd, zd, ud), xd).reshape(c.shape, order="F"))
            affine = (_shaped(spec.driver.slope(t, xi), xi)[:, None], f_at_0)
        L_col = L_i[:, None]
        if n_penalty is None:
            y_free = _solve_implicit_step(fy, c, L_col, dt, 0.0, i, affine)
            y_i, dk_i = np.maximum(L_col, y_free), np.maximum(L_col - y_free, 0.0)
        else:
            y_i = _solve_implicit_step(fy, c, L_col, dt, n_penalty, i, affine)
            dk_i = n_penalty * dt * np.maximum(L_col - y_i, 0.0)
        if i == 0:
            y0_stderr = [_norms._mc(col)[1] for col in (y_next + dt * fy(y_i) + dk_i).T]
        observe(i, y_i, L_i, dk_i, y0_stderr)
        y[:, i], z[:, i], u[:, i, :], k_inc[:, i] = y_i[:, -1], z_i[:, -1], u_i[:, -1, :], dk_i[:, -1]
        y_next = y_i

    return BackwardSolution(
        y=y, z=z, u=u, k_jump_T=np.zeros(n_paths), k_cum=_running_sum(k_inc), obstacle=L_nodes,
        run=RunRecord(picard_iters=1, residual_history=(0.0,), y0_stderr=y0_stderr[-1]),
        mark_weights=lam,
    )


def solve_penalized(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    n_penalty: float,
    u_estimator: str = "shifted",
) -> BackwardSolution:
    """One backward pass of the penalized scheme at level ``n_penalty``.

    The shared sweep (``_backward``) with the penalty step: solve the
    implicit scalar equation y = c + f(t_i, X_i, y, z, u) dt + n dt (y - L_i)^-
    per path. The driver sees the pass's own (z_i, u_i), so the pass is
    its own fixed point: the run record holds one iterate, residual 0. The
    terminal row is exact: y_N = terminal(X_N).

    ``u_estimator`` selects how the jump responses are estimated:
    "shifted" (default) evaluates the fitted continuation at jump-shifted
    states; "compensated" regresses y_{i+1} times the compensated count
    increment, a higher-variance route kept for cross-scheme checks.
    """
    return _backward(spec, bundle, basis, n_penalty, u_estimator=u_estimator)


def picard_solve(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    n_penalty: float,
    tol: float = 1e-6,
    max_iter: int = 25,
) -> BackwardSolution:
    """Fixed-point iteration on the driver's (z, u) arguments.

    Starting from zero (z, u) fields, each iterate re-solves the penalized
    pass with the driver frozen at the previous iterate's fields; the
    one-pass solution is the exact fixed point of this map, so the
    residuals (weighted distances between successive iterates: y in the
    dA-norm, z and u in their energy norms) measure convergence towards
    it. A driver that ignores (z, u), declared or probed
    (``driver_uses_zu``), returns the single pass with residual history
    (0.0,). Three consecutive non-decreasing residuals raise a
    non-contraction warning into the run record; a residual that is not
    finite (overflowing weights) raises SolverError naming the iteration
    and the largest beta*A_T.

    The iterates share one sampled obstacle and one factorization of each
    regression slice; the distance reads both iterates one node column at
    a time.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    _require_count("max_iter", max_iter, 1)
    from .model import driver_uses_zu

    if not driver_uses_zu(spec):
        return solve_penalized(spec, bundle, basis, n_penalty)

    N = bundle.grid.n_steps
    m = spec.marks.m
    prev_y = np.zeros((bundle.n_paths, N + 1), order="F")
    prev_z = np.zeros((bundle.n_paths, N + 1), order="F")
    prev_u = np.zeros((bundle.n_paths, N + 1, m), order="F")
    obstacle, fits = obstacle_on_grid(spec, bundle), {}
    lam = spec.marks.weights_array()
    residuals: list[float] = []
    warnings_: list[str] = []
    for k in range(1, max_iter + 1):
        sol = _backward(spec, bundle, basis, n_penalty, frozen_zu=(prev_z, prev_u),
                        obstacle=obstacle, fits=fits)
        with np.errstate(over="ignore", invalid="ignore"):
            d = _norms.weighted_distance((sol.y, sol.z, sol.u), (prev_y, prev_z, prev_u),
                                         bundle, spec.exponents, lam)
        _require_finite({"residual": d}, f"at Picard iteration {k}", spec, bundle)
        residuals.append(d)
        prev_y, prev_z, prev_u = sol.y, sol.z, sol.u
        if len(residuals) >= 4 and all(
            residuals[-j] >= residuals[-j - 1] for j in (1, 2, 3)
        ):
            warnings_.append(
                f"non-contraction: residuals failed to decrease for 3 "
                f"consecutive iterations at beta={spec.exponents.beta!r}"
            )
            break
        if d < tol:
            break
    else:
        warnings_.append(f"picard iteration hit max_iter={max_iter} above tol")
    run = replace(
        sol.run,
        picard_iters=k,
        residual_history=tuple(residuals),
        warnings=tuple(warnings_),
    )
    return replace(sol, run=run)
