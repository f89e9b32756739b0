"""Reflected solutions: penalization schedules driven to the obstacle-
respecting limit, an independent dynamic-programming oracle, and the
Skorokhod flat-off diagnostics with the continuous/jump split of K.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .backward import (
    BackwardSolution,
    RegressionBasis,
    SolverError,
    _backward,
    _require_finite,
    obstacle_on_grid,
)
from .model import EQUALITY_RTOL, ProblemSpec, _require_count
from .norms import _mc, _weights
from .simulate import PathBundle

Array = np.ndarray

# Width of the terminal boundary layer, in units of 1/n_penalty, whose
# K-mass is classified as the predictable terminal jump.
TERMINAL_LAYER_FACTOR = 10.0


@dataclass(frozen=True)
class PenalizationSchedule:
    """Increasing penalty levels with a stopping tolerance on the
    weighted sup penalty error."""

    n_values: tuple[float, ...]
    stop_tol: float

    def __post_init__(self) -> None:
        if not 0.0 < self.stop_tol < np.inf:
            raise ValueError(f"stop_tol must be positive and finite, got {self.stop_tol!r}")
        if not self.n_values:
            raise ValueError("schedule needs at least one level")
        if not all(0.0 < n < np.inf for n in self.n_values):
            raise ValueError(f"n_values must be positive and finite, got {self.n_values!r}")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("penalty levels must be strictly increasing")

    @classmethod
    def geometric(cls, n0: float = 1.0, levels: int = 11, stop_tol: float = 1e-3) -> "PenalizationSchedule":
        """Levels n0 * 2^k for k < ``levels``, each exact while it fits in float64."""
        try:
            n_values = tuple(math.ldexp(n0, k) for k in range(_require_count("levels", levels, 1)))
        except OverflowError:
            raise ValueError(f"levels: n0 * 2^(levels - 1) overflows float64, "
                             f"got n0={n0!r}, levels={levels!r}") from None
        return cls(n_values=n_values, stop_tol=stop_tol)


@dataclass(frozen=True)
class SkorokhodReport:
    """Discrete diagnostics of the flat-off conditions.

    flat_integral: |MC mean of sum_i (y_i - L_i) dK^c_i| — magnitude of
    the violation of "K^c grows only on {Y = L}".
    jump_condition_residual: MC mean of |k_jump_T - (L_{T-} - xi)^+|,
    against the jump that the data force at T.
    complementarity_violation_fraction: fraction of (path, node) with a
    K-increment and simultaneous positive clearance above the obstacle.
    terminal_jump_mass: MC mean of k_jump_T.
    The field order is the skorokhod.csv column order.
    """

    flat_integral: float
    jump_condition_residual: float
    complementarity_violation_fraction: float
    terminal_jump_mass: float


@dataclass(frozen=True)
class PenaltyLevelRow:
    n: float
    penalty_error: float
    penalty_error_se: float
    y0_mean: float
    y0_stderr: float
    k_T_mean: float
    flat_integral: float
    wall_time: float


@dataclass(frozen=True)
class ReflectedRun:
    solution: BackwardSolution
    skorokhod: SkorokhodReport
    table: tuple[PenaltyLevelRow, ...]
    reached_tol: bool


def _weighted_shortfall(A: Array, L: Array, y: Array, beta: float) -> Array:
    """e^{beta A / 2} (L - y)^+ elementwise (broadcast); zero where y >= L,
    also where the weight alone overflows."""
    short = np.maximum(L - y, 0.0)
    (w,) = _weights(A, beta, 0.5)
    # inf * 0 would read as NaN: an overflowed weight counts only on a shortfall
    return np.multiply(w, short, out=short, where=short != 0.0 if np.isinf(w).any() else True)


def _penalty_moment(sup: Array, where: str, spec: ProblemSpec,
                    bundle: PathBundle) -> tuple[float, float]:
    """MC mean and standard error of sup^p, the p-th power of a per-path
    weighted sup shortfall; raises SolverError, naming ``where`` and the
    largest beta*A_T, when the mean is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        err, err_se = _mc(sup ** spec.exponents.p)
    _require_finite({"penalty error": err}, where, spec, bundle)
    return err, err_se


class _LevelSums:
    """Per-path running sums behind the convergence rows of K equations
    solved together, fed each node's (n, K) blocks from node N (dK None)
    down to 0: the sup over nodes of e^{beta A / 2} (y - L)^-, K_T,
    sum (y - L) dK and Y0, plus the step-0 target standard errors."""

    def __init__(self, spec: ProblemSpec, bundle: PathBundle) -> None:
        self.spec, self.bundle = spec, bundle

    def __call__(self, i, y_i, L_i, dk_i, y0_stderr) -> None:
        short = _weighted_shortfall(self.bundle.A_path[:, i, None], L_i[:, None], y_i,
                                    self.spec.exponents.beta)
        if dk_i is None:
            self.sup, self.k_T, self.flat = short, np.zeros_like(short), np.zeros_like(short)
        else:  # in place: a fresh (n, K) block per node fragments the heap and raises peak RSS
            np.maximum(self.sup, short, out=self.sup)
            self.k_T += dk_i
            clearance = y_i - L_i[:, None]
            clearance *= dk_i
            self.flat += clearance
            self.y0, self.y0_stderr = y_i, y0_stderr

    def row(self, k: int, n: float, wall_time: float) -> PenaltyLevelRow:
        """Convergence row of column k, at level n; raises SolverError when
        the penalty error is not finite."""
        err, err_se = _penalty_moment(self.sup[:, k], f"at level n={n!r}", self.spec, self.bundle)
        return PenaltyLevelRow(
            n=float(n), penalty_error=err, penalty_error_se=err_se,
            y0_mean=float(np.mean(self.y0[:, k])), y0_stderr=self.y0_stderr[k],
            k_T_mean=float(np.mean(self.k_T[:, k])),
            flat_integral=abs(float(np.mean(self.flat[:, k]))), wall_time=wall_time,
        )


def penalty_error(
    sol: BackwardSolution, bundle: PathBundle, spec: ProblemSpec
) -> tuple[float, float]:
    """Weighted sup penalty error, p-th power: MC mean and standard error
    of (max over nodes of e^{beta A / 2} (y - L)^-)^p, with L the obstacle
    the solution carries; one node column at a time. Raises SolverError
    when the error is not finite."""
    A, L, y, beta = bundle.A_path, sol.obstacle, sol.y, spec.exponents.beta
    sup = np.zeros(y.shape[0])
    for i in range(y.shape[1]):
        np.maximum(sup, _weighted_shortfall(A[:, i], L[:, i], y[:, i], beta), out=sup)
    return _penalty_moment(sup, "of the solution", spec, bundle)


def _terminal_jump(spec: ProblemSpec, bundle: PathBundle) -> Array:
    """The predictable jump of K at T that the data force, per path. As
    Y_{T-} >= L_{T-}, Y_T = xi and K jumps only on the barrier, it is
    (L_{T-} - xi)^+ where the obstacle's left limit exceeds the terminal
    value by more than EQUALITY_RTOL (1 + |xi|), and 0 elsewhere."""
    xN = bundle.forward_states[:, -1]
    xi = spec.terminal_values(xN)
    gap = spec.obstacle_left_limit(xN) - xi
    return np.where(gap > EQUALITY_RTOL * (1.0 + np.abs(xi)), gap, 0.0)


def extract_terminal_jump(
    sol: BackwardSolution, spec: ProblemSpec, bundle: PathBundle, n_penalty: float
) -> BackwardSolution:
    """Classify the terminal boundary layer of a penalized K as the
    predictable jump at T.

    The penalty smears a terminal jump over a layer of width O(1/n); the
    K-mass accumulated on (T - 10/n, T] (at least one grid slice) moves
    from k_cum into k_jump_T on paths where the obstacle's left limit
    exceeds the terminal payoff. Elsewhere k_cum is untouched. Raises
    ValueError unless ``n_penalty`` is positive and finite.
    """
    if not 0.0 < n_penalty < np.inf:
        raise ValueError(f"n_penalty must be positive and finite, got {n_penalty!r}")
    nodes = bundle.grid.nodes
    T = bundle.grid.horizon
    width = min(TERMINAL_LAYER_FACTOR / n_penalty, 0.25 * T)
    cut = min(T - width, float(nodes[-2]))  # window spans >= 1 slice
    w_start = int(np.searchsorted(nodes, cut, side="right")) - 1

    ind = _terminal_jump(spec, bundle) > 0.0
    layer_mass = sol.k_cum[:, -1] - sol.k_cum[:, w_start]
    jump = np.where(ind, layer_mass, 0.0)
    k_cum = sol.k_cum.copy(order="K")
    tail = k_cum[:, w_start:]
    k_cum[:, w_start:] = np.where(
        ind[:, None], np.minimum(tail, k_cum[:, w_start][:, None]), tail
    )
    return replace(sol, k_cum=k_cum, k_jump_T=sol.k_jump_T + jump)


def skorokhod_report(
    sol: BackwardSolution, spec: ProblemSpec, bundle: PathBundle
) -> SkorokhodReport:
    """Evaluate the flat-off diagnostics on a solved grid solution, one
    node column at a time."""
    L, k_cum = sol.obstacle, sol.k_cum
    n, N = L.shape[0], L.shape[1] - 1
    tol_k = 1e-10 * (1.0 + float(np.max(k_cum[:, -1], initial=0.0)))
    flat, viol = np.zeros(n), 0
    for i in range(N):
        clearance, dKc = sol.y[:, i] - L[:, i], k_cum[:, i + 1] - k_cum[:, i]
        flat += clearance * dKc
        tol_y = EQUALITY_RTOL * (1.0 + np.abs(L[:, i]))
        viol += np.count_nonzero((dKc > tol_k) & (clearance > tol_y))
    flat = float(np.mean(flat))
    jump_residual = float(np.mean(np.abs(sol.k_jump_T - _terminal_jump(spec, bundle))))
    frac = float(viol / (n * N))

    return SkorokhodReport(
        flat_integral=abs(flat),
        jump_condition_residual=jump_residual,
        complementarity_violation_fraction=frac,
        terminal_jump_mass=float(np.mean(sol.k_jump_T)),
    )


def _swept_levels(
    spec: ProblemSpec, bundle: PathBundle, basis: RegressionBasis, schedule: PenalizationSchedule
) -> tuple[list[PenaltyLevelRow], BackwardSolution, bool]:
    """The schedule's levels as the columns of sweeps over chunks of 1, 2,
    4, ... levels. The columns are independent: each feeds the driver its
    own (z_i, u_i), regressed from its own y_{i+1}, so each is its level's
    one-pass penalized solve. A chunk is as long as the levels before it
    plus one, so a stop inside it sweeps at most about twice the columns
    needed.

    A row comes from the sums of the sweep that solved its level, and its
    wall_time is that sweep's per-level share. The first level whose row
    is below tolerance stops the schedule; when it is not the last column
    of its chunk it is re-swept alone for its solution, and the last row
    is the re-sweep's, which can differ from the chunk's by rounding. The
    stop stands either way. The sweeps share one sampled obstacle and one
    factorization of each regression slice. Returns (rows, solution,
    reached_tol).
    """
    levels, obstacle, fits = schedule.n_values, obstacle_on_grid(spec, bundle), {}

    def sweep(chunk):  # the last level's solution, every level's sums, time per level
        sums, t0 = _LevelSums(spec, bundle), time.perf_counter()
        sol = _backward(spec, bundle, basis, np.array(chunk), observe=sums, obstacle=obstacle,
                        fits=fits)
        return sol, sums, (time.perf_counter() - t0) / len(chunk)

    rows: list[PenaltyLevelRow] = []
    while True:
        chunk = levels[len(rows):2 * len(rows) + 1]
        sol, sums, share = sweep(chunk)
        for k, n in enumerate(chunk):
            rows.append(sums.row(k, n, share))
            if rows[-1].penalty_error < schedule.stop_tol:
                if k < len(chunk) - 1:
                    del sol, sums
                    sol, sums, share = sweep(chunk[k:k + 1])
                    rows[-1] = sums.row(0, n, share)
                return rows, sol, True
        if len(rows) == len(levels):
            return rows, sol, False
        del sol, sums  # free this chunk's grids before the next sweep allocates its own


def solve_reflected_penalization(
    spec: ProblemSpec,
    bundle: PathBundle,
    basis: RegressionBasis,
    schedule: PenalizationSchedule,
) -> ReflectedRun:
    """Drive the penalization schedule towards the reflected solution.

    Solves the levels in order until the weighted sup penalty error drops
    below the schedule's tolerance or the schedule is exhausted; the
    latter is reported through ``reached_tol=False``, not an error. The
    levels are swept as columns, in chunks (``_swept_levels``), whether
    or not the driver reads (z, u): one backward pass that feeds the
    driver its own (z_i, u_i) is already the fixed point of the Picard
    map, so no level iterates. A non-finite penalty error raises
    SolverError. The final solution has its terminal boundary layer
    classified as the predictable jump, and carries the Skorokhod report
    of that split.
    """
    rows, sol, reached = _swept_levels(spec, bundle, basis, schedule)
    final_n = rows[-1].n
    extracted = extract_terminal_jump(sol, spec, bundle, final_n)
    warnings_ = extracted.run.warnings
    if not reached:
        warnings_ = warnings_ + (
            f"schedule exhausted at n={final_n!r} with penalty error "
            f"{rows[-1].penalty_error!r} above stop_tol={schedule.stop_tol!r}",
        )
    extracted = replace(extracted, run=replace(extracted.run, warnings=warnings_))
    return ReflectedRun(
        solution=extracted,
        skorokhod=skorokhod_report(extracted, spec, bundle),
        table=tuple(rows),
        reached_tol=reached,
    )


def solve_reflected_dp_oracle(
    spec: ProblemSpec, bundle: PathBundle, basis: RegressionBasis
) -> BackwardSolution:
    """Independent reflected scheme: backward dynamic programming
    y_i = max(L_i, c_i + f dt) with K read off the binding shortfall.

    It shares the regression sweep with the penalized scheme; only the
    step differs. Complementarity holds exactly by construction (a
    positive increment forces y_i = L_i). The predictable jump at T is
    the data's (``_terminal_jump``), capped by the last increment of K;
    the rest of that increment stays in K^c. The driver is evaluated at
    the pass's own (z, u) fields.
    """
    sol = _backward(spec, bundle, basis, None)
    k_cum = sol.k_cum  # split in place: a copy would be 41 MB at 100k x 51
    jump = np.minimum(_terminal_jump(spec, bundle), k_cum[:, -1] - k_cum[:, -2])
    k_cum[:, -1] -= jump
    return replace(sol, k_jump_T=jump)
