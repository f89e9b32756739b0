"""Monte Carlo estimators of the weighted solution norms, the factor-2
domination check between realized-jump and compensator energies, and the
elementary p-power inequality used throughout the estimates.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .model import Exponents

if TYPE_CHECKING:  # pragma: no cover
    from .backward import BackwardSolution
    from .simulate import PathBundle

Array = np.ndarray


@dataclass(frozen=True)
class NormReport:
    """Monte Carlo estimates of the six weighted norms, p-th powers.

    s_p_beta         E[sup_t e^{(p/2) beta A_t} |Y_t|^p]
    s_pA_beta        E[int e^{(p/2) beta A} |Y|^p dA]
    h_p_beta         E[(int e^{beta A} |Z|^2 dt)^{p/2}]
    l_p_lambda_beta  E[(int e^{beta A} ||U||^2_lambda dt)^{p/2}]
    l_p_mu_beta      same with the realized jump measure in place of
                     its compensator
    k_p              E[|K_T|^p]

    The field order is the norms.csv column order.
    """

    s_p_beta: float
    s_p_beta_se: float
    s_pA_beta: float
    s_pA_beta_se: float
    h_p_beta: float
    h_p_beta_se: float
    l_p_lambda_beta: float
    l_p_lambda_beta_se: float
    l_p_mu_beta: float
    l_p_mu_beta_se: float
    k_p: float
    k_p_se: float

    def values(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _mc(per_path: Array) -> tuple[float, float]:
    per_path = np.asarray(per_path, dtype=float)
    n = per_path.size
    mean = float(np.mean(per_path))
    with np.errstate(over="ignore", invalid="ignore"):  # the caller judges a non-finite error
        se = float(np.std(per_path, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se


def _weights(A: Array, beta: float, *cs: float) -> tuple[Array, ...]:
    """The weights e^{c beta A}, one per c, with c * beta formed first. A
    weight past float64 reads inf without a warning: the caller judges it."""
    with np.errstate(over="ignore"):
        return tuple(np.exp(c * beta * A) for c in cs)


def _norm_parts(y, z, u, k_total, bundle, exponents, lam):
    """Per-path values of each norm, before averaging; ``lam`` holds the
    mark weights. Each node's terms, summed over the marks in order, are
    added into (n_paths,) sums in the order np.sum takes along the node
    axis of a column-major grid."""
    p, A, dt, counts = exponents.p, bundle.A_path, bundle.grid.steps, bundle.jump_counts
    lam = np.asarray(lam, dtype=float)
    sup_term, sA_term, h, l_lam, l_mu = (np.zeros(y.shape[0]) for _ in range(5))
    for i in range(A.shape[1]):
        w_half, w = _weights(A[:, i], exponents.beta, 0.5 * p, 1.0)
        y_p = w_half * np.abs(y[:, i]) ** p
        np.maximum(sup_term, y_p, out=sup_term)
        if i == dt.size:
            break
        sA_term += y_p * (A[:, i + 1] - A[:, i])
        h += w * z[:, i] ** 2 * dt[i]
        if u.shape[2]:
            l_lam += w * sum(lam[j] * u[:, i, j] ** 2 for j in range(u.shape[2])) * dt[i]
            l_mu += w * sum(u[:, i, j] ** 2 * counts[:, i, j] for j in range(u.shape[2]))
    k_term = np.abs(k_total) ** p
    return sup_term, sA_term, h ** (p / 2.0), l_lam ** (p / 2.0), l_mu ** (p / 2.0), k_term


def estimate_norms(
    sol: "BackwardSolution", bundle: "PathBundle", exponents: Exponents
) -> NormReport:
    """Discrete-sum estimators of all six weighted norms.

    Integrals use the left-endpoint rule, the supremum runs over grid
    nodes, and the realized-jump energy sums |u|^2 over simulated jump
    counts. The mark weights are the ones the solution carries.
    """
    parts = _norm_parts(sol.y, sol.z, sol.u, sol.k_T(), bundle, exponents, sol.mark_weights)
    (s_m, s_se), (sa_m, sa_se), (h_m, h_se), (ll_m, ll_se), (lm_m, lm_se), (k_m, k_se) = (
        _mc(x) for x in parts
    )
    return NormReport(
        s_p_beta=s_m, s_p_beta_se=s_se,
        s_pA_beta=sa_m, s_pA_beta_se=sa_se,
        h_p_beta=h_m, h_p_beta_se=h_se,
        l_p_lambda_beta=ll_m, l_p_lambda_beta_se=ll_se,
        l_p_mu_beta=lm_m, l_p_mu_beta_se=lm_se,
        k_p=k_m, k_p_se=k_se,
    )


def lenglart_check(
    sol: "BackwardSolution", bundle: "PathBundle", exponents: Exponents
) -> tuple[float, float, bool]:
    """Factor-2 domination of the realized-jump energy by its compensator.

    Returns (lhs, rhs, passed) where lhs = E[(∫∫ e^{beta A}|U|^2 mu)^{p/2}],
    rhs is the compensator version, and the gate is
    lhs <= 2 rhs + 3 joint standard errors.
    """
    r = estimate_norms(sol, bundle, exponents)
    lhs, rhs = r.l_p_mu_beta, r.l_p_lambda_beta
    joint = float(np.sqrt(r.l_p_mu_beta_se**2 + (2.0 * r.l_p_lambda_beta_se) ** 2))
    return lhs, rhs, bool(lhs <= 2.0 * rhs + 3.0 * joint)


def power_sum_bound(xs, p: float) -> tuple[float, float]:
    """(sum |x_i|)^p versus n^{p-1} sum |x_i|^p; lhs <= rhs for p >= 1."""
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be finite and at least 1, got {p!r}")
    xs = np.abs(np.asarray(xs, dtype=float))
    n = xs.size
    if n == 0:
        return 0.0, 0.0
    lhs = float(np.sum(xs) ** p)
    rhs = float(n ** (p - 1.0) * np.sum(xs**p))
    return lhs, rhs


def weighted_distance(
    new: tuple[Array, Array, Array],
    old: tuple[Array, Array, Array],
    bundle: "PathBundle",
    exponents: Exponents,
    mark_weights: Array,
) -> float:
    """Distance between two (y, z, u) iterates in the contraction norm: the
    p-th root of the summed y-in-dA, z and u energies of their difference,
    read one node column at a time."""
    (y, z, u), (y0, z0, u0) = new, old
    p, A, dt, lam = exponents.p, bundle.A_path, bundle.grid.steps, mark_weights
    y_dA, z_dt, u_dt = (np.zeros(y.shape[0]) for _ in range(3))
    for i in range(dt.size):
        w_half, w = _weights(A[:, i], exponents.beta, 0.5 * p, 1.0)
        y_dA += w_half * (A[:, i + 1] - A[:, i]) * np.abs(y[:, i] - y0[:, i]) ** p
        z_dt += w * dt[i] * (z[:, i] - z0[:, i]) ** 2
        if u.shape[2]:
            du2 = sum(lam[j] * (u[:, i, j] - u0[:, i, j]) ** 2 for j in range(u.shape[2]))
            u_dt += w * dt[i] * du2
    total = float(np.mean(y_dA)) + float(np.mean(z_dt ** (p / 2.0)))
    if u.shape[2]:
        total += float(np.mean(u_dt ** (p / 2.0)))
    return total ** (1.0 / p)


def scale_solution(sol: "BackwardSolution", s: float) -> "BackwardSolution":
    """Multiply every solution field, and the obstacle, by s (homogeneity
    experiments)."""
    return replace(
        sol,
        y=s * sol.y,
        z=s * sol.z,
        u=s * sol.u,
        k_cum=s * sol.k_cum,
        k_jump_T=s * sol.k_jump_T,
        obstacle=s * sol.obstacle,
    )
