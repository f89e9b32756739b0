"""Monte Carlo estimators of the weighted solution norms, the factor-2
domination check between realized-jump and compensator energies, and the
elementary p-power inequality used throughout the estimates.
"""
from __future__ import annotations

import csv
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


def write_record_csv(record, fh) -> None:
    """A dataclass record as CSV: a header of its field names and one row
    of their reprs."""
    names = [f.name for f in fields(record)]
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(names)
    w.writerow([repr(getattr(record, n)) for n in names])


def _mc(per_path: Array) -> tuple[float, float]:
    per_path = np.asarray(per_path, dtype=float)
    n = per_path.size
    mean = float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se


def _weights(bundle, exponents) -> tuple[Array, Array]:
    """The norms' weights e^{(p/2) beta A} and e^{beta A} at every (path, node)."""
    A = bundle.A_path
    return np.exp(0.5 * exponents.p * exponents.beta * A), np.exp(exponents.beta * A)


class _ContractionWeights:
    """The weights of the contraction norm on one bundle, built once for
    many distances: e^{(p/2) beta A} dA and e^{beta A} dt on the left
    endpoints, in the bundle's layout."""

    def __init__(self, bundle, exponents: Exponents) -> None:
        w_half, w_full = _weights(bundle, exponents)
        self.p = exponents.p
        self.y_dA = w_half[:, :-1] * np.diff(bundle.A_path, axis=1)
        self.dt = w_full[:, :-1] * bundle.grid.steps

    def distance(self, dy: Array, dz: Array, du: Array, lam: Array) -> float:
        """The p-th root of the summed y-in-dA, z and u energies of the
        difference fields (``lam`` holds the mark weights)."""
        p = self.p
        total = float(np.mean(np.sum(self.y_dA * np.abs(dy[:, :-1]) ** p, axis=1)))
        total += float(np.mean(np.sum(self.dt * dz[:, :-1] ** 2, axis=1) ** (p / 2.0)))
        if du.shape[2]:
            u2l = sum(lam[j] * du[:, :-1, j] ** 2 for j in range(du.shape[2]))
            total += float(np.mean(np.sum(self.dt * u2l, axis=1) ** (p / 2.0)))
        return total ** (1.0 / p)


def _norm_parts(y, z, u, k_total, bundle, exponents, lam):
    """Per-path values of each norm, before averaging; ``lam`` holds the
    mark weights."""
    p = exponents.p
    A = bundle.A_path
    steps = bundle.grid.steps
    w_half, w_full = _weights(bundle, exponents)
    lam = np.asarray(lam, dtype=float)

    sup_term = np.max(w_half * np.abs(y) ** p, axis=1)
    dA = np.diff(A, axis=1)
    sA_term = np.sum(w_half[:, :-1] * np.abs(y[:, :-1]) ** p * dA, axis=1)
    h_term = np.sum(w_full[:, :-1] * z[:, :-1] ** 2 * steps[None, :], axis=1) ** (p / 2.0)
    if u.shape[2]:
        u2l = np.sum(lam[None, None, :] * u**2, axis=2)
        l_lam = np.sum(w_full[:, :-1] * u2l[:, :-1] * steps[None, :], axis=1) ** (p / 2.0)
        real = np.sum(u[:, :-1, :] ** 2 * bundle.jump_counts, axis=2)
        l_mu = np.sum(w_full[:, :-1] * real, axis=1) ** (p / 2.0)
    else:
        l_lam = np.zeros(y.shape[0])
        l_mu = np.zeros(y.shape[0])
    k_term = np.abs(k_total) ** p
    return sup_term, sA_term, h_term, l_lam, l_mu, k_term


def estimate_norms(
    sol: "BackwardSolution", bundle: "PathBundle", exponents: Exponents
) -> NormReport:
    """Discrete-sum estimators of all six weighted norms.

    Integrals use the left-endpoint rule, the supremum runs over grid
    nodes, and the realized-jump energy sums |u|^2 over simulated jump
    counts. The mark weights are the ones the solution carries.
    """
    k_total = sol.k_cum[:, -1] + sol.k_jump_T
    parts = _norm_parts(sol.y, sol.z, sol.u, k_total, bundle, exponents, sol.mark_weights)
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
    k_total = sol.k_cum[:, -1] + sol.k_jump_T
    _, _, _, l_lam, l_mu, _ = _norm_parts(
        sol.y, sol.z, sol.u, k_total, bundle, exponents, sol.mark_weights
    )
    lhs, lhs_se = _mc(l_mu)
    rhs, rhs_se = _mc(l_lam)
    joint = float(np.sqrt(lhs_se**2 + (2.0 * rhs_se) ** 2))
    return lhs, rhs, bool(lhs <= 2.0 * rhs + 3.0 * joint)


def power_sum_bound(xs, p: float) -> tuple[float, float]:
    """(sum |x_i|)^p versus n^{p-1} sum |x_i|^p; lhs <= rhs for p >= 1."""
    if p < 1.0:
        raise ValueError("p must be at least 1")
    xs = np.abs(np.asarray(xs, dtype=float))
    n = xs.size
    if n == 0:
        return 0.0, 0.0
    lhs = float(np.sum(xs) ** p)
    rhs = float(n ** (p - 1.0) * np.sum(xs**p))
    return lhs, rhs


def weighted_distance(
    dy: Array,
    dz: Array,
    du: Array,
    bundle: "PathBundle",
    exponents: Exponents,
    mark_weights: Array,
) -> float:
    """Distance between iterates in the contraction norm: the p-th root of
    the summed y-in-dA, z and u energies of the difference fields."""
    return _ContractionWeights(bundle, exponents).distance(dy, dz, du, mark_weights)


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
