"""Forward path simulation: Brownian increments, per-step jump counts,
Euler states, coefficient paths and the accumulated weight clock A.

Randomness is drawn from independent substreams keyed by
(seed, channel, path-block) over a fixed block size, so a bundle is
bit-identical across runs and across worker-thread counts.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import AssumptionError, ProblemSpec, _require_count, aggregate_rate, cumulative_A

Array = np.ndarray

BLOCK = 4096  # fixed path-block size for RNG substreams
_CH_BROWNIAN = 0xB0
_CH_JUMPS = 0x10


@dataclass(frozen=True)
class TimeGrid:
    nodes: Array

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a grid needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError(f"grid nodes must be finite, got {nodes!r}")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at t=0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def steps(self) -> Array:
        return np.diff(self.nodes)

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])


def build_grid(T: float, N: int) -> TimeGrid:
    """Uniform grid with N steps on [0, T]."""
    if not (0.0 < T < np.inf):
        raise ValueError(f"horizon must be positive and finite, got {T!r}")
    return TimeGrid(nodes=np.linspace(0.0, float(T), _require_count("N", N, 1) + 1))


@dataclass(frozen=True)
class CoefficientPaths:
    """Rate processes sampled along each path at every node."""

    alpha: Array
    eta: Array
    delta: Array
    phi: Array
    varphi: Array
    a2: Array
    zeta2: Array


@dataclass(frozen=True)
class PathBundle:
    """Every (path, node) grid is column-major: a node's column is contiguous."""

    grid: TimeGrid
    brownian_increments: Array  # (n_paths, N)
    jump_counts: Array  # (n_paths, N, m) int64
    forward_states: Array  # (n_paths, N+1)
    A_path: Array  # (n_paths, N+1)
    coeff_path: CoefficientPaths
    seed: int

    @property
    def n_paths(self) -> int:
        return self.forward_states.shape[0]

    @property
    def n_marks(self) -> int:
        return self.jump_counts.shape[2]


def _draw_block(seed: int, block: int, n_rows: int, steps: Array, lam: Array):
    """Deterministic draws for one path block: normals and Poisson counts."""
    rng_b = np.random.default_rng(np.random.SeedSequence([seed, _CH_BROWNIAN, block]))
    dW = rng_b.standard_normal((n_rows, steps.size)) * np.sqrt(steps)[None, :]
    rng_j = np.random.default_rng(np.random.SeedSequence([seed, _CH_JUMPS, block]))
    if lam.size:
        counts = rng_j.poisson(lam=lam[None, None, :] * steps[None, :, None],
                               size=(n_rows, steps.size, lam.size))
    else:
        counts = np.zeros((n_rows, steps.size, 0), dtype=np.int64)
    return dW, counts.astype(np.int64, copy=False)


def _require_all(ok: Array, param: str, what: str, detail) -> None:
    """Raise AssumptionError(param) at the first path where ``ok`` (a
    (path, node) grid) fails, and at that path's first failing node."""
    if not ok.all():
        p0, i0 = (int(v) for v in np.argwhere(~ok)[0])
        raise AssumptionError(f"{what} on path {p0} at node {i0}: {detail(p0, i0)}", param)


def sample_paths(
    spec: ProblemSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_threads: int = 1,
) -> PathBundle:
    """Simulate a reproducible bundle of forward paths.

    Per step i: dB ~ Normal(0, dt_i); jump counts ~ Poisson(w_j dt_i)
    independently per mark; Euler update
    X_{i+1} = X_i + drift dt + vol dB + sum_j jump_size(e_j) * count_j,
    jumps applied at the right endpoint of the step. Identical
    (spec, grid, n_paths, seed) give bit-identical output regardless of
    ``n_threads``. A non-finite state, a^2 < eps or a zeta^2 that
    underflows to 0 raises AssumptionError at the first such path and node.
    """
    _require_count("n_paths", n_paths, 1)
    _require_count("seed", seed, 0)
    _require_count("n_threads", n_threads, 1)
    if abs(grid.horizon - spec.horizon) > 1e-12 * (1.0 + spec.horizon):
        raise ValueError("grid horizon does not match the problem horizon")
    N = grid.n_steps
    steps = grid.steps
    m = spec.marks.m
    lam = spec.marks.weights_array()
    marks = spec.marks.marks_array()

    dW = np.empty((n_paths, N), order="F")
    counts = np.empty((n_paths, N, m), dtype=np.int64, order="F")
    blocks = [(b, min(BLOCK, n_paths - b * BLOCK)) for b in range((n_paths + BLOCK - 1) // BLOCK)]

    def fill(arg):
        b, rows = arg
        dwb, cb = _draw_block(seed, b, rows, steps, lam)
        dW[b * BLOCK : b * BLOCK + rows] = dwb
        counts[b * BLOCK : b * BLOCK + rows] = cb

    if n_threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(fill, blocks))
    else:
        for arg in blocks:
            fill(arg)

    X = np.empty((n_paths, N + 1), order="F")
    X[:, 0] = spec.forward.x0
    with np.errstate(all="ignore"):
        for i in range(N):
            t = float(grid.nodes[i])
            xi = X[:, i]
            upd = xi + np.asarray(spec.forward.drift(t, xi), dtype=float) * steps[i]
            upd = upd + np.asarray(spec.forward.vol(t, xi), dtype=float) * dW[:, i]
            for j in range(m):
                upd = upd + np.asarray(
                    spec.forward.jump_size(t, xi, float(marks[j])), dtype=float
                ) * counts[:, i, j]
            X[:, i + 1] = upd

    _require_all(np.isfinite(X), "forward", "non-finite forward state",
                 lambda p, i: f"X={float(X[p, i])!r}")
    q = spec.exponents.q
    eps = spec.exponents.eps
    cp = {k: np.empty_like(X) for k in ("alpha", "eta", "delta", "phi", "varphi")}
    for i in range(N + 1):
        r = spec.coeffs.rates(float(grid.nodes[i]), X[:, i])
        for k in cp:
            cp[k][:, i] = r[k]
    a2 = aggregate_rate(cp)
    # a NaN rate violates the floor too
    _require_all(a2 >= eps, "eps", "a^2 >= eps violated",
                 lambda p, i: f"a^2={float(a2[p, i])!r}, eps={eps!r}")
    with np.errstate(over="ignore"):
        zeta2 = a2 ** (q / 2.0)
    # p near 1 makes q large, and (a^2)^{q/2} can leave float64 although a^2 >= eps
    for ok, what in ((zeta2 > 0.0, "underflows to 0"), (zeta2 < np.inf, "overflows")):
        _require_all(ok[:, :-1], "p", f"zeta^2 = (a^2)^(q/2) {what}",
                     lambda p, i: f"a^2={float(a2[p, i])!r}, q={q!r}")
    A = cumulative_A(grid, zeta2[:, :-1])

    return PathBundle(
        grid=grid,
        brownian_increments=dW,
        jump_counts=counts,
        forward_states=X,
        A_path=A,
        coeff_path=CoefficientPaths(
            alpha=cp["alpha"], eta=cp["eta"], delta=cp["delta"],
            phi=cp["phi"], varphi=cp["varphi"], a2=a2, zeta2=zeta2,
        ),
        seed=int(seed),
    )
