"""Dynamics of the sequential two-action coordination process.

A project has ``n_parts`` parts, all initially unfinished, and ``n_users``
users arrive one at a time.  A user who coordinates (probability ``beta``)
spends one action locating an empty part and the other finishing it.  A user
who does not coordinate spends both actions on uniformly random parts, one
after the other; working on an already-finished part has no effect with
probability ``1 - alpha`` and knocks the part back to unfinished with
probability ``alpha``.  The second pick sees the state left by the first.

This module carries both the exact track (per-user transition kernel and
dynamic-programming expectation) and the sampled track (seeded Monte Carlo
batches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError

# exact_expectation refuses above this many state-steps (n_parts * n_users)
STATE_STEP_BUDGET = 10**8

# monte_carlo refuses when one (runs, 5) float64 uniform block exceeds this many bytes
MC_BLOCK_BUDGET = 2**30

# Recorded in run manifests so outputs are attributable to a generator.
RNG_DESCRIPTION = (
    "numpy default_rng (PCG64); monte_carlo draws one (runs, 5) uniform block "
    "per user step, run i consuming row i, so results are reproducible and "
    "independent of evaluation order"
)


@dataclass(frozen=True)
class ModelParams:
    """The (N, E, alpha, beta) quadruple of the coordination process."""

    n_parts: int
    n_users: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        check_ranges(self.n_parts, self.n_users, self.alpha, self.beta)


def check_ranges(n_parts: int, n_users: int, alpha: float, beta: float) -> None:
    """Raise ValueError unless (N, E, alpha, beta) lies in the model's domain.

    A plain function rather than a ``ModelParams`` construction, because the
    closed-form objective calls it on every evaluation.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")


@dataclass(frozen=True)
class DeltaDistribution:
    """Distribution of the net change in finished parts from one non-coordinator."""

    probs: dict[int, float]  # keys -2..+2

    def total(self) -> float:
        return sum(self.probs.values())


@dataclass(frozen=True)
class SimResult:
    mean_finished: float
    std_error: float
    runs: int
    seed: int


def one_pick_matrix(n_parts: int, alpha: float) -> np.ndarray:
    """Transition matrix of a single uniformly random contribution.

    From count c: an unfinished part is hit with probability (n-c)/n and
    becomes finished; a finished part is hit with probability c/n and is
    unchanged with probability 1-alpha or returned to unfinished with
    probability alpha.
    """
    n = n_parts
    m = np.zeros((n + 1, n + 1))
    for c in range(n + 1):
        if c < n:
            m[c, c + 1] += (n - c) / n
        m[c, c] += (c / n) * (1.0 - alpha)
        if c > 0:
            m[c, c - 1] += (c / n) * alpha
    return m


def noncoord_matrix(n_parts: int, alpha: float) -> np.ndarray:
    """Two sequential picks; the second observes the state left by the first."""
    m = one_pick_matrix(n_parts, alpha)
    return m @ m


def kernel_matrix(params: ModelParams) -> np.ndarray:
    """Per-user transition kernel mixing the coordinate and not-coordinate branches.

    A coordinator moves c -> c+1 when an empty part exists and is a no-op at
    c == n_parts (the process never defines a coordination target there).
    """
    n = params.n_parts
    coord = np.zeros((n + 1, n + 1))
    for c in range(n + 1):
        coord[c, min(c + 1, n)] = 1.0
    return params.beta * coord + (1.0 - params.beta) * noncoord_matrix(n, params.alpha)


def _check_count(c: int, n_parts: int) -> None:
    if not 0 <= c <= n_parts:
        raise ValueError(f"finished count {c} outside [0, {n_parts}]")


def collision_deltas(c: int, params: ModelParams) -> DeltaDistribution:
    """Exact distribution of the net change produced by one non-coordinating user."""
    _check_count(c, params.n_parts)
    row = noncoord_matrix(params.n_parts, params.alpha)[c]
    probs = {}
    for k in (-2, -1, 0, 1, 2):
        idx = c + k
        probs[k] = float(row[idx]) if 0 <= idx <= params.n_parts else 0.0
    return DeltaDistribution(probs)


def exact_expectation(params: ModelParams) -> float:
    """Expected finished parts after all users, by exact kernel propagation."""
    if params.n_parts * params.n_users > STATE_STEP_BUDGET:
        raise BudgetExceededError(
            f"n_parts * n_users = {params.n_parts * params.n_users} exceeds "
            f"{STATE_STEP_BUDGET} state-steps; use monte_carlo instead"
        )
    kernel = kernel_matrix(params)
    mass = np.zeros(params.n_parts + 1)
    mass[0] = 1.0
    for _ in range(params.n_users):
        mass = mass @ kernel
    return float(np.dot(np.arange(len(mass)), mass))


def monte_carlo(params: ModelParams, runs: int, seed: int) -> SimResult:
    """Mean and standard error of the finished count over independent runs.

    All runs advance in lockstep; each user step consumes one (runs, 5)
    uniform block and run i uses row i, so the estimate does not depend on
    the order runs are aggregated in.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if runs * 5 * 8 > MC_BLOCK_BUDGET:
        raise BudgetExceededError(
            f"runs = {runs} needs a {runs * 5 * 8}-byte uniform block per user step, "
            f"over the {MC_BLOCK_BUDGET}-byte budget"
        )
    n, alpha, beta = params.n_parts, params.alpha, params.beta
    rng = np.random.default_rng(seed)
    c = np.zeros(runs, dtype=np.int64)
    for _ in range(params.n_users):
        u = rng.random((runs, 5))
        c1 = np.where(u[:, 1] * n < n - c, c + 1, np.where(u[:, 2] < alpha, c - 1, c))
        c2 = np.where(u[:, 3] * n < n - c1, c1 + 1, np.where(u[:, 4] < alpha, c1 - 1, c1))
        c = np.where(u[:, 0] < beta, np.minimum(c + 1, n), c2)
    mean = float(c.mean())
    if runs > 1:
        std_error = float(c.std(ddof=1) / math.sqrt(runs))
    else:
        std_error = 0.0
    return SimResult(mean_finished=mean, std_error=std_error, runs=runs, seed=seed)
