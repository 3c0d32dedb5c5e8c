"""Dynamics of the sequential two-action coordination process.

A project has ``n_parts`` parts, all initially unfinished, and ``n_users``
users arrive one at a time.  A user who coordinates (probability ``beta``)
spends one action locating an empty part and the other finishing it.  A user
who does not coordinate spends both actions on uniformly random parts, one
after the other; working on an already-finished part has no effect with
probability ``1 - alpha`` and knocks the part back to unfinished with
probability ``alpha``.  The second pick sees the state left by the first.

This module carries both the exact track (the banded per-user transition
kernel, propagated for a whole vector of betas at once) and the sampled track
(seeded Monte Carlo batches).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import limits
from .limits import charge, check_ranges
from .record import Record

# Monte Carlo memory besides the (B, runs) count state, from tracemalloc peaks.
# A user step is applied to blocks of at most MC_BLOCK run-states, twice that at
# int8 and int16 counts, which caps its temporaries at MC_BLOCK_BYTES (measured up
# to 0.93 MB, with int64 counts).  Statistics are taken over blocks of at most
# MC_BLOCK run-states, whose float64 deviations fit in MC_BLOCK_BYTES too, or over
# one beta's row.  MC_BYTES_PER_RUN is the rest (measured 48): the (runs, 5)
# uniform block and one row's float64 deviations.
MC_BLOCK = 2**14
MC_BLOCK_BYTES = 2**20
MC_BYTES_PER_RUN = 64
# bytes of one exact block's step buffers (four float64 blocks of its width)
EXACT_BLOCK_BYTES = 2**20


class ModelParams(Record):
    """The (N, E, alpha, beta) quadruple of the coordination process, checked when it is made."""

    __slots__ = ("n_parts", "n_users", "alpha", "beta")

    def __init__(self, n_parts: int, n_users: int, alpha: float, beta: float):
        check_ranges(n_parts, n_users, alpha, beta)
        object.__setattr__(self, "n_parts", n_parts)
        object.__setattr__(self, "n_users", n_users)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


class SimResult(NamedTuple):
    mean_finished: float
    std_error: float
    runs: int
    seed: int


def _band(n_parts: int, alpha: float, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of one uniformly random contribution from count c, for the first
    ``width`` counts (all of them at width = n_parts + 1).

    An unfinished part is hit with probability (n-c)/n and becomes finished
    (up, for c = 0..n-1); a finished part is hit with probability c/n and
    is unchanged with probability 1-alpha (stay, c = 0..n) or returned to
    unfinished with probability alpha (down, c = 1..n).
    """
    n = n_parts
    counts = np.arange(width, dtype=float)
    return (n - counts[:-1]) / n, (counts / n) * (1.0 - alpha), (counts[1:] / n) * alpha


def _steps(mass: np.ndarray, band, beta, n_users: int) -> np.ndarray:
    """Mass over counts (axis 1) after n_users users, each applying
    K(beta) = beta * C + (1 - beta) * M^2; ``mass`` is overwritten.

    M is the one-pick kernel (the band); the non-coordinator's second pick
    sees the state left by the first.  C moves c -> c+1 when an empty part
    exists and is a no-op at c == n_parts (the process never defines a
    coordination target there).  ``beta`` is a float or a (rows, 1) column.
    The block steps through three (rows, width) buffers, the mass and both
    picks, with out= ufuncs; its only temporaries are a (rows, width - 1) and a
    (rows, 1) array, both contiguous, and 1 - beta is taken once.
    """
    up, stay, down = band
    keep = 1.0 - beta
    shifted, last = np.empty((len(mass), mass.shape[1] - 1)), np.empty((len(mass), 1))

    def views(a):  # the block and its last, upper and lower shifted columns
        return a, a[:, -1:], a[:, 1:], a[:, :-1]

    src, picked, out = views(mass), views(np.empty_like(mass)), views(np.empty_like(mass))

    def pick(src, dst):  # one uniformly random contribution
        (s, _, s_hi, s_lo), (d, _, d_hi, d_lo) = src, dst
        np.multiply(s, stay, out=d)
        np.multiply(s_lo, up, out=shifted)
        np.add(d_hi, shifted, out=d_hi)
        np.multiply(s_hi, down, out=shifted)
        np.add(d_lo, shifted, out=d_lo)

    for _ in range(n_users):
        pick(src, picked)
        pick(picked, out)
        (o, o_last, o_hi, _), (_, s_last, _, s_lo) = out, src
        np.multiply(o, keep, out=o)
        np.multiply(beta, s_lo, out=shifted)
        np.add(o_hi, shifted, out=o_hi)
        np.multiply(beta, s_last, out=last)
        np.add(o_last, last, out=o_last)
        src, out = out, src
    return src[0]


def kernel_matrix(params: ModelParams) -> np.ndarray:
    """Dense per-user transition kernel; row c is one step from a unit mass at c.

    At beta = 0, entry (c, c + k) is the paper's collision probability X_{c,k}.
    """
    band = _band(params.n_parts, params.alpha, params.n_parts + 1)
    return _steps(np.eye(params.n_parts + 1), band, params.beta, 1)


def exact_expectations(n_parts: int, n_users: int, alpha: float, betas) -> np.ndarray:
    """Expected finished parts after all users, for each beta, by exact kernel propagation.

    A user adds at most 2 finished parts, so after n_users users no count
    above 2 * n_users holds mass.  A (B, width) block, width =
    min(n_parts, 2 * n_users) + 1, holds the live counts' distribution under
    each of the B betas and moves through the pentadiagonal kernel, its band
    cut to that width, one user at a time (_steps): O(B * min(n_parts, 2 *
    n_users) * n_users) time.  Every term the cut drops is a +0.0 added to a
    non-negative value, and at the window's last count the saturating
    coordinator adds beta * 0, so each live value is bit-identical to a
    full-width pass.  The block is then written into a (B, n_parts + 1)
    block of zeros and summed as a full-width pass sums it, so the pairwise
    sum, and every expectation, is bit-identical too.  At most four float64
    blocks of n_parts + 1 columns are alive at once besides the band's three
    rows; the call is charged the full width's B * n_parts * n_users steps and
    one beta's bytes.  Betas are taken in blocks whose step buffers fit in
    EXACT_BLOCK_BYTES, fewer if limits.BYTES_BUDGET demands it.
    """
    betas = np.asarray(betas, dtype=float)
    check_ranges(n_parts, n_users, alpha, betas)
    return _exact_pass(n_parts, n_users, alpha, betas)


def _exact_pass(n_parts: int, n_users: int, alpha: float, betas: np.ndarray) -> np.ndarray:
    """exact_expectations on arguments already in the model's domain: charged, not checked."""
    charge(f"exact_expectations at B = {len(betas)}, n_parts = {n_parts}, n_users = {n_users}",
           len(betas) * n_parts * n_users, 8 * 7 * (n_parts + 1))
    width = min(n_parts, 2 * n_users) + 1
    # BYTES_BUDGET leaves >= 1 row once one beta's bytes pass
    rows = min((limits.BYTES_BUDGET // (8 * (n_parts + 1)) - 3) // 4,
               max(1, EXACT_BLOCK_BYTES // (8 * 4 * width)))
    band = _band(n_parts, alpha, width)
    counts = np.arange(n_parts + 1)
    values = np.empty(len(betas))
    for lo in range(0, len(betas), rows):
        beta = betas[lo:lo + rows, None]
        mass = np.zeros((len(beta), width))
        mass[:, 0] = 1.0
        mass = _steps(mass, band, beta, n_users)
        full = np.zeros((len(beta), n_parts + 1))
        full[:, :width] = mass
        values[lo:lo + rows] = (full * counts).sum(axis=1)
    return values


def exact_expectation(params: ModelParams) -> float:
    """Expected finished parts after all users at one beta (exact_expectations with B = 1,
    whose arguments ModelParams has checked)."""
    return float(_exact_pass(params.n_parts, params.n_users, params.alpha,
                             np.array([params.beta], dtype=float))[0])


def _count_dtype(n_parts: int):
    """The smallest integer dtype that holds every finished count, 0..n_parts.

    No step forms a count above n_parts (a coordinator adds c < n rather than
    clamping c + 1), so int8 serves n_parts <= 127 and int16 n_parts <= 32,767.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if n_parts <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def monte_carlo_means(n_parts: int, e_values, alpha: float, betas, runs: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the finished count, per beta, after each requested user count.

    Common random numbers: a (B, runs) state moves through the users in
    lockstep, and each user step draws one (runs, 5) uniform block that every
    beta shares, run i reading row i.  So each beta's row evolves exactly as it
    would in a pass of its own with the same seed, and one pass to the largest
    E records every smaller E on the way.  Returns two (len(e_values), B)
    arrays.  A step is applied to blocks of at most MC_BLOCK run-states (twice
    that at int8 and int16 counts) and of at most MC_BLOCK runs, and each pick
    compares the counts, in their own integer dtype, with its run's room
    n - floor(hit * n), the test hit * n < n - c in integers.  Each requested
    E's means and standard deviations are taken along the runs axis, over
    blocks of whole rows of at most MC_BLOCK run-states (one row if runs is
    larger); each row's reduction is the one it would have alone.  The call is
    charged B * runs * max(E) state-steps, and the bytes of the state, the
    per-run arrays and one block's temporaries.
    """
    betas = np.asarray(betas, dtype=float)
    e_values = [int(e) for e in e_values]
    if not e_values or e_values != sorted(set(e_values)):
        raise ValueError(f"e_values must be non-empty and strictly ascending, got {e_values}")
    check_ranges(n_parts, e_values[0], alpha, betas)
    check_ranges(n_parts, e_values[-1], alpha, 0.0)  # E ascends, so its ends bound the rest
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    n, n_betas, e_max = n_parts, len(betas), e_values[-1]
    dtype = _count_dtype(n)
    charge(f"monte_carlo at B = {n_betas}, runs = {runs}, n_users = {e_max}",
           n_betas * runs * e_max,
           runs * (MC_BYTES_PER_RUN + n_betas * np.dtype(dtype).itemsize) + MC_BLOCK_BYTES)

    # A pick hits an unfinished part when hit * n < n - c.  As n - c is an integer, that
    # holds exactly when c < room = n - floor(hit * n): each run's room is computed once,
    # in the counts' dtype, for every beta, and no count block is widened to float64.
    # Past 2**53, hit * n and n - c round, and the float test itself is kept.
    exact_rooms = n <= 2**53

    def room(hit):
        return (n - np.floor(hit * n)).astype(dtype) if exact_rooms else hit * n

    def pick(c, room, clash):  # one uniformly random contribution, the rule _band states
        empty = c < room if exact_rooms else room < n - c
        return c + empty - (clash > empty)
    rng = np.random.default_rng(seed)
    counts = np.zeros((n_betas, runs), dtype=dtype)
    width = min(runs, MC_BLOCK)
    rows = max(1, MC_BLOCK * (2 if np.dtype(dtype).itemsize <= 2 else 1) // width)
    stat_rows = max(1, MC_BLOCK // runs)
    means = np.empty((len(e_values), n_betas))
    std_errors = np.zeros((len(e_values), n_betas))
    recorded = 0
    u = np.empty((runs, 5))

    def step(lo):  # one user on runs lo..lo + width - 1; its temporaries die before the statistics
        d = u[lo:lo + width]
        coord, room1, room2 = np.ascontiguousarray(d[:, 0]), room(d[:, 1]), room(d[:, 3])
        clash1, clash2 = d[:, 2] < alpha, d[:, 4] < alpha
        for top in range(0, n_betas, rows):
            c = counts[top:top + rows, lo:lo + width]
            picked = pick(pick(c, room1, clash1), room2, clash2)
            # a coordinator finishes an empty part if one is left (faster than a select)
            c[...] = picked + (coord < betas[top:top + rows, None]) * (c + (c < n) - picked)

    for e in range(1, e_max + 1):
        rng.random(out=u)
        for lo in range(0, runs, width):
            step(lo)
        if e == e_values[recorded]:
            for top in range(0, n_betas, stat_rows):
                block = counts[top:top + stat_rows]
                means[recorded, top:top + stat_rows] = block.mean(axis=1)
                if runs > 1:
                    std_errors[recorded, top:top + stat_rows] = (block.std(axis=1, ddof=1)
                                                                 / math.sqrt(runs))
            recorded += 1
    return means, std_errors


def monte_carlo(params: ModelParams, runs: int, seed: int) -> SimResult:
    """Mean and standard error of the finished count over independent runs.

    The one-beta, one-E case of monte_carlo_means: all runs advance in
    lockstep, each user step consumes one (runs, 5) uniform block and run i
    uses row i, so the estimate does not depend on the order runs are
    aggregated in.
    """
    means, std_errors = monte_carlo_means(params.n_parts, [params.n_users], params.alpha,
                                          [params.beta], runs, seed)
    return SimResult(mean_finished=float(means[0, 0]), std_error=float(std_errors[0, 0]),
                     runs=runs, seed=seed)
