"""Analytical recurrence, closed form, and optimal coordination-level search.

The deterministic approximation of the process gives a linear recurrence
P_{i+1} = A P_i + P0 whose closed form is the expected number of finished
parts after all users.  This module evaluates that track and searches for
the coordination probability beta* that maximizes finished parts, per point
and over (N, E) grids.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

from .constants import OBJECTIVES
from .errors import BudgetExceededError
from .limits import charge, check_ranges
from .record import Record

# below this distance from A = 1 the limit form E * P0 is used
A1_EPS = 1e-12
# below this distance from A = 1 (and above A1_EPS) the geometric sum is taken
# as expm1(E * log1p(A - 1)) / (A - 1), since (A**E - 1) / (A - 1) cancels there
A1_STABLE = 1e-6
# golden-section refinement stops when the bracket is narrower than this
REFINE_TOL = 1e-6
# a beta must beat the incumbent by more than this to replace it
TIE_TOL = 1e-12
# An exact refinement block scores every point that the next k golden-section steps could
# ask for, 2**k - 1 rows.  k is 4, else 3, where that block holds at most the grid's rows and
# SPECULATE_CELLS cells (rows x live width), and 1, the one-point loop, elsewhere.  Measured:
# a pass of more than one row costs about 40 % more per user than a one-row pass before any
# arithmetic, which one- or two-step blocks do not repay, and at widths above about 200 its
# arithmetic outweighs the passes a block saves
SPECULATE_CELLS = 1400
# bytes optimal_beta holds per grid beta, rounded up: 25.6 measured for the closed form (the
# grid, A and P0 as arrays of doubles, and a byte for _closed_form's branch) and 48 for the others (the grid, and the grid
# values as an array and a list of floats; exact_expectations bounds its block itself)
GRID_BYTES_PER_BETA = 64
# bytes beta_heatmap and grid_to_csv hold per cell besides each search's own arrays, rounded
# up from tracemalloc peaks of 190-192 on cf grids of 10**4 to 9 * 10**4 cells
HEATMAP_BYTES_PER_CELL = 320

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class SearchConfig(Record):
    """How a beta* search runs: the grid step, and the Monte Carlo runs and seed."""

    __slots__ = ("grid_step", "runs", "seed")

    def __init__(self, grid_step: float = 0.01, runs: int | None = None, seed: int = 0):
        if not 0.0 < grid_step <= 1.0:
            raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
        intervals = 1.0 / grid_step  # refused, not rounded onto another grid
        if not math.isfinite(intervals) or abs(intervals - round(intervals)) > 1e-12 * intervals:
            raise ValueError(f"grid_step must be 1 / an integer, got {grid_step}")
        if runs is not None and runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        object.__setattr__(self, "grid_step", grid_step)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "seed", seed)


class OptResult(NamedTuple):
    beta_star: float
    value: float
    objective: str
    grid_step: float
    runs: int | None = None


class BetaGrid(NamedTuple):
    n_values: tuple[int, ...]
    e_values: tuple[int, ...]
    alpha: float
    objective: str
    cells: list[list[OptResult | None]]
    grid_step: float
    runs: int | None
    seed: int
    errors: dict[tuple[int, int], str]


def _coeffs(n: float, n_sq: float, alpha: float, beta: float) -> tuple[float, float]:
    """A and P0 of the recurrence P_{i+1} = A P_i + P0 at N = n (n_sq is N**2 as a float)."""
    w = (1.0 - beta) * (1.0 + alpha)
    return w * (1.0 + alpha) / n_sq - 2.0 * w / n + 1.0, -w / n + 2.0 - beta


def _closed_form(a: float, p0: float, e: int) -> float:
    """P_E from P_0 = 0 for Python floats A and P0 and an int E, unchecked."""
    d = a - 1.0
    if abs(d) >= A1_STABLE:
        return p0 * (a**e - 1.0) / d
    if abs(d) <= A1_EPS:
        return e * p0
    return p0 * math.expm1(e * math.log1p(d)) / d


def approx_expectation(n_parts: int, n_users: int, alpha: float, beta: float) -> float:
    """Closed-form expected finished parts after n_users.

    Does not model saturation: at beta = 1 it returns n_users even when
    n_users > n_parts.
    """
    check_ranges(n_parts, n_users, alpha, beta)
    n = int(n_parts)
    return _closed_form(*_coeffs(float(n), float(n**2), float(alpha), float(beta)), int(n_users))


def _check_search(objective: str, config: SearchConfig) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if objective == "monte_carlo" and config.runs is None:
        raise ValueError("monte_carlo objective requires a runs setting")


def _beta_grid(config: SearchConfig, objective: str = "closed_form", n_parts: int = 0,
               n_users: int = 0) -> array:
    """The coarse beta grid, np.linspace(0, 1, n) bit for bit, charged before it is built:
    its bytes, and the state-steps of the exact or Monte Carlo pass that will score it at
    (n_parts, n_users), B * N * E or B * runs * E as exact_expectations and
    monte_carlo_means charge them, so a grid too fine for its pass is never built."""
    n_betas = round(1.0 / config.grid_step) + 1
    what = f"grid_step = {config.grid_step} gives a {n_betas}-point beta grid that"
    steps = 0
    if objective != "closed_form":
        steps = n_betas * (n_parts if objective == "exact_dp" else config.runs) * n_users
        what += f", scored by {objective} at n_parts = {n_parts}, n_users = {n_users},"
    charge(what, steps, n_betas * GRID_BYTES_PER_BETA)
    step = 1.0 / (n_betas - 1)
    betas = array("d", (i * step for i in range(n_betas)))
    betas[-1] = 1.0
    return betas


def _grid_best(values) -> tuple[int, float]:
    """Index and value of the best grid value; ties within TIE_TOL go to the smallest beta."""
    indexed = enumerate(values)
    best_i, best = next(indexed)
    for i, v in indexed:
        if v > best + TIE_TOL:
            best_i, best = i, v
    return best_i, best


def _monte_carlo_best(betas: array, means, config: SearchConfig) -> OptResult:
    best_i, value = _grid_best(means.tolist())
    return OptResult(beta_star=betas[best_i], value=value,
                     objective="monte_carlo", grid_step=config.grid_step, runs=config.runs)


def _golden_section(f, lo: float, hi: float) -> tuple[float, float]:
    """The bracket golden-section search leaves on [lo, hi], scoring one point per step."""
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > REFINE_TOL:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return lo, hi


def _golden_step(lo: float, hi: float, c: float, d: float, left: bool) -> tuple:
    """One step of _golden_section, the fc >= fd branch if left: (lo, hi, c, d, left) after
    it.  Its new point, the one that needs a value, is c if left, else d."""
    if left:
        hi, d = d, c
        c = hi - _INVPHI * (hi - lo)
    else:
        lo, c = c, d
        d = lo + _INVPHI * (hi - lo)
    return lo, hi, c, d, left


def _speculative_golden_section(score, lo: float, hi: float, depth: int) -> tuple[float, float]:
    """_golden_section's bracket, the points of up to `depth` steps scored in one call.

    Only which point comes next depends on the values, so score(points) gets every point
    that the next `depth` steps could ask for, 2**depth - 1 at most: node 1 is the next
    step, whose comparison is known, and node j's children 2j and 2j + 1 are the steps
    after fc >= fd and after its negation.  The walk down the tree then advances as far
    as the scored values reach, on the floats the one-point loop computes.
    """
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = score([c, d])
    while hi - lo > REFINE_TOL:
        nodes = {1: _golden_step(lo, hi, c, d, fc >= fd)}
        for j in range(2, 1 << depth):
            parent = nodes.get(j >> 1)
            if parent is not None and parent[1] - parent[0] > REFINE_TOL:
                nodes[j] = _golden_step(*parent[:4], not j & 1)
        values = dict(zip(nodes, score([n[2] if n[4] else n[3] for n in nodes.values()])))
        j = 1
        while j in nodes:
            lo, hi, c, d, left = nodes[j]
            fc, fd = (values[j], fc) if left else (fd, values[j])
            j = 2 * j + (not fc >= fd)
    return lo, hi


def _speculation_depth(width: int, n_rows: int) -> int:
    """Golden-section steps per exact refinement block at this live width (SPECULATE_CELLS)."""
    for depth in (4, 3):
        rows = (1 << depth) - 1
        if rows <= n_rows and rows * width <= SPECULATE_CELLS:
            return depth
    return 1


def _refine(f, betas: array, values, objective: str, config: SearchConfig, score=None,
            depth: int = 1) -> OptResult:
    """Golden-section refinement of the best of the grid's values on its bracketing interval.

    f scores one point: each step's at depth 1, else score(points) scores `depth` steps'
    points at a time (_speculative_golden_section).  f scores the final midpoint.
    """
    i, v = _grid_best(values)
    lo, hi = betas[max(i - 1, 0)], betas[min(i + 1, len(betas) - 1)]
    if depth == 1:
        lo, hi = _golden_section(f, lo, hi)
    else:
        lo, hi = _speculative_golden_section(score, lo, hi, depth)
    x = (lo + hi) / 2.0
    fx = f(x)
    beta, value = (x, fx) if fx > v + TIE_TOL else (betas[i], v)
    return OptResult(beta, value, objective, config.grid_step)


def _closed_form_column(n_parts: int, e_values, alpha: float, betas: array,
                        config: SearchConfig) -> list[OptResult]:
    """Every row of one N column of closed-form searches, unchecked.

    A and P0 depend only on N and beta, so the column computes its grid's once, with the
    branch of _closed_form each A takes; each E's grid values are then one generator
    expression, and its refinement objective is _closed_form(*_coeffs(...), e) in one frame.
    Each A**E is a Python float ** int: NumPy's power can round a last bit differently.
    """
    n_parts = int(n_parts)
    n, n_sq, alpha = float(n_parts), float(n_parts**2), float(alpha)
    grid_a, grid_p0 = array("d"), array("d")
    for beta in betas:
        a, p0 = _coeffs(n, n_sq, alpha, beta)
        grid_a.append(a)
        grid_p0.append(p0)
    generic = bytes(abs(a - 1.0) >= A1_STABLE for a in grid_a)
    column = []
    for e in map(int, e_values):
        def f(beta: float) -> float:
            w = (1.0 - beta) * (1.0 + alpha)
            a = w * (1.0 + alpha) / n_sq - 2.0 * w / n + 1.0
            p0 = -w / n + 2.0 - beta
            d = a - 1.0
            if abs(d) >= A1_STABLE:
                return p0 * (a**e - 1.0) / d
            if abs(d) <= A1_EPS:
                return e * p0
            return p0 * math.expm1(e * math.log1p(d)) / d
        values = (p0 * (a**e - 1.0) / (a - 1.0) if g else _closed_form(a, p0, e)
                  for a, p0, g in zip(grid_a, grid_p0, generic))
        column.append(_refine(f, betas, values, "closed_form", config))
    return column


def optimal_beta(
    n_parts: int,
    n_users: int,
    alpha: float,
    objective: str,
    config: SearchConfig = SearchConfig(),
) -> OptResult:
    """Maximize the chosen objective over beta in [0, 1].

    Coarse grid scan (ties within TIE_TOL break toward the smallest beta),
    then golden-section refinement on the bracketing interval for the smooth
    objectives.  The exact objective scores its grid in one batched call, and
    its refinement in blocks of the points its next 3 or 4 steps could ask for
    (SPECULATE_CELLS), or one point per call at wide cells, so the values and
    the path are the one-point search's; the final midpoint is one
    exact_expectation call.  The closed form is the one-row case of
    beta_heatmap's column search.  The Monte Carlo objective is noisy: one
    pass seeded with config.seed scores the whole grid on shared draws
    (monte_carlo_means), and the best grid point is reported instead of
    refining.  The grid is charged before it is built, with the exact or
    Monte Carlo pass that scores it; no refinement block has more rows.
    Only the exact and Monte Carlo objectives import the model and NumPy.
    """
    _check_search(objective, config)
    check_ranges(n_parts, n_users, alpha, 0.0)
    betas = _beta_grid(config, objective, n_parts, n_users)
    if objective == "closed_form":
        return _closed_form_column(n_parts, [n_users], alpha, betas, config)[0]
    from .model import ModelParams, exact_expectation, exact_expectations, monte_carlo_means

    if objective == "monte_carlo":
        means, _ = monte_carlo_means(n_parts, [n_users], alpha, betas, config.runs, config.seed)
        return _monte_carlo_best(betas, means[0], config)
    values = exact_expectations(n_parts, n_users, alpha, betas).tolist()
    return _refine(lambda b: exact_expectation(ModelParams(n_parts, n_users, alpha, b)), betas,
                   values, objective, config,
                   lambda points: exact_expectations(n_parts, n_users, alpha, points).tolist(),
                   _speculation_depth(min(n_parts, 2 * n_users) + 1, len(betas)))


def _monte_carlo_column(n_parts: int, e_values: tuple[int, ...], alpha: float,
                        config: SearchConfig) -> list[OptResult | str]:
    """Every row of one N column from one shared-draw pass, seeded with config.seed.

    Row i equals optimal_beta(n_parts, e_values[i], alpha, "monte_carlo",
    config): the pass to the largest E records each smaller E on its way.  A
    refused pass is retried without its largest E, whose row becomes the
    refusal text; a charge comes before any work, so the retry is free.
    """
    from .model import monte_carlo_means

    refused: list[OptResult | str] = []
    for stop in range(len(e_values), 0, -1):
        try:
            betas = _beta_grid(config, "monte_carlo", n_parts, e_values[stop - 1])
            means, _ = monte_carlo_means(n_parts, e_values[:stop], alpha, betas,
                                         config.runs, config.seed)
        except BudgetExceededError as exc:
            refused.insert(0, str(exc))
            continue
        return [_monte_carlo_best(betas, row, config) for row in means] + refused
    return refused


def beta_heatmap(
    n_values,
    e_values,
    alpha: float,
    objective: str,
    config: SearchConfig = SearchConfig(),
) -> BetaGrid:
    """Per-cell optimal beta over an (N, E) grid; rows are E, columns are N.

    The exact objective calls optimal_beta once per cell, and the closed form
    searches each N column to optimal_beta's results.  The Monte Carlo
    objective scores each N column in one shared-draw pass, seeded with
    spawn_seed(config.seed, column index).  A budget refusal marks its cell
    None and is recorded in the grid's error map; a Monte Carlo cell is
    refused exactly when a pass to its own E is over budget.  The grid is charged
    first, a state-step and HEATMAP_BYTES_PER_CELL bytes per cell, before any list
    of its sized n_values and e_values (ranges, say) is built.  Any other error
    is raised before any work: E is ascending, so each N is checked at E[0],
    and the largest E once.
    """
    n_cells = len(n_values) * len(e_values)
    charge(f"a heatmap of {len(e_values)} x {len(n_values)} cells", n_cells,
           n_cells * HEATMAP_BYTES_PER_CELL)
    n_values = tuple(int(n) for n in n_values)
    e_values = tuple(int(e) for e in e_values)
    if not n_values or not e_values:
        raise ValueError("n_values and e_values must be non-empty")
    if list(n_values) != sorted(set(n_values)) or list(e_values) != sorted(set(e_values)):
        raise ValueError("n_values and e_values must be strictly ascending")
    _check_search(objective, config)
    for n in n_values:
        check_ranges(n, e_values[0], alpha, 0.0)
    check_ranges(n_values[0], e_values[-1], alpha, 0.0)

    def solve(n: int, e: int) -> OptResult | str:
        try:
            return optimal_beta(n, e, alpha, objective, config)
        except BudgetExceededError as exc:
            return str(exc)

    if objective == "monte_carlo":
        from .rng import spawn_seed

        columns = [_monte_carlo_column(n, e_values, alpha, SearchConfig(
                       config.grid_step, config.runs, spawn_seed(config.seed, ci)))
                   for ci, n in enumerate(n_values)]
    elif objective == "closed_form":
        try:
            betas = _beta_grid(config)
            columns = [_closed_form_column(n, e_values, alpha, betas, config) for n in n_values]
        except BudgetExceededError as exc:
            columns = [[str(exc)] * len(e_values)] * len(n_values)
    else:
        columns = [[solve(n, e) for e in e_values] for n in n_values]
    errors = {(ri, ci): cell for ci, column in enumerate(columns)
              for ri, cell in enumerate(column) if isinstance(cell, str)}
    cells = [[None if isinstance(column[ri], str) else column[ri] for column in columns]
             for ri in range(len(e_values))]
    return BetaGrid(
        n_values=n_values,
        e_values=e_values,
        alpha=alpha,
        objective=objective,
        cells=cells,
        grid_step=config.grid_step,
        runs=config.runs if objective == "monte_carlo" else None,
        seed=config.seed,
        errors=errors,
    )


def grid_to_csv(grid: BetaGrid) -> str:
    """CSV matrix: first row = N values, first column = E values, beta* to 4 dp."""
    lines = [
        f"# alpha={grid.alpha}",
        f"# objective={grid.objective}",
        f"# grid_step={grid.grid_step}",
        f"# runs={grid.runs if grid.runs is not None else 'NA'}",
        f"# seed={grid.seed}",
        "," + ",".join(str(n) for n in grid.n_values),
    ]
    for e, row in zip(grid.e_values, grid.cells):
        cells = [f"{r.beta_star:.4f}" if r is not None else "NA" for r in row]
        lines.append(f"{e}," + ",".join(cells))
    return "\n".join(lines) + "\n"
