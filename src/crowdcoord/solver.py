"""Analytical recurrence, closed form, and optimal coordination-level search.

The deterministic approximation of the process gives a linear recurrence
P_{i+1} = A P_i + P0 whose closed form is the expected number of finished
parts after all users.  This module evaluates that track and searches for
the coordination probability beta* that maximizes finished parts, per point
and over (N, E) grids.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import OBJECTIVES
from .errors import BudgetExceededError
from .model import (
    ModelParams,
    charge,
    check_ranges,
    exact_expectation,
    exact_expectations,
    monte_carlo_means,
)
from .rng import spawn_seed

# below this distance from A = 1 the limit form E * P0 is used
A1_EPS = 1e-12
# below this distance from A = 1 (and above A1_EPS) the geometric sum is taken
# as expm1(E * log1p(A - 1)) / (A - 1), since (A**E - 1) / (A - 1) cancels there
A1_STABLE = 1e-6
# golden-section refinement stops when the bracket is narrower than this
REFINE_TOL = 1e-6
# a beta must beat the incumbent by more than this to replace it
TIE_TOL = 1e-12
# bytes optimal_beta holds per grid beta, rounded up from the measured peaks: 40
# for the closed form (the grid and one cell's values as a list of floats) and 48
# for the other objectives (exact_expectations bounds its block itself)
GRID_BYTES_PER_BETA = 64
# bytes beta_heatmap and grid_to_csv hold per cell besides each search's own arrays, rounded
# up from tracemalloc peaks of 263-302 on cf grids of 10**4 to 9 * 10**4 cells
HEATMAP_BYTES_PER_CELL = 320
# the closed-form search scores at most this many (cell, beta) points per scan block
# and refines at most this many cells at once: its temporaries stay bounded
CF_BLOCK = 2**11

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchConfig:
    grid_step: float = 0.01
    runs: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.grid_step <= 1.0:
            raise ValueError(f"grid_step must be in (0, 1], got {self.grid_step}")
        intervals = 1.0 / self.grid_step  # refused, not rounded onto another grid
        if not math.isfinite(intervals) or abs(intervals - round(intervals)) > 1e-12 * intervals:
            raise ValueError(f"grid_step must be 1 / an integer, got {self.grid_step}")
        if self.runs is not None and self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")


@dataclass(frozen=True)
class OptResult:
    beta_star: float
    value: float
    objective: str
    grid_step: float
    runs: int | None = None


@dataclass(frozen=True)
class BetaGrid:
    n_values: tuple[int, ...]
    e_values: tuple[int, ...]
    alpha: float
    objective: str
    cells: list[list[OptResult | None]]
    grid_step: float
    runs: int | None = None
    seed: int = 0
    errors: dict[tuple[int, int], str] = field(default_factory=dict)


def _coeffs(n, n_sq, alpha: float, beta):
    w = (1.0 - beta) * (1.0 + alpha)
    return w * (1.0 + alpha) / n_sq - 2.0 * w / n + 1.0, -w / n + 2.0 - beta


def _closed_form(n_values, e_values, alpha: float):
    """The closed form over cells (N, E): f(cell, beta) scores beta[j] in cell[j], unchecked.

    N enters as Python's float / int division takes it, E as Python ints (an
    int64 could overflow), and each A**E is a scalar float ** int: NumPy's
    array power can round a last bit differently.
    """
    n, n_sq = np.array([(float(v), float(v**2)) for v in map(int, n_values)]).T
    es = np.array([int(e) for e in e_values], dtype=object)

    def f(cell, beta: np.ndarray) -> np.ndarray:
        e = es[cell].tolist()
        a, p0 = _coeffs(n[cell], n_sq[cell], alpha, beta)
        d = a - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = p0 * (np.fromiter(map(float.__pow__, a.tolist(), e), float, len(e)) - 1.0) / d
        near = np.flatnonzero(np.abs(d) < A1_STABLE).tolist()
        for i, di, p in zip(near, d[near].tolist(), p0[near].tolist()):
            values[i] = e[i] * p if abs(di) <= A1_EPS else p * math.expm1(e[i] * math.log1p(di)) / di
        return values
    return f


def approx_expectation(n_parts: int, n_users: int, alpha: float, beta: float) -> float:
    """Closed-form expected finished parts after n_users.

    Does not model saturation: at beta = 1 it returns n_users even when
    n_users > n_parts.
    """
    check_ranges(n_parts, n_users, alpha, beta)
    return float(_closed_form([n_parts], [n_users], alpha)([0], np.array([beta], dtype=float))[0])


def _check_search(objective: str, config: SearchConfig) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if objective == "monte_carlo" and config.runs is None:
        raise ValueError("monte_carlo objective requires a runs setting")


def _beta_grid(config: SearchConfig) -> np.ndarray:
    """The coarse beta grid, its own arrays charged before anything is allocated."""
    n_betas = round(1.0 / config.grid_step) + 1
    charge(f"grid_step = {config.grid_step} gives a {n_betas}-point beta grid that",
           0, n_betas * GRID_BYTES_PER_BETA)
    return np.linspace(0.0, 1.0, n_betas)


def _grid_best(values: list[float]) -> int:
    """Index of the best grid value; ties within TIE_TOL break toward the smallest beta."""
    best_i = 0
    for i, v in enumerate(values):
        if v > values[best_i] + TIE_TOL:
            best_i = i
    return best_i


def _monte_carlo_best(betas: np.ndarray, means: np.ndarray, config: SearchConfig) -> OptResult:
    values = means.tolist()
    best_i = _grid_best(values)
    return OptResult(beta_star=float(betas[best_i]), value=values[best_i],
                     objective="monte_carlo", grid_step=config.grid_step, runs=config.runs)


def _grid_rows(f, n_cells: int, betas: np.ndarray):
    """Each cell's grid values in turn, f scoring blocks of CF_BLOCK (cell, beta) points."""
    n_betas, n_points = len(betas), n_cells * len(betas)
    blocks = (np.divmod(np.arange(start, min(start + CF_BLOCK, n_points)), n_betas)
              for start in range(0, n_points, CF_BLOCK))
    points = chain.from_iterable(f(cell, betas[beta]).tolist() for cell, beta in blocks)
    return (list(islice(points, n_betas)) for _ in range(n_cells))


def _refine(f, betas: np.ndarray, rows, objective: str, config: SearchConfig) -> list[OptResult]:
    """Golden-section refinement of each cell's best grid point (rows yields its grid values).

    Brackets move in lockstep, CF_BLOCK cells at a time: each iteration scores those still
    wider than REFINE_TOL in one call f(cell, beta), in the order a search of its own would.
    """
    best = [(i, row[i]) for row in rows for i in [_grid_best(row)]]
    results = []
    for start in range(0, len(best), CF_BLOCK):
        block = best[start:start + CF_BLOCK]
        cells, i = np.arange(start, start + len(block)), np.array([i for i, _ in block])
        lo, hi = betas[np.maximum(i - 1, 0)], betas[np.minimum(i + 1, len(betas) - 1)]
        c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
        fc, fd = f(cells, c), f(cells, d)
        live = np.flatnonzero(hi - lo > REFINE_TOL)
        while len(live):
            down = fc[live] >= fd[live]
            left, right = live[down], live[~down]
            hi[left], d[left], fd[left] = d[left], c[left], fc[left]
            c[left] = hi[left] - _INVPHI * (hi[left] - lo[left])
            lo[right], c[right], fc[right] = c[right], d[right], fd[right]
            d[right] = lo[right] + _INVPHI * (hi[right] - lo[right])
            fx = f(cells[live], np.where(down, c[live], d[live]))
            fc[left], fd[right] = fx[down], fx[~down]
            live = live[hi[live] - lo[live] > REFINE_TOL]
        x = (lo + hi) / 2.0
        for (i, v), xi, fi in zip(block, x.tolist(), f(cells, x).tolist()):
            beta, value = (xi, fi) if fi > v + TIE_TOL else (float(betas[i]), v)
            results.append(OptResult(beta, value, objective, config.grid_step))
    return results


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
    objectives.  The exact objective scores its grid in one batched call; the
    closed form is the one-cell case of the lockstep search that beta_heatmap
    runs over a whole grid.  The Monte Carlo objective is noisy: one pass
    seeded with config.seed scores the whole grid on shared draws
    (monte_carlo_means), and the best grid point is reported instead of
    refining.  The grid's own arrays are charged before anything is allocated.
    """
    _check_search(objective, config)
    check_ranges(n_parts, n_users, alpha, 0.0)
    betas = _beta_grid(config)
    if objective == "monte_carlo":
        means, _ = monte_carlo_means(n_parts, [n_users], alpha, betas, config.runs, config.seed)
        return _monte_carlo_best(betas, means[0], config)
    if objective == "closed_form":
        cf = _closed_form([n_parts], [n_users], alpha)
        return _refine(cf, betas, _grid_rows(cf, 1, betas), objective, config)[0]

    def exact(_, beta: np.ndarray) -> np.ndarray:
        return np.array([exact_expectation(ModelParams(n_parts, n_users, alpha, b))
                         for b in beta.tolist()])
    rows = [exact_expectations(n_parts, n_users, alpha, betas).tolist()]
    return _refine(exact, betas, rows, objective, config)[0]


def _monte_carlo_column(n_parts: int, e_values: tuple[int, ...], alpha: float,
                        config: SearchConfig) -> list[OptResult | str]:
    """Every row of one N column from one shared-draw pass, seeded with config.seed.

    Row i equals optimal_beta(n_parts, e_values[i], alpha, "monte_carlo",
    config): the pass to the largest E records each smaller E on its way.  A
    refused pass is retried without its largest E, whose row becomes the
    refusal text; a charge comes before any work, so the retry is free.
    """
    refused: list[OptResult | str] = []
    for stop in range(len(e_values), 0, -1):
        try:
            betas = _beta_grid(config)
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
    refines all cells in lockstep to optimal_beta's results.  The Monte Carlo
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
        columns = [_monte_carlo_column(n, e_values, alpha,
                                       replace(config, seed=spawn_seed(config.seed, ci)))
                   for ci, n in enumerate(n_values)]
    elif objective == "closed_form":
        cf = _closed_form([n for n in n_values for _ in e_values], e_values * len(n_values), alpha)
        try:
            betas = _beta_grid(config)
            found = _refine(cf, betas, _grid_rows(cf, n_cells, betas), objective, config)
        except BudgetExceededError as exc:
            found = [str(exc)] * n_cells
        columns = [found[i:i + len(e_values)] for i in range(0, n_cells, len(e_values))]
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
