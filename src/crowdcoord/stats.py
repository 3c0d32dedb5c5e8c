"""Rank tests and corpus-level aggregation.

Mann-Whitney U with exact small-sample enumeration and a tie/continuity
corrected normal approximation, banded p-values, median-split quadrant
summaries, and decile-binned heatmaps.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from typing import NamedTuple, Optional, Sequence

# exact counts are computed up to this product of sample sizes (tie-free only)
EXACT_LIMIT = 400

# the fewest records each corpus summary splits
MIN_QUADRANT_RECORDS = 4
MIN_DECILE_RECORDS = 10

QUADRANT_KEYS = (
    ("low", "low"),
    ("low", "high"),
    ("high", "low"),
    ("high", "high"),
)  # (size_level, team_level)


class UTestResult(NamedTuple):
    u_statistic: float
    p_value: float
    band: str
    method: str


def median(values: Sequence[float]) -> float:
    """``statistics.median``'s arithmetic: the middle value in sorted order, or the mean
    of the two middle values, (a + b) / 2, for an even count."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no median of no values")
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def significance_band(p: float) -> str:
    """Band for a p-value; thresholds 0.001 / 0.01 / 0.05 are strict."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if p < 0.001:
        return "p001"
    if p < 0.01:
        return "p01"
    if p < 0.05:
        return "p05"
    return "ns"


def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def _u_counts(n1: int, n2: int) -> list[int]:
    """counts[u] = tie-free arrangements of n1 + n2 values with first-sample U == u.

    Mann and Whitney's (1947) recursion c(i, j, u) = c(i-1, j, u-j) + c(i, j-1, u),
    filled one i at a time; row[j] holds the counts for (i, j).
    """
    row = [[1] for _ in range(n2 + 1)]  # i = 0: one arrangement, U = 0
    for i in range(1, n1 + 1):
        new = [[1]]  # j = 0
        for j in range(1, n2 + 1):
            counts = [0] * j + row[j]  # c(i-1, j, u-j); length i*j + 1
            for u, c in enumerate(new[j - 1]):
                counts[u] += c
            new.append(counts)
        row = new
    return row[n2]


def _exact_two_sided_p(u_min: float, n1: int, n2: int) -> float:
    u = int(round(u_min))
    total = math.comb(n1 + n2, n1)
    tail = sum(_u_counts(n1, n2)[: u + 1])
    return min(1.0, 2.0 * tail / total)


def _normal_two_sided_p(u_min: float, n1: int, n2: int, combined: Sequence[float]) -> float:
    n = n1 + n2
    tie_term = sum(t**3 - t for t in Counter(combined).values())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return 1.0  # every value tied across both samples
    mean = n1 * n2 / 2.0
    d = u_min - mean
    if d < 0:
        d += 0.5
    elif d > 0:
        d -= 0.5
    z = d / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> UTestResult:
    """Two-sided Mann-Whitney U test; U reported as min(U_a, U_b).

    Exact counts when n_a * n_b <= EXACT_LIMIT and the pooled sample is
    tie-free, otherwise a normal approximation with tie and continuity
    corrections.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    n1, n2 = len(a), len(b)
    combined = a + b
    if any(math.isnan(v) for v in combined):
        raise ValueError("samples must not contain NaN")
    ranks = _average_ranks(combined)
    r1 = sum(ranks[:n1])
    u1 = n1 * n2 + n1 * (n1 + 1) / 2.0 - r1
    u2 = n1 * n2 - u1
    u_min = min(u1, u2)
    if n1 * n2 <= EXACT_LIMIT and len(set(combined)) == len(combined):
        method, p = "exact", _exact_two_sided_p(u_min, n1, n2)
    else:
        method, p = "normal_approx", _normal_two_sided_p(u_min, n1, n2, combined)
    return UTestResult(u_statistic=u_min, p_value=p, band=significance_band(p), method=method)


class QuadrantCell(NamedTuple):
    median_coordination: Optional[float]
    median_per_member: Optional[float]
    count: int


class QuadrantSummary(NamedTuple):
    cells: dict[tuple[str, str], QuadrantCell]
    p_values: dict[tuple[tuple[str, str], tuple[str, str]], UTestResult]
    median_size: float
    median_team: float


def median_split_quadrants(records: Sequence[tuple[float, float, float]]) -> QuadrantSummary:
    """Split (size, team_size, coordination) records at the two medians.

    Values equal to a median go to the high bucket.  Each populated cell
    reports median coordination, median coordination per team member, and
    its count; all pairwise cells are compared with the U test.
    """
    records = list(records)
    if len(records) < MIN_QUADRANT_RECORDS:
        raise ValueError(f"need at least {MIN_QUADRANT_RECORDS} records, got {len(records)}")
    if any(team <= 0 for _, team, _ in records):
        raise ValueError("team_size must be positive")
    med_size = float(median([r[0] for r in records]))
    med_team = float(median([r[1] for r in records]))

    groups: dict[tuple[str, str], list[tuple[float, float]]] = {k: [] for k in QUADRANT_KEYS}
    for size, team, coordination in records:
        key = (
            "low" if size < med_size else "high",
            "low" if team < med_team else "high",
        )
        groups[key].append((coordination, coordination / team))

    cells = {}
    for key in QUADRANT_KEYS:
        members = groups[key]
        cells[key] = QuadrantCell(
            median_coordination=float(median([m[0] for m in members])) if members else None,
            median_per_member=float(median([m[1] for m in members])) if members else None,
            count=len(members),
        )

    p_values = {}
    for i, key_a in enumerate(QUADRANT_KEYS):
        for key_b in QUADRANT_KEYS[i + 1 :]:
            if groups[key_a] and groups[key_b]:
                p_values[(key_a, key_b)] = mann_whitney_u(
                    [m[0] for m in groups[key_a]], [m[0] for m in groups[key_b]]
                )
    return QuadrantSummary(
        cells=cells, p_values=p_values, median_size=med_size, median_team=med_team
    )


class BinnedGrid(NamedTuple):
    values: tuple[tuple[float, ...], ...]  # rows = team decile (0 = lowest), cols = size
    counts: tuple[tuple[int, ...], ...]    # decile; an empty cell's value is NaN
    team_edges: tuple[float, ...]
    size_edges: tuple[float, ...]
    agg: str


def _decile_edges(values: Sequence[float]) -> list[float]:
    # nearest-rank percentiles at 10%, 20%, ..., 90%
    ordered = sorted(values)
    n = len(ordered)
    return [ordered[math.ceil(p / 100.0 * n) - 1] for p in range(10, 100, 10)]


def _pairwise_sum(xs: Sequence[float]) -> float:
    """NumPy's pairwise_sum (loops_utils.h.src), addition for addition: a plain loop below
    8 items, 8 interleaved accumulators up to 128, else halves split at a multiple of 8."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        whole = n - n % 8
        r = []
        for j in range(8):  # accumulator j adds xs[j], xs[j + 8], ... in order
            acc = xs[j]
            for x in xs[j + 8 : whole : 8]:
                acc += x
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[whole:]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def _pairwise_mean(xs: Sequence[float]) -> float:
    """float(np.mean(xs)) bit for bit: add.reduce starts from 0.0, then divides by len."""
    return (0.0 + _pairwise_sum(xs)) / len(xs)


def decile_heatmap(
    records: Sequence[tuple[float, float, float]], agg: str = "mean"
) -> BinnedGrid:
    """10x10 percentile-binned aggregation of log1p(coordination).

    Binning depends only on the order of the axis values, so the grid is
    invariant under strictly monotone transforms of size and team_size.
    """
    records = list(records)
    if len(records) < MIN_DECILE_RECORDS:
        raise ValueError(f"need at least {MIN_DECILE_RECORDS} records, got {len(records)}")
    if agg not in ("mean", "median"):
        raise ValueError(f"agg must be 'mean' or 'median', got {agg!r}")
    size_edges = _decile_edges([r[0] for r in records])
    team_edges = _decile_edges([r[1] for r in records])

    buckets: dict[tuple[int, int], list[float]] = {}
    for size, team, coordination in records:
        key = (bisect_left(team_edges, team), bisect_left(size_edges, size))
        buckets.setdefault(key, []).append(math.log1p(coordination))

    aggregate = _pairwise_mean if agg == "mean" else median
    cells = [[buckets.get((ti, si), ()) for si in range(10)] for ti in range(10)]
    return BinnedGrid(
        values=tuple(tuple(aggregate(m) if m else math.nan for m in row) for row in cells),
        counts=tuple(tuple(map(len, row)) for row in cells),
        team_edges=tuple(team_edges),
        size_edges=tuple(size_edges),
        agg=agg,
    )


def quadrants_to_csv(summary: QuadrantSummary) -> str:
    lines = [
        f"# median_size={summary.median_size:.6f}",
        f"# median_team={summary.median_team:.6f}",
        "size_level,team_level,median_coordination,median_per_member,count",
    ]
    for key in QUADRANT_KEYS:
        cell = summary.cells[key]
        mc = f"{cell.median_coordination:.6f}" if cell.median_coordination is not None else "NA"
        mm = f"{cell.median_per_member:.6f}" if cell.median_per_member is not None else "NA"
        lines.append(f"{key[0]},{key[1]},{mc},{mm},{cell.count}")
    lines.append("# pairwise p-values")
    lines.append("cell_a,cell_b,u,p,band,method")
    for (key_a, key_b), result in summary.p_values.items():
        lines.append(
            f"{key_a[0]}/{key_a[1]},{key_b[0]}/{key_b[1]},"
            f"{result.u_statistic:.6f},{result.p_value:.6f},{result.band},{result.method}"
        )
    return "\n".join(lines) + "\n"


def binned_grid_to_csv(grid: BinnedGrid) -> str:
    lines = [
        f"# agg={grid.agg}",
        "# rows=team_decile columns=size_decile",
        "# size_edges=" + ";".join(f"{e:.6f}" for e in grid.size_edges),
        "# team_edges=" + ";".join(f"{e:.6f}" for e in grid.team_edges),
    ]
    for row in grid.values:
        lines.append(",".join("NA" if math.isnan(v) else f"{v:.6f}" for v in row))
    lines.append("# counts")
    for row in grid.counts:
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"
