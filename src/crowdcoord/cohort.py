"""Matched featured/control cohorts with comparable edit volumes.

For a project featured in year y, candidate controls must have work-event
counts before and after y within a relative tolerance of the featured
project's, optionally with strictly more prior work.  Controls are sampled
without replacement across the whole cohort so lists stay pairwise disjoint.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Mapping, NamedTuple, Sequence

from .analytics import ProjectLog
from .constants import utc_timestamp
from .errors import IneligibleProjectError
from .rng import Generator, spawn_seed


class EpochCounts(NamedTuple):
    before: int
    during: int
    after: int


class Cohort(NamedTuple):
    featured: tuple[str, ...]
    controls_by_featured: dict[str, tuple[str, ...]]
    control_union: tuple[str, ...]
    k: int
    tolerance: float
    require_fewer_prior: bool


def edit_epoch_counts(project: ProjectLog, year: int) -> EpochCounts:
    """Work events strictly before, within, and after the given UTC calendar year."""
    work = project.by_channel["work"].timestamps
    before = bisect_left(work, utc_timestamp(year, 1, 1))
    not_after = bisect_left(work, utc_timestamp(year + 1, 1, 1), lo=before)
    return EpochCounts(before=before, during=not_after - before, after=len(work) - not_after)


def control_eligible(
    featured_counts: EpochCounts,
    candidate_counts: EpochCounts,
    tolerance: float,
    require_fewer_prior: bool,
) -> bool:
    """Whether a candidate matches; featured before and after counts must be nonzero."""
    fb, fa = featured_counts.before, featured_counts.after
    if abs(fb - candidate_counts.before) / fb >= tolerance:
        return False
    if abs(fa - candidate_counts.after) / fa >= tolerance:
        return False
    if require_fewer_prior and not fb < candidate_counts.before:
        return False
    return True


def check_cohort_args(k: int, tolerance: float, seed: int) -> None:
    """Raise ValueError unless k >= 1, the tolerance is finite and > 0 and the seed >= 0."""
    if seed < 0:  # the line a seed's hash gives, but before any corpus is read
        raise ValueError("expected non-negative integer")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def matched_controls(
    featured: ProjectLog,
    featured_year: int,
    pool: Sequence[ProjectLog],
    k: int,
    tolerance: float = 0.05,
    require_fewer_prior: bool = True,
    seed: int = 0,
) -> list[str]:
    """Up to k uniformly sampled eligible controls for one featured project.

    Sampling takes a prefix of a seeded permutation of the eligible ids, so
    results for smaller k are nested within those for larger k.
    """
    check_cohort_args(k, tolerance, seed)
    fc = edit_epoch_counts(featured, featured_year)
    if fc.before == 0 or fc.after == 0:
        raise IneligibleProjectError(
            f"featured project {featured.project_id} has zero work events "
            f"before or after {featured_year}"
        )
    eligible = [
        p.project_id
        for p in pool
        if control_eligible(fc, edit_epoch_counts(p, featured_year), tolerance, require_fewer_prior)
    ]
    order = Generator(seed).permutation(len(eligible))
    return [eligible[i] for i in order[:k]]


def build_cohorts(
    corpus: Mapping[str, ProjectLog],
    featured_labels: Mapping[str, int],
    k: int = 30,
    tolerance: float = 0.05,
    require_fewer_prior: bool = True,
    seed: int = 0,
) -> Cohort:
    """Allocate disjoint control lists for every featured project.

    Featured projects are visited in ascending id order; each takes up to k
    controls from the not-yet-used eligible pool.  Featured projects that are
    ineligible or find no eligible control are dropped.
    """
    unknown = sorted(set(featured_labels) - set(corpus))
    if unknown:
        raise ValueError(f"featured labels reference unknown projects: {unknown}")
    pool_ids = sorted(pid for pid in corpus if pid not in featured_labels)

    featured_out: list[str] = []
    controls: dict[str, tuple[str, ...]] = {}
    union: list[str] = []
    used: set[str] = set()
    for idx, fid in enumerate(sorted(featured_labels)):
        available = [corpus[pid] for pid in pool_ids if pid not in used]
        try:
            chosen = matched_controls(
                corpus[fid], featured_labels[fid], available, k, tolerance,
                require_fewer_prior, spawn_seed(seed, idx),
            )
        except IneligibleProjectError:
            continue
        if not chosen:
            continue
        featured_out.append(fid)
        controls[fid] = tuple(chosen)
        union.extend(chosen)
        used.update(chosen)
    return Cohort(
        featured=tuple(featured_out),
        controls_by_featured=controls,
        control_union=tuple(union),
        k=k,
        tolerance=tolerance,
        require_fewer_prior=require_fewer_prior,
    )


def cohort_to_csv(cohort: Cohort) -> str:
    lines = [
        f"# featured={len(cohort.featured)} controls={len(cohort.control_union)} "
        f"k={cohort.k} tolerance={cohort.tolerance} "
        f"require_fewer_prior={cohort.require_fewer_prior}",
        "featured_id,control_ids",
    ]
    for fid in cohort.featured:
        lines.append(f"{fid}," + ";".join(cohort.controls_by_featured[fid]))
    return "\n".join(lines) + "\n"
