"""Per-project metrics over collaboration logs.

Covers the contributor core (the smallest set of actors accounting for an x
fraction of the work), the share of coordination traffic attributable to
that core, and crowdedness profiles taken at a fixed early cut of the
project's history.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import IneligibleProjectError

CHANNELS = ("work", "discussion", "comment")
COORDINATION_CHANNELS = ("discussion", "comment")


class Event(NamedTuple):
    """One log record; ``cli.parse_event_line`` validates records read from files."""

    project_id: str
    actor_id: str
    timestamp: int
    channel: str
    size_delta: Optional[int] = None


_timestamp = attrgetter("timestamp")


@dataclass(frozen=True)
class ProjectLog:
    """One project's events in time order, also split by channel; built by ``from_events``."""

    project_id: str
    events: tuple[Event, ...]
    final_size: Optional[int] = None
    by_channel: Mapping[str, tuple[Event, ...]] = field(kw_only=True, compare=False, repr=False)

    @classmethod
    def from_events(
        cls,
        project_id: str,
        events: Iterable[Event],
        final_size: Optional[int] = None,
    ) -> "ProjectLog":
        # stable sort keeps input order on timestamp ties, in events and in each channel
        ordered = tuple(sorted(events, key=_timestamp))
        by_channel = {ch: tuple([e for e in ordered if e.channel == ch]) for ch in CHANNELS}
        return cls(project_id, ordered, final_size, by_channel=by_channel)

    def work_counts(self) -> dict[str, int]:
        return dict(Counter(e.actor_id for e in self.by_channel["work"]))


def x_core(work_counts: Mapping[str, int], x: float) -> set[str]:
    """Smallest actor set accounting for an x fraction of the work.

    Actors are ordered by count descending, ties by id ascending; the
    shortest prefix whose cumulative count reaches x * total is returned,
    which makes the result deterministic.
    """
    if not work_counts:
        raise ValueError("work_counts is empty")
    if any(c <= 0 for c in work_counts.values()):
        raise ValueError("work counts must be positive")
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must be in (0, 1], got {x}")
    order = sorted(work_counts, key=lambda a: (-work_counts[a], a))
    target = x * sum(work_counts.values())
    core: set[str] = set()
    cum = 0
    for actor in order:
        core.add(actor)
        cum += work_counts[actor]
        if cum >= target:
            break
    return core


@dataclass(frozen=True)
class CoreCurve:
    xs: tuple[float, ...]
    core_size: tuple[int, ...]
    core_fraction: tuple[float, ...]
    d_share: tuple[Optional[float], ...]  # None when the project has no discussion
    c_share: tuple[Optional[float], ...]  # None when the project has no comments


def core_xs(xs: Sequence[float]) -> tuple[float, ...]:
    """The x values of a core curve as floats; ValueError unless strictly ascending in (0, 1]."""
    xs = tuple(float(x) for x in xs)
    if list(xs) != sorted(set(xs)):
        raise ValueError("xs must be strictly ascending")
    for x in xs:
        if not 0.0 < x <= 1.0:
            raise ValueError(f"x must be in (0, 1], got {x}")
    return xs


def core_curve(project: ProjectLog, xs: Sequence[float]) -> CoreCurve:
    """Core size fraction plus discussion/comment shares of the core, per x.

    Shares are taken over channel events authored by work participants, so
    that both shares reach 1 at x = 1 by construction.
    """
    xs = core_xs(xs)
    counts = project.work_counts()
    if not counts:
        raise IneligibleProjectError(f"project {project.project_id} has no work events")
    discussion = [e for e in project.by_channel["discussion"] if e.actor_id in counts]
    comments = [e for e in project.by_channel["comment"] if e.actor_id in counts]

    sizes, fractions, d_shares, c_shares = [], [], [], []
    for x in xs:
        core = x_core(counts, x)
        sizes.append(len(core))
        fractions.append(len(core) / len(counts))
        d_shares.append(
            sum(e.actor_id in core for e in discussion) / len(discussion) if discussion else None
        )
        c_shares.append(
            sum(e.actor_id in core for e in comments) / len(comments) if comments else None
        )
    return CoreCurve(
        xs=xs,
        core_size=tuple(sizes),
        core_fraction=tuple(fractions),
        d_share=tuple(d_shares),
        c_share=tuple(c_shares),
    )


@dataclass(frozen=True)
class CrowdednessProfile:
    engaged_users: frozenset[str]
    threshold_time: int
    early_team: frozenset[str]
    early_coordination: int
    output_size: Optional[int]


def check_profile_args(k: int, coordination_channel: str) -> None:
    """Raise ValueError unless k >= 1 and the channel is a coordination channel."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if coordination_channel not in COORDINATION_CHANNELS:
        raise ValueError(
            f"coordination_channel must be one of {COORDINATION_CHANNELS}, "
            f"got {coordination_channel!r}"
        )


def crowdedness_profile(
    project: ProjectLog,
    k: int = 100,
    coordination_channel: str = "discussion",
) -> CrowdednessProfile:
    """Measurements at the time of the k-th work event by engaged users.

    Engaged users have at least one work event and one event on the
    coordination channel.  The threshold time is when their k-th work event
    lands; the early team is whoever contributed one of those first k;
    early coordination counts coordination events strictly before the
    threshold, by anyone.
    """
    check_profile_args(k, coordination_channel)
    work = project.by_channel["work"]
    coordination = project.by_channel[coordination_channel]
    engaged = {e.actor_id for e in work} & {e.actor_id for e in coordination}
    if not engaged:
        raise IneligibleProjectError(f"project {project.project_id} has no engaged users")
    engaged_work = [e for e in work if e.actor_id in engaged]
    if len(engaged_work) < k:
        raise IneligibleProjectError(
            f"project {project.project_id} has {len(engaged_work)} work events "
            f"by engaged users, need {k}"
        )
    threshold = engaged_work[k - 1].timestamp
    return CrowdednessProfile(
        engaged_users=frozenset(engaged),
        threshold_time=threshold,
        early_team=frozenset(e.actor_id for e in engaged_work[:k]),
        early_coordination=bisect_left(coordination, threshold, key=_timestamp),
        output_size=project.final_size,
    )

