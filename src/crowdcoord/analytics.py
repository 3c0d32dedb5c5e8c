"""Per-project metrics over collaboration logs.

Covers the contributor core (the smallest set of actors accounting for an x
fraction of the work), the share of coordination traffic attributable to
that core, and crowdedness profiles taken at a fixed early cut of the
project's history.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate, compress, islice
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .constants import CHANNELS, COORDINATION_CHANNELS
from .errors import IneligibleProjectError
from .record import Record


class Event(NamedTuple):
    """One log record; ``cli.parse_event_line`` validates records read from files."""

    project_id: str
    actor_id: str
    timestamp: int
    channel: str
    size_delta: Optional[int] = None


class Channel(Record):
    """One channel of a project log as columns, in time order (stable on ties)."""

    __slots__ = ("timestamps", "actors")

    def __init__(self, timestamps: tuple[int, ...], actors: tuple[str, ...]):
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "actors", actors)

    def __len__(self) -> int:
        return len(self.timestamps)


def time_ordered(timestamps: list[int], actors: list[str]) -> tuple[tuple, tuple]:
    """Columns given in input order as tuples, stably sorted by timestamp."""
    columns = (timestamps, actors)
    if timestamps != sorted(timestamps):  # time-ordered input needs no permutation
        order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
        columns = tuple(map(column.__getitem__, order) for column in columns)
    return tuple(map(tuple, columns))


def channel_columns() -> dict[str, tuple[list, list]]:
    """Empty input-order columns for ``ProjectLog.from_columns``, one pair per channel."""
    return {ch: ([], []) for ch in CHANNELS}


class ProjectLog(NamedTuple):
    """One project's events split by channel, each channel held as time-ordered columns."""

    project_id: str
    by_channel: Mapping[str, Channel]
    final_size: Optional[int] = None

    @classmethod
    def from_columns(
        cls,
        project_id: str,
        columns: Mapping[str, tuple[list, list]],
        final_size: Optional[int] = None,
    ) -> "ProjectLog":
        """Build from ``channel_columns()`` filled in input order: for each event, its
        channel's timestamps and actors get one entry."""
        by_channel = {ch: Channel(*time_ordered(*columns[ch])) for ch in CHANNELS}
        return cls(project_id, by_channel, final_size)

    @classmethod
    def from_events(
        cls,
        project_id: str,
        events: Iterable[Event],
        final_size: Optional[int] = None,
    ) -> "ProjectLog":
        """Build from events in input order; each event's ``size_delta`` is not kept."""
        columns = channel_columns()
        for e in events:
            timestamps, actors = columns[e.channel]
            timestamps.append(e.timestamp)
            actors.append(e.actor_id)
        return cls.from_columns(project_id, columns, final_size)

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event in time order, rebuilt from the channels with ``size_delta=None``,
        since the log keeps none; ties go by channel in ``CHANNELS`` order, then by input
        order."""
        return tuple(sorted(
            (Event(self.project_id, actor, ts, ch)
             for ch in CHANNELS for channel in [self.by_channel[ch]]
             for ts, actor in zip(channel.timestamps, channel.actors)),
            key=attrgetter("timestamp"),
        ))

    def work_counts(self) -> dict[str, int]:
        return dict(Counter(self.by_channel["work"].actors))


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
    order, (size,) = _core_sizes(work_counts, [x])
    return set(order[:size])


def _core_sizes(work_counts: Mapping[str, int],
                xs: Iterable[float]) -> tuple[list[str], list[int]]:
    """The actors in ``x_core``'s order, and for each x in ascending order the length of
    the shortest prefix of them whose cumulative count reaches x * total: its x-core."""
    order = sorted(work_counts, key=lambda a: (-work_counts[a], a))
    total = sum(work_counts.values())
    sizes = []
    size = cum = 0
    for x in xs:
        target = x * total  # > 0, so the first core is not empty; <= total, as x <= 1
        while cum < target:
            cum += work_counts[order[size]]
            size += 1
        sizes.append(size)
    return order, sizes


class CoreCurve(NamedTuple):
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
    that both shares reach 1 at x = 1 by construction.  Each channel's events
    are counted per actor once; a core's count adds up its actors' counts.
    """
    xs = core_xs(xs)
    counts = project.work_counts()
    if not counts:
        raise IneligibleProjectError(f"project {project.project_id} has no work events")
    order, sizes = _core_sizes(counts, xs)

    def shares(channel: str) -> tuple[Optional[float], ...]:
        by_actor = Counter(filter(counts.__contains__, project.by_channel[channel].actors))
        total = by_actor.total()
        in_prefix = list(accumulate(map(by_actor.__getitem__, order)))  # of 1, 2, ... actors
        return tuple(in_prefix[size - 1] / total if total else None for size in sizes)

    return CoreCurve(
        xs=xs,
        core_size=tuple(sizes),
        core_fraction=tuple(size / len(counts) for size in sizes),
        d_share=shares("discussion"),
        c_share=shares("comment"),
    )


class CrowdednessProfile(NamedTuple):
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
    engaged = set(work.actors).intersection(coordination.actors)
    if not engaged:
        raise IneligibleProjectError(f"project {project.project_id} has no engaged users")
    by_engaged = list(map(engaged.__contains__, work.actors))
    engaged_times = list(compress(work.timestamps, by_engaged))
    if len(engaged_times) < k:
        raise IneligibleProjectError(
            f"project {project.project_id} has {len(engaged_times)} work events "
            f"by engaged users, need {k}"
        )
    threshold = engaged_times[k - 1]
    return CrowdednessProfile(
        engaged_users=frozenset(engaged),
        threshold_time=threshold,
        early_team=frozenset(islice(compress(work.actors, by_engaged), k)),
        early_coordination=bisect_left(coordination.timestamps, threshold),
        output_size=project.final_size,
    )
