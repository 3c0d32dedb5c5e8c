"""Deterministic synthetic corpora with ground-truth sidecars.

Stand-in for the large production datasets the analytics were designed for:
small corpora with known planted structure (crowdedness proportionality or
cohort matches) so recovery can be asserted against the sidecar.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, cycle
from typing import NamedTuple

from .analytics import Event
from .cli import event_to_json
from .constants import STRUCTURES, SYNTH_PROJECTS, utc_timestamp
from .limits import charge
from .record import Record
from .rng import Generator

# one work event every ten minutes keeps timestamps well-ordered
_STEP = 600

# corpus shape: inclusive ranges, and channel events per work event
MIN_ACTORS = 2
MIN_WORK, MAX_WORK = 120, 400
MIN_SIZE, MAX_SIZE = 1_000, 100_000
COMMENT_RATE = 0.2
DISCUSSION_RATE = 0.1
MIN_YEAR, MAX_YEAR = 2003, 2007

# bytes a corpus holds per project until it is written (its plan, metadata and ground
# truth), rounded up from tracemalloc peaks of 480-716 per project over the three
# structures at 1,366 to 174,763 projects (a dict's resize sizes included)
SYNTH_BYTES_PER_PROJECT = 768


class SyntheticSpec(Record):
    """What generate_synthetic draws: checked when it is made.

    The crowded structure plants coordination = crowding_scale * team / final_size; the
    cohort structure's counts are per featured project."""

    __slots__ = ("n_projects", "max_actors", "structure", "crowding_scale", "n_featured",
                 "planted_controls", "noise_candidates")

    def __init__(self, n_projects: int = SYNTH_PROJECTS, max_actors: int = 20,
                 structure: str = "none", crowding_scale: float = 4.0e5, n_featured: int = 0,
                 planted_controls: int = 0, noise_candidates: int = 0):
        for name, value in zip(self.__slots__, (n_projects, max_actors, structure, crowding_scale,
                                                n_featured, planted_controls, noise_candidates)):
            object.__setattr__(self, name, value)
        if self.n_projects < 1:
            raise ValueError("n_projects must be >= 1")
        if self.max_actors < MIN_ACTORS:
            raise ValueError(f"max_actors must be >= {MIN_ACTORS}")
        if self.structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}")
        cohort_counts = {"n_featured": self.n_featured, "planted_controls": self.planted_controls,
                         "noise_candidates": self.noise_candidates}
        for name, count in cohort_counts.items():  # refused, not ignored
            if count < 0:
                raise ValueError(f"{name} must be >= 0, got {count}")
            if count and self.structure != "cohort":
                raise ValueError(f"{name} = {count} needs the cohort structure, "
                                 f"got {self.structure!r}")
        if self.structure == "cohort" and self.n_featured < 1:
            raise ValueError("cohort structure needs n_featured >= 1")


# a timestamp whose text no synthetic id holds: each template is cut where it stands
_MARK = 10**18 - 1


def _templates(pid: str, actors: list[str], channel: str,
               size_delta: int | None = None) -> tuple[list[str], list[str]]:
    """Each actor's text before and after the timestamp of its ``channel`` line in project
    ``pid``, cut from event_to_json's own line, so that head + str(t) + tail is that line,
    '\\n' included, at timestamp t."""
    heads, tails = [], []
    for actor in actors:
        head, tail = event_to_json(Event(pid, actor, _MARK, channel, size_delta)).split(
            str(_MARK))
        heads.append(head)
        tails.append(tail + "\n")
    return heads, tails


def _run(templates: tuple[list[str], list[str]], start: int, n: int, step: int) -> Iterator[str]:
    """The pieces of n lines, the i-th by actor i % len(heads) at timestamp start + i * step:
    joined by C-level iterators, with no Python code per line."""
    heads, tails = templates
    return chain.from_iterable(zip(cycle(heads), map(str, range(start, start + n * step, step)),
                                   cycle(tails)))


class _FlatProject(NamedTuple):
    """The draws that fix one flat or crowded project's events."""

    index: int  # the project is p{index:04d}, its actors u{index:04d}_0, _1, ...
    team: int
    n_discussion: int
    n_work: int
    n_comments: int

    @property
    def n_events(self) -> int:
        return self.n_discussion + self.n_work + self.n_comments + self.team

    def lines(self) -> str:
        """The project's canonical lines. Every actor gets at least one work event and one
        discussion event, so the whole team is engaged: an early coordination block authored
        round-robin (one second apart, from 0), then work every _STEP seconds from 10,000 (its
        first ``team`` events cover every actor, the rest round-robin) and the comments one
        second apart after it; the per-actor engagement edits come 10**6 seconds later, after
        any plausible crowdedness threshold."""
        pid = f"p{self.index:04d}"
        actors = [f"u{self.index:04d}_{i}" for i in range(self.team)]
        discussion = _templates(pid, actors, "discussion")
        comments_start = 10_000 + self.n_work * _STEP
        return "".join(chain(
            _run(discussion, 0, self.n_discussion, 1),
            _run(_templates(pid, actors, "work", 1), 10_000, self.n_work, _STEP),
            _run(_templates(pid, actors, "comment"), comments_start, self.n_comments, 1),
            _run(discussion, comments_start + self.n_comments + 1_000_000, self.team, 1),
        ))


class _CohortArticle(NamedTuple):
    """One cohort article: work in the years before, of and after ``year``, then one edit."""

    pid: str
    year: int
    before: int
    during: int
    after: int

    @property
    def n_events(self) -> int:
        return self.before + self.during + self.after + 1

    def lines(self) -> str:
        """The article's canonical lines: each year's work every _STEP seconds from June 1st,
        then one discussion edit on June 1st two years after ``year``."""
        actors = [f"{self.pid}_a"]
        work = _templates(self.pid, actors, "work", 1)
        return "".join(chain(
            *(_run(work, _year_ts(year), count, _STEP)
              for year, count in ((self.year - 1, self.before), (self.year, self.during),
                                  (self.year + 1, self.after))),
            _run(_templates(self.pid, actors, "discussion"), _year_ts(self.year + 2), 1, 1),
        ))


class CorpusLines(Record):
    """A corpus's canonical event lines, rendered one project at a time from its plans.

    Each pass renders them again and gives each project's lines as one string, so the
    corpus is never held whole; ``len`` adds up the plans' event counts, one line each,
    and renders nothing."""

    __slots__ = ("plans",)

    def __init__(self, plans: tuple[_FlatProject | _CohortArticle, ...]):
        object.__setattr__(self, "plans", plans)

    def __iter__(self) -> Iterator[str]:
        for plan in self.plans:
            yield plan.lines()

    def __len__(self) -> int:
        return sum(plan.n_events for plan in self.plans)


class SyntheticCorpus(NamedTuple):
    events: CorpusLines
    metadata: dict[str, dict]
    ground_truth: dict


def _year_ts(year: int) -> int:
    """00:00 UTC on June 1st of year."""
    return utc_timestamp(year, 6, 1)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> SyntheticCorpus:
    """The corpus of ``spec``, charged SYNTH_BYTES_PER_PROJECT per project before any draw,
    and a state-step per event once its plans are drawn, before any line is written."""
    cohort = spec.structure == "cohort"
    n_projects = (spec.n_featured * (1 + spec.planted_controls + spec.noise_candidates)
                  if cohort else spec.n_projects)
    what = f"a synthetic corpus of {n_projects} projects"
    charge(what, 0, n_projects * SYNTH_BYTES_PER_PROJECT)
    corpus = (_generate_cohort if cohort else _generate_flat)(spec, seed)
    charge(f"{what}, written one state-step per event,", len(corpus.events), 0)
    return corpus


def _generate_flat(spec: SyntheticSpec, seed: int) -> SyntheticCorpus:
    """Flat or crowdedness-planted corpus."""
    rng = Generator(seed)
    plans: list[_FlatProject] = []
    metadata: dict[str, dict] = {}
    truth: dict[str, dict] = {}
    for j in range(spec.n_projects):
        pid = f"p{j:04d}"
        if spec.structure == "crowded":
            # stratify both axes over decile bands so every grid cell is populated
            t_band, s_band = j % 10, (j // 10) % 10
            team = MIN_ACTORS + int(
                (spec.max_actors - MIN_ACTORS + 1) * (t_band + rng.random()) / 10.0
            )
            size = MIN_SIZE + int((MAX_SIZE - MIN_SIZE + 1) * (s_band + rng.random()) / 10.0)
            team = min(team, spec.max_actors)
            size = min(size, MAX_SIZE)
        else:
            team = rng.integers(MIN_ACTORS, spec.max_actors + 1)
            size = rng.integers(MIN_SIZE, MAX_SIZE + 1)
        n_work = rng.integers(MIN_WORK, MAX_WORK + 1)
        n_work = max(n_work, team)
        if spec.structure == "crowded":
            n_discussion = max(0, round(spec.crowding_scale * team / size))
        else:
            n_discussion = rng.poisson(DISCUSSION_RATE * n_work)
        n_comments = rng.poisson(COMMENT_RATE * n_work)
        plans.append(_FlatProject(j, team, n_discussion, n_work, n_comments))
        metadata[pid] = {"final_size": size}
        truth[pid] = {
            "team": team,
            "size": size,
            "discussion": n_discussion,
            "work": n_work,
            "comments": n_comments,
        }
    ground_truth = {"structure": spec.structure, "seed": seed, "projects": truth}
    if spec.structure == "crowded":
        ground_truth["crowding_scale"] = spec.crowding_scale
    return SyntheticCorpus(events=CorpusLines(tuple(plans)), metadata=metadata,
                           ground_truth=ground_truth)


def _generate_cohort(spec: SyntheticSpec, seed: int) -> SyntheticCorpus:
    """Featured projects plus planted eligible controls and off-by-far noise."""
    rng = Generator(seed)
    plans: list[_CohortArticle] = []
    metadata: dict[str, dict] = {}
    planted: dict[str, list[str]] = {}
    serial = 0
    for f in range(spec.n_featured):
        fid = f"f{f:04d}"
        year = rng.integers(MIN_YEAR, MAX_YEAR + 1)
        before = rng.integers(100, 400)
        during = rng.integers(5, 40)
        after = rng.integers(100, 400)
        plans.append(_CohortArticle(fid, year, before, during, after))
        metadata[fid] = {"featured_year": year, "final_size": before + during + after}
        planted[fid] = []
        for _c in range(spec.planted_controls):
            cid = f"n{serial:05d}"
            serial += 1
            # within tolerance, and strictly more prior work than the featured
            c_before = before + 1 + rng.integers(0, max(1, int(before * 0.03)))
            c_after = after + rng.integers(-int(after * 0.03), int(after * 0.03) + 1)
            plans.append(_CohortArticle(cid, year, c_before, during, c_after))
            metadata[cid] = {"final_size": c_before + during + c_after}
            planted[fid].append(cid)
        for _c in range(spec.noise_candidates):
            cid = f"n{serial:05d}"
            serial += 1
            plans.append(_CohortArticle(cid, year, before * 2 + 50, during, after * 2 + 50))
            metadata[cid] = {"final_size": 3 * (before + after)}
    ground_truth = {
        "structure": "cohort",
        "seed": seed,
        "planted_controls": planted,
    }
    return SyntheticCorpus(events=CorpusLines(tuple(plans)), metadata=metadata,
                           ground_truth=ground_truth)
