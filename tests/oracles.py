"""Independent brute-force oracles used to freeze expected values.

These deliberately take different computational paths than the library:
loop-built dense kernels instead of the banded one, state-set enumeration
instead of transition matrices, subset search instead
of greedy prefixes, permutation enumeration instead of count recursions,
step-by-step iteration of coefficients read off the process instead of the
closed form, one scalar run at a time instead of vectorized Monte Carlo, the kernel
moved over all N + 1 counts instead of the live ones, float hits instead of integer
rooms in the Monte Carlo pass, one sequential scan instead of whole-array tie checks
on the beta grid, one calendar date per event
instead of comparisons against year boundaries, ``datetime`` instead of
day counting for June 1st, one rescan of the coordination events per core
instead of per-actor counts, channel filters over the
whole time-ordered log instead of its per-channel split, one sort and filter
over ``Event``s instead of channel columns, ``json.dumps`` over a record
dict instead of formatting the event line directly, and one ``Event`` per
synthetic event instead of lines rendered from per-actor templates.
"""

import json
import math
from collections import defaultdict
from datetime import datetime, timezone
from itertools import combinations
from math import comb

import numpy as np

from crowdcoord.analytics import (
    CHANNELS,
    COORDINATION_CHANNELS,
    CoreCurve,
    CrowdednessProfile,
    Event,
    core_xs,
    x_core,
)
from crowdcoord.cohort import EpochCounts
from crowdcoord.errors import IneligibleProjectError
from crowdcoord.model import SimResult
from crowdcoord.solver import A1_EPS, A1_STABLE, TIE_TOL
from crowdcoord.synth import _STEP, _CohortArticle


def one_pick_matrix(n_parts, alpha):
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


def noncoord_matrix(n_parts, alpha):
    """Two sequential picks; the second observes the state left by the first."""
    m = one_pick_matrix(n_parts, alpha)
    return m @ m


def dense_kernel(n_parts, alpha, beta):
    """Per-user kernel: a coordinator moves c -> min(c+1, n), else two picks."""
    n = n_parts
    coord = np.zeros((n + 1, n + 1))
    for c in range(n + 1):
        coord[c, min(c + 1, n)] = 1.0
    return beta * coord + (1.0 - beta) * noncoord_matrix(n, alpha)


def dense_expectation(n_parts, n_users, alpha, beta):
    """Expected finished parts by propagating the dense kernel one user at a time."""
    kernel = dense_kernel(n_parts, alpha, beta)
    mass = np.zeros(n_parts + 1)
    mass[0] = 1.0
    for _ in range(n_users):
        mass = mass @ kernel
    return float(np.dot(np.arange(n_parts + 1), mass))


def full_width_step(mass, alpha, beta):
    """A (B, N + 1) block of mass over every count after one user, in fresh arrays.

    The pentadiagonal kernel in shifted vector operations, in the same order of
    floating-point operations as the library's, so the two agree bit for bit.
    ``beta`` is a float or a (B, 1) column.
    """
    n = mass.shape[1] - 1
    counts = np.arange(n + 1, dtype=float)
    up, stay, down = (n - counts[:-1]) / n, (counts / n) * (1.0 - alpha), (counts[1:] / n) * alpha

    def pick(mass):
        out = mass * stay
        out[:, 1:] += mass[:, :-1] * up
        out[:, :-1] += mass[:, 1:] * down
        return out

    out = pick(pick(mass))
    out *= 1.0 - beta
    out[:, 1:] += beta * mass[:, :-1]
    out[:, -1:] += beta * mass[:, -1:]  # the coordinator's no-op at c == n
    return out


def full_width_expectations(n_parts, n_users, alpha, betas):
    """Expected finished parts per beta, moving one (B, N + 1) block over every count."""
    beta = np.asarray(betas, dtype=float)[:, None]
    mass = np.zeros((len(beta), n_parts + 1))
    mass[:, 0] = 1.0
    for _ in range(n_users):
        mass = full_width_step(mass, alpha, beta)
    return (mass * np.arange(n_parts + 1)).sum(axis=1)


def float_hit_monte_carlo_means(n_parts, e_values, alpha, betas, runs, seed, dtype):
    """monte_carlo_means in one block, each pick testing its float hit: hit * n < n - c.

    ``dtype`` is the counts' integer type, on which the bits of the means depend.
    """
    n = n_parts
    betas = np.asarray(betas, dtype=float)
    rng = np.random.default_rng(seed)
    counts = np.zeros((len(betas), runs), dtype=dtype)
    means, std_errors = [], []
    for e in range(1, max(e_values) + 1):
        u = rng.random((runs, 5))
        c = counts
        for hit, clash in ((u[:, 1] * n, u[:, 2] < alpha), (u[:, 3] * n, u[:, 4] < alpha)):
            empty = hit < n - c
            c = c + empty - (clash > empty)
        counts = np.where(u[:, 0] < betas[:, None], counts + (counts < n), c).astype(dtype)
        if e in e_values:
            means.append([row.mean() for row in counts])
            std_errors.append([row.std(ddof=1) / math.sqrt(runs) if runs > 1 else 0.0
                               for row in counts])
    return np.array(means), np.array(std_errors)


def scan_grid_best(values):
    """Index and value of the best grid value by one sequential scan, the beta grid's rule:
    a value replaces the incumbent only if it beats it by more than TIE_TOL."""
    best_i = 0
    for i, v in enumerate(values):
        if v > values[best_i] + TIE_TOL:
            best_i = i
    return best_i, values[best_i]


def recurrence_coeffs(n_parts, alpha, beta):
    """Multiplier A and constant P0 of the deterministic recurrence P_{i+1} = A P_i + P0,
    read off the process: a coordinator finishes one part, and each of a non-coordinator's
    two picks takes P to P + (n - P) / n - alpha * P / n = P * (1 - (1 + alpha) / n) + 1."""
    shrink = 1.0 - (1.0 + alpha) / n_parts
    return beta + (1.0 - beta) * shrink**2, beta + (1.0 - beta) * (shrink + 1.0)


def iterate_recurrence(n_parts, n_users, alpha, beta):
    """Iterative evaluation of the recurrence P_{i+1} = A P_i + P0 from P_0 = 0."""
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    a, p0 = recurrence_coeffs(n_parts, alpha, beta)
    p = 0.0
    for _ in range(n_users):
        p = a * p + p0
    return p


def scalar_closed_form(n_parts, n_users, alpha, beta):
    """The closed form at one point in Python floats, each branch of the geometric sum by hand."""
    w = (1.0 - beta) * (1.0 + alpha)
    a = w * (1.0 + alpha) / n_parts**2 - 2.0 * w / n_parts + 1.0
    p0 = -w / n_parts + 2.0 - beta
    d = a - 1.0
    if abs(d) <= A1_EPS:
        return n_users * p0
    if abs(d) < A1_STABLE:
        return p0 * math.expm1(n_users * math.log1p(d)) / d
    return p0 * (a**n_users - 1.0) / d


def golden_section_max(f, lo, hi, tol):
    """Golden-section search for the maximum of f on [lo, hi], one bracket, scalar floats."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    x = (lo + hi) / 2.0
    return x, f(x)


def simulate(params, seed):
    """One full stochastic run of the process, drawing one uniform per decision."""
    rng = np.random.default_rng(seed)
    n = params.n_parts
    c = 0
    for _ in range(params.n_users):
        if rng.random() < params.beta:
            c = min(c + 1, n)
            continue
        for _pick in range(2):
            if rng.random() * n < n - c:
                c += 1
            elif rng.random() < params.alpha:
                c -= 1
    return c


def block_simulate(params, runs, seed):
    """monte_carlo one scalar run at a time, reading the same (runs, 5) block per user.

    Run i takes row i: column 0 decides coordination, columns 1-2 are the
    first pick (hit, clash) and columns 3-4 the second.
    """
    rng = np.random.default_rng(seed)
    n = params.n_parts
    counts = np.zeros(runs, dtype=np.int64)
    for _ in range(params.n_users):
        block = rng.random((runs, 5))
        for i in range(runs):
            c = int(counts[i])
            if block[i, 0] < params.beta:
                c = min(c + 1, n)
            else:
                for hit, clash in (block[i, 1:3], block[i, 3:5]):
                    if hit * n < n - c:
                        c += 1
                    elif clash < params.alpha:
                        c -= 1
            counts[i] = c
    std_error = float(counts.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    return SimResult(float(counts.mean()), std_error, runs, seed)


def two_pick_outcome_dist(c, n, alpha):
    """Net-change distribution of one non-coordinating user.

    Enumerates actual part indices for both picks (uniform over all n parts,
    with replacement; the second pick sees the state left by the first) and
    clash outcomes on finished parts.
    """

    def apply_pick(state, part):
        if part not in state:
            yield frozenset(state | {part}), 1.0
        else:
            if alpha < 1.0:
                yield state, 1.0 - alpha
            if alpha > 0.0:
                yield frozenset(state - {part}), alpha

    out = defaultdict(float)
    init = frozenset(range(c))
    for i in range(n):
        for s1, p1 in apply_pick(init, i):
            for j in range(n):
                for s2, p2 in apply_pick(s1, j):
                    out[len(s2) - c] += p1 * p2 / n**2
    return dict(out)


def brute_force_x_core(work_counts, x):
    """Minimal covering set; among equal cardinality, the first subset in the
    deterministic order (count descending, id ascending)."""
    actors = sorted(work_counts, key=lambda a: (-work_counts[a], a))
    target = x * sum(work_counts.values())
    for size in range(1, len(actors) + 1):
        for combo in combinations(range(len(actors)), size):
            if sum(work_counts[actors[i]] for i in combo) >= target:
                return {actors[i] for i in combo}
    return set(actors)


def rescan_core_curve(project, xs):
    """core_curve with each x's core from x_core, and each share by scanning every
    discussion or comment event of a work participant for a member of that core."""
    xs = core_xs(xs)
    counts = project.work_counts()
    if not counts:
        raise IneligibleProjectError(f"project {project.project_id} has no work events")
    cores = [x_core(counts, x) for x in xs]

    def shares(channel):
        actors = [a for a in project.by_channel[channel].actors if a in counts]
        return tuple(sum(a in core for a in actors) / len(actors) if actors else None
                     for core in cores)

    return CoreCurve(
        xs=xs,
        core_size=tuple(len(core) for core in cores),
        core_fraction=tuple(len(core) / len(counts) for core in cores),
        d_share=shares("discussion"),
        c_share=shares("comment"),
    )


def _u_min(sample_a, sample_b):
    u1 = sum(1 for x in sample_a for y in sample_b if x > y)
    return min(u1, len(sample_a) * len(sample_b) - u1)


def enumerate_mwu_p(sample_a, sample_b):
    """Exact two-sided p by enumerating all label assignments (tie-free)."""
    n1, n2 = len(sample_a), len(sample_b)
    pooled = sorted(sample_a + sample_b)
    assert len(set(pooled)) == len(pooled), "oracle requires tie-free samples"
    observed = _u_min(sample_a, sample_b)
    hits = 0
    for combo in combinations(range(n1 + n2), n1):
        chosen = set(combo)
        xa = [pooled[i] for i in combo]
        xb = [pooled[i] for i in range(n1 + n2) if i not in chosen]
        u1 = sum(1 for x in xa for y in xb if x > y)
        if u1 <= observed:
            hits += 1
    return min(1.0, 2.0 * hits / comb(n1 + n2, n1))


def datetime_epoch_counts(project, year):
    """Work events before, within and after a UTC calendar year, dating each event."""
    before = during = after = 0
    for event in project.events:
        if event.channel != "work":
            continue
        y = datetime.fromtimestamp(event.timestamp, tz=timezone.utc).year
        if y < year:
            before += 1
        elif y == year:
            during += 1
        else:
            after += 1
    return EpochCounts(before=before, during=during, after=after)


def scan_crowdedness_profile(project, k=100, coordination_channel="discussion"):
    """Crowdedness profile from four channel-filtering passes over ``project.events``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if coordination_channel not in COORDINATION_CHANNELS:
        raise ValueError(f"unknown coordination channel {coordination_channel!r}")
    workers = {e.actor_id for e in project.events if e.channel == "work"}
    coordinators = {e.actor_id for e in project.events if e.channel == coordination_channel}
    engaged = workers & coordinators
    if not engaged:
        raise IneligibleProjectError(f"project {project.project_id} has no engaged users")
    engaged_work = [
        e for e in project.events if e.channel == "work" and e.actor_id in engaged
    ]
    if len(engaged_work) < k:
        raise IneligibleProjectError(f"project {project.project_id} has too few work events")
    threshold = engaged_work[k - 1].timestamp
    early_coordination = sum(
        e.timestamp < threshold for e in project.events if e.channel == coordination_channel
    )
    return CrowdednessProfile(
        engaged_users=frozenset(engaged),
        threshold_time=threshold,
        early_team=frozenset(e.actor_id for e in engaged_work[:k]),
        early_coordination=early_coordination,
        output_size=project.final_size,
    )


def json_event_line(event):
    """The event's line as ``json.dumps`` writes its record dict, keys in field order."""
    record = {
        "project_id": event.project_id,
        "actor_id": event.actor_id,
        "timestamp": event.timestamp,
        "channel": event.channel,
    }
    if event.size_delta is not None:
        record["size_delta"] = event.size_delta
    return json.dumps(record, separators=(",", ":"))


def event_path_log(events):
    """A project's events in time order and split by channel, as ``Event`` tuples with
    ``size_delta=None``, which a log does not keep: one stable sort by (timestamp, index
    in CHANNELS), so ties go by channel and then keep input order, then one filter per
    channel."""
    events = [e._replace(size_delta=None) for e in events]
    ordered = tuple(sorted(events, key=lambda e: (e.timestamp, CHANNELS.index(e.channel))))
    return ordered, {ch: tuple(e for e in ordered if e.channel == ch) for ch in CHANNELS}


def _flat_project_events(plan):
    pid, team = f"p{plan.index:04d}", plan.team
    actors = [f"u{plan.index:04d}_{i}" for i in range(team)]
    ts = 0
    for i in range(plan.n_discussion):
        yield Event(pid, actors[i % team], ts, "discussion")
        ts += 1
    ts = 10_000
    for i in range(plan.n_work):
        yield Event(pid, actors[i % team], ts, "work", size_delta=1)
        ts += _STEP
    for i in range(plan.n_comments):
        yield Event(pid, actors[i % team], ts, "comment")
        ts += 1
    ts += 1_000_000
    for actor in actors:
        yield Event(pid, actor, ts, "discussion")
        ts += 1


def june_first(year):
    """00:00 UTC on June 1st of year, in seconds since the epoch."""
    return int(datetime(year, 6, 1, tzinfo=timezone.utc).timestamp())


def _cohort_article_events(plan):
    pid, actor = plan.pid, f"{plan.pid}_a"
    for year, count in ((plan.year - 1, plan.before), (plan.year, plan.during),
                        (plan.year + 1, plan.after)):
        start = june_first(year)
        for i in range(count):
            yield Event(pid, actor, start + i * _STEP, "work", size_delta=1)
    yield Event(pid, actor, june_first(plan.year + 2), "discussion")


def synthetic_events(corpus):
    """A synthetic corpus's events, one ``Event`` at a time from its plans in order, as the
    plans' docstrings describe them."""
    for plan in corpus.events.plans:
        if isinstance(plan, _CohortArticle):
            yield from _cohort_article_events(plan)
        else:
            yield from _flat_project_events(plan)
