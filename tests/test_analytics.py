import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcoord.analytics import (
    CHANNELS,
    COORDINATION_CHANNELS,
    Channel,
    Event,
    ProjectLog,
    core_curve,
    crowdedness_profile,
    x_core,
)
from crowdcoord.errors import IneligibleProjectError
from crowdcoord.synth import CorpusLines, SyntheticSpec

from oracles import brute_force_x_core, rescan_core_curve, scan_crowdedness_profile


def make_log(pid="p", work=(), discussion=(), comment=(), final_size=None):
    """Build a log from (actor, timestamp) pairs per channel."""
    events = []
    for channel, pairs in (("work", work), ("discussion", discussion), ("comment", comment)):
        for actor, ts in pairs:
            events.append(Event(pid, actor, ts, channel))
    return ProjectLog.from_events(pid, events, final_size)


# unsorted logs: few actors and timestamps, so channels share actors and tie in time
shuffled_events = st.lists(
    st.builds(Event, st.just("p"), st.sampled_from("abcd"), st.integers(0, 12),
              st.sampled_from(CHANNELS)),
    max_size=40,
)

work_counts_strategy = st.dictionaries(
    st.text(alphabet="abcdefghijkl", min_size=1, max_size=2),
    st.integers(1, 20),
    min_size=1,
    max_size=12,
)


class TestXCore:
    def test_top_contributor_covers_half(self):
        assert x_core({"u1": 5, "u2": 3, "u3": 2}, 0.5) == {"u1"}

    def test_one_core_is_everyone(self):
        counts = {"a": 9, "b": 2, "c": 1, "d": 7}
        assert x_core(counts, 1.0) == set(counts)

    def test_tied_counts(self):
        # frozen from the subset-search oracle
        assert x_core({"u1": 4, "u2": 4, "u3": 2}, 0.5) == {"u1", "u2"}

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            x_core({}, 0.5)
        with pytest.raises(ValueError):
            x_core({"a": 1}, 0.0)
        with pytest.raises(ValueError):
            x_core({"a": 1}, 1.2)
        with pytest.raises(ValueError):
            x_core({"a": 0}, 0.5)

    @given(counts=work_counts_strategy, x=st.floats(0.01, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, counts, x):
        assert x_core(counts, x) == brute_force_x_core(counts, x)

    @given(counts=work_counts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_nested_in_x(self, counts):
        xs = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        cores = [x_core(counts, x) for x in xs]
        for small, large in zip(cores, cores[1:]):
            assert small <= large


class TestCoreCurve:
    def test_equal_split_shares_equal_x(self):
        log = make_log(
            work=[(f"u{i}", 10 * i) for i in range(4)],
            discussion=[(f"u{i}", 100 + i) for i in range(4)],
        )
        curve = core_curve(log, [0.5, 1.0])
        for x, d in zip(curve.xs, curve.d_share):
            assert d - x == pytest.approx(0.0)

    def test_single_actor(self):
        log = make_log(work=[("solo", t) for t in range(5)], discussion=[("solo", 9)])
        curve = core_curve(log, [0.25, 0.5, 1.0])
        assert curve.core_fraction == (1.0, 1.0, 1.0)
        assert curve.d_share == (1.0, 1.0, 1.0)

    def test_skewed_discussion_hand_counts(self):
        # a: 6 work, 1 discussion; b: 3 work, 4 discussion; c: 1 work, 0 discussion
        log = make_log(
            work=[("a", t) for t in range(6)]
            + [("b", 10 + t) for t in range(3)]
            + [("c", 20)],
            discussion=[("a", 30)] + [("b", 31 + t) for t in range(4)],
        )
        curve = core_curve(log, [0.5, 0.9, 1.0])
        # 0.5-core = {a}; 0.9-core = {a, b}; 1.0-core = all
        assert curve.core_size == (1, 2, 3)
        assert curve.core_fraction == pytest.approx((1 / 3, 2 / 3, 1.0))
        assert curve.d_share == pytest.approx((1 / 5, 1.0, 1.0))

    def test_missing_channels_reported_absent(self):
        log = make_log(work=[("a", 0), ("b", 1)])
        curve = core_curve(log, [0.5, 1.0])
        assert curve.d_share == (None, None)
        assert curve.c_share == (None, None)

    def test_shares_reach_one(self):
        log = make_log(
            work=[("a", 0), ("a", 1), ("b", 2)],
            discussion=[("a", 5), ("b", 6)],
            comment=[("b", 7)],
        )
        curve = core_curve(log, [1.0])
        assert curve.core_fraction[-1] == 1.0
        assert curve.d_share[-1] == 1.0
        assert curve.c_share[-1] == 1.0

    def test_requires_work(self):
        with pytest.raises(IneligibleProjectError, match="project p has no work events"):
            core_curve(make_log(discussion=[("a", 0)]), [1.0])

    @given(
        events=shuffled_events,
        xs=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=10,
                    unique=True).map(sorted),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rescan_oracle(self, events, xs):
        # the same integer counts, so every share keeps its bits
        log = ProjectLog.from_events("p", events)
        try:
            expected = rescan_core_curve(log, xs)
        except IneligibleProjectError:
            with pytest.raises(IneligibleProjectError):
                core_curve(log, xs)
        else:
            assert core_curve(log, xs) == expected


class TestCrowdednessProfile:
    def test_synthetic_hand_verified(self):
        work = [("a", 100 + t) for t in range(6)] + [("b", 200 + t) for t in range(4)]
        discussion = [("a", 0), ("b", 1), ("a", 2), ("a", 500)]
        log = make_log(work=work, discussion=discussion, final_size=1234)
        profile = crowdedness_profile(log, k=10)
        assert profile.engaged_users == {"a", "b"}
        assert profile.threshold_time == 203
        assert profile.early_team == {"a", "b"}
        assert profile.early_coordination == 3
        assert profile.output_size == 1234

    def test_no_coordination_means_ineligible(self):
        log = make_log(work=[("a", t) for t in range(200)])
        with pytest.raises(IneligibleProjectError):
            crowdedness_profile(log, k=100)

    def test_too_few_work_events(self):
        log = make_log(work=[("a", 0)], discussion=[("a", 1)])
        with pytest.raises(IneligibleProjectError):
            crowdedness_profile(log, k=2)

    def test_k_one_boundary(self):
        log = make_log(
            work=[("a", 50), ("a", 60)],
            discussion=[("a", 49), ("a", 50), ("a", 51)],
        )
        profile = crowdedness_profile(log, k=1)
        assert profile.threshold_time == 50
        # strictly-before: the event at exactly T is excluded
        assert profile.early_coordination == 1

    def test_non_engaged_work_does_not_count_toward_k(self):
        work = [("lurker", t) for t in range(50)] + [("a", 100 + t) for t in range(3)]
        log = make_log(work=work, discussion=[("a", 0)])
        profile = crowdedness_profile(log, k=3)
        assert profile.threshold_time == 102
        assert profile.early_team == {"a"}

    def test_invariant_to_events_after_threshold(self):
        base_work = [("a", t) for t in range(10)]
        disc = [("a", 2)]
        log_a = make_log(work=base_work, discussion=disc, final_size=10)
        log_b = make_log(
            work=base_work + [("z", 1000)],
            discussion=disc + [("z", 2000)],
            final_size=10,
        )
        k = 5
        pa = crowdedness_profile(log_a, k=k)
        pb = crowdedness_profile(log_b, k=k)
        assert (pa.threshold_time, pa.early_team, pa.early_coordination) == (
            pb.threshold_time,
            pb.early_team,
            pb.early_coordination,
        )

    def test_coordination_by_non_engaged_users_counts(self):
        work = [("a", 100 + t) for t in range(5)]
        discussion = [("a", 0), ("outsider", 1)]
        log = make_log(work=work, discussion=discussion)
        assert crowdedness_profile(log, k=5).early_coordination == 2

    def test_comment_channel_selectable(self):
        work = [("a", 10 + t) for t in range(3)]
        log = make_log(work=work, comment=[("a", 0), ("a", 1)])
        profile = crowdedness_profile(log, k=3, coordination_channel="comment")
        assert profile.early_coordination == 2

    @given(
        events=shuffled_events,
        k=st.integers(1, 45),
        channel=st.sampled_from(COORDINATION_CHANNELS),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle(self, events, k, channel):
        log = ProjectLog.from_events("p", events, final_size=7)
        try:
            expected = scan_crowdedness_profile(log, k, channel)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                crowdedness_profile(log, k, channel)
            assert type(raised.value) is type(exc)
        else:
            assert crowdedness_profile(log, k, channel) == expected


class TestProjectLog:
    def test_sorted_stable_on_ties(self):
        events = [
            Event("p", "b", 5, "work"),
            Event("p", "a", 5, "work"),
            Event("p", "c", 1, "work"),
        ]
        log = ProjectLog.from_events("p", events)
        assert [e.actor_id for e in log.events] == ["c", "b", "a"]

    @given(events=shuffled_events)
    @settings(max_examples=100, deadline=None)
    def test_by_channel_is_the_filtered_time_order(self, events):
        log = ProjectLog.from_events("p", events)
        assert set(log.by_channel) == set(CHANNELS)
        for channel in CHANNELS:
            expected = [e for e in log.events if e.channel == channel]
            columns = log.by_channel[channel]
            assert len(columns) == len(expected)
            assert columns.timestamps == tuple(e.timestamp for e in expected)
            assert columns.actors == tuple(e.actor_id for e in expected)


@pytest.mark.parametrize("make,other", [
    (lambda: Channel((1, 2), ("a", "b")), Channel((1, 2), ("a", "c"))),
    (lambda: SyntheticSpec(structure="cohort", n_featured=2),
     SyntheticSpec(structure="cohort", n_featured=3)),
    (lambda: CorpusLines(()), Channel((), ())),
], ids=["Channel", "SyntheticSpec", "CorpusLines"])
def test_slots_records_are_immutable_values(make, other):
    record = make()
    assert record == make() and hash(record) == hash(make()) and record != other
    assert copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
