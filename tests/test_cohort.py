from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcoord.analytics import CHANNELS, Event, ProjectLog
from crowdcoord.cohort import (
    EpochCounts,
    build_cohorts,
    cohort_to_csv,
    control_eligible,
    edit_epoch_counts,
    matched_controls,
)
from crowdcoord.constants import FEATURED_YEARS, utc_timestamp
from crowdcoord.errors import IneligibleProjectError
from crowdcoord.synth import MAX_YEAR, MIN_YEAR, _year_ts

from oracles import datetime_epoch_counts, june_first


def ts(year, serial=0):
    return int(datetime(year, 6, 1, tzinfo=timezone.utc).timestamp()) + serial


def article(pid, before=0, during=0, after=0, year=2004):
    events = []
    for count, y in ((before, year - 1), (during, year), (after, year + 1)):
        events += [Event(pid, "a", ts(y, i), "work") for i in range(count)]
    return ProjectLog.from_events(pid, events)


class TestUtcTimestamp:
    def test_year_starts_match_datetime(self):
        # edit_epoch_counts bisects at each featured year's start and the next year's
        for year in [*FEATURED_YEARS, FEATURED_YEARS.stop]:
            start = datetime(year, 1, 1, tzinfo=timezone.utc).timestamp()
            assert utc_timestamp(year, 1, 1) == int(start), year

    def test_synth_june_firsts_match_datetime(self):
        # a cohort article's work runs from June 1st of year - 1 to year + 1, its edit
        # on June 1st of year + 2
        for year in range(MIN_YEAR - 1, MAX_YEAR + 3):
            assert _year_ts(year) == june_first(year)

    @given(st.dates())
    @settings(max_examples=300, deadline=None)
    def test_every_date_matches_datetime(self, date):
        start = datetime(date.year, date.month, date.day, tzinfo=timezone.utc).timestamp()
        assert utc_timestamp(date.year, date.month, date.day) == int(start)


class TestEpochCounts:
    def test_all_before(self):
        log = article("p", before=7, year=2006)  # edits all land in 2005
        assert edit_epoch_counts(log, 2006) == EpochCounts(7, 0, 0)

    def test_empty_log(self):
        log = ProjectLog.from_events("p", [])
        assert edit_epoch_counts(log, 2004) == EpochCounts(0, 0, 0)

    def test_split_around_year(self):
        log = article("p", before=3, during=2, after=4, year=2004)
        assert edit_epoch_counts(log, 2004) == EpochCounts(3, 2, 4)

    def test_only_work_events_count(self):
        events = [
            Event("p", "a", ts(2003), "work"),
            Event("p", "a", ts(2003, 1), "discussion"),
            Event("p", "a", ts(2005), "comment"),
        ]
        log = ProjectLog.from_events("p", events)
        assert edit_epoch_counts(log, 2004) == EpochCounts(1, 0, 0)

    @given(
        year=st.integers(1972, 9900),
        picks=st.lists(
            st.tuples(st.integers(-1, 2), st.one_of(st.integers(-1, 1), st.integers(0, 2**31)),
                      st.sampled_from(CHANNELS)),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_datetime_oracle(self, year, picks):
        # each timestamp is an offset from the start of year - 1 .. year + 2: one
        # second either side of a boundary, or up to about 68 years later; the
        # events reach from_events in draw order rather than time order
        events = []
        for shift, offset, channel in picks:
            start = int(datetime(year + shift, 1, 1, tzinfo=timezone.utc).timestamp())
            events.append(Event("p", "a", start + offset, channel))
        log = ProjectLog.from_events("p", events)
        assert edit_epoch_counts(log, year) == datetime_epoch_counts(log, year)

    @pytest.mark.parametrize("timestamp", [10**12, 10**20])
    def test_far_future_counts_after(self, timestamp):
        log = ProjectLog.from_events("p", [Event("p", "a", timestamp, "work")])
        assert edit_epoch_counts(log, 2004) == EpochCounts(0, 0, 1)


class TestEligibility:
    def test_close_candidate_with_more_prior(self):
        fc = EpochCounts(100, 0, 200)
        cc = EpochCounts(103, 0, 205)
        assert control_eligible(fc, cc, 0.05, True)

    def test_large_deviation_rejected(self):
        fc = EpochCounts(100, 0, 200)
        cc = EpochCounts(90, 0, 200)
        assert not control_eligible(fc, cc, 0.05, True)
        # also fails the fewer-prior requirement on its own
        assert not control_eligible(fc, EpochCounts(99, 0, 200), 0.5, True)
        assert control_eligible(fc, EpochCounts(99, 0, 200), 0.5, False)

    def test_threshold_is_strict(self):
        fc = EpochCounts(100, 0, 100)
        assert not control_eligible(fc, EpochCounts(105, 0, 100), 0.05, True)
        assert control_eligible(fc, EpochCounts(104, 0, 100), 0.05, True)


class TestMatchedControls:
    def make_pool(self, n_eligible, n_noise):
        pool = []
        for i in range(n_eligible):
            pool.append(article(f"e{i:03d}", before=101 + i % 4, during=1, after=200 + i % 9))
        for i in range(n_noise):
            pool.append(article(f"z{i:03d}", before=300, during=1, after=700))
        return pool

    def test_samples_only_eligible(self):
        featured = article("f", before=100, during=5, after=200)
        pool = self.make_pool(40, 60)
        chosen = matched_controls(featured, 2004, pool, k=30, seed=9)
        assert len(chosen) == 30
        assert all(cid.startswith("e") for cid in chosen)
        assert len(set(chosen)) == 30

    def test_reproducible_and_nested(self):
        featured = article("f", before=100, during=5, after=200)
        pool = self.make_pool(40, 10)
        first = matched_controls(featured, 2004, pool, k=30, seed=4)
        again = matched_controls(featured, 2004, pool, k=30, seed=4)
        smaller = matched_controls(featured, 2004, pool, k=10, seed=4)
        assert first == again
        assert smaller == first[:10]

    def test_zero_denominator_ineligible(self):
        featured = article("f", before=0, during=5, after=200)
        with pytest.raises(IneligibleProjectError):
            matched_controls(featured, 2004, [], k=5)

    def test_empty_pool_gives_empty_list(self):
        featured = article("f", before=100, during=5, after=200)
        assert matched_controls(featured, 2004, [], k=5) == []

    def test_bad_k(self):
        featured = article("f", before=100, during=5, after=200)
        with pytest.raises(ValueError):
            matched_controls(featured, 2004, [], k=0)


class TestBuildCohorts:
    def test_disjoint_lists_and_union(self):
        corpus = {}
        labels = {}
        for f in range(3):
            fid = f"f{f}"
            corpus[fid] = article(fid, before=100, during=5, after=200)
            labels[fid] = 2004
        for i in range(20):
            cid = f"n{i:02d}"
            corpus[cid] = article(cid, before=102, during=5, after=203)
        cohort = build_cohorts(corpus, labels, k=5, seed=2)
        seen = set()
        for fid in cohort.featured:
            controls = set(cohort.controls_by_featured[fid])
            assert not controls & seen
            seen |= controls
        assert set(cohort.control_union) == seen
        assert not seen & set(cohort.featured)

    def test_competition_drops_second_featured(self):
        corpus = {
            "fa": article("fa", before=100, during=5, after=200),
            "fb": article("fb", before=100, during=5, after=200),
            "n0": article("n0", before=102, during=5, after=203),
        }
        labels = {"fa": 2004, "fb": 2004}
        cohort = build_cohorts(corpus, labels, k=1, seed=0)
        assert cohort.featured == ("fa",)
        assert cohort.controls_by_featured["fa"] == ("n0",)

    def test_ineligible_featured_dropped(self):
        corpus = {
            "fa": article("fa", before=0, during=5, after=200),
            "fb": article("fb", before=100, during=5, after=200),
            "n0": article("n0", before=102, during=5, after=203),
        }
        cohort = build_cohorts(corpus, {"fa": 2004, "fb": 2004}, k=1, seed=0)
        assert cohort.featured == ("fb",)
        assert cohort.controls_by_featured["fb"] == ("n0",)

    def test_unique_perfect_matches(self):
        corpus = {}
        labels = {}
        for f in range(4):
            fid, cid = f"f{f}", f"n{f}"
            base = 100 * (f + 1)
            corpus[fid] = article(fid, before=base, during=2, after=base)
            corpus[cid] = article(cid, before=base + 1, during=2, after=base)
            labels[fid] = 2004
        cohort = build_cohorts(corpus, labels, k=1, seed=1)
        assert len(cohort.control_union) == len(cohort.featured) == 4

    def test_reruns_identical(self):
        corpus = {
            f"n{i:02d}": article(f"n{i:02d}", before=102 + i % 3, during=1, after=201)
            for i in range(30)
        }
        corpus["f0"] = article("f0", before=100, during=5, after=200)
        cohort_a = build_cohorts(corpus, {"f0": 2004}, k=10, seed=6)
        cohort_b = build_cohorts(corpus, {"f0": 2004}, k=10, seed=6)
        assert cohort_a == cohort_b

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            build_cohorts({}, {"ghost": 2004})

    def test_csv_emitter(self):
        corpus = {
            "f0": article("f0", before=100, during=5, after=200),
            "n0": article("n0", before=102, during=5, after=203),
        }
        text = cohort_to_csv(build_cohorts(corpus, {"f0": 2004}, k=1, seed=0))
        lines = text.strip().split("\n")
        assert lines[0].startswith("# featured=1 controls=1 k=1")
        assert lines[1] == "featured_id,control_ids"
        assert lines[2] == "f0,n0"
