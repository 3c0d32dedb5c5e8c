import math
import random
import statistics
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcoord.stats import (
    QUADRANT_KEYS,
    _exact_two_sided_p,
    _normal_two_sided_p,
    _pairwise_mean,
    binned_grid_to_csv,
    decile_heatmap,
    mann_whitney_u,
    median,
    median_split_quadrants,
    quadrants_to_csv,
    significance_band,
)

from oracles import enumerate_mwu_p


class TestMedian:
    @pytest.mark.parametrize("values", [
        [3], [2, 9], [5, 1, 4], [4, 1, 3, 2], [2, 2, 2], [1, 2, 2, 7], [7, 2, 2, 1, 1],
        [0.5, 0.25], [1, 2.5], [3, 1.5, 2], [-0.0, 0.0], [1e308, 1.5e308],
    ])
    def test_cases(self, values):
        self.check(values)

    @given(st.lists(st.one_of(st.integers(-4, 4), st.integers(-2**70, 2**70),
                              st.floats(allow_nan=False), st.sampled_from([0.5, 1.5, -0.0])),
                    min_size=1, max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_matches_statistics_median(self, values):
        self.check(values)

    @staticmethod
    def check(values):
        ours, theirs = median(values), statistics.median(values)
        # the same type and bits: ints stay ints, -0.0 and inf keep their sign
        assert (type(ours), repr(ours)) == (type(theirs), repr(theirs))

    def test_empty_is_refused(self):
        with pytest.raises(ValueError):
            median([])


class TestSignificanceBand:
    @pytest.mark.parametrize(
        "p,band",
        [
            (0.0005, "p001"),
            (0.001, "p01"),
            (0.005, "p01"),
            (0.01, "p05"),
            (0.03, "p05"),
            (0.05, "ns"),
            (0.5, "ns"),
            (1.0, "ns"),
        ],
    )
    def test_strict_thresholds(self, p, band):
        assert significance_band(p) == band

    def test_domain(self):
        with pytest.raises(ValueError):
            significance_band(0.0)
        with pytest.raises(ValueError):
            significance_band(1.1)


class TestMannWhitneyU:
    def test_separated_small_samples(self):
        r = mann_whitney_u([1, 2], [3, 4])
        assert r.u_statistic == 0.0
        assert r.p_value == pytest.approx(1 / 3)
        assert r.band == "ns"
        assert r.method == "exact"

    def test_identical_samples(self):
        r = mann_whitney_u([1, 2, 3], [1, 2, 3])
        assert r.p_value == 1.0
        assert r.band == "ns"

    def test_all_values_tied(self):
        r = mann_whitney_u([5, 5, 5], [5, 5])
        assert r.p_value == 1.0
        assert r.method == "normal_approx"

    def test_extreme_split_is_significant(self):
        a = [float(i) for i in range(30)]
        b = [float(100 + i) for i in range(30)]
        r = mann_whitney_u(a, b)
        assert r.method == "normal_approx"
        assert r.band == "p001"

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [])

    def test_exact_matches_enumeration_small(self):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                values = list(range(1, n1 + n2 + 1))
                for combo in combinations(range(n1 + n2), n1):
                    chosen = set(combo)
                    a = [float(values[i]) for i in combo]
                    b = [float(values[i]) for i in range(n1 + n2) if i not in chosen]
                    r = mann_whitney_u(a, b)
                    assert r.method == "exact"
                    assert r.p_value == enumerate_mwu_p(a, b)

    def test_u_sides_sum_to_product(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n1, n2 = rng.integers(1, 15, size=2)
            a = list(rng.normal(size=n1))
            b = list(rng.normal(size=n2))
            r = mann_whitney_u(a, b)
            # min side, and both sides partition n1 * n2
            assert 0 <= r.u_statistic <= n1 * n2 / 2

    def test_exact_and_normal_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            n1, n2 = int(rng.integers(8, 21)), int(rng.integers(8, 21))
            pooled = rng.permutation(np.arange(1.0, n1 + n2 + 1.0))
            a, b = list(pooled[:n1]), list(pooled[n1:])
            u = mann_whitney_u(a, b).u_statistic
            exact = _exact_two_sided_p(u, n1, n2)
            approx = _normal_two_sided_p(u, n1, n2, a + b)
            assert abs(exact - approx) <= 0.02

    def test_exact_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(11)
        for _ in range(60):
            n1, n2 = int(rng.integers(1, 21)), int(rng.integers(1, 21))
            if n1 * n2 > 400:
                continue
            pooled = rng.permutation(np.arange(1.0, n1 + n2 + 1.0))
            a, b = list(pooled[:n1]), list(pooled[n1:])
            ours = mann_whitney_u(a, b)
            theirs = stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert ours.method == "exact"
            assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-12, abs=0.0)


class TestMedianSplitQuadrants:
    def test_one_record_per_cell(self):
        records = [(1, 1, 5.0), (1, 10, 6.0), (10, 1, 7.0), (10, 10, 8.0)]
        summary = median_split_quadrants(records)
        assert all(summary.cells[k].count == 1 for k in QUADRANT_KEYS)

    def test_counts_partition_corpus(self):
        rng = np.random.default_rng(0)
        records = [
            (float(s), float(t), float(c))
            for s, t, c in zip(
                rng.integers(1, 100, 50), rng.integers(1, 30, 50), rng.integers(0, 40, 50)
            )
        ]
        summary = median_split_quadrants(records)
        assert sum(summary.cells[k].count for k in QUADRANT_KEYS) == len(records)

    def test_all_identical_records(self):
        summary = median_split_quadrants([(3, 2, 1)] * 6)
        assert summary.cells[("high", "high")].count == 6
        assert all(
            summary.cells[k].count == 0 for k in QUADRANT_KEYS if k != ("high", "high")
        )

    def test_crowded_cell_has_largest_median(self):
        # coordination = 100 * team / size by construction
        rng = np.random.default_rng(1)
        records = []
        for _ in range(200):
            size = float(rng.integers(10, 1000))
            team = float(rng.integers(1, 50))
            records.append((size, team, 100.0 * team / size))
        summary = median_split_quadrants(records)
        crowded = summary.cells[("low", "high")].median_coordination
        assert all(
            crowded >= summary.cells[k].median_coordination
            for k in QUADRANT_KEYS
            if summary.cells[k].count
        )

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            median_split_quadrants([(1, 1, 1)] * 3)

    def test_csv_emitter(self):
        records = [(1, 1, 5.0), (1, 10, 6.0), (10, 1, 7.0), (10, 10, 8.0)]
        text = quadrants_to_csv(median_split_quadrants(records))
        assert "size_level,team_level,median_coordination,median_per_member,count" in text
        assert "# pairwise p-values" in text


class TestDecileHeatmap:
    def test_uniform_lattice_one_per_cell(self):
        records = [
            (float(si), float(ti), 0.0) for si in range(10) for ti in range(10)
        ]
        grid = decile_heatmap(records)
        assert np.all(np.array(grid.counts) == 1)

    def test_zero_coordination_gives_zero_cells(self):
        records = [(float(i), float(i % 7), 0.0) for i in range(40)]
        grid = decile_heatmap(records)
        populated = np.array(grid.counts) > 0
        assert np.all(np.array(grid.values)[populated] == 0.0)

    def test_counts_partition_corpus(self):
        rng = np.random.default_rng(2)
        records = [
            (float(s), float(t), float(c))
            for s, t, c in zip(
                rng.normal(size=123), rng.normal(size=123), rng.integers(0, 5, 123)
            )
        ]
        grid = decile_heatmap(records)
        assert np.array(grid.counts).sum() == 123

    def test_crowded_corner_dominates(self):
        records = []
        for i in range(200):
            size = 10.0 + i * 5
            team = 1.0 + (i * 7) % 50
            records.append((size, team, 1000.0 * team / size))
        grid = decile_heatmap(records)
        values = np.array(grid.values)
        assert np.nanmean(values[7:, :3]) > np.nanmean(values[:3, 7:])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        records = [
            (float(s), float(t), float(c))
            for s, t, c in zip(
                rng.uniform(1, 100, 80), rng.uniform(1, 40, 80), rng.integers(0, 9, 80)
            )
        ]
        transformed = [(math.log(s), t**3, c) for s, t, c in records]
        g1 = decile_heatmap(records)
        g2 = decile_heatmap(transformed)
        assert np.array_equal(g1.counts, g2.counts)
        assert np.allclose(g1.values, g2.values, equal_nan=True)

    def test_median_aggregation_flag(self):
        records = [(float(i), float(i), float(i)) for i in range(20)]
        assert decile_heatmap(records, agg="median").agg == "median"
        with pytest.raises(ValueError):
            decile_heatmap(records, agg="max")

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            decile_heatmap([(1, 1, 1)] * 9)

    def test_csv_emitter(self):
        records = [(float(i), float(i % 5), 1.0) for i in range(30)]
        text = binned_grid_to_csv(decile_heatmap(records))
        lines = text.strip().split("\n")
        assert lines[0] == "# agg=mean"
        assert "# counts" in lines


# lengths on each side of pairwise_sum's branches: below 8, multiples of 8 up to the block
# of 128, and halves that split at a multiple of 8
PAIRWISE_LENGTHS = [1, 7, 8, 9, 16, 17, 127, 128, 129, 136, 137, 256, 257, 1000]


class TestPairwiseMean:
    """The mean decile_heatmap takes is NumPy's, bit for bit."""

    @given(n=st.sampled_from(PAIRWISE_LENGTHS) | st.integers(1, 600), signed=st.booleans(),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_mean(self, n, signed, data):
        values = st.floats(-1e9 if signed else 0.0, 1e9, allow_nan=False)
        xs = data.draw(st.lists(values, min_size=n, max_size=n))
        assert repr(_pairwise_mean(xs)) == repr(float(np.mean(xs)))

    @pytest.mark.parametrize("n", PAIRWISE_LENGTHS)
    @pytest.mark.parametrize("signed", [False, True], ids=["non-negative", "signed"])
    def test_matches_numpy_mean_on_random_floats(self, n, signed):
        # magnitudes over ten decades, so that the order of the additions shows in the result
        rng = random.Random(n * 2 + signed)
        for _ in range(20):
            signs = (-1.0, 1.0) if signed else (1.0,)
            xs = [rng.choice(signs) * rng.random() * 10.0 ** rng.randint(-5, 5) for _ in range(n)]
            assert repr(_pairwise_mean(xs)) == repr(float(np.mean(xs)))
