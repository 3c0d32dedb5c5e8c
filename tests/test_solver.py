import copy
import math
import pickle
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crowdcoord.analytics as analytics
import crowdcoord.limits as limits
import crowdcoord.model as model
from crowdcoord.constants import INT64_MAX
from crowdcoord.errors import BudgetExceededError
from crowdcoord.model import (
    ModelParams,
    exact_expectation,
    exact_expectations,
    monte_carlo,
)
from crowdcoord.rng import spawn_seed
from crowdcoord.solver import (
    GRID_BYTES_PER_BETA,
    REFINE_TOL,
    SPECULATE_CELLS,
    TIE_TOL,
    BetaGrid,
    SearchConfig,
    _beta_grid,
    _closed_form,
    _coeffs,
    _golden_section,
    _grid_best,
    _speculation_depth,
    _speculative_golden_section,
    approx_expectation,
    beta_heatmap,
    grid_to_csv,
    optimal_beta,
)

from oracles import (
    golden_section_max,
    iterate_recurrence,
    recurrence_coeffs,
    scalar_closed_form,
    scan_grid_best,
)

probs = st.floats(min_value=0.0, max_value=1.0)


class TestRecurrenceCoeffs:
    def test_collapse_at_full_coordination(self):
        for n in (1, 4, 100):
            assert recurrence_coeffs(n, 0.37, 1.0) == (1.0, 1.0)

    def test_single_part_full_clash(self):
        a, p0 = recurrence_coeffs(1, 1.0, 0.0)
        assert a == pytest.approx(1.0)
        assert p0 == pytest.approx(0.0)

    def test_two_parts_no_clash(self):
        a, p0 = recurrence_coeffs(2, 0.0, 0.0)
        assert a == pytest.approx(0.25)
        assert p0 == pytest.approx(1.5)


class TestApproxExpectation:
    def test_zero_first_step(self):
        assert approx_expectation(1, 1, 1.0, 0.0) == 0.0

    def test_one_user_two_parts(self):
        assert approx_expectation(2, 1, 0.0, 0.0) == pytest.approx(1.5)

    def test_a_equals_one_branch(self):
        assert approx_expectation(5, 3, 0.9, 1.0) == 3.0

    def test_no_saturation_by_default(self):
        assert approx_expectation(5, 10, 1.0, 1.0) == 10.0

    def test_continuity_near_a_one(self):
        # beta chosen so |A - 1| is just inside / just outside the switch
        n, alpha = 2, 1.0
        g = (1 + alpha) / n**2 - 2 / n
        for delta in (1e-13, 9e-13, 2e-12, 1e-11):
            w = delta / -g
            beta = 1.0 - w / (1 + alpha)
            e = 50
            limit = e * recurrence_coeffs(n, alpha, beta)[1]
            assert abs(approx_expectation(n, e, alpha, beta) - limit) <= 1e-6

    @given(
        n=st.integers(1, 50),
        e=st.integers(1, 200),
        alpha=probs,
        beta=probs,
    )
    # |A - 1| about 1e-10, where (A**E - 1) / (A - 1) cancels
    @example(n=1, e=12, alpha=0.99999, beta=0.99999)
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_iteration(self, n, e, alpha, beta):
        cf = approx_expectation(n, e, alpha, beta)
        it = iterate_recurrence(n, e, alpha, beta)
        assert cf == pytest.approx(it, rel=1e-9, abs=1e-9)

    @given(
        cells=st.lists(st.tuples(st.one_of(st.integers(1, 100), st.integers(1, INT64_MAX)),
                                 st.integers(1, 10**6), probs), min_size=1, max_size=8),
        alpha=probs,
    )
    # |A - 1| <= A1_EPS: beta = 1, and N = INT64_MAX, where A rounds to 1
    @example(cells=[(5, 3, 1.0), (INT64_MAX, 2000, 0.3), (INT64_MAX, 7, 0.0)], alpha=0.9)
    # the A1_STABLE band (|A - 1| about 2e-10 and 6.4e-7) beside a generic cell
    @example(cells=[(1, 12, 0.99999), (7, 9, 0.4)], alpha=0.99999)
    @example(cells=[(31, 161, 0.99999)], alpha=0.00974)
    # the generic branch, where NumPy's array power rounds these A**E differently
    @example(cells=[(2, 100, 0.9), (30, 2423, 0.9014274576114836)], alpha=1.0)
    @settings(max_examples=200, deadline=None)
    def test_array_formula_is_the_scalar_oracle_bit_for_bit(self, cells, alpha):
        # the search's formula, as a column computes each (A, P0) and scores it at each E
        values = [_closed_form(*_coeffs(float(n), float(n**2), alpha, beta), e)
                  for n, e, beta in cells]
        expected = [scalar_closed_form(n, e, alpha, beta).hex() for n, e, beta in cells]
        assert [v.hex() for v in values] == expected
        assert [approx_expectation(n, e, alpha, beta).hex() for n, e, beta in cells] == expected

    def test_iteration_examples(self):
        assert iterate_recurrence(1, 10, 1.0, 0.0) == 0.0
        assert iterate_recurrence(5, 3, 0.2, 1.0) == 3.0
        assert iterate_recurrence(7, 9, 0.5, 0.4) == pytest.approx(
            approx_expectation(7, 9, 0.5, 0.4), rel=1e-9
        )


# grid values planted in near-ties: steps of TIE_TOL / 2 around one base, at magnitudes
# where TIE_TOL is above and below the spacing of floats, mixed with free values
planted_values = st.builds(
    lambda base, steps: [base + k * (TIE_TOL / 2) for k in steps],
    st.sampled_from([0.0, 1.0, 3.7, 100.0, 1e4, 1e6, -2.5]) | st.floats(-1e6, 1e6),
    st.lists(st.integers(-6, 6), min_size=1, max_size=12),
)
grid_values = st.lists(planted_values | st.lists(st.floats(-1e6, 1e6), max_size=3),
                       min_size=1, max_size=4).map(lambda parts: sum(parts, [])).filter(bool)


class TestGridBest:
    @given(values=grid_values)
    @settings(max_examples=500, deadline=None)
    def test_is_the_sequential_scan(self, values):
        i, v = scan_grid_best(values)
        for form in (values, array("d", values)):
            got_i, got_v = _grid_best(form)
            assert (got_i, type(got_v), got_v.hex()) == (i, float, v.hex())


class TestOptimalBeta:
    def test_crowded_prefers_full_coordination(self):
        r = optimal_beta(5, 10, 1.0, "exact_dp")
        assert r.beta_star == 1.0

    def test_sparse_prefers_no_coordination(self):
        r = optimal_beta(1000, 2, 1.0, "exact_dp")
        assert r.beta_star <= 0.05

    def test_interior_optimum(self):
        # dense grid search over the exact objective puts the optimum near 0.52
        r = optimal_beta(20, 8, 1.0, "exact_dp")
        assert 0.0 < r.beta_star < 1.0
        assert r.beta_star == pytest.approx(0.52, abs=0.02)

    def test_value_dominates_endpoints(self):
        from crowdcoord.model import ModelParams, exact_expectation

        for n, e, alpha in [(10, 8, 1.0), (5, 10, 0.5), (50, 4, 0.3)]:
            r = optimal_beta(n, e, alpha, "exact_dp")
            f0 = exact_expectation(ModelParams(n, e, alpha, 0.0))
            f1 = exact_expectation(ModelParams(n, e, alpha, 1.0))
            assert r.value >= f0 - 1e-9
            assert r.value >= f1 - 1e-9

    def test_value_dominates_grid(self):
        r = optimal_beta(12, 9, 1.0, "closed_form")
        grid = np.linspace(0.0, 1.0, 101)
        values = [approx_expectation(12, 9, 1.0, float(b)) for b in grid]
        assert r.value >= max(values) - 1e-9

    @pytest.mark.parametrize("n", [1, 7, 300, 10**9])
    @pytest.mark.parametrize("e", [1, 12, 500])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_closed_form_value_is_the_closed_form_at_beta_star(self, n, e, alpha):
        # grid and refinement score with the one formula that approx_expectation exposes
        r = optimal_beta(n, e, alpha, "closed_form")
        assert r.value == approx_expectation(n, e, alpha, r.beta_star)

    def test_closed_form_grid_peak_within_the_bytes_charged(self):
        config = SearchConfig(grid_step=1e-5)
        tracemalloc.start()
        try:
            optimal_beta(20, 8, 1.0, "closed_form", config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (round(1.0 / config.grid_step) + 1) * GRID_BYTES_PER_BETA

    # interior optima, where the refined point wins, and optima on the edges
    @pytest.mark.parametrize("objective,n,e,alpha,grid_step", [
        (objective, *cell, 0.01) for objective in ("closed_form", "exact_dp")
        for cell in [(5, 2, 1.0), (5, 3, 0.5), (10, 5, 0.3), (10, 8, 0.3), (20, 8, 1.0),
                     (20, 12, 0.5), (50, 20, 1.0), (1, 12, 0.99999), (31, 161, 0.00974),
                     (150, 3, 0.0)]
    ] + [("closed_form", 300, 100, 1.0, 0.01), ("closed_form", 10**9, 500, 0.5, 0.01),
         ("closed_form", 4 * 10**9, 2000, 1.0, 0.01)]
      # exact cells of live width w = N + 1 on both sides of each width-rule boundary
      + [("exact_dp", w - 1, w // 2, 0.5, 0.01) for w in (
          SPECULATE_CELLS // 15, SPECULATE_CELLS // 15 + 1, SPECULATE_CELLS // 7,
          SPECULATE_CELLS // 7 + 1)]
      # two- and three-beta grids, whose rows cap a refinement block
      + [("exact_dp", *cell, grid_step) for grid_step in (1.0, 0.5)
         for cell in [(20, 8, 1.0), (5, 10, 0.5), (150, 3, 0.0), (300, 20, 1.0)]]
      # flat cells, where the tie rule decides: the n = 1 column, and alpha = 0 with E >> N
      + [("exact_dp", 1, e, alpha, 0.01) for e, alpha in [(1, 0.5), (7, 0.0), (12, 1.0)]]
      + [("exact_dp", n, e, 0.0, 0.01) for n, e in [(3, 300), (5, 200)]])
    def test_search_is_the_scalar_oracle_search_bit_for_bit(self, objective, n, e, alpha,
                                                            grid_step):
        betas = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
        if objective == "closed_form":
            def f(beta):
                return scalar_closed_form(n, e, alpha, beta)
            values = [f(b) for b in map(float, betas)]
        else:
            def f(beta):
                return exact_expectation(ModelParams(n, e, alpha, beta))
            values = exact_expectations(n, e, alpha, betas).tolist()
        best = 0
        for i, v in enumerate(values):
            if v > values[best] + TIE_TOL:
                best = i
        x, fx = golden_section_max(f, float(betas[max(best - 1, 0)]),
                                   float(betas[min(best + 1, len(betas) - 1)]), REFINE_TOL)
        expected = (x, fx) if fx > values[best] + TIE_TOL else (float(betas[best]), values[best])
        r = optimal_beta(n, e, alpha, objective, SearchConfig(grid_step=grid_step))
        assert (r.beta_star.hex(), r.value.hex()) == tuple(v.hex() for v in expected)

    def test_width_rule(self):
        w4, w3 = SPECULATE_CELLS // 15, SPECULATE_CELLS // 7
        assert [_speculation_depth(w, 101) for w in (1, w4, w4 + 1, w3, w3 + 1, 1001)] == [
            4, 4, 3, 3, 1, 1]
        # a block holds no more rows than the grid: 2 to 6 betas give the one-point loop
        assert [_speculation_depth(5, b) for b in (2, 3, 6, 7, 14, 15)] == [1, 1, 1, 3, 3, 4]

    @given(lo=st.floats(0.0, 1.0), span=st.floats(1e-7, 1.0), depth=st.integers(2, 6),
           freq=st.floats(0.5, 40.0), phase=st.floats(0.0, 7.0),
           levels=st.sampled_from([None, 1, 3, 10**6]))
    @settings(max_examples=300, deadline=None)
    def test_speculative_blocks_walk_the_one_point_path(self, lo, span, depth, freq, phase,
                                                        levels):
        # smooth, multimodal and plateaued objectives: plateaus make fc == fd ties
        def f(x):
            y = math.sin(freq * x + phase)
            return y if levels is None else round(y * levels) / levels
        hi = lo + span
        asked = []

        def one(x):
            asked.append(x)
            return f(x)
        expected = _golden_section(one, lo, hi)
        blocks = []

        def score(points):
            blocks.append(points)
            return [f(x) for x in points]
        assert _speculative_golden_section(score, lo, hi, depth) == expected
        scored = [x for block in blocks for x in block]
        assert set(asked) <= set(scored)
        assert all(len(block) < 2**depth for block in blocks)
        assert len(blocks) <= 2 + (len(asked) - 2) // depth

    def test_exact_refinement_takes_few_passes_of_at_most_the_grids_rows(self, monkeypatch):
        rows, exact_pass = [], model._exact_pass

        def counted(n_parts, n_users, alpha, betas):
            rows.append(len(betas))
            return exact_pass(n_parts, n_users, alpha, betas)

        monkeypatch.setattr(model, "_exact_pass", counted)
        optimal_beta(300, 20, 1.0, "exact_dp")
        # the grid pass, the bracket's two points, 15-row blocks and the final midpoint,
        # where the one-point loop made 1 + 23 passes
        assert rows[0] == 101 and rows[-1] == 1 and len(rows) <= 9
        assert rows[1] == 2 and max(rows[2:]) == 15
        for grid_step, n_betas in [(1 / 14, 15), (1 / 6, 7), (0.5, 3), (1.0, 2)]:
            rows.clear()
            optimal_beta(300, 20, 1.0, "exact_dp", SearchConfig(grid_step=grid_step))
            assert rows[0] == n_betas and max(rows[1:]) <= n_betas

    @pytest.mark.parametrize("grid_step", [1.0, 0.5, 1 / 6, 1 / 14, 0.01])
    def test_a_search_whose_grid_fits_the_step_budget_is_not_refused(self, monkeypatch,
                                                                     grid_step):
        # no refinement block is charged more state-steps than the grid pass
        n, e = 300, 20
        expected = optimal_beta(n, e, 1.0, "exact_dp", SearchConfig(grid_step=grid_step))
        grid_steps = (round(1.0 / grid_step) + 1) * n * e
        monkeypatch.setattr(limits, "STEP_BUDGET", grid_steps)
        assert optimal_beta(n, e, 1.0, "exact_dp", SearchConfig(grid_step=grid_step)) == expected
        monkeypatch.setattr(limits, "STEP_BUDGET", grid_steps - 1)
        with pytest.raises(BudgetExceededError, match="beta grid"):
            optimal_beta(n, e, 1.0, "exact_dp", SearchConfig(grid_step=grid_step))

    def test_monte_carlo_needs_runs(self):
        with pytest.raises(ValueError):
            optimal_beta(5, 5, 1.0, "monte_carlo")

    def test_monte_carlo_reports_grid_point(self):
        r = optimal_beta(5, 10, 1.0, "monte_carlo", SearchConfig(runs=2000, seed=3))
        assert r.runs == 2000
        assert round(r.beta_star * 100) == pytest.approx(r.beta_star * 100)

    @pytest.mark.parametrize("n,e,alpha", [(5, 10, 1.0), (20, 8, 0.3), (150, 3, 0.0)])
    def test_monte_carlo_scores_the_grid_on_one_seed(self, n, e, alpha):
        config = SearchConfig(grid_step=0.05, runs=300, seed=7)
        betas = np.linspace(0.0, 1.0, 21)
        values = [monte_carlo(ModelParams(n, e, alpha, float(b)), 300, 7).mean_finished
                  for b in betas]
        best = 0
        for i, v in enumerate(values):
            if v > values[best] + TIE_TOL:
                best = i
        r = optimal_beta(n, e, alpha, "monte_carlo", config)
        assert (r.beta_star, r.value) == (float(betas[best]), values[best])

    @pytest.mark.parametrize("objective", ["closed_form", "exact_dp", "monte_carlo"])
    def test_grid_budget_refuses_before_allocating(self, objective):
        # a 10**9-point grid would need 8 GB for the betas alone
        with pytest.raises(BudgetExceededError, match="beta grid"):
            optimal_beta(5, 5, 1.0, objective, SearchConfig(grid_step=1e-9, runs=10))

    def test_beta_grid_is_numpys_linspace_bit_for_bit(self):
        for k in [*range(1, 2001), 10**5]:
            expected = [b.hex() for b in np.linspace(0.0, 1.0, k + 1).tolist()]
            assert [b.hex() for b in _beta_grid(SearchConfig(grid_step=1 / k))] == expected, k

    def test_fine_grid_below_the_budget_still_runs(self):
        r = optimal_beta(20, 8, 1.0, "closed_form", SearchConfig(grid_step=1e-6))
        coarse = optimal_beta(20, 8, 1.0, "closed_form")
        assert r.beta_star == pytest.approx(coarse.beta_star, abs=1e-4)

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimal_beta(5, 5, 1.0, "banana")

    def test_beta_star_nondecreasing_in_users(self):
        # more users for a fixed project means no less coordination,
        # up to the 0.01 grid resolution
        for n in (5, 10, 20):
            stars = [
                optimal_beta(n, e, 1.0, "exact_dp").beta_star for e in range(1, 31, 2)
            ]
            assert all(b >= a - 0.0100001 for a, b in zip(stars, stars[1:]))


class TestBetaHeatmap:
    def test_single_cell(self):
        grid = beta_heatmap([5], [10], 1.0, "exact_dp")
        assert grid.cells[0][0].beta_star == 1.0

    def test_shape_and_orientation(self):
        grid = beta_heatmap([2, 10, 50], [3, 6], 1.0, "closed_form")
        assert len(grid.cells) == 2
        assert all(len(row) == 3 for row in grid.cells)

    def test_closed_form_close_to_exact_dp(self):
        values = [2, 10, 50]
        cf = beta_heatmap(values, values, 1.0, "closed_form")
        dp = beta_heatmap(values, values, 1.0, "exact_dp")
        for row_cf, row_dp in zip(cf.cells, dp.cells):
            for a, b in zip(row_cf, row_dp):
                assert abs(a.beta_star - b.beta_star) <= 0.1

    def test_less_coordination_without_clashes(self):
        values = [2, 5, 10, 20]
        high = beta_heatmap(values, values, 1.0, "closed_form")
        low = beta_heatmap(values, values, 0.0, "closed_form")
        mean_high = np.mean([c.beta_star for row in high.cells for c in row])
        mean_low = np.mean([c.beta_star for row in low.cells for c in row])
        assert mean_low < mean_high

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            beta_heatmap([], [1], 0.5, "closed_form")
        with pytest.raises(ValueError):
            beta_heatmap([5, 2], [1], 0.5, "closed_form")

    def test_cell_failures_recorded_not_raised(self):
        grid = beta_heatmap([10, 200_000], [1000], 0.5, "exact_dp")
        assert grid.cells[0][0] is not None
        assert grid.cells[0][1] is None
        assert (0, 1) in grid.errors

    @pytest.mark.parametrize("objective", ["closed_form", "exact_dp"])
    def test_grid_over_the_byte_budget_is_a_cell_error(self, objective):
        grid = beta_heatmap([5], [5], 1.0, objective, SearchConfig(grid_step=1e-9))
        assert grid.cells == [[None]]
        assert "budget" in grid.errors[(0, 0)]

    @pytest.mark.parametrize("grid_step", [0.01, 0.05])
    @pytest.mark.parametrize("alpha", [0.0, 0.00974, 0.5, 0.99999, 1.0])
    def test_closed_form_cells_equal_optimal_beta(self, alpha, grid_step):
        config = SearchConfig(grid_step=grid_step)
        n_values, e_values = (1, 2, 7, 31, 300, 10**5, 4 * 10**9), (1, 3, 12, 161, 2000)
        grid = beta_heatmap(n_values, e_values, alpha, "closed_form", config)
        assert grid.errors == {}
        for ri, e in enumerate(e_values):
            for ci, n in enumerate(n_values):
                assert repr(grid.cells[ri][ci]) == repr(optimal_beta(n, e, alpha, "closed_form",
                                                                     config))

    def test_closed_form_fine_grid_memory_is_bounded_by_the_block(self):
        # the scan holds one block of points and one cell's row, never a whole
        # heatmap's grid: 100 cells x 10,001 betas would be 8 MB as float64 alone
        tracemalloc.start()
        try:
            beta_heatmap(range(1, 11), range(1, 11), 0.5, "closed_form",
                         SearchConfig(grid_step=1e-4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_monte_carlo_cells_equal_optimal_beta_with_the_column_seed(self, alpha):
        config = SearchConfig(runs=400, seed=12)
        n_values, e_values = (2, 5, 130), (1, 4, 9)
        grid = beta_heatmap(n_values, e_values, alpha, "monte_carlo", config)
        assert grid.errors == {}
        for ri, e in enumerate(e_values):
            for ci, n in enumerate(n_values):
                column_config = SearchConfig(config.grid_step, config.runs,
                                             spawn_seed(config.seed, ci))
                assert grid.cells[ri][ci] == optimal_beta(n, e, alpha, "monte_carlo",
                                                          column_config)

    def test_monte_carlo_cell_is_refused_exactly_when_its_own_pass_is(self, monkeypatch):
        # room for 101 betas * 50 runs * 5 users: the E = 6 row is refused, and the
        # retried pass gives the smaller rows their usual values
        monkeypatch.setattr(limits, "STEP_BUDGET", 101 * 50 * 5)
        config = SearchConfig(runs=50, seed=4)
        grid = beta_heatmap([3, 8], [2, 5, 6], 1.0, "monte_carlo", config)
        assert grid.cells[2] == [None, None]
        assert sorted(grid.errors) == [(2, 0), (2, 1)]
        assert "n_users = 6" in grid.errors[(2, 0)] and "budget" in grid.errors[(2, 0)]
        for ri, e in enumerate([2, 5]):
            for ci, n in enumerate([3, 8]):
                column_config = SearchConfig(config.grid_step, config.runs,
                                             spawn_seed(config.seed, ci))
                assert grid.cells[ri][ci] == optimal_beta(n, e, 1.0, "monte_carlo",
                                                          column_config)

    @pytest.mark.parametrize("alpha,runs", [(2.0, 10), (1.0, None)])
    def test_monte_carlo_usage_errors_raise_before_any_pass(self, alpha, runs):
        with pytest.raises(ValueError):
            beta_heatmap([5], [5, 10**9], alpha, "monte_carlo",
                         SearchConfig(runs=runs, grid_step=1e-9))

    def test_monte_carlo_budget_is_a_cell_error(self):
        grid = beta_heatmap([5], [5], 1.0, "monte_carlo", SearchConfig(runs=10**15))
        assert grid.cells == [[None]]
        assert "budget" in grid.errors[(0, 0)]

    def test_csv_format(self):
        grid = beta_heatmap([5, 10], [10], 1.0, "closed_form")
        text = grid_to_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "# alpha=1.0"
        assert lines[1] == "# objective=closed_form"
        assert ",5,10" in lines
        data = lines[-1].split(",")
        assert data[0] == "10"
        assert data[1] == "1.0000"


@pytest.mark.parametrize("make,other", [
    (lambda: SearchConfig(grid_step=0.05, runs=10, seed=3), SearchConfig(0.05, 10, 4)),
    (lambda: ModelParams(7, 12, 0.6, 0.3), ModelParams(7, 12, 0.6, 0.4)),
], ids=["SearchConfig", "ModelParams"])
def test_model_track_records_are_immutable_values(make, other):
    record = make()
    assert isinstance(record, analytics.Record)  # one base for both tracks
    assert record == make() and hash(record) == hash(make()) and record != other
    assert copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in type(record).__slots__)
    assert repr(record) == f"{type(record).__name__}({fields})"
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, type(record).__slots__[0], None)


def test_model_track_records_share_no_mutable_default():
    assert SearchConfig() == SearchConfig(0.01, None, 0)
    assert BetaGrid._field_defaults == {}
    grids = [beta_heatmap([5], [5], 1.0, "closed_form") for _ in range(2)]
    assert grids[0].errors == {} and grids[0].errors is not grids[1].errors

