import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdcoord.errors import BudgetExceededError
import crowdcoord.limits as limits
import crowdcoord.model as model
from crowdcoord.model import (
    MC_BLOCK_BYTES,
    MC_BYTES_PER_RUN,
    ModelParams,
    exact_expectation,
    exact_expectations,
    kernel_matrix,
    monte_carlo,
    monte_carlo_means,
)

from oracles import (
    block_simulate,
    dense_expectation,
    dense_kernel,
    float_hit_monte_carlo_means,
    full_width_expectations,
    full_width_step,
    simulate,
    two_pick_outcome_dist,
)

alphas = st.sampled_from([0.0, 0.3, 0.5, 1.0])
probs = st.floats(min_value=0.0, max_value=1.0)
# the ends and the middle of [0, 1] as often as anywhere else in it
edge_probs = st.sampled_from([0.0, 0.5, 1.0]) | probs


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def live_window_cells(draw, relation):
    """(N, E) with 2E below, at or above N, N in 1..300."""
    if relation == "2E < N":
        n = draw(st.integers(3, 300))
        return n, draw(st.integers(1, (n - 1) // 2))
    if relation == "2E = N":
        e = draw(st.integers(1, 150))
        return 2 * e, e
    n = draw(st.integers(1, 300))
    return n, draw(st.integers(n // 2 + 1, n // 2 + 30))


def params(n, e=1, alpha=0.0, beta=0.0):
    return ModelParams(n_parts=n, n_users=e, alpha=alpha, beta=beta)


def kernel_row_deltas(c, n, alpha):
    """Net change k -> probability from one non-coordinator at count c (kernel row c, beta = 0)."""
    row = kernel_matrix(params(n, alpha=alpha))[c]
    return {k: float(row[c + k]) if 0 <= c + k <= n else 0.0 for k in (-2, -1, 0, 1, 2)}


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            ModelParams(1, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            ModelParams(1, 1, 1.5, 0.5)
        with pytest.raises(ValueError):
            ModelParams(1, 1, 0.5, -0.1)


class TestCollisionDeltas:
    def test_no_finished_parts_full_clash(self):
        d = kernel_row_deltas(0, 5, 1.0)
        assert d[2] == pytest.approx(0.8, abs=1e-12)
        assert d[0] == pytest.approx(0.2, abs=1e-12)
        assert d[1] == d[-1] == d[-2] == 0.0

    def test_all_finished_full_clash(self):
        d = kernel_row_deltas(4, 4, 1.0)
        assert d[-2] == pytest.approx(0.75, abs=1e-12)
        assert d[0] == pytest.approx(0.25, abs=1e-12)

    def test_half_clash_midstate(self):
        # frozen from the two-pick enumeration oracle
        d = kernel_row_deltas(1, 2, 0.5)
        assert d[1] == pytest.approx(0.375, abs=1e-12)
        assert d[-1] == pytest.approx(0.0625, abs=1e-12)
        assert d[0] == pytest.approx(0.5625, abs=1e-12)
        assert d[2] == d[-2] == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_enumeration(self, n, alpha):
        for c in range(n + 1):
            got = kernel_row_deltas(c, n, alpha)
            expected = two_pick_outcome_dist(c, n, alpha)
            for k in (-2, -1, 0, 1, 2):
                assert got[k] == pytest.approx(expected.get(k, 0.0), abs=1e-12)

    def test_paper_formulas(self):
        # X_{c,2}, X_{c,1}, X_{c,-1}, X_{c,-2} in closed form
        for n in (3, 7, 12):
            for alpha in (0.0, 0.4, 1.0):
                for c in range(n + 1):
                    d = kernel_row_deltas(c, n, alpha)
                    assert d[2] == pytest.approx((n - c) * (n - c - 1) / n**2, abs=1e-12)
                    assert d[1] == pytest.approx(
                        (1 - alpha) * (c * (n - c) + (n - c) * (c + 1)) / n**2, abs=1e-12
                    )
                    assert d[-1] == pytest.approx(
                        alpha * (1 - alpha) * (c * (c - 1) + c**2) / n**2, abs=1e-12
                    )
                    assert d[-2] == pytest.approx(alpha**2 * c * (c - 1) / n**2, abs=1e-12)

    @given(
        n=st.integers(1, 20),
        alpha=probs,
    )
    @settings(max_examples=50, deadline=None)
    def test_normalized(self, n, alpha):
        for c in range(n + 1):
            d = kernel_row_deltas(c, n, alpha)
            assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(p >= 0.0 for p in d.values())
        at_zero = kernel_row_deltas(0, n, alpha)
        assert at_zero[-1] == 0.0 and at_zero[-2] == 0.0

    @pytest.mark.parametrize("n", [2, 5, 17, 50])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_expected_net_change_is_affine(self, n, alpha):
        # slope/intercept implied by the recurrence coefficients
        slope = (1 + alpha) ** 2 / n**2 - 2 * (1 + alpha) / n
        intercept = 2 - (1 + alpha) / n
        for c in range(n + 1):
            d = kernel_row_deltas(c, n, alpha)
            mean = sum(k * p for k, p in d.items())
            assert mean == pytest.approx(slope * c + intercept, abs=1e-10)


class TestKernelRow:
    def test_single_part_coordinator(self):
        row = kernel_matrix(params(1, beta=1.0))[0]
        assert row[1] == 1.0

    def test_two_parts_full_clash(self):
        row = kernel_matrix(params(2, alpha=1.0, beta=0.0))[0]
        assert row[0] == pytest.approx(0.5)
        assert row[2] == pytest.approx(0.5)

    def test_coordinator_noop_at_full(self):
        row = kernel_matrix(params(4, beta=1.0))[4]
        assert row[4] == 1.0

    @given(
        n=st.integers(1, 15),
        alpha=probs,
        beta=probs,
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_are_distributions(self, n, alpha, beta):
        k = kernel_matrix(ModelParams(n, 1, alpha, beta))
        assert np.all(k >= 0.0)
        assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(k - dense_kernel(n, alpha, beta)).max() <= 1e-15

    @given(n=st.integers(1, 40), alpha=edge_probs, beta=edge_probs)
    @settings(max_examples=60, deadline=None)
    def test_is_one_oracle_step_of_the_identity_bit_for_bit(self, n, alpha, beta):
        assert (hexes(kernel_matrix(ModelParams(n, 1, alpha, beta)))
                == hexes(full_width_step(np.eye(n + 1), alpha, beta)))


class TestExactExpectation:
    def test_forced_clash(self):
        assert exact_expectation(params(1, 1, alpha=1.0, beta=0.0)) == 0.0

    def test_all_coordinators(self):
        assert exact_expectation(ModelParams(5, 3, 0.7, 1.0)) == 3.0

    def test_two_step_hand_value(self):
        assert exact_expectation(params(2, 2, alpha=1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_alpha(self):
        for n, e, beta in [(3, 4, 0.0), (5, 5, 0.5), (8, 3, 0.2)]:
            values = [
                exact_expectation(ModelParams(n, e, alpha, beta))
                for alpha in (0.0, 0.25, 0.5, 0.75, 1.0)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            exact_expectation(ModelParams(200_000, 1_000, 0.5, 0.5))

    def test_one_beta_checks_its_arguments_once(self, monkeypatch):
        # ModelParams checks them; exact_expectation goes straight to the charged pass
        calls = []

        def counted(*args):
            calls.append(args)
            return limits.check_ranges(*args)

        monkeypatch.setattr(model, "check_ranges", counted)
        value = exact_expectation(ModelParams(9, 4, 0.5, 0.3))
        assert len(calls) == 1
        assert value == exact_expectations(9, 4, 0.5, [0.3])[0]
        assert len(calls) == 2

    def test_one_beta_over_the_byte_budget_is_refused(self):
        # 20_000_000 state-steps pass the step budget, but one distribution
        # with its picks needs 7 * 8 * (n + 1) bytes, over 2**30
        with pytest.raises(BudgetExceededError, match="bytes"):
            exact_expectations(20_000_000, 1, 0.5, [0.5])

    def test_long_beta_vectors_are_split_within_the_byte_budget(self):
        def blocks(args, budget=limits.BYTES_BUDGET, cap=model.EXACT_BLOCK_BYTES):
            """The values, and the rows of each block stepped."""
            rows, steps = [], model._steps

            def counted(mass, *rest):
                rows.append(len(mass))
                return steps(mass, *rest)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(limits, "BYTES_BUDGET", budget)
                mp.setattr(model, "EXACT_BLOCK_BYTES", cap)
                mp.setattr(model, "_steps", counted)
                return exact_expectations(*args), rows

        betas = np.linspace(0.0, 1.0, 11)
        # 2E below, at and above N; each block keeps the full-width pass's bits
        for n, e in [(30, 6), (12, 6), (9, 6)]:
            whole, rows = blocks((n, e, 0.4, betas))
            assert rows == [11]
            # room for two betas per block: four (2, N + 1) blocks plus the band's three rows
            budget = 8 * (n + 1) * (4 * 2 + 3)
            split, rows = blocks((n, e, 0.4, betas), budget=budget)
            assert rows == [2, 2, 2, 2, 2, 1]
            # three betas' step buffers per block: four float64 blocks of the live width,
            # and the byte budget still caps the block
            cap = 8 * 4 * (min(n, 2 * e) + 1) * 3
            cached, rows = blocks((n, e, 0.4, betas), cap=cap)
            assert rows == [3, 3, 3, 2]
            capped, rows = blocks((n, e, 0.4, betas), budget=budget, cap=cap)
            assert rows == [2, 2, 2, 2, 2, 1]
            assert (hexes(split) == hexes(cached) == hexes(capped) == hexes(whole)
                    == hexes(full_width_expectations(n, e, 0.4, betas)))
        # the bench's 101-beta grids, at live widths up to 41, stay one block
        assert blocks((300, 20, 1.0, np.linspace(0.0, 1.0, 101)))[1] == [101]

    def test_rejects_betas_out_of_range(self):
        with pytest.raises(ValueError, match="beta"):
            exact_expectations(5, 3, 0.5, [0.2, 1.5])
        with pytest.raises(ValueError, match="beta"):
            exact_expectations(5, 3, 0.5, [np.nan])
        # an array is checked in one comparison and names itself in the same message
        for bad in (np.nan, -0.1, 1.1):
            betas = np.array([0.0, 0.5, bad, 1.0])
            for call in (lambda: limits.check_ranges(5, 3, 0.5, betas),
                         lambda: exact_expectations(5, 3, 0.5, betas),
                         lambda: monte_carlo_means(5, [3], 0.5, betas, 10, 0)):
                with pytest.raises(ValueError) as refused:
                    call()
                assert str(refused.value) == f"beta must be in [0, 1], got {betas}"

    @given(
        n=st.integers(1, 60),
        e=st.integers(1, 30),
        alpha=probs,
        betas=st.lists(probs, min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_equals_dense_oracle(self, n, e, alpha, betas):
        batched = exact_expectations(n, e, alpha, betas)
        assert batched.shape == (len(betas),)
        for beta, value in zip(betas, batched):
            assert abs(value - dense_expectation(n, e, alpha, beta)) <= 1e-12
            assert value == exact_expectation(ModelParams(n, e, alpha, beta))


class TestLiveCountWindow:
    """exact_expectations moves only the counts 0..min(N, 2E), bit for bit the full pass."""

    @pytest.mark.parametrize("relation", ["2E < N", "2E = N", "2E > N"])
    @given(data=st.data(), alpha=edge_probs,
           betas=st.lists(edge_probs, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_full_width_pass(self, relation, data, alpha, betas):
        n, e = data.draw(live_window_cells(relation))
        assert (hexes(exact_expectations(n, e, alpha, betas))
                == hexes(full_width_expectations(n, e, alpha, betas)))


class TestSimulate:
    def test_coordinators_never_collide(self):
        for seed in range(5):
            assert simulate(ModelParams(3, 3, 0.5, 1.0), seed) == 3

    def test_forced_clash(self):
        for seed in range(5):
            assert simulate(params(1, 1, alpha=1.0), seed) == 0

    def test_bit_reproducible(self):
        p = ModelParams(7, 12, 0.6, 0.3)
        assert [simulate(p, 42)] * 10 == [simulate(p, 42) for _ in range(10)]


class TestMonteCarlo:
    def test_deterministic_beta_one(self):
        r = monte_carlo(ModelParams(5, 3, 0.2, 1.0), 100, 7)
        assert r.mean_finished == 3.0
        assert r.std_error == 0.0

    def test_forced_clash(self):
        r = monte_carlo(params(1, 1, alpha=1.0), 10, 3)
        assert r.mean_finished == 0.0

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo(params(2), 0, 0)

    @pytest.mark.parametrize("runs", [50_000, 200_000])
    def test_peak_memory_within_the_bytes_charged(self, runs):
        tracemalloc.start()
        try:
            monte_carlo(ModelParams(10, 5, 1.0, 0.5), runs, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= runs * MC_BYTES_PER_RUN

    @given(
        n=st.integers(1, 6),
        e=st.integers(1, 6),
        alpha=probs,
        beta=probs,
        runs=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_runs_over_the_same_blocks(self, n, e, alpha, beta, runs, seed):
        # pins the (runs, 5) block layout that RNG_DESCRIPTION promises
        p = ModelParams(n, e, alpha, beta)
        assert monte_carlo(p, runs, seed) == block_simulate(p, runs, seed)

    def test_reproducible(self):
        p = ModelParams(6, 9, 0.4, 0.5)
        assert monte_carlo(p, 500, 11) == monte_carlo(p, 500, 11)

    # int8 and int16 counts, and 20_000 runs take two blocks of run-states
    @pytest.mark.parametrize("n,alpha,runs,seed", [
        (5, 1.0, 300, 3), (20, 0.4, 2_000, 9), (130, 0.0, 50, 1), (3, 0.5, 20_000, 11),
    ])
    def test_shared_pass_equals_one_pass_per_beta(self, n, alpha, runs, seed):
        betas = np.linspace(0.0, 1.0, 11)
        e_values = [1, 4, 9]
        means, std_errors = monte_carlo_means(n, e_values, alpha, betas, runs, seed)
        assert means.shape == std_errors.shape == (3, 11)
        for i, e in enumerate(e_values):
            for b, beta in enumerate(betas):
                alone = monte_carlo(ModelParams(n, e, alpha, float(beta)), runs, seed)
                assert (means[i, b], std_errors[i, b]) == (alone.mean_finished, alone.std_error)

    @given(
        n=st.integers(1, 6),
        e_values=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True).map(sorted),
        alpha=probs,
        betas=st.lists(probs, min_size=1, max_size=4),
        runs=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 2, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocked_shared_pass_matches_scalar_runs(self, n, e_values, alpha, betas, runs,
                                                     seed, block):
        # blocks far smaller than the runs split both the runs and the betas
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "MC_BLOCK", block)
            means, std_errors = monte_carlo_means(n, e_values, alpha, betas, runs, seed)
        for i, e in enumerate(e_values):
            for b, beta in enumerate(betas):
                alone = block_simulate(ModelParams(n, e, alpha, beta), runs, seed)
                assert (means[i, b], std_errors[i, b]) == (alone.mean_finished, alone.std_error)

    @pytest.mark.parametrize("n", [127, 128, 32_767, 32_768])
    def test_counts_at_the_dtype_boundaries(self, n):
        # every user coordinates and the last finds no empty part: a count that
        # overflowed its dtype would wrap negative
        assert monte_carlo(ModelParams(n, n + 1, 0.0, 1.0), 2, 0).mean_finished == n

    def test_shared_pass_peak_memory_within_the_bytes_charged(self):
        runs, n_betas = 20_000, 101
        tracemalloc.start()
        try:
            monte_carlo_means(10, [2, 3], 1.0, np.linspace(0.0, 1.0, n_betas), runs, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= runs * (MC_BYTES_PER_RUN + n_betas) + MC_BLOCK_BYTES  # int8 counts

    @given(
        n=st.integers(1, 300) | st.sampled_from([127, 128, 2**53, 2**53 + 1, 2**62]),
        e_values=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted),
        alpha=edge_probs,
        betas=st.lists(edge_probs, min_size=1, max_size=5),
        runs=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 3, 7, 2**14]),
    )
    @settings(max_examples=150, deadline=None)
    @example(n=100, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_191,
             seed=4, block=2**14)
    @example(n=100, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_192,
             seed=4, block=2**14)
    @example(n=100, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_193,
             seed=4, block=2**14)
    @example(n=100, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=20_001,
             seed=4, block=2**14)
    @example(n=1_000, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_191,
             seed=4, block=2**14)
    @example(n=1_000, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_192,
             seed=4, block=2**14)
    @example(n=1_000, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_193,
             seed=4, block=2**14)
    @example(n=1_000, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=20_001,
             seed=4, block=2**14)
    @example(n=10**5, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_191,
             seed=4, block=2**14)
    @example(n=10**5, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_192,
             seed=4, block=2**14)
    @example(n=10**5, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_193,
             seed=4, block=2**14)
    @example(n=10**5, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=20_001,
             seed=4, block=2**14)
    @example(n=2**40, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_191,
             seed=4, block=2**14)
    @example(n=2**40, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_192,
             seed=4, block=2**14)
    @example(n=2**40, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=8_193,
             seed=4, block=2**14)
    @example(n=2**40, e_values=[1, 5, 12], alpha=0.5, betas=[0.0, 0.3, 1.0], runs=20_001,
             seed=4, block=2**14)
    def test_integer_rooms_are_the_float_hits_bit_for_bit(self, n, e_values, alpha, betas,
                                                          runs, seed, block):
        # runs that are not a multiple of the block width, int8 to int64 counts, N past
        # 2**53, where the float test is kept, and, in the examples, runs on either side
        # of NumPy's 8,192-element reduction buffer against the oracle's per-row statistics
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "MC_BLOCK", block)
            got = monte_carlo_means(n, e_values, alpha, betas, runs, seed)
        expected = float_hit_monte_carlo_means(n, e_values, alpha, betas, runs, seed,
                                               model._count_dtype(n))
        assert [hexes(a) for a in got] == [hexes(a) for a in expected]

    @pytest.mark.parametrize("n", [127, 128])
    def test_integer_rooms_at_the_int8_boundary(self, n):
        # long enough that counts reach N, across two blocks of run-states
        betas = [0.0, 0.3, 1.0]
        got = monte_carlo_means(n, [n // 2, n + 40], 0.5, betas, 20_001, 5)
        expected = float_hit_monte_carlo_means(n, [n // 2, n + 40], 0.5, betas, 20_001, 5,
                                               model._count_dtype(n))
        assert [hexes(a) for a in got] == [hexes(a) for a in expected]

    @pytest.mark.parametrize("e_values", [[], [3, 2], [2, 2]])
    def test_user_counts_must_ascend(self, e_values):
        with pytest.raises(ValueError, match="ascending"):
            monte_carlo_means(5, e_values, 1.0, [0.5], 10, 0)

    @pytest.mark.parametrize(
        "n,e,alpha,beta",
        [(2, 2, 1.0, 0.0), (5, 8, 0.5, 0.3), (10, 10, 1.0, 0.7), (4, 6, 0.0, 0.0)],
    )
    def test_agrees_with_exact(self, n, e, alpha, beta):
        p = ModelParams(n, e, alpha, beta)
        r = monte_carlo(p, 100_000, 123)
        exact = exact_expectation(p)
        assert abs(r.mean_finished - exact) <= 4 * r.std_error + 1e-9

    def test_agreement_with_scalar_simulate(self):
        # same process, two independent implementations
        p = ModelParams(3, 5, 1.0, 0.4)
        sample = [simulate(p, seed) for seed in range(4000)]
        mean = sum(sample) / len(sample)
        se = np.std(sample, ddof=1) / math.sqrt(len(sample))
        exact = exact_expectation(p)
        assert abs(mean - exact) <= 4 * se
