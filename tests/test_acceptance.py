"""End-to-end acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The heavy Monte Carlo grids are shared across criteria via
module-scoped fixtures.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from crowdcoord.analytics import core_curve, crowdedness_profile, x_core
from crowdcoord.cli import main
from crowdcoord.cohort import build_cohorts, control_eligible
from crowdcoord.model import ModelParams, exact_expectation, kernel_matrix, monte_carlo
from crowdcoord.solver import SearchConfig, approx_expectation, beta_heatmap, optimal_beta
from crowdcoord.stats import decile_heatmap, mann_whitney_u, median_split_quadrants
from crowdcoord.synth import SyntheticSpec, generate_synthetic

from oracles import (
    datetime_epoch_counts,
    enumerate_mwu_p,
    iterate_recurrence,
    synthetic_events,
    two_pick_outcome_dist,
)


def report(name):
    print(f"\n[PASS] {name}")


GRID_SIDE = (5, 10, 20, 40, 80)  # criterion 5/6 grid
MC_RUNS = 10_000


@pytest.fixture(scope="module")
def heatmaps():
    grids = {}
    for alpha in (1.0, 0.0):
        grids[("monte_carlo", alpha)] = beta_heatmap(
            GRID_SIDE, GRID_SIDE, alpha, "monte_carlo",
            SearchConfig(runs=MC_RUNS, seed=20260826),
        )
        grids[("closed_form", alpha)] = beta_heatmap(
            GRID_SIDE, GRID_SIDE, alpha, "closed_form"
        )
    return grids


def grid_betas(grid):
    return np.array([[cell.beta_star for cell in row] for row in grid.cells])


def test_criterion_01_collision_formula_oracle():
    start = time.time()
    for n in range(1, 21):
        for alpha in (0.0, 0.3, 0.5, 1.0):
            # at beta = 0, row c of the kernel is one non-coordinator's move from c
            kernel = kernel_matrix(ModelParams(n, 1, alpha, 0.0))
            for c in range(n + 1):
                expected = two_pick_outcome_dist(c, n, alpha)
                for k in (-2, -1, 0, 1, 2):
                    got = kernel[c, c + k] if 0 <= c + k <= n else 0.0
                    assert abs(got - expected.get(k, 0.0)) <= 1e-12, (n, c, alpha, k)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    report(f"criterion 1: collision formulas match enumeration for all C <= N <= 20 ({elapsed:.1f}s)")


def test_criterion_02_closed_form_identity():
    rng = np.random.default_rng(12)
    start = time.time()
    checked_a1 = 0
    for i in range(1000):
        n = int(rng.integers(1, 60))
        e = int(rng.integers(1, 300))
        alpha = float(rng.uniform())
        beta = 1.0 if i % 10 == 0 else float(rng.uniform())  # exercise the A=1 branch
        cf = approx_expectation(n, e, alpha, beta)
        it = iterate_recurrence(n, e, alpha, beta)
        assert cf == pytest.approx(it, rel=1e-9, abs=1e-9), (n, e, alpha, beta)
        if beta == 1.0:
            checked_a1 += 1
            assert cf == float(e)
    elapsed = time.time() - start
    assert elapsed < 1.0
    assert checked_a1 == 100
    report(f"criterion 2: closed form == iterated recurrence on 1000 draws ({elapsed:.2f}s)")


def test_criterion_03_approximation_vs_exact_sanity():
    assert exact_expectation(ModelParams(1, 1, 1.0, 0.0)) == 0.0
    assert approx_expectation(1, 1, 1.0, 0.0) == 0.0
    assert exact_expectation(ModelParams(2, 1, 0.0, 0.0)) == pytest.approx(1.5, abs=1e-12)
    assert approx_expectation(2, 1, 0.0, 0.0) == pytest.approx(1.5, abs=1e-12)
    for n, e in [(3, 3), (5, 3), (10, 10), (17, 4)]:
        for alpha in (0.0, 0.5, 1.0):
            assert exact_expectation(ModelParams(n, e, alpha, 1.0)) == float(e)
            assert approx_expectation(n, e, alpha, 1.0) == float(e)
    report("criterion 3: exact and closed form agree on the anchor points")


def test_criterion_04_paper_limit_claims():
    start = time.time()
    for n in range(1, 30):
        for e in range(n + 1, 31):
            r = optimal_beta(n, e, 1.0, "exact_dp")
            if n == 1:
                # the single-part objective 1 - (1 - beta)^E is flat to machine
                # precision near beta=1 once E >= 6, so the smallest-beta tie
                # rule may label the optimum below 1.0; require that the
                # returned point attains the beta=1 value instead
                full = exact_expectation(ModelParams(n, e, 1.0, 1.0))
                assert abs(r.value - full) <= 1e-12, (n, e, r.beta_star, r.value)
            else:
                assert r.beta_star == 1.0, (n, e, r.beta_star)
    for n, e in [(100, 1), (200, 1), (300, 1), (200, 2), (300, 2), (300, 3)]:
        r = optimal_beta(n, e, 1.0, "exact_dp")
        assert r.beta_star <= 0.05, (n, e, r.beta_star)
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(f"criterion 4: beta*=1 when E > N; beta* <= 0.05 when N >= 100E ({elapsed:.0f}s)")


def test_criterion_05_simulation_analytics_agreement(heatmaps):
    mc = grid_betas(heatmaps[("monte_carlo", 1.0)])
    cf = grid_betas(heatmaps[("closed_form", 1.0)])
    worst = float(np.max(np.abs(mc - cf)))
    assert worst <= 0.1, f"worst per-cell |beta*_mc - beta*_cf| = {worst}"
    report(f"criterion 5: Monte Carlo vs closed-form beta* within 0.1 per cell (worst {worst:.3f})")


def test_criterion_06_less_coordination_without_clashes(heatmaps):
    for objective in ("monte_carlo", "closed_form"):
        mean_a1 = grid_betas(heatmaps[(objective, 1.0)]).mean()
        mean_a0 = grid_betas(heatmaps[(objective, 0.0)]).mean()
        assert mean_a0 < mean_a1, (objective, mean_a0, mean_a1)
    report("criterion 6: mean beta* strictly lower at alpha=0 for both objectives")


def test_criterion_07_monte_carlo_consistency():
    runs = 50_000
    for n in (1, 2, 5, 10):
        for e in (1, 2, 5, 10):
            for alpha in (0.0, 0.5, 1.0):
                for beta in (0.0, 0.5, 1.0):
                    params = ModelParams(n, e, alpha, beta)
                    r = monte_carlo(params, runs, seed=777)
                    exact = exact_expectation(params)
                    tol = 4 * r.std_error + 1e-9
                    if r.std_error == 0.0:
                        # every run agreed; bound the unseen-outcome rate by
                        # the rule of three instead of a zero-width band
                        tol = 3.0 * n / runs
                    assert abs(r.mean_finished - exact) <= tol, (
                        n, e, alpha, beta, r.mean_finished, exact,
                    )
    report("criterion 7: Monte Carlo within 4 standard errors of exact DP on the full grid")


def test_criterion_08_x_core_oracle():
    rng = np.random.default_rng(88)
    for _ in range(200):
        n_actors = int(rng.integers(1, 13))
        counts = {f"u{i:02d}": int(rng.integers(1, 30)) for i in range(n_actors)}
        x = float(rng.uniform(0.01, 1.0))
        greedy = x_core(counts, x)
        # brute force: smallest subset, first in (count desc, id asc) order
        actors = sorted(counts, key=lambda a: (-counts[a], a))
        target = x * sum(counts.values())
        brute = None
        for size in range(1, n_actors + 1):
            for combo in combinations(range(n_actors), size):
                if sum(counts[actors[i]] for i in combo) >= target:
                    brute = {actors[i] for i in combo}
                    break
            if brute is not None:
                break
        assert greedy == brute, (counts, x)

    # shares and core fraction reach 1 at x = 1
    from crowdcoord.analytics import Event, ProjectLog

    for seed in range(20):
        r = np.random.default_rng(seed)
        events = []
        for i in range(int(r.integers(2, 8))):
            actor = f"a{i}"
            events += [Event("p", actor, int(r.integers(0, 50)), "work")
                       for _ in range(int(r.integers(1, 6)))]
            events += [Event("p", actor, int(r.integers(50, 99)), "discussion")
                       for _ in range(int(r.integers(0, 4)))]
            events += [Event("p", actor, int(r.integers(99, 150)), "comment")
                       for _ in range(int(r.integers(0, 4)))]
        log = ProjectLog.from_events("p", events)
        curve = core_curve(log, [0.4, 1.0])
        assert curve.core_fraction[-1] == 1.0
        assert curve.d_share[-1] in (None, 1.0)
        assert curve.c_share[-1] in (None, 1.0)
    report("criterion 8: greedy x-core equals brute force on 200 logs; 1-core shares reach 1")


def test_criterion_09_analytics_recovery(tmp_path):
    spec = SyntheticSpec(n_projects=300, structure="crowded", max_actors=50,
                         crowding_scale=1.0e5)
    corpus = generate_synthetic(spec, seed=99)
    from crowdcoord.analytics import ProjectLog

    logs = {}
    for event in synthetic_events(corpus):
        logs.setdefault(event.project_id, []).append(event)
    records = []
    for pid, events in logs.items():
        log = ProjectLog.from_events(pid, events, corpus.metadata[pid]["final_size"])
        profile = crowdedness_profile(log, k=60)
        records.append(
            (float(profile.output_size), float(len(profile.early_team)),
             float(profile.early_coordination))
        )
    summary = median_split_quadrants(records)
    crowded = summary.cells[("low", "high")].median_coordination
    assert all(
        crowded >= summary.cells[key].median_coordination
        for key in summary.cells
        if summary.cells[key].count
    ), summary.cells
    grid = decile_heatmap(records)
    values = np.array(grid.values)
    crowded_corner = float(np.nanmean(values[7:, :3]))
    sparse_corner = float(np.nanmean(values[:3, 7:]))
    assert crowded_corner >= 2.0 * sparse_corner, (crowded_corner, sparse_corner)
    report("criterion 9: planted crowdedness recovered by quadrants and decile heatmap")


def test_criterion_10_mwu_exactness():
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            values = list(range(1, n1 + n2 + 1))
            for combo in combinations(range(n1 + n2), n1):
                chosen = set(combo)
                a = [float(values[i]) for i in combo]
                b = [float(values[i]) for i in range(n1 + n2) if i not in chosen]
                r = mann_whitney_u(a, b)
                assert r.method == "exact"
                assert r.p_value == enumerate_mwu_p(a, b), (a, b)
    # strict banding thresholds
    from crowdcoord.stats import significance_band

    assert significance_band(0.0009999) == "p001"
    assert significance_band(0.001) == "p01"
    assert significance_band(0.05) == "ns"
    report("criterion 10: exact MWU p-values match full enumeration for n <= 4; bands strict")


def test_criterion_11_cohort_validity():
    spec = SyntheticSpec(
        structure="cohort", n_projects=1, n_featured=40,
        planted_controls=20, noise_candidates=4,
    )
    corpus_data = generate_synthetic(spec, seed=31)
    from crowdcoord.analytics import ProjectLog

    logs = {}
    for event in synthetic_events(corpus_data):
        logs.setdefault(event.project_id, []).append(event)
    corpus = {pid: ProjectLog.from_events(pid, events) for pid, events in logs.items()}
    assert len(corpus) == 40 * (1 + 20 + 4) == 1000
    labels = {
        pid: meta["featured_year"]
        for pid, meta in corpus_data.metadata.items()
        if "featured_year" in meta
    }
    cohort = build_cohorts(corpus, labels, k=12, seed=5)
    rerun = build_cohorts(corpus, labels, k=12, seed=5)
    assert cohort == rerun

    seen = set()
    for fid in cohort.featured:
        controls = cohort.controls_by_featured[fid]
        assert controls, fid
        assert not set(controls) & seen
        seen |= set(controls)
        fc = datetime_epoch_counts(corpus[fid], labels[fid])
        for cid in controls:
            cc = datetime_epoch_counts(corpus[cid], labels[fid])
            # independent re-check of every eligibility condition
            assert abs(fc.before - cc.before) / fc.before < 0.05
            assert abs(fc.after - cc.after) / fc.after < 0.05
            assert fc.before < cc.before
            assert control_eligible(fc, cc, 0.05, True)
    assert seen == set(cohort.control_union)
    report("criterion 11: every control re-verified eligible; lists disjoint; reruns identical")


def test_criterion_12_cli_determinism(tmp_path):
    synth_dir = tmp_path / "corpus"
    assert main(["synth", "--projects", "60", "--structure", "crowded",
                 "--seed", "4", "--out", str(synth_dir)]) == 0
    cohort_dir = tmp_path / "cohort_corpus"
    assert main(["synth", "--structure", "cohort", "--featured", "6",
                 "--planted-controls", "6", "--noise-candidates", "2",
                 "--seed", "4", "--out", str(cohort_dir)]) == 0
    corpus_files = ["--events", str(synth_dir / "events.jsonl"),
                    "--metadata", str(synth_dir / "metadata.csv")]
    invocations = {
        "simulate": ["simulate", "--n", "5", "--e", "8", "--alpha", "1", "--beta", "0.4",
                     "--runs", "2000", "--seed", "3"],
        "dp": ["dp", "--n", "6", "--e", "9", "--alpha", "0.5", "--beta", "0.3"],
        "optimize": ["optimize", "--n", "8", "--e", "6", "--alpha", "1",
                     "--objective", "mc", "--runs", "1000", "--seed", "2"],
        "heatmap": ["heatmap", "--n", "2,5,10", "--e", "2,5,10", "--alpha", "1",
                    "--objective", "cf"],
        "mwu": ["mwu", "--a", "1,2,9", "--b", "3,4,5,6"],
        "xcore": ["xcore", *corpus_files, "--x", "0.5", "--x", "1.0"],
        "crowd": ["crowd", *corpus_files, "--k", "40"],
        "quadrants": ["quadrants", *corpus_files, "--k", "40"],
        "bins": ["bins", *corpus_files, "--k", "40"],
        "cohort": ["cohort", "--events", str(cohort_dir / "events.jsonl"),
                   "--metadata", str(cohort_dir / "metadata.csv"),
                   "--k", "3", "--seed", "7"],
    }
    for name, argv in invocations.items():
        out = tmp_path / f"{name}.csv"
        manifest = tmp_path / f"{name}.csv.manifest.json"
        outputs = []
        for _attempt in range(2):  # identical flags, identical out path
            assert main(argv + ["--out", str(out)]) == 0, name
            outputs.append((out.read_bytes(), manifest.read_bytes()))
        assert outputs[0] == outputs[1], f"{name} output not byte-stable"

    # synth itself: byte-identical corpus for the same seed
    rerun_dir = tmp_path / "corpus2"
    assert main(["synth", "--projects", "60", "--structure", "crowded",
                 "--seed", "4", "--out", str(rerun_dir)]) == 0
    for fname in ("events.jsonl", "metadata.csv", "ground_truth.json"):
        assert (synth_dir / fname).read_bytes() == (rerun_dir / fname).read_bytes()
    report("criterion 12: every subcommand byte-stable across reruns")
