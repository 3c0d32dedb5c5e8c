"""The scripts in ``scripts/`` run end to end and leave a manifest beside each result CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# crowding_pipeline.py also writes its input corpus (events.jsonl, metadata.csv)
@pytest.mark.parametrize("script,args,results", [
    ("crowding_pipeline.py", ["--projects", "40", "--k", "20"],
     ["decile_grid.csv", "metadata.csv", "quadrants.csv"]),
    ("run_beta_grids.py", ["--grid", "2,5"],
     ["beta_closed_form_alpha0.csv", "beta_closed_form_alpha1.csv"]),
    ("run_beta_grids.py", ["--objective", "monte_carlo", "--runs", "200", "--grid", "2,5"],
     ["beta_monte_carlo_alpha0.csv", "beta_monte_carlo_alpha1.csv"]),
    # every cell over the Monte Carlo budget, so every cell NA
    ("run_beta_grids.py", ["--objective", "monte_carlo", "--runs", "100000000", "--grid", "2,5"],
     ["beta_monte_carlo_alpha0.csv", "beta_monte_carlo_alpha1.csv"]),
])
def test_script_writes_csvs_with_manifests(tmp_path, script, args, results):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == results
    for name in results:
        if name != "metadata.csv":
            assert (tmp_path / f"{name}.manifest.json").is_file(), name
