"""The scripts in ``scripts/`` run end to end and leave a manifest beside each result CSV."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crowdcoord import limits

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


def test_crowding_pipeline_writes_the_commands_bytes_from_one_ingest(tmp_path, capsys):
    # quadrants.csv and decile_grid.csv, their manifests and the skip warnings are what
    # `crowdcoord quadrants` and `crowdcoord bins` write on the script's corpus; the CSV
    # digests were recorded when the script still ran the two commands one after the other
    from crowdcoord import cli

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = tmp_path / "pipeline"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "crowding_pipeline.py"),
         "--projects", "40", "--k", "250", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    digests = {
        "quadrants.csv": "2ea08a4ee71c00e51b0f6ed4a9cc5280d87ace495420544d00c134b9c9ef5d52",
        "decile_grid.csv": "02be572992017b34a6d5f04c45225496221ba6db0a3d8eeaae1bb188f944009a",
    }
    files = ["--events", out / "events.jsonl", "--metadata", out / "metadata.csv", "--k", 250]
    warnings = []
    for (name, digest), command in zip(digests.items(), ("quadrants", "bins")):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        alone = tmp_path / name
        assert cli.main([str(a) for a in (command, *files, "--out", alone)]) == 0
        warnings.append(capsys.readouterr().err)
        assert (out / name).read_bytes() == alone.read_bytes(), name
        manifest = f"{name}.manifest.json"
        assert (out / manifest).read_bytes() == (tmp_path / manifest).read_bytes(), manifest
    lines = done.stderr.splitlines()
    assert lines and len(set(lines)) == len(lines), done.stderr
    assert done.stderr == warnings[0] == warnings[1]
    assert done.stdout == (out / "quadrants.csv").read_text(encoding="utf-8")


# too few profiled projects for quadrants (4), then for bins (10): a data error, as the
# two commands report it, after the outputs that had enough
@pytest.mark.parametrize("projects,message,written", [
    (3, "quadrants needs at least 4 profiled projects with a final_size, got 3", []),
    (6, "bins needs at least 10 profiled projects with a final_size, got 6", ["quadrants.csv"]),
])
def test_crowding_pipeline_data_error_on_too_few_projects(tmp_path, projects, message, written):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "crowding_pipeline.py"),
         "--projects", str(projects), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr, done.stdout) == (2, f"data error: {message}\n", "")
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["metadata.csv", *written]


# refused before any corpus or CSV is written, each in one line as the CLI reports it
@pytest.mark.parametrize("script,args,status,message", [
    ("crowding_pipeline.py", ["--projects", "0"], 1, "usage error: n_projects must be >= 1"),
    ("crowding_pipeline.py", ["--seed", "-1"], 1, "usage error: expected non-negative integer"),
    ("crowding_pipeline.py", ["--out", os.path.join(os.devnull, "x")], 2, "data error: "),
    ("crowding_pipeline.py", ["--projects", "100000000"], 3,
     "resource error: a synthetic corpus of 100000000 projects"),
    ("crowding_pipeline.py", ["--projects", "abc"], 1,
     "usage error: argument --projects: invalid integer value: 'abc'"),
    ("crowding_pipeline.py", ["--projects", "\u0661\u0662"], 1,
     "usage error: argument --projects: invalid integer value:"),
    ("crowding_pipeline.py", ["--k", "+5"], 1, "usage error: argument --k: invalid integer"),
    ("crowding_pipeline.py", ["--colour"], 1, "usage error: unrecognized arguments: --colour"),
    ("run_beta_grids.py", ["--runs", "abc"], 1,
     "usage error: argument --runs: invalid integer value: 'abc'"),
    ("run_beta_grids.py", ["--out", os.path.join(os.devnull, "x")], 2, "data error: "),
], ids=["projects-zero", "seed-negative", "out-unwritable", "projects-over-budget",
        "projects-not-a-number", "projects-arabic-indic", "k-plus", "unknown-flag",
        "beta-grids-runs-not-a-number", "beta-grids-out-unwritable"])
def test_crowding_pipeline_refuses_without_a_traceback(tmp_path, script, args, status,
                                                       message):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = tmp_path / "pipeline"
    # UTF-8 bytes, which an ASCII locale cannot encode from str (the Arabic-Indic digits)
    argv = [sys.executable, str(ROOT / "scripts" / script), "--out", str(out), *args]
    done = subprocess.run(
        [arg.encode("utf-8") for arg in argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (status, ""), done.stderr
    assert done.stderr.startswith(message) and done.stderr.count("\n") == 1, done.stderr
    assert not out.exists()


def test_crowding_pipeline_refuses_more_events_than_the_step_budget(tmp_path, capsys,
                                                                   monkeypatch):
    # in-process, so the budget can be lowered: 2 projects write a few hundred events
    spec = importlib.util.spec_from_file_location("crowding_pipeline",
                                                  ROOT / "scripts" / "crowding_pipeline.py")
    pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pipeline)
    monkeypatch.setattr(limits, "STEP_BUDGET", 100)
    out = tmp_path / "pipeline"
    monkeypatch.setattr(sys, "argv", ["crowding_pipeline.py", "--projects", "2",
                                      "--out", str(out)])
    assert pipeline.main() == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(
        "resource error: a synthetic corpus of 2 projects, written one state-step per event, "
        "needs "), captured.err
    assert not out.exists()


@pytest.mark.parametrize("script", ["crowding_pipeline.py", "run_beta_grids.py"])
def test_help_exits_zero(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(f"usage: {script}")
