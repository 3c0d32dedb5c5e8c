"""Self-test of the benchmark: every workload at a tiny size, plus corrupted outputs.

Usage: python3 bench/selftest.py

Runs each workload untraced and traced for about a second at tiny sizes and
expects no failed operation and the predicted layer split.  Then it corrupts
one output per case and expects the corruption to be counted in fail_ratio,
which shows that the output checks can fail.  Exits 0 when all of it holds.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import run

TINY = {
    "beta-grid": {"dp_n": "5,10", "dp_e": "2,5", "mc_n": "5,10", "mc_e": "5",
                  "mc_runs": 1000, "cf_n": "1:5", "cf_e": "1:5"},
    "logs-profile": {"projects": 20, "k": 100},
    "logs-cohort": {"featured": 2, "planted_controls": 4, "noise_candidates": 1, "k": 3},
}


def truncate_last_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def featured_as_control(path):
    lines = path.read_text().splitlines(keepends=True)
    fid, controls = lines[2].rstrip("\n").split(",")
    lines[2] = f"{fid},{fid};{controls}\n"
    path.write_text("".join(lines))


# (workload, op metric, corruption) applied to the output before it is checked
CORRUPTIONS = [
    ("beta-grid", "heatmap_cf_s", truncate_last_line),
    ("logs-cohort", "cohort_s", featured_as_control),
]


def run_tiny(name: str, trace: bool, corrupt=None) -> tuple[dict, dict]:
    work = run.WORK / f"selftest-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = run.build_workload(name, 5, work, TINY[name])
        if corrupt is not None:
            metric, damage = corrupt
            op = next(op for op in workload.ops if op.metric == metric)
            check = op.check
            op.check = lambda out: (damage(out), check(out))[1]
        return run.measure(workload, 1.0, trace, work, time.monotonic() + 150.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    problems = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    for name in run.WORKLOADS:
        metrics, record = run_tiny(name, trace=False)
        expect(record["failed"] == 0, f"{name}: {record['failed']} failed operations")
        for metric in run.END_TO_END:
            expect(metrics[metric] > 0, f"{name}: {metric} is {metrics[metric]}")

        metrics, record = run_tiny(name, trace=True)
        expect(record["failed"] == 0, f"{name} traced: {record['failed']} failed operations")
        model_calls = metrics["model.exact_expectation.calls"] + metrics["model.monte_carlo.calls"]
        if name == "beta-grid":
            expect(metrics["cli.ingest.calls"] == 0, "beta-grid ingests")
            expect(model_calls > 0 and metrics["solver.optimal_beta.calls"] > 0,
                   "beta-grid makes no model or solver calls")
        else:
            expect(model_calls == 0 and metrics["solver.optimal_beta.calls"] == 0,
                   f"{name} makes model or solver calls")
            commands = {"logs-profile": 4, "logs-cohort": 1}[name]
            expect(metrics["cli.ingest.calls"] == commands,
                   f"{name}: {metrics['cli.ingest.calls']} ingests, want one per command")
            expect(metrics["synth.events"] > 0, f"{name}: traced synth recorded no events")
        expect(metrics["trace.overhead_ratio"] > 0, f"{name}: no trace overhead ratio")

    for name, metric, damage in CORRUPTIONS:
        metrics, record = run_tiny(name, trace=False, corrupt=(metric, damage))
        expect(record["failed"] >= 1 and metrics["fail_ratio"] > 0,
               f"{name}: corrupted {metric} output was not counted as failed")

    for problem in problems:
        print(f"selftest FAIL: {problem}", file=sys.stderr)
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
