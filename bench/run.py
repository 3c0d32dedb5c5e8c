#!/usr/bin/env python3
"""End-to-end benchmark of the crowdcoord command-line interface.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload beta-grid --seed 1 --seconds 35 --trace 0

Each operation is one ``crowdcoord`` subcommand run in a fresh child process,
the way users run it, with BLAS pinned to one thread.  One parent process
runs operations one at a time (a closed loop with a single client), checks
every output, and records wall time and the child's peak RSS.  Timings are
probe-normalised: raw seconds x (REF_PROBE_S / probe seconds), where the
probe is a fixed Python + NumPy loop timed just before and just after each
operation.  ``--trace 1`` runs the same rounds, alternating untraced rounds
with rounds whose children run under ``bench/trace_child.py``, and reports
per-layer metrics instead.  The last line of stdout is one JSON object;
the full record (environment, per-operation timings, raw seconds, spans)
goes to ``.bench_work/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy loads, here and (through the environment) in children.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_CHILD = BENCH / "trace_child.py"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 1
WORKLOADS = ("beta-grid", "logs-profile", "logs-cohort")
SETUP_REPEATS = 3
OP_TIMEOUT_S = 120.0
# Typical probe time on the machine the bounds were set on (2 shared vCPUs,
# Intel Xeon); normalised seconds read as seconds on that machine.
REF_PROBE_S = 0.0170

FULL = {
    "beta-grid": {"dp_n": "50,100,200,300", "dp_e": "2,5,10,20", "mc_n": "5,10,20",
                  "mc_e": "5,10,20", "mc_runs": 2000, "cf_n": "1:60", "cf_e": "1:60"},
    "logs-profile": {"projects": 300, "k": 100},
    "logs-cohort": {"featured": 16, "planted_controls": 8, "noise_candidates": 2, "k": 6},
}

END_TO_END = ("setup_s", "wall_s", "cmd_geomean_s", "peak_rss_mb")
OP_METRICS = ("heatmap_dp_s", "heatmap_mc_s", "heatmap_cf_s", "crowd_s", "quadrants_s",
              "bins_s", "xcore_s", "cohort_s")
SYNTH_LAYER_METRICS = ("cli.write_events.s", "synth.generate_synthetic.s", "synth.events")
SKIP_REASONS = {
    "has no engaged users": "no_engaged_users",
    "work events by engaged users, need": "too_few_work",
    "has no work events": "no_work_events",
    "no final_size metadata": "no_final_size",
}


# ---------------------------------------------------------------------------
# environment, seeds and the calibration probe

def derive_seed(seed: int, label: str) -> int:
    """Seed handed to one program input, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_pin": BLAS_PIN,
        "ref_probe_s": REF_PROBE_S,
    }


_PROBE_LINE = ('{"project_id":"p0001","actor_id":"u0001_3","timestamp":1234567,'
               '"channel":"work","size_delta":1}')
_PROBE_M = np.full((101, 101), 1.0 / 101)


def _probe_once() -> float:
    start = time.perf_counter()
    counts: dict = {}
    for i in range(1000):
        record = json.loads(_PROBE_LINE)
        key = (record["actor_id"], i & 63)
        counts[key] = counts.get(key, 0) + record["size_delta"]
    v = np.zeros(101)
    v[0] = 1.0
    u = np.linspace(0.0, 1.0, 2000)
    for _ in range(133):
        v = v @ _PROBE_M
        u = np.where(u < 0.5, u + 0.25, u - 0.25)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds for a fixed ~20 ms mix of JSON parsing, dict updates and small NumPy ops.

    Three times the median of three ~7 ms passes, so one interrupted pass
    does not move it.
    """
    return 3.0 * statistics.median(_probe_once() for _ in range(3))


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    metric: str                    # timing metric this op feeds, or a setup label
    args: list[str]                # crowdcoord arguments
    out: Path                      # CSV (or synth directory) the command writes
    inputs: list[Path]             # files whose digests the manifest must carry
    check: Callable[[Path], list[str]]   # problems with the output, [] when correct
    verified: str | None = None    # digest of the first output that passed its check


@dataclass
class OpRun:
    metric: str
    raw_s: float
    probe_s: float
    rss_mb: float
    ok: bool
    stderr: str
    spans: list = field(default_factory=list)

    @property
    def norm_s(self) -> float:
        return self.raw_s * REF_PROBE_S / self.probe_s


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}   # os.environ carries BLAS_PIN


def run_op(op: Op, work: Path, traced: bool, deadline: float) -> OpRun:
    """Run one command in a child process, then check its output."""
    if traced:
        spans_path = work / "spans.json"
        argv = [sys.executable, str(TRACE_CHILD), str(spans_path), "--", *op.args]
    else:
        argv = [sys.executable, "-c", "import sys; from crowdcoord.cli import main; "
                "sys.exit(main())", *op.args]
    err_path = work / "stderr.txt"
    before = probe()
    with open(err_path, "w") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                 stderr=err, env=child_env(), cwd=work)
        killer = threading.Timer(max(1.0, min(OP_TIMEOUT_S, deadline - time.monotonic())),
                                 child.kill)
        killer.start()
        _, status, usage = os.wait4(child.pid, 0)
        raw = time.perf_counter() - start
        killer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
    after = probe()
    stderr = err_path.read_text()
    problems = []
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if not problems:
        try:
            digest = checks.output_digest(op.out)
            if op.verified is None:
                problems = checks.manifest_problems(op.out, op.inputs) + op.check(op.out)
                if not problems:
                    op.verified = digest
            elif digest != op.verified:
                problems = ["output differs from an earlier run of the same command"]
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"unreadable output ({exc!r})"]
    for problem in problems:
        print(f"FAIL {op.metric}: {problem}", file=sys.stderr)
    if problems and stderr:
        print(stderr[-2000:], file=sys.stderr)
    spans = []
    if traced and child.returncode == 0:
        spans = json.loads(spans_path.read_text())
    return OpRun(op.metric, raw, (before + after) / 2.0, usage.ru_maxrss / 1024.0,
                 not problems, stderr, spans)


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Workload:
    name: str
    setup: Callable[[int], list[Op]]   # set-up repetition i: input generation, then warm-up
    ops: list[Op]                      # one round


def warmup_op(work: Path, ref: dict) -> Op:
    out = work / "warmup.csv"

    def check(out: Path) -> list[str]:
        text = out.read_text()
        return [] if text == ref["warmup_csv"] else [f"warm-up dp output {text!r}"]
    return Op("warmup", ["dp", "--n", "2", "--e", "2", "--alpha", "1", "--beta", "0.5",
                         "--out", str(out)], out, [], check)


def build_workload(name: str, seed: int, work: Path, size: dict | None = None) -> Workload:
    """Operations of one workload; `size` overrides the full-size parameters (self-test).

    Byte references apply only at full size: the dp and cf heatmaps at every
    seed (they do not depend on it), the corpus and its CSVs at DEFAULT_SEED.
    """
    size = FULL[name] if size is None else size
    ref = json.loads(REFERENCE.read_text())
    digests = ref["digests"][name] if size == FULL[name] else {}
    if seed != DEFAULT_SEED:
        digests = {k: v for k, v in digests.items() if k in ("heatmap_dp_s", "heatmap_cf_s")}

    if name == "beta-grid":
        def heatmap(metric, objective, n, e, check, extra=()):
            out = work / f"{metric}.csv"
            return Op(metric, ["heatmap", "--objective", objective, "--n", n, "--e", e,
                               "--alpha", "1", *extra, "--out", str(out)], out, [], check)

        def exact_grid(metric, objective, n, e):
            return heatmap(metric, objective, n, e, checks.digest_check(
                digests.get(metric), lambda out: checks.grid_problems(out, n, e)))
        ops = [
            exact_grid("heatmap_dp_s", "dp", size["dp_n"], size["dp_e"]),
            heatmap("heatmap_mc_s", "mc", size["mc_n"], size["mc_e"],
                    lambda out: checks.mc_regret_problems(out, size["mc_n"], size["mc_e"],
                                                          ref["mc_exact"]),
                    ("--runs", str(size["mc_runs"]), "--seed", str(derive_seed(seed, "mc")))),
            exact_grid("heatmap_cf_s", "cf", size["cf_n"], size["cf_e"]),
        ]
        return Workload(name, lambda i: [warmup_op(work, ref)], ops)

    if name == "logs-profile":
        synth_args = ["--structure", "crowded", "--projects", str(size["projects"])]
        corpus_problems = lambda c: checks.crowded_corpus_problems(c, size["projects"])  # noqa: E731
    else:
        synth_args = ["--structure", "cohort", "--featured", str(size["featured"]),
                      "--planted-controls", str(size["planted_controls"]),
                      "--noise-candidates", str(size["noise_candidates"])]
        corpus_problems = lambda c: checks.cohort_corpus_problems(c, size)  # noqa: E731
    synth_seed = str(derive_seed(seed, "synth"))
    first: dict = {}   # the corpus of set-up 0, which every round reads

    def synth_op(i: int) -> Op:
        def check(out: Path) -> list[str]:
            digest = checks.output_digest(out)
            if i > 0:
                shutil.rmtree(out)
                return [] if digest == first["digest"] else ["synth: a repeat gave other bytes"]
            first.update(corpus=checks.Corpus(out), digest=digest)
            problems = corpus_problems(first["corpus"])
            if digests.get("synth", digest) != digest:
                problems.append("synth: corpus bytes differ from the recorded reference")
            return problems
        out = work / f"corpus{i}"
        return Op("synth", ["synth", *synth_args, "--seed", synth_seed, "--out", str(out)],
                  out, [], check)

    events, metadata = work / "corpus0" / "events.jsonl", work / "corpus0" / "metadata.csv"

    def corpus_op(metric, args, invariants):
        def check(out: Path) -> list[str]:
            return checks.digest_check(digests.get(metric),
                                       lambda out: invariants(first["corpus"], out))(out)
        out = work / f"{metric}.csv"
        return Op(metric, [args[0], "--events", str(events), "--metadata", str(metadata),
                           *args[1:], "--out", str(out)], out, [events, metadata], check)

    k = str(size["k"])
    if name == "logs-profile":
        ops = [
            corpus_op("crowd_s", ["crowd", "--k", k],
                      lambda c, out: checks.crowd_problems(c, out, size["k"])),
            corpus_op("quadrants_s", ["quadrants", "--k", k], checks.quadrants_problems),
            corpus_op("bins_s", ["bins", "--k", k], checks.bins_problems),
            corpus_op("xcore_s", ["xcore"], checks.xcore_problems),
        ]
    else:
        ops = [corpus_op("cohort_s", ["cohort", "--k", k, "--seed", str(derive_seed(seed, "cohort"))],
                         lambda c, out: checks.cohort_problems(c, out, size["k"]))]
    return Workload(name, lambda i: [synth_op(i), warmup_op(work, ref)], ops)


# ---------------------------------------------------------------------------
# measurement

def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    """Nearest-rank percentile; q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] if ordered else 0.0


def layer_metrics(spans: list, scale: list[float]) -> dict:
    """Per-layer metrics of traced commands.

    `spans` holds (op_index, span) pairs; `scale[op_index]` probe-normalises
    that command's span durations.
    """
    by_name: dict[str, list] = defaultdict(list)
    children: dict[tuple, list] = defaultdict(list)
    for op_index, (sid, parent, name, start, end, attrs) in spans:
        by_name[name].append((op_index, sid, parent, (end - start) * scale[op_index], attrs))
        if parent is not None:
            children[(op_index, parent)].append((end - start) * scale[op_index])

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return sum(s[3] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s[4].get(key, 0) for s in by_name[name])

    m: dict[str, float] = {}
    ingest_s = secs("cli.ingest")
    events = attr_sum("cli.ingest", "events")
    m.update({
        "cli.ingest.calls": calls("cli.ingest"), "cli.ingest.s": ingest_s,
        "cli.ingest.events": events,
        "cli.ingest.events_per_s": events / ingest_s if ingest_s else 0.0,
        "cli.read_metadata.s": secs("cli.read_metadata"),
        "cli.emit.s": sum(secs(n) for n in (
            "cli.write_manifest", "solver.grid_to_csv", "stats.quadrants_to_csv",
            "stats.binned_grid_to_csv", "cohort.cohort_to_csv")),
    })
    state_steps = attr_sum("model.exact_expectation", "state_steps")
    run_steps = attr_sum("model.monte_carlo", "run_steps")
    m.update({
        "model.kernel_matrix.calls": calls("model.kernel_matrix"),
        "model.kernel_matrix.s": secs("model.kernel_matrix"),
        "model.kernel_matrix.bytes_computed": attr_sum("model.kernel_matrix", "bytes"),
        "model.exact_expectation.calls": calls("model.exact_expectation"),
        "model.exact_expectation.s": secs("model.exact_expectation"),
        "model.exact.state_steps": state_steps,
        "model.exact.ns_per_state_step":
            secs("model.exact_expectation") / state_steps * 1e9 if state_steps else 0.0,
        "model.monte_carlo.calls": calls("model.monte_carlo"),
        "model.monte_carlo.s": secs("model.monte_carlo"),
        "model.mc.draws": run_steps * 5,
        "model.mc.ns_per_run_step":
            secs("model.monte_carlo") / run_steps * 1e9 if run_steps else 0.0,
    })
    scans = by_name["solver.optimal_beta"]
    m["solver.optimal_beta.calls"] = len(scans)
    m["solver.self_s"] = sum(
        dur - sum(children[(op_index, sid)]) for op_index, sid, _p, dur, _a in scans)
    # the closed-form objective is counted on the enclosing span (trace_child.COUNTED)
    for short, objective, evaluation, counted in (
            ("dp", "exact_dp", "model.exact_expectation", False),
            ("mc", "monte_carlo", "model.monte_carlo", False),
            ("cf", "closed_form", "solver.approx_expectation", True)):
        mine = [s for s in scans if s[4].get("objective") == objective]
        ms = [s[3] * 1e3 for s in mine]
        if counted:
            evals = sum(s[4].get(evaluation, 0) for s in mine)
        else:
            ids = {(s[0], s[1]) for s in mine}
            evals = sum(1 for s in by_name[evaluation] if (s[0], s[2]) in ids)
        m[f"solver.optimal_beta.{short}.calls"] = len(mine)
        m[f"solver.optimal_beta.{short}.p50_ms"] = percentile(ms, 50)
        if short == "cf":
            m["solver.optimal_beta.cf.p90_ms"] = percentile(ms, 90)
        m[f"solver.evals_per_cell.{short}"] = evals / len(mine) if mine else 0.0
    m.update({
        "analytics.ProjectLog.from_events.s": secs("analytics.ProjectLog.from_events"),
        "analytics.crowdedness_profile.calls": calls("analytics.crowdedness_profile"),
        "analytics.crowdedness_profile.s": secs("analytics.crowdedness_profile"),
        "analytics.crowdedness_profile.ineligible": sum(
            1 for s in by_name["analytics.crowdedness_profile"]
            if s[4].get("raised") == "IneligibleProjectError"),
        "analytics.core_curve.calls": calls("analytics.core_curve"),
        "analytics.core_curve.s": secs("analytics.core_curve"),
        "stats.mann_whitney_u.calls": calls("stats.mann_whitney_u"),
        "stats.mann_whitney_u.s": secs("stats.mann_whitney_u"),
        "stats.mann_whitney_u.exact": sum(
            1 for s in by_name["stats.mann_whitney_u"] if s[4].get("method") == "exact"),
        "stats.median_split_quadrants.s": secs("stats.median_split_quadrants"),
        "stats.decile_heatmap.s": secs("stats.decile_heatmap"),
    })
    m.update({
        "cli.write_events.s": secs("cli.write_events"),
        "synth.generate_synthetic.s": secs("synth.generate_synthetic"),
        "synth.events": attr_sum("synth.generate_synthetic", "events"),
    })
    tests = calls("cohort.control_eligible")
    m.update({
        "cohort.build_cohorts.s": secs("cohort.build_cohorts"),
        "cohort.matched_controls.calls": calls("cohort.matched_controls"),
        "cohort.matched_controls.s": secs("cohort.matched_controls"),
        "cohort.edit_epoch_counts.calls": calls("cohort.edit_epoch_counts"),
        "cohort.edit_epoch_counts.s": secs("cohort.edit_epoch_counts"),
        "cohort.control_eligible.calls": tests,
        "cohort.useful_ratio": attr_sum("cohort.matched_controls", "chosen") / tests if tests else 0.0,
    })
    return m


def skipped(stderr_texts) -> dict:
    counts = {f"cli.skipped.{reason}": 0 for reason in (*SKIP_REASONS.values(), "other")}
    for text in stderr_texts:
        for line in text.splitlines():
            if line.startswith("warning: skipping "):
                reason = next((r for key, r in SKIP_REASONS.items() if key in line), "other")
                counts[f"cli.skipped.{reason}"] += 1
    return counts


def measure(workload: Workload, seconds: float, trace: bool, work: Path,
            hard_deadline: float) -> tuple[dict, dict]:
    """Set up SETUP_REPEATS times, then repeat rounds for `seconds`; return (metrics, record)."""
    runs: list[OpRun] = []

    def run(op: Op, traced: bool = False) -> OpRun:
        runs.append(run_op(op, work, traced, hard_deadline))
        return runs[-1]

    setups = [[run(op) for op in workload.setup(i)] for i in range(SETUP_REPEATS)]
    synth_run = None
    if trace and workload.name != "beta-grid":
        synth_run = run(workload.setup(SETUP_REPEATS)[0], traced=True)

    rounds: list[tuple[bool, list[OpRun]]] = []
    start = time.monotonic()
    while True:
        longest = max((sum(r.raw_s for r in ops) for _t, ops in rounds), default=0.0)
        if len(rounds) >= (2 if trace else 1) and (
                time.monotonic() - start + longest > seconds
                or time.monotonic() + 2 * longest > hard_deadline):
            break
        traced = trace and len(rounds) % 2 == 1
        rounds.append((traced, [run(op, traced) for op in workload.ops]))

    # wall_s adds the per-command medians: the typical round total, without
    # needing a whole round to dodge the machine's slow phases.
    untraced = [ops for t, ops in rounds if not t]
    m: dict[str, float] = {
        "setup_s": median([sum(r.norm_s for r in ops) for ops in setups]),
        "raw.setup_s": median([sum(r.raw_s for r in ops) for ops in setups]),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "probe.ms": median([r.probe_s for r in runs]) * 1e3,
        "wall_s": 0.0,
        "raw.wall_s": 0.0,
    }
    present = []
    for metric in OP_METRICS:
        mine = [r for ops in untraced for r in ops if r.metric == metric and r.ok]
        m[metric] = median([r.norm_s for r in mine]) if mine else 0.0
        m[f"raw.{metric}"] = median([r.raw_s for r in mine]) if mine else 0.0
        m[f"{metric}.samples"] = len(mine)
        if mine:
            present.append(m[metric])
            m["wall_s"] += m[metric]
            m["raw.wall_s"] += m[f"raw.{metric}"]
    m["cmd_geomean_s"] = math.exp(sum(map(math.log, present)) / len(present)) if present else 0.0
    failed = sum(not r.ok for r in runs)
    m["fail_ratio"] = failed / len(runs)

    def op_record(r: OpRun) -> dict:
        return {"op": r.metric, "raw_s": r.raw_s, "probe_s": r.probe_s, "norm_s": r.norm_s,
                "rss_mb": r.rss_mb, "ok": r.ok}

    record = {
        "attempted": len(runs), "failed": failed,
        "setups": [[op_record(r) for r in ops] for ops in setups],
        "rounds": [{"traced": t, "ops": [op_record(r) for r in ops]} for t, ops in rounds],
    }
    if trace:
        traced_rounds = [ops for t, ops in rounds if t]
        layers = [{**layer_metrics([(i, s) for i, r in enumerate(ops) for s in r.spans],
                                   [REF_PROBE_S / r.probe_s for r in ops]),
                   **skipped(r.stderr for r in ops)} for ops in traced_rounds]
        for key in layers[0]:
            m[key] = median([layer[key] for layer in layers])
        synth = layer_metrics([(0, s) for s in synth_run.spans],
                              [REF_PROBE_S / synth_run.probe_s]) if synth_run else {}
        for key in SYNTH_LAYER_METRICS:
            m[key] = synth.get(key, 0.0)
        traced_wall = sum(median([r.norm_s for ops in traced_rounds for r in ops
                                  if r.metric == op.metric]) for op in workload.ops)
        m["trace.overhead_ratio"] = traced_wall / m["wall_s"]
        record["spans"] = [{"round": n, "op": r.metric, "spans": r.spans}
                           for n, ops in enumerate(traced_rounds) for r in ops]
        if synth_run:
            record["spans"].append({"round": None, "op": "synth", "spans": synth_run.spans})
    return m, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crowdcoord" / "cli.py").is_file():
        print(f"error: no crowdcoord sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    hard_deadline = time.monotonic() + 170.0
    env = environment(args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = build_workload(args.workload, args.seed, work)
        metrics, record = measure(workload, args.seconds, bool(args.trace), work, hard_deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "environment": env,
         "metrics": metrics, **record}, indent=1) + "\n")
    print(json.dumps({"environment": env}), file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:45s} {metrics[name]:.6g}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
