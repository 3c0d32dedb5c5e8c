"""Output checks of the benchmark: byte references, invariants and the Monte Carlo regret.

Each check takes the path a command wrote and returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter, defaultdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

MC_MAX_REGRET = 0.02


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_digest(out: Path) -> str:
    if out.is_dir():
        return "|".join(sha256(p) for p in sorted(out.iterdir())
                        if p.name != "corpus.manifest.json")
    return sha256(out)


def manifest_problems(out: Path, inputs: list[Path]) -> list[str]:
    path = (out / "corpus.manifest.json") if out.is_dir() else Path(f"{out}.manifest.json")
    try:
        recorded = json.loads(path.read_text())["inputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable manifest ({exc})"]
    expected = {str(p): sha256(p) for p in inputs}
    return [] if recorded == expected else [f"{path.name}: input digests do not match the inputs"]


def read_grid(path: Path) -> tuple[list[int], list[int], list[list[float | None]]]:
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    n_values = [int(v) for v in rows[0].split(",")[1:]]
    e_values, cells = [], []
    for row in rows[1:]:
        head, *values = row.split(",")
        e_values.append(int(head))
        cells.append([None if v == "NA" else float(v) for v in values])
    return n_values, e_values, cells


def grid_problems(path: Path, n_text: str, e_text: str) -> list[str]:
    def values(text):
        if ":" in text:
            start, stop = (int(v) for v in text.split(":"))
            return list(range(start, stop + 1))
        return [int(v) for v in text.split(",")]

    n_values, e_values, cells = read_grid(path)
    if n_values != values(n_text) or e_values != values(e_text):
        return [f"{path.name}: grid axes differ from the request"]
    if any(c is None or not 0.0 <= c <= 1.0 for row in cells for c in row):
        return [f"{path.name}: beta* missing or outside [0, 1]"]
    return []


def digest_check(expected: str | None, fallback: Callable[[Path], list[str]]):
    """Byte-compare against a recorded digest when one applies, else check invariants."""
    def check(out: Path) -> list[str]:
        problems = fallback(out)
        if expected is not None and output_digest(out) != expected:
            problems.append(f"{out.name}: bytes differ from the recorded reference")
        return problems
    return check


def mc_regret_problems(out: Path, n_text: str, e_text: str, exact: dict) -> list[str]:
    """The exact value at each cell's Monte Carlo beta* must be within MC_MAX_REGRET of the
    exact optimum; `exact` maps "n,e" to the values on the 0.01 beta grid and the optimum."""
    problems = grid_problems(out, n_text, e_text)
    if problems:
        return problems
    n_values, e_values, cells = read_grid(out)
    for e, row in zip(e_values, cells):
        for n, beta in zip(n_values, row):
            cell = exact.get(f"{n},{e}")
            if cell is None:
                continue
            value = cell["values"][round(beta * 100)]
            regret = 1.0 - value / cell["optimum"]
            if regret > MC_MAX_REGRET:
                problems.append(f"mc cell n={n} e={e}: beta*={beta} has regret {regret:.4f}")
    return problems


class Corpus:
    """Independent reading of a synth corpus, used to check the program's outputs."""

    def __init__(self, directory: Path):
        self.truth = json.loads((directory / "ground_truth.json").read_text())
        with open(directory / "metadata.csv", newline="") as fh:
            self.metadata = {row["project_id"]: row for row in csv.DictReader(fh)}
        self.channels: dict[str, Counter] = defaultdict(Counter)
        self.work_years: dict[str, Counter] = defaultdict(Counter)
        with open(directory / "events.jsonl") as fh:
            for line in fh:
                record = json.loads(line)
                pid = record["project_id"]
                self.channels[pid][record["channel"]] += 1
                if record["channel"] == "work":
                    year = datetime.fromtimestamp(record["timestamp"], tz=timezone.utc).year
                    self.work_years[pid][year] += 1

    def epoch(self, pid: str, year: int) -> tuple[int, int]:
        years = self.work_years[pid]
        return (sum(c for y, c in years.items() if y < year),
                sum(c for y, c in years.items() if y > year))


def crowded_corpus_problems(corpus: Corpus, projects: int) -> list[str]:
    truth = corpus.truth["projects"]
    if len(truth) != projects or set(truth) != set(corpus.channels) or set(truth) != set(corpus.metadata):
        return ["corpus: projects differ between events, metadata and ground truth"]
    for pid, t in truth.items():
        counts = corpus.channels[pid]
        if (counts["work"], counts["comment"], counts["discussion"]) != (
                t["work"], t["comments"], t["discussion"] + t["team"]):
            return [f"corpus: event counts of {pid} differ from the ground truth"]
        if int(corpus.metadata[pid]["final_size"]) != t["size"]:
            return [f"corpus: final_size of {pid} differs from the ground truth"]
    return []


def cohort_corpus_problems(corpus: Corpus, size: dict) -> list[str]:
    featured = [p for p, row in corpus.metadata.items() if row["featured_year"]]
    per_featured = 1 + size["planted_controls"] + size["noise_candidates"]
    if len(featured) != size["featured"] or len(corpus.channels) != size["featured"] * per_featured:
        return ["corpus: wrong number of featured or total projects"]
    if set(corpus.channels) != set(corpus.metadata):
        return ["corpus: projects differ between events and metadata"]
    planted = corpus.truth["planted_controls"]
    if sorted(planted) != sorted(featured):
        return ["corpus: planted controls are keyed by other projects than the featured ones"]
    return []


def csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(line for line in path.read_text().splitlines()
                           if not line.startswith("#")))


def crowd_problems(corpus: Corpus, out: Path, k: int) -> list[str]:
    rows = csv_rows(out)
    if rows[0] != ["project_id", "n_engaged", "team_size", "threshold_time",
                   "early_coordination", "final_size"]:
        return ["crowd: unexpected header"]
    truth = corpus.truth["projects"]
    if [r[0] for r in rows[1:]] != sorted(truth):
        return ["crowd: rows are not one per project in id order"]
    for pid, engaged, team, threshold, early, size in rows[1:]:
        t = truth[pid]
        expected = (t["team"], min(t["team"], k), 10_000 + (k - 1) * 600, t["discussion"], t["size"])
        if tuple(int(v) for v in (engaged, team, threshold, early, size)) != expected:
            return [f"crowd: {pid} does not match its planted structure"]
    return []


def quadrants_problems(corpus: Corpus, out: Path) -> list[str]:
    lines = out.read_text().splitlines()
    try:
        split = lines.index("# pairwise p-values")
        cells = list(csv.DictReader(l for l in lines[:split] if not l.startswith("#")))
        pairs = list(csv.DictReader(lines[split + 1:]))
        total = sum(int(c["count"]) for c in cells)
        p_values = [float(p["p"]) for p in pairs]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"quadrants: unparseable ({exc})"]
    problems = []
    if len(cells) != 4 or total != len(corpus.truth["projects"]):
        problems.append("quadrants: cell counts do not cover every project once")
    if len(pairs) != 6 or not all(0.0 <= p <= 1.0 for p in p_values):
        problems.append("quadrants: expected six pairwise tests with p in [0, 1]")
    if any(p["band"] not in ("p001", "p01", "p05", "ns") for p in pairs):
        problems.append("quadrants: unknown significance band")
    return problems


def bins_problems(corpus: Corpus, out: Path) -> list[str]:
    lines = out.read_text().splitlines()
    try:
        split = lines.index("# counts")
        values = [l.split(",") for l in lines[:split] if not l.startswith("#")]
        counts = [[int(v) for v in l.split(",")] for l in lines[split + 1:]]
        [float(v) for row in values for v in row if v != "NA"]
    except ValueError as exc:
        return [f"bins: unparseable ({exc})"]
    if [len(r) for r in values] != [10] * 10 or [len(r) for r in counts] != [10] * 10:
        return ["bins: expected two 10 x 10 blocks"]
    if sum(map(sum, counts)) != len(corpus.truth["projects"]):
        return ["bins: counts do not cover every project once"]
    return []


def xcore_problems(corpus: Corpus, out: Path) -> list[str]:
    xs = [f"{i / 10:.4f}" for i in range(1, 11)]
    rows = csv_rows(out)
    truth = corpus.truth["projects"]
    if rows[0] != ["project_id", "x", "core_size", "core_fraction", "d_share", "c_share"]:
        return ["xcore: unexpected header"]
    expected_ids = [pid for pid in sorted(truth) for _ in xs]
    if [r[0] for r in rows[1:]] != expected_ids or [r[1] for r in rows[1:]] != xs * len(truth):
        return ["xcore: rows are not ten x values per project in order"]
    for pid, _x, core, frac, d_share, c_share in rows[10::10]:
        if (int(core), frac, d_share) != (truth[pid]["team"], "1.000000", "1.000000") or \
                c_share not in ("1.000000", "NA"):
            return [f"xcore: the 1-core of {pid} is not the whole team"]
    return []


def cohort_problems(corpus: Corpus, out: Path, k: int, tolerance: float = 0.05) -> list[str]:
    """Re-verify every control as eligible, and the lists as disjoint (criterion 11)."""
    lines = out.read_text().splitlines()
    if len(lines) < 3 or lines[1] != "featured_id,control_ids":
        return ["cohort: unexpected layout"]
    seen: set[str] = set()
    for line in lines[2:]:
        fid, controls = line.split(",")
        controls = controls.split(";")
        row = corpus.metadata.get(fid)
        if row is None or not row["featured_year"]:
            return [f"cohort: {fid} is not a featured project"]
        if not 1 <= len(controls) <= k or len(set(controls)) != len(controls):
            return [f"cohort: {fid} has {len(controls)} controls, want 1..{k} distinct"]
        if seen & set(controls):
            return [f"cohort: control lists overlap at {fid}"]
        seen |= set(controls)
        year = int(row["featured_year"])
        fb, fa = corpus.epoch(fid, year)
        for cid in controls:
            if cid not in corpus.metadata or corpus.metadata[cid]["featured_year"]:
                return [f"cohort: control {cid} is not a pool project"]
            cb, ca = corpus.epoch(cid, year)
            if not (abs(fb - cb) / fb < tolerance and abs(fa - ca) / fa < tolerance and fb < cb):
                return [f"cohort: control {cid} of {fid} is not eligible"]
    header = f"# featured={len(lines) - 2} controls={len(seen)} k={k} tolerance={tolerance} "
    if not lines[0].startswith(header):
        return ["cohort: summary line does not match the rows"]
    return []
