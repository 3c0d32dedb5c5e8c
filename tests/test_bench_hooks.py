"""The benchmark's tracer still finds and times every package function it wraps.

``bench/trace_child.py`` replaces named functions in the crowdcoord modules
by looking them up with ``getattr``; a renamed or removed target would make
``bench/run.py --trace 1`` fail.  The tracer is loaded from its file, so the
bench directory needs no installing.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crowdcoord.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACE_CHILD = ROOT / "bench" / "trace_child.py"


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    trace_child = load_trace_child()
    targets = [*trace_child.WRAPPED, *trace_child.COUNTED]
    assert targets
    for module_name, name in targets:
        module = importlib.import_module(f"crowdcoord.{module_name}")
        assert callable(getattr(module, name, None)), f"crowdcoord.{module_name}.{name}"
    analytics = importlib.import_module("crowdcoord.analytics")
    assert callable(analytics.ProjectLog.from_events.__func__)


def run_traced(tmp_path, command):
    """The spans of one crowdcoord command run under the tracer, by name."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(TRACE_CHILD), str(spans_path), "--", *command],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    by_name = {}
    for _sid, _parent, name, start, end, attrs in json.loads(spans_path.read_text()):
        assert end >= start, name
        by_name.setdefault(name, []).append(attrs)
    return by_name


@pytest.mark.parametrize("synth", [
    ["--projects", "6", "--structure", "crowded"],
    ["--structure", "cohort", "--featured", "2", "--planted-controls", "2"],
])
def test_trace_child_times_the_synth_writer(tmp_path, synth):
    # the bench's cli.write_events.s and synth.events: one writer span for the
    # whole corpus, and an event count equal to the lines it wrote
    corpus = tmp_path / "corpus"
    by_name = run_traced(tmp_path, ["synth", *synth, "--seed", "3", "--out", str(corpus)])
    lines = (corpus / "events.jsonl").read_text().splitlines()
    assert by_name["cli.write_events"] == [{}]
    assert by_name["synth.generate_synthetic"] == [{"events": len(lines)}]


@pytest.mark.parametrize("command,synth,span", [
    (["crowd", "--k", "20"], ["--projects", "6", "--structure", "crowded"],
     "analytics.crowdedness_profile"),
    (["cohort", "--k", "2"], ["--structure", "cohort", "--featured", "2",
                              "--planted-controls", "2", "--noise-candidates", "1"],
     "cohort.edit_epoch_counts"),
])
def test_trace_child_records_spans(tmp_path, command, synth, span):
    corpus = tmp_path / "corpus"
    assert main(["synth", *synth, "--seed", "3", "--out", str(corpus)]) == 0
    by_name = run_traced(tmp_path, [
        *command, "--events", str(corpus / "events.jsonl"),
        "--metadata", str(corpus / "metadata.csv"), "--out", str(tmp_path / "out.csv")])
    lines = (corpus / "events.jsonl").read_text().splitlines()
    assert by_name["cli.ingest"] == [{"events": len(lines)}]
    assert by_name[span], sorted(by_name)
