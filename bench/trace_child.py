"""Run one crowdcoord CLI command with spans around each layer's public functions.

Usage: python3 bench/trace_child.py SPANS_OUT -- <crowdcoord arguments>

Every wrapped call records a span [id, parent_id, name, start_s, end_s, attrs]
in memory; the list is written to SPANS_OUT as JSON when the command ends.
The exit code is the CLI's own.  Functions that run once per event (such as
``parse_event_line`` or ``Event``) are left unwrapped, so tracing costs
little more than one wrapper call per project, cell or candidate.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MODULES = ("cli", "model", "solver", "analytics", "stats", "cohort", "synth")


def _n_events(args, kwargs, result):
    corpus, _ = result
    return {"events": sum(len(p.events) for p in corpus.values())}


# (module, function) -> attrs(args, kwargs, result) recorded on the span, or None
WRAPPED = {
    ("cli", "ingest"): _n_events,
    ("cli", "read_metadata"): None,
    ("cli", "write_events"): None,
    ("cli", "write_manifest"): None,
    ("model", "kernel_matrix"): lambda a, k, r: {"bytes": r.nbytes},
    ("model", "exact_expectation"): lambda a, k, r: {
        "state_steps": a[0].n_parts * a[0].n_users},
    ("model", "monte_carlo"): lambda a, k, r: {"run_steps": a[1] * a[0].n_users},
    ("solver", "optimal_beta"): lambda a, k, r: {"objective": r.objective},
    ("solver", "beta_heatmap"): None,
    ("solver", "grid_to_csv"): None,
    ("analytics", "crowdedness_profile"): None,
    ("analytics", "core_curve"): None,
    ("stats", "mann_whitney_u"): lambda a, k, r: {"method": r.method},
    ("stats", "median_split_quadrants"): None,
    ("stats", "decile_heatmap"): None,
    ("stats", "quadrants_to_csv"): None,
    ("stats", "binned_grid_to_csv"): None,
    ("cohort", "build_cohorts"): None,
    ("cohort", "matched_controls"): lambda a, k, r: {"chosen": len(r)},
    ("cohort", "edit_epoch_counts"): None,
    ("cohort", "control_eligible"): None,
    ("cohort", "cohort_to_csv"): None,
    ("synth", "generate_synthetic"): lambda a, k, r: {"events": len(r.events)},
}

# Called hundreds of thousands of times per command (the closed-form objective):
# counted on the enclosing span instead of getting a span of their own.
COUNTED = {("solver", "approx_expectation")}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            record = [sid, self.stack[-1] if self.stack else None, name, time.perf_counter(), 0.0, {}]
            self.spans.append(record)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5]["raised"] = type(exc).__name__
                raise
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                record[5].update(attrs(args, kwargs, result))
            return result

        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                attrs = self.spans[self.stack[-1]][5]
                attrs[name] = attrs.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted


def install(tracer: Tracer) -> None:
    """Replace each target in every crowdcoord module that bound it by name."""
    modules = {m: importlib.import_module(f"crowdcoord.{m}") for m in MODULES}
    targets = {key: tracer.span(f"{key[0]}.{key[1]}", getattr(modules[key[0]], key[1]), attrs)
               for key, attrs in WRAPPED.items()}
    targets.update({key: tracer.counter(f"{key[0]}.{key[1]}", getattr(modules[key[0]], key[1]))
                    for key in COUNTED})
    for (home, name), wrapper in targets.items():
        original = getattr(modules[home], name)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    project_log = modules["analytics"].ProjectLog
    project_log.from_events = classmethod(tracer.span(
        "analytics.ProjectLog.from_events", project_log.from_events.__func__, None))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from crowdcoord.cli import main as cli_main

    root = tracer.span("op", cli_main, None)
    try:
        return root(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
