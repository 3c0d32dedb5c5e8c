"""Record bench/reference.json from the current sources.

Usage: python3 bench/record_reference.py

Writes the digests of every deterministic output at full size and the
default seed, the expected warm-up output, and exact expected values on the
Monte Carlo cells' beta grid (used by the regret check).  Run it only when a
change is meant to alter output bytes, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import run


def exact_cells() -> dict:
    sys.path.insert(0, str(run.SRC))
    from crowdcoord.model import ModelParams, exact_expectation
    from crowdcoord.solver import optimal_beta

    cells = {}
    for n in (5, 10, 20):
        for e in (5, 10, 20):
            values = [exact_expectation(ModelParams(n, e, 1.0, float(b)))
                      for b in np.linspace(0.0, 1.0, 101)]
            cells[f"{n},{e}"] = {"values": values,
                                 "optimum": optimal_beta(n, e, 1.0, "exact_dp").value}
    return cells


def main() -> int:
    work = run.WORK / "record-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref = {"default_seed": run.DEFAULT_SEED, "warmup_csv": None, "mc_exact": exact_cells(),
           "digests": {name: {} for name in run.WORKLOADS}}
    run.REFERENCE.write_text(json.dumps(ref))
    try:
        warmup = run.warmup_op(work, ref)
        warmup.check = lambda out: []
        run.run_op(warmup, work, False, float("inf"))
        ref["warmup_csv"] = warmup.out.read_text()
        run.REFERENCE.write_text(json.dumps(ref))
        failed = False
        for name in run.WORKLOADS:
            workload = run.build_workload(name, run.DEFAULT_SEED, work)
            for op in [o for o in workload.setup(0) if o.metric == "synth"] + workload.ops:
                result = run.run_op(op, work, False, float("inf"))
                failed |= not result.ok
                if op.metric != "heatmap_mc_s":
                    ref["digests"][name][op.metric] = run.checks.output_digest(op.out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failed:
        print("an output failed its invariant checks; reference not written", file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
