"""Regenerate the optimal-coordination-rate grids.

Sweeps beta* over an N x E grid for alpha in {0, 1} with ``crowdcoord
heatmap``, using the closed-form objective (fast) and optionally the exact
kernel or Monte Carlo, and writes one CSV per (objective, alpha) pair, each
with its run manifest, plus one summary line per CSV.

Usage:
    python3 scripts/run_beta_grids.py --out results/ [--objective closed_form]
        [--runs 10000] [--grid 2,5,10,20,40,80]
"""

import os
import time

from crowdcoord import cli
from crowdcoord.constants import OBJECTIVES


def main():
    ap = cli.Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results")
    ap.add_argument("--objective", default="closed_form", choices=OBJECTIVES)
    ap.add_argument("--runs", type=cli.integer, default=10_000)
    ap.add_argument("--seed", type=cli.integer, default=0)
    ap.add_argument("--grid", default="2,5,10,20,40,80")

    def sweep():  # each heatmap as `crowdcoord heatmap` writes it, then its summary line
        args = ap.parse_args()
        runs = ["--runs", str(args.runs)] if args.objective == "monte_carlo" else []
        os.makedirs(args.out, exist_ok=True)
        parser = cli.build_parser()
        for alpha in (0.0, 1.0):
            t0 = time.time()
            path = os.path.join(args.out, f"beta_{args.objective}_alpha{alpha:g}.csv")
            heatmap = parser.parse_args(["heatmap", "--n", args.grid, "--e", args.grid,
                                         "--alpha", str(alpha), "--objective", args.objective,
                                         *runs, "--seed", str(args.seed), "--out", path])
            heatmap.func(heatmap)
            with open(path, encoding="utf-8") as fh:
                rows = [line.split(",")[1:] for line in fh if not line.startswith(("#", ","))]
            stars = [float(v) for row in rows for v in row if v.strip() != "NA"]
            # every cell NA: none to average
            mean = f"{sum(stars) / len(stars):.3f}" if stars else "NA"
            print(f"{path}: mean beta*={mean} ({len(stars)} cells, {time.time() - t0:.1f}s)")

    return cli.exit_status(sweep)


if __name__ == "__main__":
    raise SystemExit(main())
