"""End-to-end crowdedness analysis on a planted synthetic corpus.

Generates a corpus whose coordination volume is proportional to
team_size / project_size, writes it as events.jsonl + metadata.csv, and runs
``crowdcoord quadrants`` and ``crowdcoord bins`` on it: the median-split
quadrants (whose low/high,high/low row is the rank test between the crowded
and sparse quadrants) and the decile heatmap.  Prints the quadrants CSV.

Usage:
    python3 scripts/crowding_pipeline.py --out results/ [--projects 300]
        [--k 60] [--seed 99]
"""

import argparse
from pathlib import Path

from crowdcoord import cli
from crowdcoord.synth import SyntheticSpec, generate_synthetic


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results")
    ap.add_argument("--projects", type=int, default=300)
    ap.add_argument("--k", type=int, default=60)
    ap.add_argument("--seed", type=int, default=99)
    args = ap.parse_args()

    # larger teams and a lower crowding scale than the synth subcommand offers
    spec = SyntheticSpec(n_projects=args.projects, structure="crowded",
                         max_actors=50, crowding_scale=1.0e5)
    corpus = generate_synthetic(spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cli.write_events(out / "events.jsonl", corpus.events)
    cli.write_metadata(out / "metadata.csv", corpus.metadata)

    files = ["--events", str(out / "events.jsonl"), "--metadata", str(out / "metadata.csv"),
             "--k", str(args.k)]
    for subcommand, name in (("quadrants", "quadrants.csv"), ("bins", "decile_grid.csv")):
        status = cli.main([subcommand, *files, "--out", str(out / name)])
        if status:
            return status
    print((out / "quadrants.csv").read_text(encoding="utf-8"), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
