"""End-to-end crowdedness analysis on a planted synthetic corpus.

Generates a corpus whose coordination volume is proportional to
team_size / project_size, writes it as events.jsonl + metadata.csv, and
writes what ``crowdcoord quadrants`` and ``crowdcoord bins`` write for it, from
one ingest: the median-split quadrants (whose low/high,high/low row is the rank
test between the crowded and sparse quadrants) and the decile heatmap, each
with its manifest.  Prints the quadrants CSV.

Usage:
    python3 scripts/crowding_pipeline.py --out results/ [--projects 300]
        [--k 60] [--seed 99]
"""

from pathlib import Path

from crowdcoord import cli
from crowdcoord.stats import (
    MIN_DECILE_RECORDS,
    MIN_QUADRANT_RECORDS,
    binned_grid_to_csv,
    decile_heatmap,
    median_split_quadrants,
    quadrants_to_csv,
)
from crowdcoord.synth import SyntheticSpec, generate_synthetic


def main():
    ap = cli.Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results")
    ap.add_argument("--projects", type=cli.integer, default=300)
    ap.add_argument("--k", type=cli.integer, default=60)
    ap.add_argument("--seed", type=cli.integer, default=99)

    def pipeline():  # the corpus, then the two commands' outputs, byte for byte, from one ingest
        args = ap.parse_args()
        out = Path(args.out)
        files = ["--events", str(out / "events.jsonl"), "--metadata", str(out / "metadata.csv"),
                 "--k", str(args.k)]
        # larger teams and a lower crowding scale than the synth subcommand offers
        spec = SyntheticSpec(n_projects=args.projects, structure="crowded",
                             max_actors=50, crowding_scale=1.0e5)
        corpus = generate_synthetic(spec, seed=args.seed)
        out.mkdir(parents=True, exist_ok=True)
        cli.write_events(out / "events.jsonl", corpus.events)
        cli.write_metadata(out / "metadata.csv", corpus.metadata)
        parser = cli.build_parser()
        quadrants = parser.parse_args(["quadrants", *files, "--out", str(out / "quadrants.csv")])
        bins = parser.parse_args(["bins", *files, "--out", str(out / "decile_grid.csv")])
        records = cli.profile_records(quadrants, MIN_QUADRANT_RECORDS)
        cli.write_output(quadrants, quadrants_to_csv(median_split_quadrants(records)))
        cli.require_records(bins, records, MIN_DECILE_RECORDS)
        cli.write_output(bins, binned_grid_to_csv(decile_heatmap(records, agg=bins.agg)))
        print((out / "quadrants.csv").read_text(encoding="utf-8"), end="")

    return cli.exit_status(pipeline)


if __name__ == "__main__":
    raise SystemExit(main())
