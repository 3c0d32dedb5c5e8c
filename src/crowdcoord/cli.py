"""Batch command-line interface: ingestion, synthetic corpora, and CSV emission.

Events travel as line-delimited JSON with a fixed key order; matrices and
curves are emitted as CSV with '#'-prefixed metadata headers.  Every output
is accompanied by a run manifest so results can be reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import gc
import io
import json
import re
import sys
from itertools import starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .constants import (
    CHANNELS,
    COORDINATION_CHANNELS,
    FEATURED_YEARS,
    INT64_MAX,
    OBJECTIVES,
    RNG_DESCRIPTION,
    STRUCTURES,
    SYNTH_PROJECTS,
)
from .errors import (
    BudgetExceededError,
    DataError,
    IneligibleProjectError,
    MalformedEventError,
)

if TYPE_CHECKING:
    from .analytics import Event, ProjectLog
    from .solver import SearchConfig

_META_COLUMNS = ("project_id", "final_size", "featured_year", "watchers")
_COUNT_COLUMNS = ("final_size", "watchers")
# the one integer form of flags and metadata, an optional '-' and ASCII digits:
# int() would also take '+5', ' 12 ', '1_000' and '١٢'
_INTEGER = re.compile(r"-?[0-9]+").fullmatch
# the one real form of flags and mwu samples, an optional '-', ASCII digits with at most one
# '.' and an optional exponent, or inf or nan: float() would also take '+1', ' 1', '1_0' and '١'
_REAL = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|inf|nan)").fullmatch


def integer(text: str) -> int:
    """A command-line integer, in ``_INTEGER``'s form."""
    if not _INTEGER(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def real(text: str) -> float:
    """A command-line real number, in ``_REAL``'s form."""
    if not _REAL(text):
        raise ValueError(f"expected a real number, got {text!r}")
    return float(text)


class Parser(argparse.ArgumentParser):
    """The argument parser of the CLI and the scripts; ``exit_status`` reports its errors."""

    def error(self, message):  # argparse would exit 2; main reports ValueError as usage, 1
        raise ValueError(message)


# ---------------------------------------------------------------------------
# ingestion and emission: ingest and parse_event_line import the log track
# (crowdcoord.analytics) themselves, so the model commands start without it

def parse_event_line(line: str, line_no: int) -> Event:
    from .analytics import Event

    if not line.isascii():
        try:
            line.encode("utf-8")  # ingest decodes bad bytes to lone surrogates
        except UnicodeEncodeError as exc:
            raise MalformedEventError(f"line {line_no}: not valid UTF-8") from exc
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, over-long integers, deep nesting
        raise MalformedEventError(f"line {line_no}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise MalformedEventError(f"line {line_no}: expected a JSON object")
    missing = [k for k in ("project_id", "actor_id", "timestamp", "channel") if k not in record]
    if missing:
        raise MalformedEventError(f"line {line_no}: missing fields {missing}")
    project_id, actor_id = record["project_id"], record["actor_id"]
    timestamp, size_delta = record["timestamp"], record.get("size_delta")
    # exact type checks: ids are not coerced to strings (5 and "5" are different
    # values), bool is an int subclass, and floats or strings are not integers
    if type(project_id) is not str:
        raise MalformedEventError(
            f"line {line_no}: project_id must be a string, got {project_id!r}"
        )
    if type(actor_id) is not str:
        raise MalformedEventError(
            f"line {line_no}: actor_id must be a string, got {actor_id!r}"
        )
    if type(timestamp) is not int:
        raise MalformedEventError(
            f"line {line_no}: timestamp must be an integer, got {timestamp!r}"
        )
    if size_delta is not None and type(size_delta) is not int:
        raise MalformedEventError(
            f"line {line_no}: size_delta must be an integer, got {size_delta!r}"
        )
    channel = record["channel"]
    if channel not in CHANNELS:
        raise MalformedEventError(
            f"line {line_no}: channel must be one of {CHANNELS}, got {channel!r}"
        )
    if timestamp < 0:
        raise MalformedEventError(f"line {line_no}: timestamp must be >= 0, got {timestamp}")
    return Event(project_id, actor_id, timestamp, channel, size_delta)


def event_to_json(event: Event) -> str:
    """The canonical event line: the bytes ``json.dumps`` gives for the event's record
    with ``separators=(",", ":")``, which escapes strings with this same function and
    writes integers with ``int.__repr__``."""
    text = (
        f'{{"project_id":{encode_basestring_ascii(event.project_id)},'
        f'"actor_id":{encode_basestring_ascii(event.actor_id)},'
        f'"timestamp":{int.__repr__(event.timestamp)},'
        f'"channel":{encode_basestring_ascii(event.channel)}'
    )
    if event.size_delta is None:
        return text + "}"
    return f'{text},"size_delta":{int.__repr__(event.size_delta)}}}'


# The canonical line as event_to_json writes it, for ids of printable ASCII other than
# '"' and '\\'.  parse_event_line accepts a match, and its groups decode to exactly that
# Event's ids, timestamp and channel (ingest keeps no size_delta):
# - the line is ASCII, so it passes the UTF-8 check;
# - it is one JSON object with four or five distinct keys in one order, so json.loads
#   gives a dict with every required field and no duplicate key overriding another;
# - an id without '"', '\\' or a control character is a JSON string of its own
#   characters, so it decodes to the matched text;
# - timestamp is a JSON integer with no sign or leading zero and size_delta one with no
#   "-0"; at most 18 digits keeps both far below the interpreter's limit on integer
#   digits, so json.loads reads both and int() gives its timestamp, which is >= 0;
# - the channel is one of CHANNELS.
# Every other line, valid or not, goes to parse_event_line, the only code that rejects one.
# Each line of a block, '\n' included, matches exactly once: as a canonical line, whose
# channel group is then non-empty (no id holds '\n', so it spans the whole line), or else
# as the line's text in the last group.  So the i-th match is the block's i-th line.
_BLOCK_LINES = re.compile(
    r'(?:\{"project_id":"([ !#-\[\]-~]*)","actor_id":"([ !#-\[\]-~]*)",'
    r'"timestamp":(0|[1-9][0-9]{0,17}),"channel":"(work|discussion|comment)"'
    r'(?:,"size_delta":(?:0|-?[1-9][0-9]{0,17}))?\}|([^\n]*))\n'
).findall

# ingest reads this many bytes at a time; a block's findall tuples are its transient
INGEST_BLOCK = 2**16

# path -> the sha256 of the bytes this process last read from it, which the manifest records
_READ_SHA256: dict[str, str] = {}


def _line_blocks(fh, digest):
    """The text of the binary file fh in blocks of whole lines, each ending in '\\n' (one is
    added to a last line without it), decoded as a text-mode open() decodes: UTF-8 with
    surrogateescape, and universal newlines, so '\\r\\n' and a lone '\\r' end a line also
    when a read ends between '\\r' and '\\n'.  A line that straddles a read waits for the rest
    of it.  Each read is added to digest."""
    decode = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8")("surrogateescape"), translate=True).decode
    pieces = []
    while data := fh.read(INGEST_BLOCK):
        digest.update(data)
        block = decode(data)
        end = block.rfind("\n") + 1
        if end:
            pieces.append(block[:end])
            yield "".join(pieces)
            pieces = [block[end:]]
        else:
            pieces.append(block)
    tail = "".join(pieces) + decode(b"", final=True)  # a last '\r' ends a line here
    if tail:
        yield tail if tail.endswith("\n") else tail + "\n"


def read_metadata(path: str) -> dict[str, dict]:
    """Project id -> metadata of the CSV file, which is read once; the sha256 of its bytes
    goes to _READ_SHA256."""
    import hashlib

    metadata: dict[str, dict] = {}
    with open(path, "rb") as fh:
        data = fh.read()
    _READ_SHA256[path] = hashlib.sha256(data).hexdigest()
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8") from exc
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataError(f"{path}: {exc}") from exc
    for row in rows:
        pid = row.get("project_id")
        if not pid:
            raise DataError(f"{path}: metadata row without project_id")
        if pid in metadata:
            raise DataError(f"{path}: duplicate metadata row for {pid}")
        entry = {}
        for key in _META_COLUMNS[1:]:
            value = row.get(key)
            if value not in (None, ""):
                try:
                    if not _INTEGER(value):
                        raise ValueError(value)
                    entry[key] = int(value)
                except ValueError as exc:  # not the form, or more digits than int() reads
                    raise DataError(f"{path}: bad {key} for {pid}: {value!r}") from exc
                if abs(entry[key]) > INT64_MAX:
                    raise DataError(f"{path}: {key} for {pid} does not fit in 64 bits")
                if entry[key] < 0 and key in _COUNT_COLUMNS:
                    raise DataError(f"{path}: {key} for {pid} must be >= 0, got {entry[key]}")
        year = entry.get("featured_year")
        if year is not None and year not in FEATURED_YEARS:
            raise DataError(
                f"{path}: featured_year for {pid} must be in {FEATURED_YEARS.start}.."
                f"{FEATURED_YEARS.stop - 1}, got {year}"
            )
        metadata[pid] = entry
    return metadata


def parse_events(events_path: str) -> dict[str, dict]:
    """Project id -> ``channel_columns()`` of the events file, filled in input order, which
    is read once; the sha256 of its bytes goes to _READ_SHA256.  The first malformed line
    raises MalformedEventError."""
    import hashlib

    from .analytics import channel_columns

    by_project: dict[str, dict] = {}
    intern = sys.intern  # one string object per distinct actor id
    # The columns hold only strings and ints, and no per-line object outlives its
    # line, so the cyclic collector has nothing to free here: pause it while they grow.
    collecting = gc.isenabled()
    gc.disable()
    line_no = 0  # for MalformedEventError messages only
    digest = hashlib.sha256()
    try:
        with open(events_path, "rb") as fh:
            for block in _line_blocks(fh, digest):
                for pid, actor, timestamp, channel, line in _BLOCK_LINES(block):
                    line_no += 1
                    if channel:
                        timestamp = int(timestamp)
                    else:
                        line = line.strip(" \t\n\r")  # JSON's whitespace only
                        if not line:
                            continue
                        pid, actor, timestamp, channel, _ = parse_event_line(line, line_no)
                    columns = by_project.get(pid)
                    if columns is None:
                        columns = by_project[intern(pid)] = channel_columns()
                    timestamps, actors = columns[channel]
                    timestamps.append(timestamp)
                    actors.append(intern(actor))
    finally:
        if collecting:
            gc.enable()
    _READ_SHA256[events_path] = digest.hexdigest()
    return by_project


def ingest(
    events_path: str, metadata_path: str | None = None
) -> tuple[dict[str, ProjectLog], dict[str, dict]]:
    """Group events by project into time-ordered channel columns and join optional metadata.

    The columns come from the corpus cache when it holds the events file's bytes;
    otherwise the file is parsed, and the columns are stored there if the bytes parsed are
    the bytes the lookup hashed."""
    from . import cache
    from .analytics import Channel, ProjectLog, time_ordered

    entry = cache.lookup(events_path)
    # project id, in sorted order -> (timestamps, actors) of each channel in CHANNELS order
    projects = entry.load() if entry else None
    if projects is not None:
        _READ_SHA256[events_path] = entry.events_sha256
    else:
        by_project = parse_events(events_path)
        projects = {pid: tuple(time_ordered(*columns[ch]) for ch in CHANNELS)
                    for pid, columns in sorted(by_project.items())}
        del by_project  # its lists, before the store adds the entry's bytes
        if entry and _READ_SHA256[events_path] == entry.events_sha256:
            entry.store(projects)
    metadata = read_metadata(metadata_path) if metadata_path else {}
    unknown = sorted(set(metadata) - set(projects))
    if unknown:
        print(f"warning: metadata for unknown projects: {', '.join(unknown)}", file=sys.stderr)
    corpus = {
        pid: ProjectLog(pid, dict(zip(CHANNELS, starmap(Channel, channels))),
                        metadata.get(pid, {}).get("final_size"))
        for pid, channels in projects.items()
    }
    if not corpus:
        print(f"warning: no events in {events_path}", file=sys.stderr)
    return corpus, metadata


def write_events(path: Path, lines) -> None:
    """Write an events file from an iterable of strings, each some whole canonical lines
    (``event_to_json`` plus '\\n'), such as a synthetic corpus's events."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_metadata(path: Path, metadata: dict[str, dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_META_COLUMNS)
    for pid in sorted(metadata):
        entry = metadata[pid]
        writer.writerow(
            [pid] + [entry.get(col, "") for col in _META_COLUMNS[1:]]
        )
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_manifest(out_path: Path, subcommand: str, params: dict, inputs: list[str]) -> None:
    manifest = {
        "subcommand": subcommand,
        "params": {k: v for k, v in sorted(params.items())},
        "seed": params.get("seed"),
        "inputs": {p: _READ_SHA256[p] for p in inputs},
        "rng": RNG_DESCRIPTION,
        "version": __version__,
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _params(args, skip=("func", "out")) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip}


def write_output(args, text: str) -> None:
    """Write --out and its manifest, which records the sha256 of the bytes a command read
    from each corpus file."""
    out = Path(args.out)
    out.write_text(text, encoding="utf-8")
    params = _params(args)
    inputs = [params[key] for key in ("events", "metadata") if params.get(key)]
    write_manifest(out, args.func.__name__.removeprefix("cmd_"), params, inputs)


# ---------------------------------------------------------------------------
# model / solver subcommands: each imports the model track itself (NumPy only for
# the exact and Monte Carlo ones), so the log-track commands start without it

def cmd_simulate(args) -> None:
    from .model import ModelParams, monte_carlo

    params = ModelParams(args.n, args.e, args.alpha, args.beta)
    result = monte_carlo(params, args.runs, args.seed)
    text = (
        "mean_finished,std_error,runs,seed\n"
        f"{result.mean_finished:.6f},{result.std_error:.6f},{result.runs},{result.seed}\n"
    )
    write_output(args, text)


def cmd_dp(args) -> None:
    from .model import ModelParams, exact_expectation

    params = ModelParams(args.n, args.e, args.alpha, args.beta)
    value = exact_expectation(params)
    write_output(args, f"expected_finished\n{value:.6f}\n")


_OBJECTIVE_ALIASES = {"dp": "exact_dp", "cf": "closed_form", "mc": "monte_carlo"}


def _search(args) -> tuple[str, SearchConfig]:
    """Objective name and search settings shared by optimize and heatmap."""
    from .solver import SearchConfig

    objective = _OBJECTIVE_ALIASES.get(args.objective, args.objective)
    return objective, SearchConfig(grid_step=args.grid_step, runs=args.runs, seed=args.seed)


def cmd_optimize(args) -> None:
    from .solver import optimal_beta

    result = optimal_beta(args.n, args.e, args.alpha, *_search(args))
    text = (
        "beta_star,value,objective,grid_step,runs\n"
        f"{result.beta_star:.4f},{result.value:.6f},{result.objective},"
        f"{result.grid_step},{result.runs if result.runs is not None else 'NA'}\n"
    )
    write_output(args, text)


def _int_values(text: str) -> list[int] | range:
    """Comma list ('2,10,50') or range syntax ('1:100' or '5:50:5'). A range stays a
    range: beta_heatmap charges its cells before any list of them is built."""
    if ":" in text:
        parts = [integer(p) for p in text.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range syntax {text!r}")
        start, stop, step = [*parts, 1][:3]
        if not (1 <= start <= INT64_MAX and 1 <= stop <= INT64_MAX):  # so len() fits
            raise ValueError(f"range {text!r} must start and stop in 1..{INT64_MAX}")
        return range(start, stop + 1, step)
    return [integer(p) for p in text.split(",")]


def cmd_heatmap(args) -> None:
    from .solver import beta_heatmap, grid_to_csv

    grid = beta_heatmap(_int_values(args.n), _int_values(args.e), args.alpha, *_search(args))
    write_output(args, grid_to_csv(grid))


# ---------------------------------------------------------------------------
# log-track subcommands: each imports crowdcoord.analytics or crowdcoord.stats itself,
# as ingest does, so the model commands start without them

def cmd_mwu(args) -> None:
    from .stats import mann_whitney_u

    sample_a = [real(v) for v in args.a.split(",")]
    sample_b = [real(v) for v in args.b.split(",")]
    result = mann_whitney_u(sample_a, sample_b)
    text = (
        "u,p,band,method\n"
        f"{result.u_statistic:.6f},{result.p_value:.6f},{result.band},{result.method}\n"
    )
    write_output(args, text)


def _measured(args, measure):
    """(project_id, measure(project)) over the corpus; warns on and skips ineligible projects."""
    corpus, _ = ingest(args.events, args.metadata)
    for pid, project in corpus.items():
        try:
            value = measure(project)
        except IneligibleProjectError as exc:
            print(f"warning: skipping {pid}: {exc}", file=sys.stderr)
            continue
        yield pid, value


def cmd_xcore(args) -> None:
    from .analytics import core_curve, core_xs

    xs = core_xs(sorted(args.x) if args.x else [i / 10 for i in range(1, 11)])
    lines = ["project_id,x,core_size,core_fraction,d_share,c_share"]
    for pid, curve in _measured(args, lambda project: core_curve(project, xs)):
        for x, size, frac, d, c in zip(
            curve.xs, curve.core_size, curve.core_fraction, curve.d_share, curve.c_share
        ):
            d_txt = f"{d:.6f}" if d is not None else "NA"
            c_txt = f"{c:.6f}" if c is not None else "NA"
            lines.append(f"{pid},{x:.4f},{size},{frac:.6f},{d_txt},{c_txt}")
    write_output(args, "\n".join(lines) + "\n")


def _profiles(args) -> dict:
    from .analytics import check_profile_args, crowdedness_profile

    check_profile_args(args.k, args.channel)
    return dict(_measured(args, lambda project: crowdedness_profile(project, args.k, args.channel)))


def cmd_crowd(args) -> None:
    profiles = _profiles(args)
    lines = ["project_id,n_engaged,team_size,threshold_time,early_coordination,final_size"]
    for pid, profile in profiles.items():
        size = profile.output_size if profile.output_size is not None else "NA"
        lines.append(
            f"{pid},{len(profile.engaged_users)},{len(profile.early_team)},"
            f"{profile.threshold_time},{profile.early_coordination},{size}"
        )
    write_output(args, "\n".join(lines) + "\n")


def profile_records(args, minimum: int = 0) -> list[tuple[float, float, float]]:
    """(final size, early team size, early coordination) per profiled project with a final
    size, at least ``minimum`` of them (see ``require_records``)."""
    records = []
    for pid, profile in _profiles(args).items():
        if profile.output_size is None:
            print(f"warning: skipping {pid}: no final_size metadata", file=sys.stderr)
            continue
        records.append(
            (float(profile.output_size), float(len(profile.early_team)),
             float(profile.early_coordination))
        )
    require_records(args, records, minimum)
    return records


def require_records(args, records: list, minimum: int) -> None:
    """Fewer than ``minimum`` records for ``args``'s command is a data error, since every
    flag was in its domain."""
    if len(records) < minimum:
        command = args.func.__name__.removeprefix("cmd_")
        raise DataError(f"{command} needs at least {minimum} profiled projects with a "
                        f"final_size, got {len(records)}")


def cmd_quadrants(args) -> None:
    from .stats import MIN_QUADRANT_RECORDS, median_split_quadrants, quadrants_to_csv

    summary = median_split_quadrants(profile_records(args, MIN_QUADRANT_RECORDS))
    write_output(args, quadrants_to_csv(summary))


def cmd_bins(args) -> None:
    from .stats import MIN_DECILE_RECORDS, binned_grid_to_csv, decile_heatmap

    grid = decile_heatmap(profile_records(args, MIN_DECILE_RECORDS), agg=args.agg)
    write_output(args, binned_grid_to_csv(grid))


# ---------------------------------------------------------------------------
# cohort and synth: each imports its module itself, so the corpus commands start without them

def cmd_cohort(args) -> None:
    from .cohort import build_cohorts, check_cohort_args, cohort_to_csv

    check_cohort_args(args.k, args.tolerance, args.seed)
    corpus, metadata = ingest(args.events, args.metadata)
    featured = {
        pid: entry["featured_year"]
        for pid, entry in metadata.items()
        if "featured_year" in entry and pid in corpus
    }
    if not featured:
        raise DataError("no projects with featured_year in metadata")
    cohort = build_cohorts(
        corpus,
        featured,
        k=args.k,
        tolerance=args.tolerance,
        require_fewer_prior=not args.allow_fewer_prior,
        seed=args.seed,
    )
    write_output(args, cohort_to_csv(cohort))


def cmd_synth(args) -> None:
    from .synth import SyntheticSpec, generate_synthetic

    if args.projects is None:
        args.projects = SYNTH_PROJECTS
    elif args.structure == "cohort":
        raise ValueError("--projects does not apply to --structure cohort, whose projects are "
                         "its featured, planted-control and noise-candidate counts")
    spec = SyntheticSpec(
        n_projects=args.projects,
        structure=args.structure,
        n_featured=args.featured,
        planted_controls=args.planted_controls,
        noise_candidates=args.noise_candidates,
    )
    corpus = generate_synthetic(spec, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_events(out_dir / "events.jsonl", corpus.events)
    write_metadata(out_dir / "metadata.csv", corpus.metadata)
    (out_dir / "ground_truth.json").write_text(
        json.dumps(corpus.ground_truth, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    write_manifest(out_dir / "corpus", "synth", _params(args), [])


# ---------------------------------------------------------------------------

def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A flag block that subcommands include through ``parents=``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> Parser:
    parser = Parser(prog="crowdcoord", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        p.set_defaults(func=func)
        p.add_argument("--out", required=True, help="output path")
        return p

    point = _flags()  # one (N, E, alpha) point
    point.add_argument("--n", type=integer, required=True)
    point.add_argument("--e", type=integer, required=True)
    point.add_argument("--alpha", type=real, required=True)
    state = _flags(point)
    state.add_argument("--beta", type=real, required=True)
    search = _flags()
    search.add_argument("--objective", default="closed_form",
                        choices=[*OBJECTIVES, *_OBJECTIVE_ALIASES])
    search.add_argument("--runs", type=integer, default=None)
    search.add_argument("--seed", type=integer, default=0)
    search.add_argument("--grid-step", type=real, default=0.01)
    events = _flags()
    events.add_argument("--events", required=True)
    corpus = _flags(events)
    corpus.add_argument("--metadata", default=None)
    profile = _flags(corpus)
    profile.add_argument("--k", type=integer, default=100)
    profile.add_argument("--channel", default="discussion", choices=COORDINATION_CHANNELS)

    p = add("simulate", cmd_simulate, "Monte Carlo estimate of finished parts", state)
    p.add_argument("--runs", type=integer, default=10_000)
    p.add_argument("--seed", type=integer, default=0)

    add("dp", cmd_dp, "exact expected finished parts by dynamic programming", state)
    add("optimize", cmd_optimize, "search the optimal coordination probability", point, search)

    p = add("heatmap", cmd_heatmap, "optimal beta over an (N, E) grid", search)
    p.add_argument("--n", required=True, help="comma list or start:stop[:step]")
    p.add_argument("--e", required=True, help="comma list or start:stop[:step]")
    p.add_argument("--alpha", type=real, required=True)

    p = add("mwu", cmd_mwu, "Mann-Whitney U test on two comma-separated samples")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("xcore", cmd_xcore, "x-core curves per project", corpus)
    p.add_argument("--x", type=real, action="append", default=None)

    add("crowd", cmd_crowd, "crowdedness profiles per project", profile)
    add("quadrants", cmd_quadrants, "median-split quadrant summary", profile)
    p = add("bins", cmd_bins, "decile-binned coordination heatmap", profile)
    p.add_argument("--agg", default="mean", choices=["mean", "median"])

    p = add("cohort", cmd_cohort, "matched featured/control cohorts", events)
    p.add_argument("--metadata", required=True)
    p.add_argument("--k", type=integer, default=30)
    p.add_argument("--tolerance", type=real, default=0.05)
    p.add_argument("--allow-fewer-prior", action="store_true",
                   help="drop the strictly-more-prior-work requirement on controls")
    p.add_argument("--seed", type=integer, default=0)

    p = add("synth", cmd_synth, "generate a synthetic corpus (out is a directory)")
    p.add_argument("--projects", type=integer, default=None,
                   help=f"default {SYNTH_PROJECTS}; not with --structure cohort")
    p.add_argument("--structure", default="none", choices=list(STRUCTURES))
    p.add_argument("--featured", type=integer, default=0)
    p.add_argument("--planted-controls", type=integer, default=0)
    p.add_argument("--noise-candidates", type=integer, default=0)
    p.add_argument("--seed", type=integer, default=0)

    return parser


def exit_status(run) -> int:
    """Call run() and return its exit code: 0, or 3, 2 or 1 for a budget refusal, a
    data error or a usage error, each reported in one line on stderr."""
    try:
        run()
    except BudgetExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    def run():
        args = build_parser().parse_args(argv)
        args.func(args)
    return exit_status(run)


if __name__ == "__main__":
    raise SystemExit(main())
