import contextlib
import functools
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcoord import cache, cli, limits
from crowdcoord.analytics import CHANNELS, Event, ProjectLog
from crowdcoord.cli import event_to_json, ingest, main, parse_event_line
from crowdcoord.errors import MalformedEventError
from crowdcoord.synth import SyntheticSpec, generate_synthetic
from oracles import event_path_log, json_event_line, synthetic_events


def run(args):
    return main([str(a) for a in args])


def write_events(path, lines):
    path.write_text("\n".join(lines) + "\n")


E1 = '{"project_id":"p1","actor_id":"a","timestamp":10,"channel":"work"}'
E2 = '{"project_id":"p1","actor_id":"b","timestamp":5,"channel":"discussion"}'
E3 = '{"project_id":"p2","actor_id":"a","timestamp":1,"channel":"comment","size_delta":4}'


class TestIngest:
    def test_groups_and_sorts(self, tmp_path):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1, E2, E3])
        corpus, _ = ingest(str(events))
        assert set(corpus) == {"p1", "p2"}
        assert [e.timestamp for e in corpus["p1"].events] == [5, 10]
        assert corpus["p2"].events == (Event("p2", "a", 1, "comment"),)

    def test_empty_file_warns(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        corpus, _ = ingest(str(events))
        assert corpus == {}
        assert "warning" in capsys.readouterr().err

    def test_malformed_line_names_line_number(self, tmp_path):
        events = tmp_path / "events.jsonl"
        bad = E1.replace("work", "telepathy")
        write_events(events, [E1, bad])
        with pytest.raises(MalformedEventError, match="line 2"):
            ingest(str(events))

    def test_metadata_join(self, tmp_path):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1, E3])
        meta = tmp_path / "meta.csv"
        meta.write_text("project_id,final_size,featured_year,watchers\np1,999,,\n")
        corpus, metadata = ingest(str(events), str(meta))
        assert corpus["p1"].final_size == 999
        assert corpus["p2"].final_size is None
        assert metadata["p1"] == {"final_size": 999}

    def test_unknown_metadata_warns(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1])
        meta = tmp_path / "meta.csv"
        meta.write_text("project_id,final_size,featured_year,watchers\nghost,1,,\n")
        ingest(str(events), str(meta))
        assert "ghost" in capsys.readouterr().err

    def test_roundtrip_idempotent(self, tmp_path):
        src = tmp_path / "events.jsonl"
        write_events(src, [E2, E1, E3])
        corpus, _ = ingest(str(src))
        canonical = tmp_path / "canonical.jsonl"
        with open(canonical, "w") as fh:
            for pid in corpus:
                for event in corpus[pid].events:
                    fh.write(event_to_json(event) + "\n")
        corpus2, _ = ingest(str(canonical))
        canonical2 = tmp_path / "canonical2.jsonl"
        with open(canonical2, "w") as fh:
            for pid in corpus2:
                for event in corpus2[pid].events:
                    fh.write(event_to_json(event) + "\n")
        assert canonical.read_bytes() == canonical2.read_bytes()

    def test_parse_rejects_non_object(self):
        with pytest.raises(MalformedEventError):
            parse_event_line("[1,2]", 1)
        with pytest.raises(MalformedEventError):
            parse_event_line("{definitely not json", 3)

    @pytest.mark.parametrize("field,value", [
        ("timestamp", "true"), ("timestamp", "17.9"), ("timestamp", '"18"'),
        ("timestamp", "Infinity"), ("timestamp", "NaN"), ("timestamp", "null"),
        ("size_delta", "1.5"), ("size_delta", "false"), ("size_delta", "-Infinity"),
    ])
    def test_parse_rejects_non_integer_fields(self, field, value):
        numbers = {"timestamp": "10", field: value}
        line = ('{"project_id":"p","actor_id":"a","channel":"work",'
                + ",".join(f'"{k}":{v}' for k, v in numbers.items()) + "}")
        with pytest.raises(MalformedEventError, match=f"line 7: {field}"):
            parse_event_line(line, 7)

    @pytest.mark.parametrize("field,value", [
        ("project_id", "5"), ("project_id", "null"), ("project_id", "true"),
        ("project_id", '["p"]'), ("actor_id", "null"), ("actor_id", "7.5"),
        ("actor_id", '{"id":"a"}'),
    ])
    def test_parse_rejects_non_string_ids(self, field, value):
        ids = {"project_id": '"p"', "actor_id": '"a"', field: value}
        line = ("{" + ",".join(f'"{k}":{v}' for k, v in ids.items())
                + ',"timestamp":10,"channel":"work"}')
        with pytest.raises(MalformedEventError, match=f"line 7: {field}"):
            parse_event_line(line, 7)

    @pytest.mark.parametrize("field,value,message", [
        ("channel", '"email"',
         "channel must be one of ('work', 'discussion', 'comment'), got 'email'"),
        ("timestamp", "-1", "timestamp must be >= 0, got -1"),
    ], ids=["channel-email", "timestamp-negative"])
    def test_parse_rejects_out_of_domain_values(self, field, value, message):
        fields = {"channel": '"work"', "timestamp": "10", field: value}
        line = ('{"project_id":"p","actor_id":"a",'
                + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}")
        with pytest.raises(MalformedEventError, match=re.escape(f"line 7: {message}")):
            parse_event_line(line, 7)

    def test_numeric_and_string_ids_do_not_merge(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        write_events(events, [
            '{"project_id":"5","actor_id":"None","timestamp":1,"channel":"work"}',
            '{"project_id":5,"actor_id":null,"timestamp":2,"channel":"work"}',
        ])
        assert run(["xcore", "--events", events, "--out", tmp_path / "o.csv"]) == 2
        assert "line 2: project_id" in capsys.readouterr().err

    @pytest.mark.parametrize("collecting", [True, False])
    def test_restores_the_cyclic_collector(self, tmp_path, collecting):
        # ingest pauses the collector while it reads, then leaves it as the caller had it
        events = tmp_path / "events.jsonl"
        write_events(events, [E1, E2, E3])
        was_enabled = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            corpus, _ = ingest(str(events))
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert set(corpus) == {"p1", "p2"}

    def test_restores_the_cyclic_collector_when_a_line_raises(self, tmp_path):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1, E2, "not json", E3])
        assert gc.isenabled()
        with pytest.raises(MalformedEventError, match="line 3"):
            ingest(str(events))
        assert gc.isenabled()

    def test_keeps_two_columns_per_event(self, tmp_path, monkeypatch):
        # a timestamp (8-byte slot and int) and an actor id that a first ingest of the
        # same file has interned keep about 38 bytes per event; a third column, such as
        # the size deltas, keeps about 47.  Measuring a later ingest gives the same
        # reading whether or not earlier tests left the actor ids interned.  It is
        # measured parsed (a cache home that is a file holds no entry) and loaded from
        # the entry that the first ingest stored.
        corpus = generate_synthetic(SyntheticSpec(n_projects=20, structure="crowded"), seed=1)
        events = tmp_path / "events.jsonl"
        cli.write_events(events, corpus.events)
        interned = ingest(str(events))  # held while the later ingests are measured
        for home in (str(events), os.environ["XDG_CACHE_HOME"]):
            monkeypatch.setenv("XDG_CACHE_HOME", home)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                logs, _ = ingest(str(events))
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert sum(len(c) for log in logs.values() for c in log.by_channel.values()) == len(
                corpus.events)
            assert held <= 45 * len(corpus.events), home

    def test_tracks_objects_per_project_not_per_event(self, tmp_path):
        events = tmp_path / "events.jsonl"
        write_events(events, [
            event_to_json(Event(f"p{i % 8}", f"a{i % 13}", i // 3, CHANNELS[i % 3], i % 5 or None))
            for i in range(4000)
        ])
        for _ in ("parsed", "loaded from the corpus cache"):
            gc.collect()
            before = len(gc.get_objects())
            corpus, _ = ingest(str(events))
            gc.collect()
            assert len(corpus) == 8
            assert len(gc.get_objects()) - before <= 10 * len(corpus)
            del corpus


# ids that event_to_json writes without an escape: printable ASCII other than '"' and '\\'
CANONICAL_IDS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                      blacklist_characters='"\\'))
ANY_IDS = st.text(st.characters(blacklist_categories=()))  # lone surrogates included
DIGITS_18 = 10**18 - 1


def typed(events):
    """Each event with the types of its fields, so that 1 and True or 1.0 differ."""
    return [(event, list(map(type, event))) for event in events]


def ingested(directory, lines):
    """Typed events of ingesting the lines as one file, or the MalformedEventError message."""
    path = directory / "events.jsonl"
    # surrogateescape writes back the undecodable bytes that ingest reads as lone surrogates
    path.write_bytes("".join(f"{line}\n" for line in lines).encode("utf-8", "surrogateescape"))
    try:
        corpus, _ = ingest(str(path))
    except MalformedEventError as exc:
        return str(exc)
    return typed(event for project in corpus.values() for event in project.events)


def parsed(line, line_no=1):
    try:
        return typed([parse_event_line(line, line_no)])
    except MalformedEventError as exc:
        return str(exc)


def logged(result):
    """A ``parsed`` result as a log keeps it: each Event with ``size_delta=None``."""
    if isinstance(result, str):
        return result
    return typed(event._replace(size_delta=None) for event, _ in result)


def near_miss(project_id='"p"', timestamp="1", tail=""):
    return (f'{{"project_id":{project_id},"actor_id":"a","timestamp":{timestamp},'
            f'"channel":"work"{tail}}}')


def oracle_events(project_ids):
    # few actors and timestamps, so that events tie in time within and across channels;
    # "é" and 10**20 make lines that only parse_event_line decodes
    return st.lists(st.builds(
        Event, st.sampled_from(project_ids), st.sampled_from(["a", "b", "c", "é"]),
        st.integers(0, 4) | st.just(10**20), st.sampled_from(CHANNELS),
        st.none() | st.integers(-3, 3),
    ), max_size=40)


def assert_event_path(log, events):
    """The log's events and channel columns equal the Event-path oracle's over its input."""
    ordered, by_channel = event_path_log(events)
    assert log.events == ordered
    for ch in CHANNELS:
        channel = log.by_channel[ch]
        assert channel.timestamps == tuple(e.timestamp for e in by_channel[ch])
        assert channel.actors == tuple(e.actor_id for e in by_channel[ch])


class TestEventPathOracle:
    """Ingest and from_events fill the channel columns that sorting and filtering Events give."""

    @given(events=oracle_events(["p", "q"]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_ingest(self, tmp_path_factory, events, data):
        # each line canonical, or in json.dumps's default form, which parse_event_line reads
        canonical = data.draw(st.lists(st.booleans(), min_size=len(events), max_size=len(events)))
        path = tmp_path_factory.getbasetemp() / "events.jsonl"
        write_events(path, [event_to_json(e) if c else json.dumps(e._asdict())
                            for e, c in zip(events, canonical)])
        corpus, _ = ingest(str(path))
        assert sorted(corpus) == sorted({e.project_id for e in events})
        for pid, log in corpus.items():
            assert_event_path(log, [e for e in events if e.project_id == pid])

    @given(events=oracle_events(["p"]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_events(self, events, data):
        shuffled = data.draw(st.permutations(events))
        assert_event_path(ProjectLog.from_events("p", shuffled), shuffled)


class TestCanonicalLine:
    """ingest decodes event_to_json's lines without parse_event_line, to the same Events."""

    @given(event=st.builds(Event, CANONICAL_IDS, CANONICAL_IDS, st.integers(0, DIGITS_18),
                           st.sampled_from(CHANNELS),
                           st.none() | st.integers(-DIGITS_18, DIGITS_18)))
    @settings(max_examples=200, deadline=None)
    def test_canonical_line_skips_parse_event_line(self, tmp_path_factory, event):
        line = event_to_json(event)
        with mock.patch.object(cli, "parse_event_line", side_effect=AssertionError(line)):
            got = ingested(tmp_path_factory.getbasetemp(), [line])
        assert parsed(line) == typed([event])
        assert got == logged(parsed(line))

    @given(event=st.builds(Event, ANY_IDS, ANY_IDS, st.integers(0), st.sampled_from(CHANNELS),
                           st.none() | st.integers()))
    @settings(max_examples=200, deadline=None)
    def test_any_written_line_decodes_as_parse_event_line(self, tmp_path_factory, event):
        line = event_to_json(event)
        got = ingested(tmp_path_factory.getbasetemp(), [line])
        assert parsed(line) == typed([event])
        assert got == logged(parsed(line))

    @pytest.mark.parametrize("line", [
        near_miss(project_id=r'"p\u0031"'),
        near_miss(project_id='"p\u00e9"'),
        near_miss(project_id=r'"\ud800"'),
        near_miss(project_id='"\udced\udca0\udc80"'),  # a UTF-8-encoded surrogate: not UTF-8
        near_miss(project_id='"tab\there"'),
        near_miss(project_id='"del\x7f"'),
        '{"project_id": "p","actor_id": "a","timestamp": 1,"channel": "work"}',
        '{"actor_id":"a","project_id":"p","timestamp":1,"channel":"work"}',
        near_miss(tail=',"channel":"comment"'),
        near_miss(tail=',"size_delta":null'),
        near_miss(timestamp="-0"),
        near_miss(tail=',"size_delta":-0'),
        near_miss(timestamp="01"),
        near_miss(tail=',"size_delta":-01'),
        near_miss(timestamp="1" + "0" * 18),
        near_miss(timestamp="9" * 5000),
        near_miss(timestamp="true"),
        near_miss(timestamp="1.0"),
        near_miss(tail=',"size_delta":1e3'),
        near_miss().replace('"work"', '"Work"'),
    ], ids=["escaped-id", "non-ascii-id", "escaped-lone-surrogate", "undecodable-bytes",
            "raw-tab-in-id", "del-in-id", "spaces", "reordered", "duplicate-channel",
            "null-size-delta", "minus-zero-timestamp", "minus-zero-size-delta",
            "leading-zero", "leading-zero-size-delta", "19-digits", "5000-digits", "true",
            "float", "exponent", "unknown-channel"])
    def test_near_miss_decodes_as_parse_event_line(self, tmp_path, line):
        assert ingested(tmp_path, [line]) == logged(parsed(line))

    def test_malformed_line_after_canonical_lines(self, tmp_path):
        bad = near_miss(timestamp="1.0")
        got = ingested(tmp_path, [E1, E3, "", near_miss(project_id=r'"p\u0031"'), bad])
        assert got == parsed(bad, 5)
        assert got.startswith("line 5: timestamp must be an integer")

    def test_ids_and_channels_are_shared(self, tmp_path):
        lines = [
            '{"project_id":"proj","actor_id":"alice","timestamp":1,"channel":"work"}',
            '{"project_id":"proj","actor_id":"alice","timestamp":2,"channel":"work"}',
            '{"project_id": "proj","actor_id": "alice","timestamp": 3,"channel": "work"}',
            '{"project_id":"other","actor_id":"alice","timestamp":4,"channel":"work"}',
        ]
        for _ in ("parsed", "loaded from the corpus cache"):
            events = [event for event, _ in ingested(tmp_path, lines)]
            assert len(events) == 4
            for field in ("project_id", "actor_id", "channel"):
                values = [getattr(e, field) for e in events if e.project_id == "proj"]
                assert all(v is values[0] for v in values), field
            assert events[0].actor_id is events[3].actor_id
            assert events[0].channel is events[3].channel


# ingest's reads, in bytes: sizes that end blocks inside lines, and the default
BLOCK_SIZES = [1, 2, 7, 64, cli.INGEST_BLOCK]


def ingest_blocks(directory, data, block):
    """{project: by_channel} of parsing the bytes in reads of block bytes, or the
    MalformedEventError message.  It calls the parse step itself, as ingest does on a
    corpus-cache miss, since ingest would load the same bytes from the cache."""
    path = directory / "events.jsonl"
    path.write_bytes(data)
    with mock.patch.object(cli, "INGEST_BLOCK", block):
        try:
            by_project = cli.parse_events(str(path))
        except MalformedEventError as exc:
            return str(exc)
    return {pid: ProjectLog.from_columns(pid, columns).by_channel
            for pid, columns in by_project.items()}


def timestamps(got):
    """Each project's and channel's timestamps."""
    return {pid: {ch: c.timestamps for ch, c in channels.items() if c}
            for pid, channels in got.items()}


def at_edge(head, block):
    """The bytes head with spaces before them, so that a read of block bytes ends after
    head's last byte."""
    return b" " * (-len(head) % block) + head


# E1, E2 and E3 as ingest_blocks gives them
E123 = {"p1": {"work": (10,), "discussion": (5,)}, "p2": {"comment": (1,)}}


@pytest.mark.parametrize("block", BLOCK_SIZES)
class TestBlockBoundaries:
    """ingest reads whole lines in blocks; where a read ends changes no event or line number.

    A malformed last line's number counts every line before it, blank ones included."""

    def test_lines_straddle_blocks(self, tmp_path, block):
        got = ingest_blocks(tmp_path, f"{E1}\n{E2}\n{E3}\n".encode(), block)
        assert timestamps(got) == E123
        assert ingest_blocks(tmp_path, f"{E1}\n{E2}\n{E3}\nnot json\n".encode(),
                             block).startswith("line 4: invalid JSON")

    def test_crlf_split_between_reads(self, tmp_path, block):
        # a read ends between the first line's '\r' and '\n'; a lone '\r' would end a
        # blank line 2 and move every later line number on by one
        first = at_edge(f"{E1}\r".encode(), block)
        data = first + f"\n{E2}\r\n\r\n{E3}\r\n".encode()
        assert len(first) % block == 0 and data[len(first) - 1:len(first) + 1] == b"\r\n"
        assert timestamps(ingest_blocks(tmp_path, data, block)) == E123
        assert ingest_blocks(tmp_path, data + b"not json\r\n", block).startswith(
            "line 5: invalid JSON")

    def test_lone_cr_ends_a_line(self, tmp_path, block):
        data = f"{E1}\r{E2}\n{E3}\rgarbage\n".encode()
        assert ingest_blocks(tmp_path, data, block).startswith("line 4: invalid JSON")
        data = f"{E1}\r{E2}\r\r{E3}\r".encode()
        assert timestamps(ingest_blocks(tmp_path, data, block)) == E123
        assert ingest_blocks(tmp_path, data + b"garbage\r", block).startswith(
            "line 5: invalid JSON")

    def test_character_split_between_reads(self, tmp_path, block):
        # a read ends after the first of the three bytes of the euro sign's UTF-8 form
        line = E1.replace('"p1"', '"p\u20ac"').encode()
        split = line.index("\u20ac".encode()) + 1
        data = at_edge(line[:split], block) + line[split:] + f"\n{E2}\n{E3}\n".encode()
        assert timestamps(ingest_blocks(tmp_path, data, block)) == {
            "p\u20ac": {"work": (10,)}, "p1": {"discussion": (5,)}, "p2": {"comment": (1,)}}

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82"],  # a cut-off euro sign
                             ids=["not-utf-8", "cut-off-character"])
    def test_invalid_bytes_at_a_read_edge(self, tmp_path, block, bad):
        line = E2.replace('"b"', '"b?"').encode()
        head, tail = line.split(b"?")
        data = at_edge(f"{E1}\n".encode() + head + bad, block) + tail + f"\n{E3}\n".encode()
        assert ingest_blocks(tmp_path, data, block).startswith("line 2: not valid UTF-8")

    def test_last_line_without_newline(self, tmp_path, block):
        got = ingest_blocks(tmp_path, f"{E1}\n{E2}\n {E3}".encode(), block)
        assert timestamps(got) == E123
        assert ingest_blocks(tmp_path, f"{E1}\n{E2}\n {E3}\nnot json".encode(),
                             block).startswith("line 4: invalid JSON")
        got = ingest_blocks(tmp_path, f"{E1}\n{E3}".encode(), block)
        assert timestamps(got) == {"p1": {"work": (10,)}, "p2": {"comment": (1,)}}
        assert ingest_blocks(tmp_path, f"{E1}\nnot json".encode(), block).startswith(
            "line 2: invalid JSON")
        got = ingest_blocks(tmp_path, f"{E1}\n \t".encode(), block)
        assert timestamps(got) == {"p1": {"work": (10,)}}

    def test_blank_lines_count(self, tmp_path, block):
        data = f"\n \t\n{E1}\n\n\t{E2} \n   \n\n{E3}\n\n".encode()
        assert timestamps(ingest_blocks(tmp_path, data, block)) == E123
        assert ingest_blocks(tmp_path, data + b"not json\n", block).startswith(
            "line 10: invalid JSON")

    def test_malformed_line_in_a_later_block(self, tmp_path, capsys, block):
        # over 64 KiB of lines before it, so it is in a later block at every size
        lines = [event_to_json(Event("p", f"a{i}", i, "work", None)) for i in range(1200)]
        events = tmp_path / "events.jsonl"
        write_events(events, [*lines, "", near_miss(timestamp="1.0"), E1])
        assert events.stat().st_size > 2**16
        with mock.patch.object(cli, "INGEST_BLOCK", block):
            assert run(["xcore", "--events", events, "--out", tmp_path / "o.csv"]) == 2
        assert capsys.readouterr().err == (
            "data error: line 1202: timestamp must be an integer, got 1.0\n")
        assert not (tmp_path / "o.csv").exists()


def padded(line):
    """The line with JSON whitespace around it, which sends it to parse_event_line."""
    return st.tuples(st.sampled_from(["", " ", "\t ", "  \t"]),
                     st.sampled_from(["", " ", "\t", " \t "])).map(
        lambda pad: f"{pad[0]}{line}{pad[1]}")


@given(events=oracle_events(["p", "q"]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_ingest_at_every_block_size(tmp_path_factory, events, data):
    # each event a canonical, json.dumps-form or padded line, with blank lines between,
    # any of the three line ends, and no line end after the last line half the time
    lines = []
    for event in events:
        lines += data.draw(st.lists(st.sampled_from(["", " ", "\t \t"]), max_size=2))
        line = data.draw(st.sampled_from([event_to_json(event), json.dumps(event._asdict())]))
        lines.append(data.draw(st.just(line) | padded(line)))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    directory = tmp_path_factory.getbasetemp()
    # a malformed line after them is numbered one past every line, blank ones included;
    # a '\r' end followed by a blank line's '\n' end is one '\r\n' end
    n_lines = text.count("\n") + text.count("\r") - text.count("\r\n")
    for block in BLOCK_SIZES:
        assert ingest_blocks(directory, f"{text}not json".encode(), block).startswith(
            f"line {n_lines + 1}: invalid JSON")
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")
    got = [ingest_blocks(directory, text.encode(), block) for block in BLOCK_SIZES]
    assert all(g == got[-1] for g in got)
    assert sorted(got[-1]) == sorted({e.project_id for e in events})
    corpus, _ = ingest(str(directory / "events.jsonl"))
    for pid, log in corpus.items():
        assert_event_path(log, [e for e in events if e.project_id == pid])


@pytest.mark.parametrize("text", ['quo"te', "back\\slash", "ctl\x00\x1f\n\x7f",
                                  "n\u00f6n-ascii \u2713 \U0001d11e", "lone \ud800 surrogate"])
@pytest.mark.parametrize("size_delta", [None, 0, -12])
def test_event_to_json_matches_json_dumps(text, size_delta):
    event = Event(text, f"actor {text}", 17, "comment", size_delta)
    assert event_to_json(event) == json_event_line(event)


@given(event=st.builds(Event, ANY_IDS, ANY_IDS, st.integers(), st.sampled_from(CHANNELS),
                       st.none() | st.integers()))
@settings(max_examples=300, deadline=None)
def test_event_to_json_matches_json_dumps_on_any_event(event):
    assert event_to_json(event) == json_event_line(event)


class TestExitCodes:
    def test_usage_error_on_bad_flag_value(self, tmp_path, capsys):
        assert run(["dp", "--n", 5, "--e", 3, "--alpha", 2.0, "--beta", 0,
                    "--out", tmp_path / "o.csv"]) == 1

    def test_usage_error_on_missing_flag(self, tmp_path, capsys):
        assert run(["dp", "--n", 5, "--out", tmp_path / "o.csv"]) == 1

    def test_data_error_on_missing_file(self, tmp_path, capsys):
        assert run(["xcore", "--events", tmp_path / "nope.jsonl",
                    "--out", tmp_path / "o.csv"]) == 2

    def test_resource_error_on_budget(self, tmp_path, capsys):
        assert run(["dp", "--n", 200_000, "--e", 1000, "--alpha", 0.5, "--beta", 0.5,
                    "--out", tmp_path / "o.csv"]) == 3

    @pytest.mark.parametrize("argv", [
        ["optimize", "--n", 5, "--e", 3, "--alpha", 1, "--grid-step", 0],
        ["optimize", "--n", 5, "--e", 3, "--alpha", 1, "--grid-step", -1],
        ["heatmap", "--n", "2,5", "--e", "2,5", "--alpha", 1, "--objective", "mc",
         "--runs", 0],
        ["mwu", "--a", "1,nan", "--b", "2,3"],
        ["heatmap", "--n", "2,5", "--e", "2,5", "--alpha", 2],
        ["heatmap", "--n", "2,5", "--e", "2,5", "--alpha", "nan"],
        ["heatmap", "--n", "2,5", "--e", "2,5", "--alpha", 1, "--objective", "mc"],
        ["heatmap", "--n", "0,5", "--e", "2,5", "--alpha", 1],
        ["simulate", "--n", 10**30, "--e", 3, "--alpha", 1, "--beta", 0.5],
        ["optimize", "--objective", "cf", "--n", 10**200, "--e", 3, "--alpha", 1],
        ["xcore", "--events", os.devnull, "--x", 0],
        ["crowd", "--events", os.devnull, "--k", 0],
        ["cohort", "--events", os.devnull, "--metadata", os.devnull, "--k", 0],
        ["cohort", "--events", os.devnull, "--metadata", os.devnull, "--tolerance", "nan"],
        ["optimize", "--n", 20, "--e", 8, "--alpha", 1, "--objective", "mc", "--runs", 200,
         "--grid-step", 0.3],
        ["optimize", "--n", 5, "--e", 3, "--alpha", 1, "--grid-step", 5e-324],
        ["synth", "--structure", "cohort", "--featured", 1, "--planted-controls", -2,
         "--noise-candidates", -1],
        ["synth", "--projects", 3, "--featured", 5],
        ["synth", "--structure", "cohort", "--featured", 2, "--projects", 500],
        ["heatmap", "--n", f"1:{10**20}", "--e", "1", "--alpha", 1],
        ["dp", "--n", "\u0661\u0660", "--e", 3, "--alpha", 1, "--beta", 0.5],
        ["dp", "--n", 10, "--e", " 3 ", "--alpha", 1, "--beta", 0.5],
        ["heatmap", "--n", "1_0,2_0", "--e", 5, "--alpha", 1],
        ["heatmap", "--n", "2:9", "--e", "+5", "--alpha", 1],
        ["dp", "--n", 3, "--e", 2, "--alpha", "\u0661", "--beta", 0.5],
        ["dp", "--n", 3, "--e", 2, "--alpha", 1, "--beta", "0_1"],
        ["optimize", "--n", 5, "--e", 3, "--alpha", 1, "--grid-step", "\u0660.\u0665"],
        ["heatmap", "--n", "2,5", "--e", "2,5", "--alpha", "+1"],
        ["mwu", "--a", "\u0661,\u0662", "--b", " 3,4_0"],
        ["xcore", "--events", os.devnull, "--x", " 0.5"],
        ["cohort", "--events", os.devnull, "--metadata", os.devnull, "--tolerance", "0.0_5"],
    ], ids=["grid-step-zero", "grid-step-negative", "mc-runs-zero", "mwu-nan",
            "heatmap-alpha-two", "heatmap-alpha-nan", "heatmap-mc-no-runs", "heatmap-n-zero",
            "simulate-n-over-int64", "optimize-cf-n-over-int64", "xcore-x-zero-no-events",
            "crowd-k-zero-no-events", "cohort-k-zero-no-featured",
            "cohort-tolerance-nan-no-featured", "grid-step-not-reciprocal",
            "grid-step-reciprocal-overflows",
            "synth-negative-counts", "synth-featured-without-cohort",
            "synth-projects-under-cohort", "heatmap-range-over-int64", "dp-arabic-indic-n",
            "dp-spaced-e", "heatmap-underscore-n", "heatmap-plus-e", "dp-arabic-indic-alpha",
            "dp-underscore-beta", "optimize-arabic-indic-grid-step", "heatmap-plus-alpha",
            "mwu-coerced-samples", "xcore-spaced-x", "cohort-underscore-tolerance"])
    def test_usage_error_on_out_of_domain_value(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("objective", ["cf", "dp", "mc"])
    @pytest.mark.parametrize("argv", [
        ["optimize", "--n", 5, "--e", 2**63],
        ["optimize", "--n", 5, "--e", 10**400],
        ["heatmap", "--n", "2,5", "--e", 10**400],
        ["heatmap", "--n", "2,5", "--e", f"5,{10**400}"],
    ], ids=["optimize-e-int64-plus-one", "optimize-e-huge", "heatmap-e-huge",
            "heatmap-last-e-huge"])
    def test_usage_error_on_user_count_over_int64(self, tmp_path, capsys, objective, argv):
        # every closed-form path takes E as a float, which 10**400 overflows
        assert run([*argv, "--alpha", 1, "--objective", objective, "--runs", 10,
                    "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: n_users must be <= {2**63 - 1}, got "), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "o.csv").exists()

    def test_resource_error_on_monte_carlo_budget(self, tmp_path, capsys):
        assert run(["simulate", "--n", 5, "--e", 3, "--alpha", 1, "--beta", 0.5,
                    "--runs", 10**15, "--out", tmp_path / "o.csv"]) == 3

    @pytest.mark.parametrize("argv", [
        ["optimize", "--n", 5, "--e", 3, "--alpha", 1, "--grid-step", 1e-9],
        ["dp", "--n", 20_000_000, "--e", 1, "--alpha", 0.5, "--beta", 0.5],
    ], ids=["beta-grid", "exact-block"])
    def test_resource_error_on_scan_bytes_budget(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", tmp_path / "o.csv"]) == 3
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["optimize", "--objective", "dp", "--n", 2000, "--e", 1000, "--alpha", 1],
        ["simulate", "--n", 10, "--e", 1_000_000, "--runs", 10_000_000, "--alpha", 1,
         "--beta", 0.5],
        ["optimize", "--objective", "mc", "--n", 5, "--e", 100, "--runs", 100_000,
         "--alpha", 1],
        ["heatmap", "--n", "1:1000000000", "--e", "1", "--alpha", 1],
    ], ids=["exact-beta-grid", "monte-carlo-runs-by-users", "monte-carlo-beta-grid",
            "heatmap-cells"])
    def test_resource_error_on_step_budget(self, tmp_path, capsys, argv):
        # each call is charged every state-step it makes: 101 * N * E for the
        # exact grid, B * runs * E for a Monte Carlo pass over B betas, and at
        # least one per cell for a heatmap, charged before any list of its cells
        assert run([*argv, "--out", tmp_path / "o.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource error:") and "state-steps" in err, err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv,status", [
        (["optimize", "--objective", "mc", "--runs", 100, "--n", 5, "--e", 5], 3),
        (["optimize", "--objective", "dp", "--n", 5, "--e", 5], 3),
        (["heatmap", "--objective", "dp", "--n", "5", "--e", "5"], 0),
    ], ids=["optimize-mc", "optimize-dp", "heatmap-dp"])
    def test_fine_beta_grid_is_refused_before_it_is_built(self, tmp_path, capsys, argv,
                                                          status):
        # 10**7 + 1 betas (80 MB as doubles) whose pass is over the step budget: charged
        # from the grid's length, so no grid is built; heatmap marks its one cell NA
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert run([*argv, "--alpha", 1, "--grid-step", 1e-7, "--out", out]) == status
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 2**20, (elapsed, peak)
        if status:
            err = capsys.readouterr().err
            assert err.startswith("resource error: grid_step = 1e-07 gives a 10000001-point "
                                  "beta grid that, scored by ") and "state-steps" in err, err
        else:
            assert out.read_text().endswith("\n5,NA\n")

    @pytest.mark.parametrize("argv", [
        ["--projects", 100_000_000],
        ["--structure", "cohort", "--featured", 10**6, "--planted-controls", 1000],
    ], ids=["projects", "cohort"])
    def test_resource_error_on_synth_projects(self, tmp_path, capsys, argv):
        # each project is charged before the first draw, so no directory is made
        assert run(["synth", *argv, "--out", tmp_path / "corpus"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource error: a synthetic corpus of ") and "bytes" in err, err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "corpus").exists()

    def test_data_error_on_malformed_line(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("not json\n")
        assert run(["xcore", "--events", events, "--out", tmp_path / "o.csv"]) == 2

    @pytest.mark.parametrize("line", [
        b"[" * 100_000,
        b'{"project_id":"p\xff","actor_id":"a","timestamp":1,"channel":"work"}',
        b'{"project_id":"p","actor_id":"a","timestamp":' + b"1" * 5000 + b',"channel":"work"}',
    ], ids=["deep-nesting", "invalid-utf8", "long-integer"])
    def test_data_error_on_unreadable_event_line(self, tmp_path, capsys, line):
        events = tmp_path / "events.jsonl"
        events.write_bytes(E1.encode() + b"\n" + line + b"\n")
        assert run(["xcore", "--events", events, "--out", tmp_path / "o.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("line", [E1 + "\x1c", "\u00a0" + E1], ids=["x1c", "nbsp"])
    def test_data_error_on_non_json_whitespace(self, tmp_path, capsys, line):
        # json.loads rejects both lines, so ingest strips only JSON's whitespace
        events = tmp_path / "events.jsonl"
        events.write_text(E2 + "\n" + line + "\n", encoding="utf-8")
        assert run(["xcore", "--events", events, "--out", tmp_path / "o.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2: invalid JSON") and err.count("\n") == 1, err

    def test_json_whitespace_around_a_line_is_accepted(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_bytes(f" \t{E1}\t \r\n\r\n \t\n{E2}\r\n".encode())
        corpus, _ = ingest(str(events))
        assert [e.actor_id for e in corpus["p1"].events] == ["b", "a"]

    @pytest.mark.parametrize("row", [
        b"p1,1\xff,,",
        b"p1," + b"1" * 200_000 + b",,",
        b"p1,1" + b"0" * 400 + b",,",
        b"p1,-5,,-3",
        b"p1,5,,-3",
        b"p1,1_000,,",
        b"p1, 12 ,,",
        b"p1,5,,+5",
        "p1,5,\u0663,".encode(),
        "p1,\uff11\uff12,,".encode(),
    ], ids=["invalid-utf8", "field-over-csv-limit", "final-size-over-int64",
            "negative-final-size", "negative-watchers", "underscore-final-size",
            "spaced-final-size", "plus-watchers", "arabic-indic-featured-year",
            "fullwidth-final-size"])
    def test_data_error_on_unreadable_metadata(self, tmp_path, capsys, row):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1, E1.replace("work", "discussion")])
        meta = tmp_path / "meta.csv"
        meta.write_bytes(b"project_id,final_size,featured_year,watchers\n" + row + b"\n")
        assert run(["quadrants", "--events", events, "--metadata", meta, "--k", 1,
                    "--out", tmp_path / "o.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {meta}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command,minimum", [("quadrants", 4), ("bins", 10)])
    @pytest.mark.parametrize("lines,profiled", [
        ([], 0), ([E1, E1.replace("work", "discussion")], 1),
    ], ids=["empty", "one-project"])
    def test_data_error_on_too_few_profiled_projects(self, tmp_path, capsys, command, minimum,
                                                     lines, profiled):
        events = tmp_path / "events.jsonl"
        events.write_text("".join(f"{line}\n" for line in lines))
        meta = tmp_path / "meta.csv"
        meta.write_text("project_id,final_size,featured_year,watchers\np1,5,,\n")
        assert run([command, "--events", events, "--metadata", meta, "--k", 1,
                    "--out", tmp_path / "o.csv"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("warning:")]
        assert errors == [f"data error: {command} needs at least {minimum} profiled projects "
                          f"with a final_size, got {profiled}"]
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("year", [0, 9999])
    def test_data_error_on_featured_year_out_of_range(self, tmp_path, capsys, year):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1])
        meta = tmp_path / "meta.csv"
        meta.write_text(f"project_id,final_size,featured_year,watchers\np1,1,{year},\n")
        assert run(["cohort", "--events", events, "--metadata", meta,
                    "--out", tmp_path / "o.csv"]) == 2
        assert f"featured_year for p1 must be in 1..9998, got {year}" in capsys.readouterr().err

    @pytest.mark.parametrize("xs", [[0], ["nan"], [0.5, 0.5]], ids=["zero", "nan", "repeated"])
    def test_usage_error_on_bad_xcore_x(self, tmp_path, capsys, small_corpora, xs):
        flags = [arg for x in xs for arg in ("--x", x)]
        assert run(["xcore", "--events", small_corpora / "crowded" / "events.jsonl", *flags,
                    "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "skipping" not in err, err
        assert not (tmp_path / "o.csv").exists()

    def test_usage_error_on_bad_xcore_x_without_work_events(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        write_events(events, [E2])
        assert run(["xcore", "--events", events, "--x", 0, "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: x must be in (0, 1], got 0.0\n", err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", 0, -1])
    def test_usage_error_on_bad_cohort_tolerance(self, tmp_path, capsys, small_corpora,
                                                 tolerance):
        corpus = small_corpora / "cohort"
        assert run(["cohort", "--events", corpus / "events.jsonl",
                    "--metadata", corpus / "metadata.csv", "--k", 3,
                    "--tolerance", tolerance, "--out", tmp_path / "o.csv"]) == 1
        assert "tolerance must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_cohort_refuses_a_negative_seed_before_reading_the_corpus(self, tmp_path, capsys):
        # neither file exists, so reading them would be a data error, exit 2
        assert run(["cohort", "--events", tmp_path / "none.jsonl",
                    "--metadata", tmp_path / "none.csv", "--seed", -1,
                    "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err == "usage error: expected non-negative integer\n"

    @pytest.mark.parametrize("timestamp", [10**12, 10**20])
    def test_cohort_far_future_work_timestamp(self, tmp_path, capsys, timestamp):
        def work(pid, year, count):
            start = int(datetime(year, 6, 1, tzinfo=timezone.utc).timestamp())
            return [json.dumps({"project_id": pid, "actor_id": "a", "timestamp": start + i,
                                "channel": "work"}) for i in range(count)]

        events = tmp_path / "events.jsonl"
        write_events(events, [
            *work("f", 2003, 100), *work("f", 2005, 100),
            *work("n", 2003, 102), *work("n", 2005, 101),
            *work("z", 2003, 5),
            json.dumps({"project_id": "z", "actor_id": "a", "timestamp": timestamp,
                        "channel": "work"}),
        ])
        meta = tmp_path / "meta.csv"
        meta.write_text("project_id,final_size,featured_year,watchers\nf,1,2004,\n")
        out = tmp_path / "o.csv"
        assert run(["cohort", "--events", events, "--metadata", meta, "--k", 2,
                    "--out", out]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_text().split("\n")[2] == "f,n"


class TestModelCommands:
    def test_optimize_crowded(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert run(["optimize", "--n", 5, "--e", 10, "--alpha", 1, "--objective", "dp",
                    "--out", out]) == 0
        header, row = out.read_text().strip().split("\n")
        assert header.startswith("beta_star")
        assert row.split(",")[0] == "1.0000"

    def test_dp_output(self, tmp_path):
        out = tmp_path / "dp.csv"
        assert run(["dp", "--n", 2, "--e", 2, "--alpha", 1, "--beta", 0,
                    "--out", out]) == 0
        assert out.read_text() == "expected_finished\n1.000000\n"

    def test_dp_many_parts_one_user(self, tmp_path):
        # a dense kernel at this size would be three 3.2 GB matrices
        out = tmp_path / "dp.csv"
        start = time.perf_counter()
        assert run(["dp", "--n", 20_000, "--e", 1, "--alpha", 0.5, "--beta", 0.5,
                    "--out", out]) == 0
        assert time.perf_counter() - start < 5.0
        # half the users finish one part; the other half 2 - (1 + alpha) / n on average
        value = float(out.read_text().split("\n")[1])
        assert value == pytest.approx(0.5 + 0.5 * (2 - 1.5 / 20_000), abs=1e-6)

    # sha256 of the heatmap CSVs written before the exact kernel became banded
    # and the grid scans batched, and of the Monte Carlo ones written before its
    # statistics were taken along an axis; the bytes must not move
    HEATMAP_DIGESTS = {
        ("dp", "0"): "5eb279e6760524780876c4ddfa6efe943a00bf77f4885b019d88a6b6ae1932a5",
        ("dp", "0.5"): "4a1aa219e075bbf26ea254d77ebd90890ef9cdeccaaad4598bb3f77859204a72",
        ("dp", "1"): "91150a412e2140348e53bcd2f57af47aa3063f9e42734c72b3c27a6132cc5749",
        ("cf", "0"): "6aa1bed830e3ac3d53dbd96ee5cbf39fbc845eb0e8cf0dc76acd69d9c558634f",
        ("cf", "0.5"): "30d9525b185cbadf6a3b6ec1154211531934ee04a6f3128c53d46e6aacb4de97",
        ("cf", "1"): "846ba7f3ce6204f8b7503b6a67df86c24ded7cd017add88c23de7e849178d68b",
        ("mc", "0"): "266cb3acae2b5ccf7bda00fc4bb73ff7d81190bbe2067e6b8610b965a365d011",
        ("mc", "0.5"): "51aa7ffaa291fd485844c167f7f59da23619f42c0801d19cb0ee8dbf78b6c5c4",
        ("mc", "1"): "eee1f86f3658b7b667bc4d6c48d8479ad970069ba4bb338af45e13390375db8e",
    }
    # int8 and int16 counts for mc, and cells whose beta* is inside (0, 1)
    HEATMAP_ARGS = {
        "dp": ["--n", "1,2,3,5,10,20,40", "--e", "1,2,3,5,10,20,40"],
        "cf": ["--n", "1:30", "--e", "1:30"],
        "mc": ["--n", "6,20,130,200", "--e", "3,10,60,120", "--runs", 3000, "--seed", 7],
    }

    @pytest.mark.parametrize("objective,alpha", sorted(HEATMAP_DIGESTS))
    def test_heatmap_bytes_pinned(self, tmp_path, objective, alpha):
        out = tmp_path / "grid.csv"
        assert run(["heatmap", "--objective", objective, *self.HEATMAP_ARGS[objective],
                    "--alpha", alpha, "--out", out]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.HEATMAP_DIGESTS[(objective, alpha)]

    def test_simulate_output(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--n", 5, "--e", 3, "--alpha", 1, "--beta", 1,
                    "--runs", 200, "--seed", 9, "--out", out]) == 0
        row = out.read_text().strip().split("\n")[1]
        assert row == "3.000000,0.000000,200,9"

    def test_simulate_bytes_pinned(self, tmp_path):
        # a non-zero standard error over more runs than NumPy's 8,192-element
        # reduction buffer, written before the statistics were taken along an axis
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--n", 200, "--e", 50, "--alpha", 0.5, "--beta", 0.3,
                    "--runs", 20_001, "--seed", 3, "--out", out]) == 0
        assert out.read_text() == "mean_finished,std_error,runs,seed\n66.220389,0.031013,20001,3\n"

    def test_mwu_output(self, tmp_path):
        out = tmp_path / "mwu.csv"
        assert run(["mwu", "--a", "1,2", "--b", "3,4", "--out", out]) == 0
        row = out.read_text().strip().split("\n")[1]
        assert row == "0.000000,0.333333,ns,exact"

    def test_heatmap_alpha_comparison(self, tmp_path):
        def mean_beta(path):
            rows = [
                line.split(",")[1:]
                for line in path.read_text().strip().split("\n")
                if not line.startswith("#") and not line.startswith(",")
            ]
            values = [float(v) for row in rows for v in row]
            return sum(values) / len(values)

        out1, out0 = tmp_path / "a1.csv", tmp_path / "a0.csv"
        grid = ["--n", "2,5,10,20", "--e", "2,5,10,20", "--objective", "cf"]
        assert run(["heatmap", *grid, "--alpha", 1, "--out", out1]) == 0
        assert run(["heatmap", *grid, "--alpha", 0, "--out", out0]) == 0
        assert mean_beta(out0) < mean_beta(out1)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "dp.csv"
        run(["dp", "--n", 2, "--e", 2, "--alpha", 1, "--beta", 0, "--out", out])
        manifest = json.loads((tmp_path / "dp.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "dp"
        assert manifest["params"]["n"] == 2
        assert "rng" in manifest and "version" in manifest


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    events = tmp_path / "events.jsonl"
    events.write_text('{"project_id":"Caf\u00e9","actor_id":"a","timestamp":1,'
                      '"channel":"work"}\n', encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "crowdcoord.cli", "xcore", "--events", str(events),
         "--out", str(tmp_path / "o.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Café".encode("utf-8") in (tmp_path / "o.csv").read_bytes()


# Runs crowdcoord.cli's main on its arguments, if any, in a fresh interpreter and
# prints the exit code and which of the given modules, which only some commands need,
# were imported.
OPTIONAL_MODULES = ("crowdcoord.cohort", "crowdcoord.model", "crowdcoord.solver",
                    "crowdcoord.synth", "numpy")
LOG_TRACK_MODULES = ("crowdcoord.analytics", "crowdcoord.stats", "crowdcoord.rng")
IMPORT_PROBE = """
import json, sys
import crowdcoord.cli
status = None
if sys.argv[1:]:
    try:
        status = crowdcoord.cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        status = exc.code
print(json.dumps([status, [m for m in {modules!r} if m in sys.modules]]))
"""


def probe_imports(tmp_path, small_corpora, argv, modules=OPTIONAL_MODULES):
    """[exit code, those of ``modules`` loaded] of one CLI run in a fresh interpreter."""
    def files(name):
        corpus = small_corpora / name
        return ["--events", str(corpus / "events.jsonl"),
                "--metadata", str(corpus / "metadata.csv")]
    argv = [a for arg in argv
            for a in (files(arg[1:-1]) if arg in ("{crowded}", "{cohort}") else [arg])]
    if argv and argv[0] != "--help":
        argv += ["--out", str(tmp_path / "o.csv")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(modules=modules), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv,expected", [
    ([], [None, False]),
    (["--help"], [0, False]),
    (["optimize", "--n", "5"], [1, False]),
    (["crowd", "{crowded}", "--k", "40"], [0, False]),
    (["quadrants", "{crowded}", "--k", "40"], [0, False]),
    (["xcore", "{crowded}", "--x", "0.5"], [0, False]),
    (["mwu", "--a", "1,2,5", "--b", "3,4,9"], [0, False]),
    (["bins", "{crowded}", "--k", "40"], [0, False]),
    (["cohort", "{cohort}", "--k", "3"], [0, False]),
    (["synth", "--projects", "2"], [0, False]),
    (["optimize", "--n", "20", "--e", "10", "--alpha", "1"], [0, False]),
    (["heatmap", "--n", "1:5", "--e", "1:5", "--alpha", "1", "--objective", "cf"], [0, False]),
    # controls
    (["dp", "--n", "2", "--e", "2", "--alpha", "1", "--beta", "0.5"], [0, True]),
    (["optimize", "--n", "5", "--e", "3", "--alpha", "1", "--objective", "dp"], [0, True]),
    (["heatmap", "--n", "2,5", "--e", "2,5", "--alpha", "1", "--objective", "mc",
      "--runs", "50"], [0, True]),
], ids=["import", "help", "usage-error", "crowd", "quadrants", "xcore", "mwu", "bins", "cohort",
        "synth", "optimize-cf", "heatmap-cf", "dp", "optimize-dp", "heatmap-mc"])
def test_commands_that_do_not_compute_with_numpy_do_not_import_it(tmp_path, small_corpora,
                                                                  argv, expected):
    status, loaded = probe_imports(tmp_path, small_corpora, argv)
    assert [status, "numpy" in loaded] == expected


@pytest.mark.parametrize("argv", [
    ["crowd", "{crowded}", "--k", "40"],
    ["quadrants", "{crowded}", "--k", "40"],
    ["bins", "{crowded}", "--k", "40"],
    ["xcore", "{crowded}", "--x", "0.5"],
], ids=["crowd", "quadrants", "bins", "xcore"])
def test_corpus_commands_import_no_model_cohort_or_synth(tmp_path, small_corpora, argv):
    assert probe_imports(tmp_path, small_corpora, argv) == [0, []]


@pytest.mark.parametrize("argv,expected", [
    (["heatmap", "--n", "1:5", "--e", "1:5", "--alpha", "1", "--objective", "cf"], []),
    (["heatmap", "--n", "2,5", "--e", "2,5", "--alpha", "1", "--objective", "dp"], []),
    (["heatmap", "--n", "2,5", "--e", "2,5", "--alpha", "1", "--objective", "mc",
      "--runs", "50"], ["crowdcoord.rng"]),
    (["dp", "--n", "2", "--e", "2", "--alpha", "1", "--beta", "0.5"], []),
    # controls
    (["crowd", "{crowded}", "--k", "40"], ["crowdcoord.analytics"]),
    (["mwu", "--a", "1,2,5", "--b", "3,4,9"], ["crowdcoord.stats"]),
], ids=["heatmap-cf", "heatmap-dp", "heatmap-mc", "dp", "crowd", "mwu"])
def test_model_commands_load_no_log_track(tmp_path, small_corpora, argv, expected):
    # only the Monte Carlo heatmap seeds its columns through crowdcoord.rng
    assert probe_imports(tmp_path, small_corpora, argv, LOG_TRACK_MODULES) == [0, expected]


# standard-library modules that the log track does without: dataclasses loads inspect
# (and with it ast, dis and tokenize), statistics loads decimal and fractions
HEAVY_STDLIB = ("dataclasses", "inspect", "statistics", "decimal", "fractions", "datetime")


@pytest.mark.parametrize("argv", [
    ["crowd", "{crowded}", "--k", "40"],
    ["quadrants", "{crowded}", "--k", "40"],
    ["bins", "{crowded}", "--k", "40"],
    ["xcore", "{crowded}", "--x", "0.5"],
    ["mwu", "--a", "1,2,5", "--b", "3,4,9"],
    ["cohort", "{cohort}", "--k", "3"],
    ["synth", "--projects", "2", "--structure", "crowded"],
    ["synth", "--structure", "cohort", "--featured", "1"],
], ids=["crowd", "quadrants", "bins", "xcore", "mwu", "cohort", "synth", "synth-cohort"])
def test_log_track_loads_no_heavy_stdlib(tmp_path, small_corpora, argv):
    assert probe_imports(tmp_path, small_corpora, argv, HEAVY_STDLIB) == [0, []]


@pytest.mark.parametrize("argv", [
    ["optimize", "--n", "20", "--e", "8", "--alpha", "1", "--objective", "cf"],
    ["heatmap", "--n", "1:5", "--e", "1:5", "--alpha", "1", "--objective", "cf"],
], ids=["optimize-cf", "heatmap-cf"])
def test_closed_form_commands_load_no_heavy_stdlib(tmp_path, small_corpora, argv):
    # the closed form runs without NumPy, and the solver's records are no dataclasses
    assert probe_imports(tmp_path, small_corpora, argv, HEAVY_STDLIB + ("numpy",)) == [0, []]


def test_the_model_track_still_loads_numpys_stdlib(tmp_path, small_corpora):
    # the control: NumPy imports inspect and datetime itself
    status, loaded = probe_imports(tmp_path, small_corpora,
                                   ["dp", "--n", "2", "--e", "2", "--alpha", "1", "--beta", "0.5"],
                                   HEAVY_STDLIB)
    assert status == 0 and {"inspect", "datetime"} <= set(loaded)


def test_cohort_imports_cohort_and_synth_imports_synth(tmp_path, small_corpora):
    # the control: each command still loads the module it computes with
    status, loaded = probe_imports(tmp_path, small_corpora, ["cohort", "{cohort}", "--k", "3"])
    assert status == 0 and "crowdcoord.cohort" in loaded and "crowdcoord.synth" not in loaded
    assert "crowdcoord.model" not in loaded
    status, loaded = probe_imports(tmp_path / "synth", small_corpora, ["synth", "--projects", "2"])
    assert status == 0 and "crowdcoord.synth" in loaded and "crowdcoord.model" not in loaded


def test_int64_max_is_numpys():
    import numpy as np

    from crowdcoord.constants import INT64_MAX

    assert INT64_MAX == int(np.iinfo(np.int64).max)


class TestSynth:
    def test_declared_counts(self, tmp_path):
        out = tmp_path / "corpus"
        assert run(["synth", "--projects", 10, "--seed", 1, "--out", out]) == 0
        truth = json.loads((out / "ground_truth.json").read_text())
        assert len(truth["projects"]) == 10
        corpus, _ = ingest(str(out / "events.jsonl"), str(out / "metadata.csv"))
        assert len(corpus) == 10
        for pid, info in truth["projects"].items():
            log = corpus[pid]
            assert len(log.by_channel["work"]) == info["work"]
            assert len(log.by_channel["comment"]) == info["comments"]

    def test_same_seed_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--projects", 6, "--seed", 3, "--structure", "crowded", "--out", out_a])
        run(["synth", "--projects", 6, "--seed", 3, "--structure", "crowded", "--out", out_b])
        for name in ("events.jsonl", "metadata.csv", "ground_truth.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_analytics_pipeline_runs(self, tmp_path):
        out = tmp_path / "corpus"
        run(["synth", "--projects", 120, "--seed", 5, "--structure", "crowded", "--out", out])
        files = ["--events", out / "events.jsonl", "--metadata", out / "metadata.csv"]
        assert run(["quadrants", *files, "--k", 30, "--out", tmp_path / "q.csv"]) == 0
        assert run(["bins", *files, "--k", 30, "--out", tmp_path / "b.csv"]) == 0
        assert run(["crowd", *files, "--k", 30, "--out", tmp_path / "c.csv"]) == 0
        assert run(["xcore", *files, "--x", 0.5, "--x", 1.0, "--out", tmp_path / "x.csv"]) == 0

    def test_cohort_pipeline(self, tmp_path):
        out = tmp_path / "corpus"
        run(["synth", "--structure", "cohort", "--featured", 5, "--planted-controls", 8,
             "--noise-candidates", 4, "--seed", 2, "--out", out])
        assert run(["cohort", "--events", out / "events.jsonl",
                    "--metadata", out / "metadata.csv", "--k", 4, "--seed", 1,
                    "--out", tmp_path / "cohort.csv"]) == 0
        lines = (tmp_path / "cohort.csv").read_text().strip().split("\n")
        assert len(lines) == 2 + 5  # header comment, column row, five featured

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n_projects=300, structure="crowded"),
        SyntheticSpec(structure="cohort", n_featured=16, planted_controls=8, noise_candidates=2),
    ], ids=["crowded-300", "cohort-16-8-2"])
    def test_events_are_written_without_holding_the_corpus(self, tmp_path, spec):
        # the bench's two synth corpora: held as one list of events, each peaks over 13 MiB
        tracemalloc.start()
        try:
            corpus = generate_synthetic(spec, seed=1)
            cli.write_events(tmp_path / "events.jsonl", corpus.events)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n_projects=25),
        SyntheticSpec(n_projects=40, structure="crowded"),
        SyntheticSpec(structure="cohort", n_featured=6, planted_controls=6, noise_candidates=2),
    ], ids=["none", "crowded", "cohort"])
    def test_events_view_is_sized_and_repeatable(self, tmp_path, spec):
        corpus = generate_synthetic(spec, seed=4)
        path = tmp_path / "events.jsonl"
        cli.write_events(path, corpus.events)
        lines = path.read_text().splitlines()
        assert len(corpus.events) == len(lines)
        first = list(corpus.events)
        assert first == list(corpus.events) and len(first) == len(corpus.metadata)
        assert {json.loads(line)["project_id"] for line in lines} == set(corpus.metadata)

    @given(spec=st.one_of(
        st.builds(SyntheticSpec, n_projects=st.integers(1, 20), max_actors=st.integers(2, 60),
                  structure=st.sampled_from(["none", "crowded"]),
                  crowding_scale=st.sampled_from([4.0e5, 1.0e5, 1.0])),
        st.builds(SyntheticSpec, structure=st.just("cohort"), n_featured=st.integers(1, 4),
                  planted_controls=st.integers(0, 4), noise_candidates=st.integers(0, 3)),
    ), seed=st.integers(0, 2**64))
    @settings(max_examples=40, deadline=None)
    def test_lines_are_the_oracle_events_byte_for_byte(self, spec, seed):
        corpus = generate_synthetic(spec, seed)
        events = list(synthetic_events(corpus))
        assert "".join(corpus.events) == "".join(event_to_json(e) + "\n" for e in events)
        assert len(corpus.events) == len(events)

    @pytest.mark.parametrize("argv", [
        ["--projects", 2, "--structure", "crowded"],
        ["--structure", "cohort", "--featured", 1, "--planted-controls", 1],
    ], ids=["crowded", "cohort"])
    def test_refuses_more_events_than_the_step_budget(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        # each corpus has a few hundred events per project, so a budget of 100 refuses it
        monkeypatch.setattr(limits, "STEP_BUDGET", 100)
        assert run(["synth", *argv, "--out", tmp_path / "corpus"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource error: a synthetic corpus of 2 projects") and (
            "state-steps, over its budget of 100\n" in err), err
        assert not (tmp_path / "corpus").exists()


@pytest.fixture(scope="module")
def small_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    assert run(["synth", "--projects", 40, "--structure", "crowded", "--seed", 4,
                "--out", root / "crowded"]) == 0
    assert run(["synth", "--structure", "cohort", "--featured", 6, "--planted-controls", 6,
                "--noise-candidates", 2, "--seed", 4, "--out", root / "cohort"]) == 0
    return root


class TestCorpusBytes:
    # sha256 of the synth corpora and of the corpus-command CSVs, written
    # before event checks moved to parse_event_line and cohort epochs to
    # year-boundary comparisons; the bytes must not move
    SYNTH_DIGESTS = {
        ("crowded", "events.jsonl"):
            "e4a901f4f80f797ccb79f6aaf1af6320bbcf86010d981e5f376b94023cec64d6",
        ("crowded", "metadata.csv"):
            "6cd45fd0f108686d33e981473e2e13cb36134bce0357f9f6e3bfb4400217c39b",
        ("crowded", "ground_truth.json"):
            "74f138a88f88f24a7de671dab74cd8135eee2d962ffdacb468ae1f2951f05100",
        ("cohort", "events.jsonl"):
            "ed0b66ae482fa5994e83118bd6f4934f62f6e55953dca19277bf33b3a237c1e0",
        ("cohort", "metadata.csv"):
            "a92d02c17a52c3997a93452a3511d935042a6624b1269117616b877d3c705e60",
        ("cohort", "ground_truth.json"):
            "46dd39e47a052364c359b35e774ab747e88456ff5e280beafa152c64b2de7bc8",
    }
    CSV_DIGESTS = {
        "crowd": "c198a07619228b6d5b9148d53a362a40d0a13613315d1f7380730d641ecb8d72",
        "quadrants": "0273b4661434fae1458016a0beeccf1e3772057c8775e2d84508a5a53b08795b",
        "bins": "e0736e334f39c2920d959162d32067995644f7d0a532490464d7a04ddf4b0f2c",
        "xcore": "11a46261ab31a6aea96e03acb48677e5da4fb10d9b43188b9af2fd316c199c63",
        "cohort": "a389958ba3f6e23ff40828f1d851b8e52c29bb08022cba148c235f3f845c1914",
        "cohort-fewer": "3f2637222ff84a60ba5bbde77e70c0a4be2e55b57021d91a011e430449ee36e9",
    }

    @pytest.mark.parametrize("corpus,name", sorted(SYNTH_DIGESTS))
    def test_synth_bytes_pinned(self, small_corpora, corpus, name):
        digest = hashlib.sha256((small_corpora / corpus / name).read_bytes()).hexdigest()
        assert digest == self.SYNTH_DIGESTS[(corpus, name)]

    @pytest.mark.parametrize("command", sorted(CSV_DIGESTS))
    def test_csv_bytes_pinned(self, tmp_path, small_corpora, command):
        def files(corpus):
            return ["--events", small_corpora / corpus / "events.jsonl",
                    "--metadata", small_corpora / corpus / "metadata.csv"]

        argv = {
            "crowd": ["crowd", *files("crowded"), "--k", 40],
            "quadrants": ["quadrants", *files("crowded"), "--k", 40],
            "bins": ["bins", *files("crowded"), "--k", 40],
            "xcore": ["xcore", *files("crowded"), "--x", 0.5, "--x", 1.0],
            "cohort": ["cohort", *files("cohort"), "--k", 3, "--seed", 7],
            "cohort-fewer": ["cohort", *files("cohort"), "--k", 3, "--seed", 7,
                             "--allow-fewer-prior"],
        }[command]
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CSV_DIGESTS[command]


def corpus_commands(root):
    """Each corpus command on the corpora of ``small_corpora``'s layout under root."""
    def files(corpus):
        return ["--events", root / corpus / "events.jsonl",
                "--metadata", root / corpus / "metadata.csv"]

    return {
        "crowd": ["crowd", *files("crowded"), "--k", 40],
        "quadrants": ["quadrants", *files("crowded"), "--k", 40],
        "bins": ["bins", *files("crowded"), "--k", 40],
        "xcore": ["xcore", *files("crowded"), "--x", 0.5, "--x", 1.0],
        "cohort": ["cohort", *files("cohort"), "--k", 3, "--seed", 7],
    }


class TestSizeDelta:
    """A log keeps no size_delta: ingest checks it and keeps only timestamps and actors."""

    @pytest.mark.parametrize("form", ["canonical", "json.dumps"])
    def test_changes_no_log_and_no_output(self, tmp_path, small_corpora, form):
        # line i's size_delta is absent, 0, negative or of 18 digits as i % 4 says
        size_deltas = (None, 0, -7, DIGITS_18)
        for corpus in ("crowded", "cohort"):
            (tmp_path / corpus).mkdir()
            source = small_corpora / corpus
            lines = (source / "events.jsonl").read_text().splitlines()
            events = [parse_event_line(line, i)._replace(size_delta=size_deltas[i % 4])
                      for i, line in enumerate(lines)]
            write_events(tmp_path / corpus / "events.jsonl", [
                event_to_json(e) if form == "canonical"
                else json.dumps({k: v for k, v in e._asdict().items() if v is not None})
                for e in events])
            (tmp_path / corpus / "metadata.csv").write_bytes(
                (source / "metadata.csv").read_bytes())
            assert ingest(str(tmp_path / corpus / "events.jsonl"),
                          str(tmp_path / corpus / "metadata.csv")) == ingest(
                str(source / "events.jsonl"), str(source / "metadata.csv"))
        commands = corpus_commands(small_corpora)
        for name, argv in corpus_commands(tmp_path).items():
            assert run([*commands[name], "--out", tmp_path / "base.csv"]) == 0
            assert run([*argv, "--out", tmp_path / "variant.csv"]) == 0
            assert (tmp_path / "base.csv").read_bytes() == (
                tmp_path / "variant.csv").read_bytes(), name

    def test_fractional_value_is_a_data_error(self, tmp_path, small_corpora, capsys):
        lines = (small_corpora / "crowded" / "events.jsonl").read_text().splitlines()
        event = parse_event_line(lines[999], 1000)._replace(size_delta=None)
        lines[999] = event_to_json(event)[:-1] + ',"size_delta":1.5}'
        write_events(tmp_path / "events.jsonl", lines)
        assert run(["crowd", "--events", tmp_path / "events.jsonl",
                    "--out", tmp_path / "o.csv"]) == 2
        assert capsys.readouterr().err == (
            "data error: line 1000: size_delta must be an integer, got 1.5\n")
        assert not (tmp_path / "o.csv").exists()


def cache_entries(home):
    """{name: bytes} of the corpus-cache entries under a cache home."""
    directory = home / "crowdcoord"
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


class TestCorpusCache:
    """ingest keeps each events file's columns in the corpus cache; no output depends on
    whether a command parsed the file or loaded its entry."""

    def outputs(self, argv, out, capsys):
        """(exit code, CSV, manifest, stderr) of one command."""
        status = run([*argv, "--out", out])
        manifest = Path(f"{out}.manifest.json").read_bytes()
        return status, out.read_bytes(), manifest, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["crowd", "quadrants", "bins", "xcore", "cohort"])
    def test_miss_then_hit_give_the_pinned_bytes(self, tmp_path, small_corpora, capsys,
                                                 corpus_cache_home, command):
        argv = corpus_commands(small_corpora)[command]
        with mock.patch.object(cli, "parse_events", wraps=cli.parse_events) as parse:
            miss = self.outputs(argv, tmp_path / "miss.csv", capsys)
            assert parse.call_count == 1 and len(cache_entries(corpus_cache_home)) == 1
            assert (corpus_cache_home / "crowdcoord").stat().st_mode & 0o777 == 0o700
            hit = self.outputs(argv, tmp_path / "hit.csv", capsys)
            assert parse.call_count == 1
        assert miss == hit
        assert miss[0] == 0
        digest = TestCorpusBytes.CSV_DIGESTS[command]
        assert hashlib.sha256(hit[1]).hexdigest() == digest

    @pytest.mark.parametrize("damage", ["truncated", "flipped-payload-byte", "other-key"])
    def test_a_damaged_entry_is_parsed_again_and_rewritten(self, tmp_path, small_corpora,
                                                           capsys, corpus_cache_home, damage):
        commands = corpus_commands(small_corpora)
        expected = self.outputs(commands["crowd"], tmp_path / "first.csv", capsys)
        [(name, entry)] = cache_entries(corpus_cache_home).items()
        if damage == "other-key":  # the cohort corpus's entry under the crowded one's name
            run(["xcore", "--events", small_corpora / "cohort" / "events.jsonl",
                 "--out", tmp_path / "o.csv"])
            [damaged] = [data for key, data in cache_entries(corpus_cache_home).items()
                         if key != name]
        elif damage == "truncated":
            damaged = entry[:len(entry) // 2]
        else:
            damaged = bytearray(entry)
            damaged[len(entry) // 2] ^= 1
        capsys.readouterr()
        (corpus_cache_home / "crowdcoord" / name).write_bytes(damaged)
        with mock.patch.object(cli, "parse_events", wraps=cli.parse_events) as parse:
            assert self.outputs(commands["crowd"], tmp_path / "first.csv", capsys) == expected
        assert parse.call_count == 1
        assert cache_entries(corpus_cache_home)[name] == entry

    def test_a_cache_home_that_is_a_file_changes_nothing(self, tmp_path, small_corpora, capsys,
                                                         monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for command, argv in corpus_commands(small_corpora).items():
            status, csv_bytes, _, err = self.outputs(argv, tmp_path / "o.csv", capsys)
            assert (status, err) == (0, "")
            assert hashlib.sha256(csv_bytes).hexdigest() == TestCorpusBytes.CSV_DIGESTS[command]
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("stream", ["pipe", "fifo"])
    def test_a_stream_is_read_once_and_stores_nothing(self, tmp_path, small_corpora,
                                                      corpus_cache_home, stream):
        """Events and metadata streamed through /dev/fd pipes or named FIFOs are each read
        once: the command writes the CSV of the files, its manifest records the sha256 of
        the bytes streamed, and nothing is stored."""
        source = small_corpora / "crowded"
        paths, read_fds, writers = [], [], []
        for name in ("events.jsonl", "metadata.csv"):
            if stream == "pipe":
                read_fd, write_fd = os.pipe()
                read_fds.append(read_fd)
                paths.append(f"/dev/fd/{read_fd}")
                sink = functools.partial(os.fdopen, write_fd, "wb")
            else:
                paths.append(str(tmp_path / f"{name}.fifo"))
                os.mkfifo(paths[-1])
                sink = functools.partial(open, paths[-1], "wb")

            def feed(sink=sink, data=(source / name).read_bytes()):
                with sink() as fh:
                    fh.write(data)
            writers.append(threading.Thread(target=feed, daemon=True))
            writers[-1].start()
        out = tmp_path / "o.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "crowdcoord.cli", "crowd", "--events", paths[0],
                 "--metadata", paths[1], "--k", "40", "--out", str(out)],
                env=env, pass_fds=read_fds, capture_output=True, text=True, timeout=60)
        finally:
            for fd in read_fds:
                os.close(fd)
        for writer in writers:
            writer.join(timeout=60)
            assert not writer.is_alive()
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TestCorpusBytes.CSV_DIGESTS["crowd"]
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["inputs"] == {
            path: TestCorpusBytes.SYNTH_DIGESTS["crowded", name]
            for path, name in zip(paths, ("events.jsonl", "metadata.csv"))}
        assert cache_entries(corpus_cache_home) == {}

    def test_a_rejected_corpus_stores_nothing(self, tmp_path, small_corpora, capsys,
                                              corpus_cache_home):
        lines = (small_corpora / "crowded" / "events.jsonl").read_text().splitlines()
        lines[1500] = near_miss(timestamp="1.0")
        write_events(tmp_path / "events.jsonl", lines)
        for _ in range(2):
            assert run(["crowd", "--events", tmp_path / "events.jsonl",
                        "--out", tmp_path / "o.csv"]) == 2
            assert capsys.readouterr().err == (
                "data error: line 1501: timestamp must be an integer, got 1.0\n")
            assert cache_entries(corpus_cache_home) == {}

    def test_an_edited_events_file_gets_a_new_entry(self, tmp_path, small_corpora, capsys,
                                                    corpus_cache_home):
        source = small_corpora / "crowded"
        events = tmp_path / "events.jsonl"
        events.write_bytes((source / "events.jsonl").read_bytes())
        argv = ["crowd", "--events", events, "--metadata", source / "metadata.csv", "--k", 40]
        before = self.outputs(argv, tmp_path / "o.csv", capsys)
        lines = events.read_text().splitlines()
        write_events(events, lines[:-len(lines) // 3])
        after = self.outputs(argv, tmp_path / "o.csv", capsys)
        assert len(cache_entries(corpus_cache_home)) == 2
        assert after[1] != before[1]
        assert after[2] != before[2]  # the manifest's events digest
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(blocker)):
            assert self.outputs(argv, tmp_path / "o.csv", capsys) == after

    def edited_after_lookup(self, tmp_path, events, edit, corpus_cache_home):
        """xcore on events, with edit() between the lookup's hash and the parse: nothing is
        stored, and the manifest records the sha256 of the bytes parsed.  The next run
        stores the entry of those bytes."""
        lookup = cache.lookup

        def lookup_then_edit(path):
            entry = lookup(path)
            edit()
            return entry
        argv = ["xcore", "--events", events, "--out", tmp_path / "o.csv"]
        with mock.patch.object(cache, "lookup", lookup_then_edit):
            assert run(argv) == 0
        assert cache_entries(corpus_cache_home) == {}
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["inputs"] == {str(events): hashlib.sha256(events.read_bytes()).hexdigest()}
        assert run(argv) == 0
        assert len(cache_entries(corpus_cache_home)) == 1

    def test_a_file_changed_while_parsed_stores_nothing(self, tmp_path, corpus_cache_home):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1, E2, E3])

        def append():
            with open(events, "a") as fh:
                fh.write(E1 + "\n")
        self.edited_after_lookup(tmp_path, events, append, corpus_cache_home)

    def test_a_same_size_rewrite_while_parsed_stores_nothing(self, tmp_path,
                                                             corpus_cache_home):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1, E2, E3])

        def rewrite():
            st = events.stat()
            write_events(events, [E1, E2, E3.replace('"timestamp":1,', '"timestamp":2,')])
            os.utime(events, ns=(st.st_atime_ns, st.st_mtime_ns))  # only the ctime moves
            assert events.stat().st_size == st.st_size
        self.edited_after_lookup(tmp_path, events, rewrite, corpus_cache_home)

    @pytest.mark.parametrize("shared", ["group-writable", "world-writable", "another-owner"])
    def test_a_cache_directory_others_may_write_to_is_not_used(self, tmp_path, small_corpora,
                                                               capsys, corpus_cache_home,
                                                               shared):
        argv = corpus_commands(small_corpora)["crowd"]
        expected = self.outputs(argv, tmp_path / "o.csv", capsys)
        directory = corpus_cache_home / "crowdcoord"
        [entry] = directory.iterdir()
        used = entry.stat().st_mtime_ns - 10**9
        os.utime(entry, ns=(used, used))
        uid = os.getuid()
        with contextlib.ExitStack() as stack:
            if shared == "another-owner":
                stack.enter_context(mock.patch.object(cache.os, "getuid", return_value=uid + 1))
            else:
                directory.chmod(0o720 if shared == "group-writable" else 0o702)
            parse = stack.enter_context(
                mock.patch.object(cli, "parse_events", wraps=cli.parse_events))
            assert self.outputs(argv, tmp_path / "o.csv", capsys) == expected
        assert parse.call_count == 1
        assert list(directory.iterdir()) == [entry] and entry.stat().st_mtime_ns == used

    def test_other_sources_get_another_entry(self, tmp_path, corpus_cache_home):
        events = tmp_path / "events.jsonl"
        write_events(events, [E1, E2, E3])
        ingest(str(events))
        with mock.patch.object(cache, "_sources", return_value=b"edited sources"), \
                mock.patch.object(cli, "parse_events", wraps=cli.parse_events) as parse:
            ingest(str(events))
        assert parse.call_count == 1 and len(cache_entries(corpus_cache_home)) == 2

    def test_pruning_drops_the_least_recently_used_entry(self, tmp_path, corpus_cache_home):
        paths, entries = [], []
        for i in range(4):  # equal-sized entries: the timestamps differ, not their lengths
            paths.append(tmp_path / f"events{i}.jsonl")
            write_events(paths[-1], [E1.replace('"timestamp":10', f'"timestamp":1{i}'), E2, E3])
        directory = corpus_cache_home / "crowdcoord"
        for i, path in enumerate(paths[:3]):  # last used 1, 2 and 3 s after the epoch
            ingest(str(path))
            [entry] = set(directory.iterdir()) - set(entries)
            entries.append(entry)
            os.utime(entry, ns=(10**9 * (i + 1),) * 2)
        size = entries[0].stat().st_size
        assert [entry.stat().st_size for entry in entries] == [size] * 3
        with mock.patch.object(cli, "parse_events", side_effect=AssertionError):
            ingest(str(paths[0]))  # a hit makes the first entry the most recently used
        assert entries[0].stat().st_mtime_ns > 3 * 10**9
        with mock.patch.object(cache, "CACHE_BYTES", 3 * size):
            ingest(str(paths[3]))
        left = set(directory.iterdir())
        assert len(left) == 3 and entries[1] not in left
        assert {entries[0], entries[2]} < left

    def test_the_manifest_takes_the_digest_ingest_took(self, tmp_path, small_corpora):
        """On a miss and on a hit the events file is hashed once, by the lookup, and the
        manifest opens no input: it is written after the inputs are removed."""
        source = small_corpora / "crowded"
        names = ("events.jsonl", "metadata.csv")
        write_manifest = cli.write_manifest

        def remove_inputs_then_write(out_path, subcommand, params, inputs):
            for path in inputs:
                os.unlink(path)
            write_manifest(out_path, subcommand, params, inputs)
        for parses in (1, 0):  # a miss, then a hit
            for name in names:
                shutil.copyfile(source / name, tmp_path / name)
            argv = ["crowd", "--events", tmp_path / names[0], "--metadata", tmp_path / names[1],
                    "--k", 40, "--out", tmp_path / "o.csv"]
            with mock.patch.object(cache, "_hash", wraps=cache._hash) as hashed, \
                    mock.patch.object(cli, "parse_events", wraps=cli.parse_events) as parse, \
                    mock.patch.object(cli, "write_manifest", remove_inputs_then_write):
                assert run(argv) == 0
            assert parse.call_count == parses
            assert [call.args for call in hashed.call_args_list] == [(str(tmp_path / names[0]),)]
            manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
            assert manifest["inputs"] == {
                str(tmp_path / name): TestCorpusBytes.SYNTH_DIGESTS["crowded", name]
                for name in names}

    def test_model_commands_create_no_cache_directory(self, tmp_path, small_corpora,
                                                      corpus_cache_home):
        for argv in (["dp", "--n", "2", "--e", "2", "--alpha", "1", "--beta", "0.5"],
                     ["heatmap", "--n", "1:5", "--e", "1:5", "--alpha", "1",
                      "--objective", "cf"]):
            assert probe_imports(tmp_path, small_corpora, argv,
                                 ("crowdcoord.cache", "hashlib")) == [0, []]
        assert list(corpus_cache_home.iterdir()) == []


@pytest.mark.parametrize("text", ["0", "-1", ".5", "5.", "-2.50", "1E-09", "5e-324",
                                  "2.5e+16", "inf", "-inf", "nan"])
def test_real_reads_its_form_as_float_does(text):
    assert repr(cli.real(text)) == repr(float(text))
