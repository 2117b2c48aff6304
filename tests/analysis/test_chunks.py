"""Chunk-planning tests: the partition must be exact.

Every line of a channel file belongs to exactly one chunk, for any
chunk size — including sizes smaller than a single line.  The engine's
byte-identity guarantee rests on this.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.chunks import (
    DEFAULT_CHUNK_BYTES,
    channels_in_order,
    iter_channel_rows,
    parse_chunk,
    plan_chunks,
    read_chunk,
)
from repro.scanner.datastore import channel_path


def write_channel(directory, channel, rows):
    path = channel_path(str(directory), channel)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")
    return path


@pytest.fixture()
def corpus_dir(tmp_path):
    # Variable-length lines so chunk boundaries land mid-line.
    rows = [{"n": i, "pad": "x" * (i * 7 % 41)} for i in range(200)]
    write_channel(tmp_path, "ticket_daily", rows)
    return tmp_path, rows


@pytest.mark.parametrize("chunk_bytes", [1, 7, 64, 1000, 1 << 30])
def test_partition_is_exact_for_any_chunk_size(corpus_dir, chunk_bytes):
    directory, rows = corpus_dir
    path = channel_path(str(directory), "ticket_daily")
    plan = plan_chunks(str(directory), ["ticket_daily"], chunk_bytes)
    recovered = [
        row for chunk in plan
        for row in parse_chunk(read_chunk(path, chunk.start, chunk.end))
    ]
    assert recovered == rows  # no gaps, no duplicates, stream order


def test_plan_covers_the_file_without_gaps(corpus_dir):
    directory, _ = corpus_dir
    plan = plan_chunks(str(directory), ["ticket_daily"], 100)
    assert plan[0].start == 0
    for before, after in zip(plan, plan[1:]):
        assert before.end == after.start
    import os
    assert plan[-1].end == os.path.getsize(
        channel_path(str(directory), "ticket_daily"))


def test_chunks_follow_channel_order(tmp_path):
    write_channel(tmp_path, "dhe_daily", [{"n": 1}])
    write_channel(tmp_path, "ticket_daily", [{"n": 2}])
    plan = plan_chunks(str(tmp_path), ["ticket_daily", "dhe_daily"])
    assert [c.channel for c in plan] == ["ticket_daily", "dhe_daily"]


def test_missing_and_empty_channels_yield_no_chunks(tmp_path):
    write_channel(tmp_path, "ticket_daily", [])
    plan = plan_chunks(str(tmp_path), ["ticket_daily", "dhe_daily"])
    assert plan == []


def test_chunk_bytes_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        plan_chunks(str(tmp_path), ["ticket_daily"], 0)


def test_oversized_line_owned_by_its_starting_chunk(tmp_path):
    rows = [{"n": 0}, {"n": 1, "pad": "y" * 500}, {"n": 2}]
    path = write_channel(tmp_path, "ticket_daily", rows)
    plan = plan_chunks(str(tmp_path), ["ticket_daily"], 16)
    recovered = [
        row["n"] for chunk in plan
        for row in parse_chunk(read_chunk(path, chunk.start, chunk.end))
    ]
    assert recovered == [0, 1, 2]
    # Chunks that land entirely inside the long line own nothing.
    assert any(
        read_chunk(path, c.start, c.end) == b"" for c in plan
    )


def test_iter_channel_rows_matches_chunked_reads(corpus_dir):
    directory, rows = corpus_dir
    assert list(iter_channel_rows(str(directory), "ticket_daily")) == rows
    assert list(iter_channel_rows(str(directory), "cache_edges")) == []


def test_channels_in_order_dedups_first_seen():
    assert channels_in_order(
        ["b", "a", "b", "c", "a"]) == ["b", "a", "c"]


def test_default_chunk_bytes_is_sane():
    assert DEFAULT_CHUNK_BYTES >= 1 << 16


#: Pieces of chunk bytes: JSON rows and fragments, every whitespace and
#: line-break byte that ``bytes`` and ``str`` treat differently, a UTF-8
#: BOM, non-ASCII bytes, NaN/Infinity, and an int past the 4300-digit
#: conversion limit.
TOKENS = [
    b'{"n": 1}', b'{"n": 1} {"n": 2}', b"[1, 2]", b'"s"', b"NaN",
    b"-Infinity", b"1e400", b"9" * 4301, b"{", b"}", b"[", b"]", b'"',
    b":", b",", b"\\", b"u00e9", b" ", b"\t", b"\n", b"\r", b"\r\n",
    b"\x00", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f",
    b"\x85", b"\xef\xbb\xbf", b"\xc3\xa9", b"\xe2\x80\xa8", b"\xff",
    b"\x01",
]


def _outcome(parse, blob):
    try:
        return "rows", parse(blob)
    except Exception as exc:  # the error is the outcome under test
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=48),
                 st.lists(st.sampled_from(TOKENS), max_size=16).map(b"".join)))
def test_parse_chunk_matches_per_line_json_loads(blob):
    """The fast path returns the rows, or raises the error, of
    ``json.loads`` on each non-blank line of ``bytes.splitlines``."""
    def reference(data):
        return [json.loads(line) for line in data.splitlines()
                if line.strip()]

    # repr, because rows holding NaN never compare equal.
    assert repr(_outcome(parse_chunk, blob)) == repr(_outcome(reference, blob))
