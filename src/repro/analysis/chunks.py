"""Line-aligned byte-range chunking over a dataset's JSONL channels.

A merged dataset directory holds one ``<channel>.jsonl`` file per
channel (see :mod:`repro.scanner.datastore`).  The analysis engine
never loads a whole file: it partitions each channel into fixed-size
byte ranges and assigns every *line* to exactly one chunk — the chunk
whose range contains the line's first byte.  The partition is a pure
function of the file size and ``chunk_bytes``, so chunk boundaries are
identical across runs and worker counts.

Ownership rule (both ends use the same test, so chunks never overlap
and never leave gaps):

* a line belongs to the chunk in whose ``[start, end)`` range its
  first byte falls;
* a chunk whose ``start`` lands mid-line skips forward to the next
  line start before reading;
* a chunk whose ``end`` lands mid-line reads through the end of that
  straddling line (its first byte was inside the range).

>>> import json, tempfile, os
>>> tmp = tempfile.mkdtemp()
>>> path = os.path.join(tmp, "ticket_daily.jsonl")
>>> with open(path, "w") as fh:
...     _ = fh.write('{"n": 1}\\n{"n": 2}\\n{"n": 3}\\n')
>>> plan = plan_chunks(tmp, ["ticket_daily"], chunk_bytes=10)
>>> [(c.start, c.end) for c in plan]
[(0, 10), (10, 20), (20, 27)]
>>> [row["n"] for c in plan
...  for row in iter_chunk_rows(read_chunk(path, c.start, c.end))]
[1, 2, 3]
"""

from __future__ import annotations

import json
import json.scanner
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

from ..scanner.datastore import channel_path

#: Default analysis chunk size.  Large enough that per-chunk overhead
#: (hashing, cache lookups, pool dispatch) is noise; small enough that
#: a worker's resident set stays at "one chunk + its partial states".
DEFAULT_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class Chunk:
    """One byte range of one channel file."""

    channel: str
    start: int
    end: int


def plan_chunks(directory: str, channels: Sequence[str],
                chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> List[Chunk]:
    """Deterministic chunk plan for ``channels`` (in the given order).

    Missing or empty channel files yield no chunks, mirroring how an
    absent channel behaves as an empty record list when loading the
    dataset in memory.
    """
    if chunk_bytes <= 0:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    plan: List[Chunk] = []
    for channel in channels:
        path = channel_path(directory, channel)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        start = 0
        while start < size:
            end = min(size, start + chunk_bytes)
            plan.append(Chunk(channel, start, end))
            start = end
    return plan


def read_chunk(path: str, start: int, end: int) -> bytes:
    """The bytes of every line owned by ``[start, end)`` in ``path``.

    Returns ``b""`` when no line starts inside the range (possible when
    a single line is longer than the chunk size).
    """
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        if start:
            fh.seek(start - 1)
            if fh.read(1) != b"\n":
                fh.readline()  # mid-line start: previous chunk owns it
        begin = fh.tell()
        if begin >= end:
            return b""
        if end >= size:
            stop = size
        else:
            fh.seek(end - 1)
            if fh.read(1) == b"\n":
                stop = end
            else:
                fh.readline()  # straddling line: this chunk owns it
                stop = fh.tell()
        fh.seek(begin)
        return fh.read(stop - begin)


def iter_chunk_rows(blob: bytes) -> Iterator[dict]:
    """Parse a chunk's lines as JSON objects, skipping blank lines."""
    for line in blob.splitlines():
        if line.strip():
            yield json.loads(line)


#: Bytes that ``str.splitlines`` treats as line breaks but
#: ``bytes.splitlines`` does not (``\x0b \x0c \x1c-\x1e``), or that can
#: make ``json.loads`` detect a UTF-16/32 encoding (``\x00``).  A chunk
#: that is ASCII and free of them splits into the same lines as text
#: as it does as bytes, and each line decodes as ``json.loads`` would.
#: (Six ``in`` tests are memchr scans, far faster than one regex search.)
_TEXT_UNSAFE = (b"\x00", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")

#: The C scanner behind ``json.loads``, called once per row.
_scan_row = json.scanner.make_scanner(json.JSONDecoder())


def parse_chunk(blob: bytes) -> List[dict]:
    """All rows of a chunk as a list (each row parsed exactly once).

    Returns what ``list(iter_chunk_rows(blob))`` returns, or raises what
    it raises, with a faster path for the usual chunk: decode the blob
    once and scan each line with the C scanner.  A line the scanner does
    not consume exactly (leading or trailing whitespace, extra data, a
    syntax error) goes to ``json.loads``, which returns the same row or
    raises the same error as the per-line path.
    """
    if not blob.isascii() or any(byte in blob for byte in _TEXT_UNSAFE):
        return list(iter_chunk_rows(blob))
    rows = []
    for line in blob.decode("ascii").splitlines():
        try:
            row, end = _scan_row(line, 0)
        except StopIteration:
            end = -1
        if end != len(line):
            # ``bytes.strip`` removes only space and tab from a line here.
            if not line.strip(" \t"):
                continue
            row = json.loads(line)
        rows.append(row)
    return rows


def iter_channel_rows(directory: str, channel: str) -> Iterator[dict]:
    """Stream one channel's rows without chunking (single-pass helper)."""
    path = channel_path(directory, channel)
    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def channels_in_order(channels: Iterable[str]) -> List[str]:
    """``channels`` deduplicated, preserving first-seen order."""
    seen = {}
    for channel in channels:
        seen.setdefault(channel, None)
    return list(seen)
