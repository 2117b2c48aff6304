"""Scan-record storage: streaming writers and lazy views.

The paper reused Censys data "instead of running redundant scans" and
published its own data on scans.io.  This module provides the local
equivalent: :class:`JsonlWriter` appends records to disk as they are
produced (the scan engine's only write path, so a million-domain study
never holds its observations in memory), and :class:`LazyRecordView`
is a re-iterable, sequence-like view over a written JSONL file that
analyses can consume without materializing it.  A dataset directory is
just one JSONL file per channel in
:data:`repro.scanner.records.CHANNELS` plus a ``meta.json``.
"""

from __future__ import annotations

import json
import os
import shutil
from itertools import islice
from typing import Iterable, Iterator, Optional

from .records import CHANNELS, read_jsonl

#: Most lines :meth:`JsonlWriter.append_many` joins into one ``write``;
#: bounds the joined string when a whole channel is saved at once.
_WRITE_CHUNK = 4096


class JsonlWriter:
    """Append-only JSONL writer for record objects with ``.to_json()``.

    The file is created (truncated) on construction so an empty channel
    still yields an empty file — a dataset directory always contains
    every channel, written or not.  Records are flushed through an
    ordinary buffered file handle; ``count`` tracks rows written.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8")
        self.count = 0

    def append(self, record) -> None:
        self._fh.write(record.to_json())
        self._fh.write("\n")
        self.count += 1

    def append_many(self, records: Iterable) -> int:
        """Append records with one ``write`` per batch (per
        :data:`_WRITE_CHUNK` records for longer batches); the bytes equal
        per-record :meth:`append` calls."""
        appended = 0
        records = iter(records)
        while lines := [record.to_json() for record in islice(records, _WRITE_CHUNK)]:
            self._fh.write("\n".join(lines) + "\n")
            self.count += len(lines)
            appended += len(lines)
        return appended

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LazyRecordView:
    """A re-iterable, list-like view over one channel's JSONL file.

    Iteration streams records off disk; nothing is cached except the
    row count (computed on first ``len``).  Supports the small slice of
    the list protocol the analysis layer actually uses — iteration,
    ``len``, truthiness, indexing/slicing, and equality against any
    sequence — so analyses take it wherever they take a list.
    """

    def __init__(self, path: str, record_cls: type) -> None:
        self.path = path
        self.record_cls = record_cls
        self._count: Optional[int] = None
        #: Kept alive as long as the view: the dataset that owns a
        #: temporary directory, so the directory outlives every view.
        self.owner = None

    def __iter__(self) -> Iterator:
        if not os.path.exists(self.path):
            return iter(())
        return read_jsonl(self.path, self.record_cls)

    def __len__(self) -> int:
        if self._count is None:
            count = 0
            if os.path.exists(self.path):
                with open(self.path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        if line.strip():
                            count += 1
            self._count = count
        return self._count

    def __bool__(self) -> bool:
        if self._count is not None:
            return self._count > 0
        if not os.path.exists(self.path):
            return False
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    return True
        return False

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.materialize()[index]
        if index < 0:
            return self.materialize()[index]
        for i, record in enumerate(self):
            if i == index:
                return record
        raise IndexError(index)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, LazyRecordView)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"LazyRecordView({self.path!r}, {self.record_cls.__name__})"

    def materialize(self) -> list:
        """Read the whole channel into a list (tests, small corpora)."""
        return list(self)


def channel_path(directory: str, channel: str) -> str:
    """The JSONL path for one channel inside a dataset directory."""
    return os.path.join(directory, f"{channel}.jsonl")


def open_channel_writers(directory: str) -> dict[str, JsonlWriter]:
    """One append writer per known channel, creating the directory."""
    os.makedirs(directory, exist_ok=True)
    return {name: JsonlWriter(channel_path(directory, name)) for name in CHANNELS}


def open_channel_views(directory: str) -> dict[str, LazyRecordView]:
    """One lazy view per known channel in a dataset directory."""
    return {
        name: LazyRecordView(channel_path(directory, name), record_cls)
        for name, record_cls in CHANNELS.items()
    }


def concatenate_channels(part_dirs: list[str], out_dir: str) -> None:
    """Merge shard part-directories into one dataset directory.

    Each channel's output file is the byte-for-byte concatenation of
    the shards' files in the order given — the merge step of the
    sharded scan engine.  Deterministic by construction: the bytes
    depend only on the per-shard files and their order, never on how
    many workers produced them.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name in CHANNELS:
        with open(channel_path(out_dir, name), "wb") as out:
            for part in part_dirs:
                path = channel_path(part, name)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        shutil.copyfileobj(fh, out)


def write_meta(directory: str, meta: dict) -> None:
    """Persist a dataset's ``meta.json`` (scalar + mapping fields)."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta))


def read_meta(directory: str) -> dict:
    with open(os.path.join(directory, "meta.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


__all__ = [
    "JsonlWriter",
    "LazyRecordView",
    "channel_path",
    "open_channel_writers",
    "open_channel_views",
    "concatenate_channels",
    "write_meta",
    "read_meta",
]
