"""Scan-record storage: streaming writers, lazy views, and a queryable index.

The paper reused Censys data "instead of running redundant scans" and
published its own data on scans.io.  This module provides the local
equivalent, in two halves:

* **Streaming storage** — :class:`JsonlWriter` appends records to disk
  as they are produced (the scan engine's spill path, so a
  million-domain study never holds its observations in memory), and
  :class:`LazyRecordView` is a re-iterable, sequence-like view over a
  written JSONL file that analyses can consume without materializing
  it.  A dataset directory is just one JSONL file per channel in
  :data:`repro.scanner.records.CHANNELS` plus a ``meta.json``.

* **Query index** — :class:`ScanIndex`, an indexed, queryable store
  over :class:`ScanObservation` records so analyses (and downstream
  users) can slice a study corpus by domain, day, IP, cipher family,
  or STEK identifier without re-reading JSONL files or rescanning.

The index is deliberately simple — in-memory dicts over immutable
records — because study corpora are hundreds of thousands of rows, not
billions.  Queries compose as keyword filters::

    index = ScanIndex(dataset.ticket_daily)
    index.query(domain="yahoo.com")
    index.query(day=5, kex_kind="ecdhe", success=True)
    index.query(stek_id="ab…")            # who shared this key?
"""

from __future__ import annotations

import json
import os
import shutil
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from .records import CHANNELS, ScanObservation, read_jsonl

_INDEXED_FIELDS = ("domain", "day", "ip", "kex_kind", "stek_id", "cipher")

#: Most lines :meth:`JsonlWriter.append_many` joins into one ``write``;
#: bounds the joined string when a whole channel is saved at once.
_WRITE_CHUNK = 4096


# ---------------------------------------------------------------------------
# Streaming append writers + lazy views (the study's spill path)
# ---------------------------------------------------------------------------


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
    sequence — so a streamed dataset is a drop-in replacement for an
    in-memory one.
    """

    def __init__(self, path: str, record_cls: type) -> None:
        self.path = path
        self.record_cls = record_cls
        self._count: Optional[int] = None

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


# ---------------------------------------------------------------------------
# Queryable in-memory index (the Censys analogue)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexStats:
    """Summary of an index's contents."""

    observations: int
    domains: int
    days: int
    success_rate: float


class ScanIndex:
    """In-memory inverted index over scan observations."""

    def __init__(self, observations: Iterable[ScanObservation] = ()) -> None:
        self._rows: list[ScanObservation] = []
        self._by: dict[str, dict[object, list[int]]] = {
            name: defaultdict(list) for name in _INDEXED_FIELDS
        }
        self.add_many(observations)

    # -- ingestion -------------------------------------------------------

    def add(self, observation: ScanObservation) -> None:
        row_id = len(self._rows)
        self._rows.append(observation)
        for name in _INDEXED_FIELDS:
            value = getattr(observation, name)
            if value is not None and value != "":
                self._by[name][value].append(row_id)

    def add_many(self, observations: Iterable[ScanObservation]) -> int:
        count = 0
        for observation in observations:
            self.add(observation)
            count += 1
        return count

    def __len__(self) -> int:
        return len(self._rows)

    # -- queries ----------------------------------------------------------

    def query(self, success: Optional[bool] = None, **filters) -> list[ScanObservation]:
        """Filter by any indexed field plus the ``success`` flag.

        Unknown filter names raise ``ValueError`` (catching typos beats
        silently returning everything).
        """
        unknown = set(filters) - set(_INDEXED_FIELDS)
        if unknown:
            raise ValueError(f"unknown filter fields: {sorted(unknown)}")
        candidate_ids: Optional[set[int]] = None
        for name, value in filters.items():
            ids = set(self._by[name].get(value, ()))
            candidate_ids = ids if candidate_ids is None else candidate_ids & ids
            if not candidate_ids:
                return []
        if candidate_ids is None:
            rows: Iterable[ScanObservation] = self._rows
        else:
            rows = (self._rows[i] for i in sorted(candidate_ids))
        if success is None:
            return list(rows)
        return [row for row in rows if row.success == success]

    def domains(self) -> list[str]:
        return sorted(self._by["domain"])

    def days(self) -> list[int]:
        return sorted(self._by["day"])

    def domains_with_stek(self, stek_id: str) -> set[str]:
        """Every domain that ever presented this STEK identifier —
        the §5.2 sharing question as a single lookup."""
        return {self._rows[i].domain for i in self._by["stek_id"].get(stek_id, ())}

    def stek_ids_for(self, domain: str) -> list[str]:
        """A domain's STEK identifiers in first-seen order."""
        seen: list[str] = []
        for row_id in self._by["domain"].get(domain, ()):
            stek_id = self._rows[row_id].stek_id
            if stek_id and stek_id not in seen:
                seen.append(stek_id)
        return seen

    def timeline(self, domain: str) -> list[tuple[int, Optional[str]]]:
        """(day, stek_id) pairs for a domain, day-ordered — the raw
        material of the §4.3 span estimator."""
        entries = [
            (self._rows[i].day, self._rows[i].stek_id)
            for i in self._by["domain"].get(domain, ())
            if self._rows[i].success
        ]
        entries.sort(key=lambda pair: pair[0])
        return entries

    def stats(self) -> IndexStats:
        ok = sum(1 for row in self._rows if row.success)
        return IndexStats(
            observations=len(self._rows),
            domains=len(self._by["domain"]),
            days=len(self._by["day"]),
            success_rate=ok / len(self._rows) if self._rows else 0.0,
        )

    def __iter__(self) -> Iterator[ScanObservation]:
        return iter(self._rows)


__all__ = [
    "ScanIndex",
    "IndexStats",
    "JsonlWriter",
    "LazyRecordView",
    "channel_path",
    "open_channel_writers",
    "open_channel_views",
    "concatenate_channels",
    "write_meta",
    "read_meta",
]
