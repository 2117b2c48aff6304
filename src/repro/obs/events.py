"""Structured event log: a run's lifecycle as JSONL (``repro-events/1``).

Where metrics answer *how much* and spans answer *how long*, the event
log answers *what happened, in order*: study/shard/day lifecycle,
checkpoint writes, chaos injections, retries, and circuit-breaker
trips, each as one JSON object per line with a severity level.

Two halves, mirroring the metrics design:

* :class:`EventLog` (and the process-local :data:`EVENTS` instance) is
  the **emitter** side — a bounded in-memory buffer that instruments
  append to.  It is off by default and costs one flag check per call
  when disabled, so hot-ish paths (retry loops, fault injection) can
  emit unconditionally.  A shard observed by a live plane drains it at
  the end of every study day into that day's push (see
  :func:`repro.scanner.engine.run_shard`).

* :class:`EventWriter` / :class:`OrderedShardWriter` are the **file**
  side, owned by the parent process.  The ordered writer is a reorder
  buffer keyed by shard id: shard batches are flushed to disk in shard
  order no matter which worker finished first, so the event log is a
  deterministic function of the shard layout — the same bytes under
  any worker count once volatile fields are stripped.

Determinism contract: every field that measures wall clock (or is
otherwise process-dependent) must use one of the names in
:data:`VOLATILE_FIELDS`; :func:`strip_volatile` removes exactly those,
and the determinism tests compare the remainder byte-for-byte.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Callable, Iterable

SCHEMA = "repro-events/1"

#: Severity levels, least to most severe.
LEVELS = ("debug", "info", "warning", "error")

#: Field names that may carry wall-clock / process-dependent values.
#: Everything else in an event record must be deterministic.
VOLATILE_FIELDS = ("ts", "pid", "elapsed_s", "seconds", "eta_s", "workers")

#: Default capacity of a shard's event buffer (oldest events drop first).
DEFAULT_CAPACITY = 50_000


def event_record(event: str, level: str = "info", **fields) -> dict:
    """One event record stamped with the current wall clock."""
    return {"event": event, "level": level, "ts": round(time.time(), 6),
            **fields}


class EventLog:
    """A bounded process-local event buffer, off until :meth:`enable`."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.enabled = False
        self._buffer: deque = deque(maxlen=capacity)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def emit(self, event: str, level: str = "info", **fields) -> None:
        """Append one event (no-op while disabled)."""
        if not self.enabled:
            return
        if level not in LEVELS:
            raise ValueError(f"unknown event level {level!r} (use one of {LEVELS})")
        self._buffer.append(event_record(event, level, **fields))

    def drain(self) -> list[dict]:
        """Remove and return every buffered event (oldest first)."""
        records = list(self._buffer)
        self._buffer.clear()
        return records

    def __len__(self) -> int:
        return len(self._buffer)


#: The process-local emitter instrumented modules bind to.
EVENTS = EventLog()


class EventWriter:
    """Appends events to a JSONL file, assigning the global ``seq``.

    The first line is always a ``log.open`` header carrying the schema
    tag; every line is serialized with sorted keys and flushed, so a
    watcher tailing the file sees complete records only.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self.seq = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8")
        self.write({"event": "log.open", "level": "info",
                    "ts": round(time.time(), 6), "schema": SCHEMA})

    def write(self, record: dict) -> dict:
        with self._lock:
            if self._fh is None:
                return record
            record = dict(record)
            record["seq"] = self.seq
            self.seq += 1
            self._fh.write(json.dumps(record, sort_keys=True))
            self._fh.write("\n")
            self._fh.flush()
            return record

    def write_many(self, records: Iterable[dict]) -> None:
        for record in records:
            self.write(record)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class OrderedShardWriter:
    """Flushes per-shard event batches to a writer **in shard order**.

    A batch for shard *k* is held until every batch for shards
    ``0..k-1`` has been flushed, which makes the on-disk order (and so
    the assigned ``seq`` numbers) independent of worker scheduling
    while still streaming each batch as soon as it is eligible.
    ``write`` takes one batch, e.g. :meth:`EventWriter.write_many`.
    """

    def __init__(self, write: Callable[[Iterable[dict]], None]) -> None:
        self._write = write
        self._pending: dict[int, Iterable[dict]] = {}
        self._next = 0

    def add_shard(self, shard_id: int, records: Iterable[dict]) -> None:
        self._pending[shard_id] = records
        while self._next in self._pending:
            self._write(self._pending.pop(self._next))
            self._next += 1

    def flush_all(self) -> None:
        """Flush any still-held batches in shard order (abort path)."""
        for shard_id in sorted(self._pending):
            self._write(self._pending.pop(shard_id))
            self._next = max(self._next, shard_id + 1)


# -- reading / validation / rendering -------------------------------------


def load_events(path: str) -> list[dict]:
    """Parse an events JSONL file into a list of records."""
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_number}: bad JSON: {exc}") from exc
    return records


def validate_events(records: list[dict]) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not records:
        return ["event log is empty (expected a log.open header)"]
    header = records[0]
    if not isinstance(header, dict) or header.get("event") != "log.open":
        errors.append("first event is not a log.open header")
    elif header.get("schema") != SCHEMA:
        errors.append(
            f"header schema is {header.get('schema')!r}, expected {SCHEMA!r}"
        )
    for index, record in enumerate(records):
        where = f"event {index}"
        if not isinstance(record, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        for field in ("event", "level", "ts", "seq"):
            if field not in record:
                errors.append(f"{where}: missing {field!r}")
        if record.get("level") not in LEVELS:
            errors.append(f"{where}: unknown level {record.get('level')!r}")
        if "ts" in record and not isinstance(record["ts"], (int, float)):
            errors.append(f"{where}: ts is not a number")
        if record.get("seq") != index:
            errors.append(
                f"{where}: seq is {record.get('seq')!r}, expected {index}"
            )
    return errors


def strip_volatile(records: Iterable[dict]) -> list[dict]:
    """Drop wall-clock/process fields — the deterministic remainder."""
    return [
        {key: value for key, value in record.items()
         if key not in VOLATILE_FIELDS}
        for record in records
    ]


def summarize_events(records: list[dict]) -> dict:
    """Counts by event type and level, plus resilience headline numbers."""
    by_event: dict[str, int] = {}
    by_level: dict[str, int] = {}
    for record in records:
        if not isinstance(record, dict):
            continue
        by_event[record.get("event", "?")] = (
            by_event.get(record.get("event", "?"), 0) + 1
        )
        by_level[record.get("level", "?")] = (
            by_level.get(record.get("level", "?"), 0) + 1
        )
    return {
        "total": len(records),
        "by_event": dict(sorted(by_event.items())),
        "by_level": {
            level: by_level[level] for level in LEVELS if level in by_level
        },
        "retries": by_event.get("scanner.retry", 0),
        "chaos_injections": by_event.get("chaos.injected", 0),
        "breaker_trips": by_event.get("breaker.opened", 0),
        "checkpoints": by_event.get("checkpoint.write", 0),
        "aborted": by_event.get("study.abort", 0) > 0,
    }


def render_event(record: dict) -> str:
    """One human-readable line for ``repro events``."""
    level = record.get("level", "?")
    event = record.get("event", "?")
    skip = {"event", "level", "ts", "seq", "schema"}
    fields = " ".join(
        f"{key}={record[key]}" for key in record if key not in skip
    )
    return f"[{level:>7}] {event:<22} {fields}".rstrip()


def render_summary(summary: dict) -> str:
    """The ``repro events --summary`` table."""
    lines = [f"{summary['total']:,} events"]
    by_level = summary.get("by_level", {})
    if by_level:
        lines.append(
            "  levels: " + "  ".join(
                f"{level}={count:,}" for level, count in by_level.items()
            )
        )
    by_event = summary.get("by_event", {})
    if by_event:
        width = max(len(name) for name in by_event)
        for name, count in sorted(by_event.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {name:<{width}}  {count:>8,}")
    if summary.get("aborted"):
        lines.append("  run ABORTED before the merge")
    return "\n".join(lines)


def level_at_least(record: dict, threshold: str) -> bool:
    """Is the record's severity >= ``threshold``?"""
    try:
        return LEVELS.index(record.get("level", "debug")) >= LEVELS.index(threshold)
    except ValueError:
        return True


__all__ = [
    "SCHEMA",
    "LEVELS",
    "VOLATILE_FIELDS",
    "DEFAULT_CAPACITY",
    "EventLog",
    "EVENTS",
    "event_record",
    "EventWriter",
    "OrderedShardWriter",
    "load_events",
    "validate_events",
    "strip_volatile",
    "summarize_events",
    "render_event",
    "render_summary",
    "level_at_least",
]
