"""Progress/ETA of a running study (``repro-progress/1``), folded
from its event records.

The engine's unit of forward progress is the *shard-day*: a study of
``S`` shards over ``D`` days completes exactly ``S × D`` of them.
:class:`ProgressTracker` reads them off the event stream the live
plane takes in: ``study.start`` sets the totals, each ``shard.day``
completes one unit, ``shard.end`` completes its shard and all its
days, ``checkpoint.restored`` does the same for a shard replayed from
its checkpoint, and ``study.end``/``study.abort`` end the run.  From these it derives a completion fraction and extrapolates
an ETA from the observed rate.

The tracker is the single source of truth behind both renderings: the
``/progress`` JSON endpoint (:meth:`ProgressTracker.snapshot`) and the
status line :func:`render_progress` draws from such a snapshot (the
``repro study`` stderr line and ``repro watch URL``).  It is
thread-safe — the exporter's HTTP threads read snapshots while the
plane folds records in.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Optional

SCHEMA = "repro-progress/1"


class ProgressTracker:
    """Folds event records into shard-day counts, fraction, rate, ETA."""

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._state = "idle"
        self._started: Optional[float] = None
        self._finished: Optional[float] = None
        self._begin(0, 0)

    def _begin(self, shards: int, days: int) -> None:
        self._shards_total = shards
        self._days_per_shard = days
        #: Completed days per shard; ``max`` keeps a repeated record
        #: from counting twice.
        self._shard_days: dict[int, int] = {}
        self._grabs: dict[int, int] = {}
        self._ended: set[int] = set()
        #: Shards replayed from a checkpoint: their days count toward
        #: completion but not toward the rate, so the ETA reflects only
        #: work done by *this* process; their grabs are not counted.
        self._restored: set[int] = set()

    def fold(self, records: Iterable[dict]) -> bool:
        """Fold ``records`` in order; True if any moved the progress."""
        moved = False
        with self._lock:
            for record in records:
                event = record.get("event")
                if event == "shard.day":
                    shard = record["shard"]
                    self._shard_days[shard] = max(
                        self._shard_days.get(shard, 0), record["day"] + 1
                    )
                    self._grabs[shard] = (
                        self._grabs.get(shard, 0) + max(record["grabs"], 0)
                    )
                elif event in ("shard.end", "checkpoint.restored"):
                    shard = record["shard"]
                    self._shard_days[shard] = self._days_per_shard
                    self._ended.add(shard)
                    if event == "checkpoint.restored":
                        self._restored.add(shard)
                        self._grabs.pop(shard, None)
                elif event == "study.start":
                    self._state = "running"
                    self._started = self._clock()
                    self._finished = None
                    self._begin(record["shards"], record["days"])
                elif event in ("study.end", "study.abort"):
                    self._state = "done" if event == "study.end" else "aborted"
                    self._finished = self._clock()
                else:
                    continue
                moved = True
        return moved

    # -- readers -----------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``/progress`` JSON document."""
        with self._lock:
            total_units = self._shards_total * self._days_per_shard
            done_units = min(sum(self._shard_days.values()), total_units)
            fraction = done_units / total_units if total_units else 0.0
            now = self._finished if self._finished is not None else self._clock()
            elapsed = (now - self._started) if self._started is not None else 0.0
            eta: Optional[float] = None
            restored_units = len(self._restored) * self._days_per_shard
            live_units = done_units - min(restored_units, done_units)
            if self._state == "running" and live_units > 0:
                # done == total while still "running" is the merge/finalize
                # window: remaining work is zero, so the ETA is too.
                eta = elapsed * (total_units - done_units) / live_units
            elif self._state in ("done", "aborted"):
                eta = 0.0
            return {
                "schema": SCHEMA,
                "state": self._state,
                "shards": {
                    "total": self._shards_total,
                    "completed": len(self._ended),
                },
                "day_units": {"total": total_units, "completed": done_units},
                "fraction": round(fraction, 6),
                "grabs": sum(self._grabs.values()),
                "elapsed_s": round(elapsed, 3),
                "eta_s": round(eta, 3) if eta is not None else None,
            }


def format_duration(seconds: Optional[float]) -> str:
    """``93.5`` → ``1m34s``; None → ``?``."""
    if seconds is None:
        return "?"
    seconds = max(0, int(round(seconds)))
    hours, remainder = divmod(seconds, 3600)
    minutes, secs = divmod(remainder, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    if minutes:
        return f"{minutes}m{secs:02d}s"
    return f"{secs}s"


def render_progress(snapshot: dict) -> str:
    """One status line from a ``/progress`` snapshot (TTY + watch)."""
    state = snapshot.get("state", "?")
    shards = snapshot.get("shards", {})
    units = snapshot.get("day_units", {})
    fraction = snapshot.get("fraction", 0.0)
    width = 24
    filled = int(round(width * min(max(fraction, 0.0), 1.0)))
    bar = "#" * filled + "-" * (width - filled)
    parts = [
        f"[{bar}] {fraction * 100:5.1f}%",
        f"shards {shards.get('completed', 0)}/{shards.get('total', 0)}",
        f"days {units.get('completed', 0)}/{units.get('total', 0)}",
    ]
    grabs = snapshot.get("grabs", 0)
    if grabs:
        parts.append(f"{grabs:,} grabs")
    parts.append(f"elapsed {format_duration(snapshot.get('elapsed_s'))}")
    if state == "running":
        parts.append(f"eta {format_duration(snapshot.get('eta_s'))}")
    else:
        parts.append(state)
    return "  ".join(parts)


__all__ = [
    "SCHEMA",
    "ProgressTracker",
    "format_duration",
    "render_progress",
]
