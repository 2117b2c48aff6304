"""Progress/ETA tracking for a running study (``repro-progress/1``).

The engine's unit of forward progress is the *shard-day*: a study of
``S`` shards over ``D`` days completes exactly ``S × D`` of them, each
reported by the shard's per-day callback.  :class:`ProgressTracker`
counts completed shard-days (and whole shards, for resumed runs that
skip straight to ``day D``), derives a completion fraction, and
extrapolates an ETA from the observed rate.

The tracker is the single source of truth behind both renderings: the
``/progress`` JSON endpoint (:meth:`ProgressTracker.snapshot`) and the
status line :func:`render_progress` draws from such a snapshot (the
``repro study`` stderr line and ``repro watch URL``).  It is
thread-safe — the exporter's HTTP threads read snapshots while the
engine's callbacks write.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

SCHEMA = "repro-progress/1"


class ProgressTracker:
    """Counts shard-day completions; derives fraction, rate, and ETA."""

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._state = "idle"
        self._started: Optional[float] = None
        self._finished: Optional[float] = None
        self._shards_total = 0
        self._days_per_shard = 0
        self._shards_done = 0
        self._day_units_done = 0
        self._restored_units = 0
        self._grabs = 0
        #: Highest completed day per shard, to make day callbacks
        #: idempotent (resume + live pushes may overlap).
        self._shard_days: dict[int, int] = {}

    # -- engine-facing callbacks ------------------------------------------

    def begin(self, shards: int, days: int) -> None:
        """Start the run (resumed shards arrive via shard_completed)."""
        with self._lock:
            self._state = "running"
            self._started = self._clock()
            self._finished = None
            self._shards_total = shards
            self._days_per_shard = days
            self._shards_done = 0
            self._day_units_done = 0
            self._restored_units = 0
            self._grabs = 0
            self._shard_days = {}

    def day_completed(
        self, shard_id: int, day: int, days: int, grabs: int = 0
    ) -> None:
        """Shard ``shard_id`` finished study day ``day`` (0-based)."""
        with self._lock:
            done_before = self._shard_days.get(shard_id, 0)
            done_now = max(done_before, day + 1)
            self._shard_days[shard_id] = done_now
            self._day_units_done += done_now - done_before
            self._grabs += max(grabs, 0)

    def shard_completed(
        self,
        shard_id: int,
        days: Optional[int] = None,
        restored: bool = False,
    ) -> None:
        """Shard finished end to end (checkpointed / merged-ready).

        ``restored`` marks shards replayed from a checkpoint: their day
        units count toward completion but not toward the observed rate,
        so the ETA reflects only work done by *this* process.
        """
        with self._lock:
            days = days if days is not None else self._days_per_shard
            done_before = self._shard_days.get(shard_id, 0)
            self._shard_days[shard_id] = max(done_before, days)
            added = max(days - done_before, 0)
            self._day_units_done += added
            if restored:
                self._restored_units += added
            self._shards_done += 1

    def finish(self, aborted: bool = False) -> None:
        with self._lock:
            self._state = "aborted" if aborted else "done"
            self._finished = self._clock()

    # -- readers -----------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``/progress`` JSON document."""
        with self._lock:
            total_units = self._shards_total * self._days_per_shard
            done_units = min(self._day_units_done, total_units)
            fraction = done_units / total_units if total_units else 0.0
            now = self._finished if self._finished is not None else self._clock()
            elapsed = (now - self._started) if self._started is not None else 0.0
            eta: Optional[float] = None
            live_units = done_units - min(self._restored_units, done_units)
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
                    "completed": self._shards_done,
                },
                "day_units": {"total": total_units, "completed": done_units},
                "fraction": round(fraction, 6),
                "grabs": self._grabs,
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
