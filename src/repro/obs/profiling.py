"""Opt-in profiling hooks: phase timers, slowest grabs, cProfile.

Three instruments, all off by default (the study's hot path pays one
flag check when disabled):

* **Phase timers** — :meth:`Profiler.phase` context managers accumulate
  wall-clock per named phase (``ecosystem.advance``,
  ``experiment.<name>``, ``finalize``, ``metadata``), answering
  "where did the shard's time go?" per engine phase.

* **Slowest grabs** — a bounded top-N heap of ``(seconds, domain)``
  observed by the grabber, answering "which domains are dragging?".

* **cProfile** — each shard optionally runs under :mod:`cProfile`
  (:func:`start_shard_profile` / :func:`stop_shard_profile`) and
  dumps ``shard-NN.pstats`` into ``<telemetry-dir>/profile/``; the
  parent aggregates every dump with :mod:`pstats` into ``profile.txt``.

Workers snapshot their profiler into ``ShardResult.profile`` so the
parent can merge across processes.  :func:`profile_summary` merges the
snapshots in shard order, adds the hottest functions of the pstats
aggregation, and returns the run manifest's ``profile`` section, which
``repro stats`` renders.  Profile numbers are inherently wall-clock and
are reported as diagnostics, never as part of the deterministic output.
"""

from __future__ import annotations

import cProfile
import heapq
import io
import os
import pstats
import time
from contextlib import contextmanager
from typing import Optional

REPORT_NAME = "profile.txt"

#: How many slowest grabs each shard keeps.
SLOWEST_N = 20

#: How many hottest functions the pstats aggregation reports.
TOP_FUNCTIONS = 25


class Profiler:
    """Process-local phase timers + slowest-grab tracker."""

    def __init__(self, slowest_n: int = SLOWEST_N) -> None:
        self.enabled = False
        self._slowest_n = slowest_n
        self.phase_seconds: dict[str, float] = {}
        self.phase_counts: dict[str, int] = {}
        self._slowest: list[tuple[float, str]] = []  # min-heap

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.phase_seconds = {}
        self.phase_counts = {}
        self._slowest = []

    @contextmanager
    def phase(self, name: str):
        """Accumulate time under ``name`` (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed
            self.phase_counts[name] = self.phase_counts.get(name, 0) + 1

    def observe_grab(self, domain: str, seconds: float) -> None:
        """Consider one grab for the slowest-N board."""
        if not self.enabled:
            return
        if len(self._slowest) < self._slowest_n:
            heapq.heappush(self._slowest, (seconds, domain))
        elif seconds > self._slowest[0][0]:
            heapq.heapreplace(self._slowest, (seconds, domain))

    def slowest(self) -> list[tuple[float, str]]:
        """Slowest grabs, slowest first."""
        return sorted(self._slowest, reverse=True)

    def snapshot(self) -> dict:
        """JSON-serializable state for ShardResult.profile."""
        return {
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.phase_seconds.items())
            },
            "phase_counts": dict(sorted(self.phase_counts.items())),
            "slowest": [
                [round(seconds, 6), domain] for seconds, domain in self.slowest()
            ],
        }


#: The process-local profiler instrumented modules bind to.
PROFILER = Profiler()


def pstats_path(profile_dir: str, shard_id: int) -> str:
    return os.path.join(profile_dir, f"shard-{shard_id:02d}.pstats")


def start_shard_profile(
    profile_dir: Optional[str],
) -> Optional[cProfile.Profile]:
    """Begin cProfile collection for one shard (None when disabled)."""
    if profile_dir is None:
        return None
    os.makedirs(profile_dir, exist_ok=True)
    profile = cProfile.Profile()
    profile.enable()
    return profile


def stop_shard_profile(
    profile: Optional[cProfile.Profile],
    profile_dir: Optional[str],
    shard_id: int,
) -> Optional[str]:
    """Finish collection, dump ``shard-NN.pstats``; returns the name."""
    if profile is None or profile_dir is None:
        return None
    profile.disable()
    path = pstats_path(profile_dir, shard_id)
    profile.dump_stats(path)
    return os.path.basename(path)


def merge_profiles(profiles: list[dict]) -> dict:
    """Merge per-shard profile snapshots (phase sums, global top-N)."""
    phase_seconds: dict[str, float] = {}
    phase_counts: dict[str, int] = {}
    board: list[tuple[float, str]] = []
    for profile in profiles:
        if not profile:
            continue
        for name, seconds in profile.get("phase_seconds", {}).items():
            phase_seconds[name] = phase_seconds.get(name, 0.0) + seconds
        for name, count in profile.get("phase_counts", {}).items():
            phase_counts[name] = phase_counts.get(name, 0) + count
        for seconds, domain in profile.get("slowest", []):
            if len(board) < SLOWEST_N:
                heapq.heappush(board, (seconds, domain))
            elif seconds > board[0][0]:
                heapq.heapreplace(board, (seconds, domain))
    return {
        "phase_seconds": {
            name: round(seconds, 6)
            for name, seconds in sorted(phase_seconds.items())
        },
        "phase_counts": dict(sorted(phase_counts.items())),
        "slowest": [
            [round(seconds, 6), domain]
            for seconds, domain in sorted(board, reverse=True)
        ],
    }


def aggregate_pstats(profile_dir: str) -> tuple[Optional[str], list[dict]]:
    """Combine every ``shard-*.pstats`` dump in ``profile_dir``.

    Returns ``(report_text, top_functions)`` — the classic pstats
    cumulative-time listing plus a JSON-friendly top-functions table —
    or ``(None, [])`` when no dumps exist.
    """
    dumps = sorted(
        os.path.join(profile_dir, name)
        for name in os.listdir(profile_dir)
        if name.startswith("shard-") and name.endswith(".pstats")
    )
    if not dumps:
        return None, []
    stats = pstats.Stats(dumps[0])
    for dump in dumps[1:]:
        stats.add(dump)
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("cumulative").print_stats(TOP_FUNCTIONS)
    top: list[dict] = []
    for func, (calls, _primitive, total_time, cumulative, _callers) in sorted(
        stats.stats.items(), key=lambda item: -item[1][3]
    )[:TOP_FUNCTIONS]:
        filename, line, name = func
        top.append({
            "function": f"{os.path.basename(filename)}:{line}:{name}",
            "calls": calls,
            "total_s": round(total_time, 6),
            "cumulative_s": round(cumulative, 6),
        })
    return buffer.getvalue(), top


def profile_summary(profile_dir: str, profiles: list[dict]) -> dict:
    """Write ``profile.txt`` from the dumps in ``profile_dir``; returns
    the merged summary the run manifest carries under ``profile``."""
    os.makedirs(profile_dir, exist_ok=True)  # no shard ran on a full resume
    merged = merge_profiles(profiles)
    report, top_functions = aggregate_pstats(profile_dir)
    if report is not None:
        with open(
            os.path.join(profile_dir, REPORT_NAME), "w", encoding="utf-8"
        ) as fh:
            fh.write(report)
    return {
        "shards": sum(1 for profile in profiles if profile),
        "phase_seconds": merged["phase_seconds"],
        "phase_counts": merged["phase_counts"],
        "slowest_grabs": merged["slowest"],
        "top_functions": top_functions,
    }


__all__ = [
    "REPORT_NAME",
    "SLOWEST_N",
    "TOP_FUNCTIONS",
    "Profiler",
    "PROFILER",
    "pstats_path",
    "merge_profiles",
    "aggregate_pstats",
    "profile_summary",
]
