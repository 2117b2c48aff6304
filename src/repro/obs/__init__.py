"""Dependency-free telemetry for the measurement pipeline.

Cooperating layers (see DESIGN.md §8 and §11):

* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms
  with deterministic cross-process snapshot merging;
* :mod:`repro.obs.manifest` / :mod:`repro.obs.report` — the run
  manifest, the one record of a finished run (provenance, timing, peak
  memory, cache effectiveness and, with ``--profile``, where the time
  went), and its human / Prometheus renderings (``repro stats``);
* :mod:`repro.obs.events` — the structured JSONL event log
  (``repro-events/1``): the one stream by which a running shard
  reports, and the file a live run writes it to;
* :mod:`repro.obs.progress` — shard-day progress/ETA folded from that
  stream, behind ``/progress`` and the status line drawn from it;
* :mod:`repro.obs.exporter` — the live plane, the one observer of a
  running study: it takes the event stream (each shard's per-day
  pushes of records and metric deltas, through a spool directory
  from pool workers) and turns it into progress (also handed to an
  ``on_progress`` callable), checkpointed shard records, the event
  file and in-run HTTP exposition (``/metrics``, ``/progress``,
  ``/healthz``, ``/events``);
* :mod:`repro.obs.profiling` — opt-in phase timers, slowest-grab
  tracking, and per-shard cProfile aggregation into the manifest's
  ``profile`` section.

The invariant every instrument obeys: telemetry is **output-neutral**.
Nothing in this package (or any call into it) may touch a seeded RNG
or alter record content — study bytes are identical with telemetry on
or off.
"""

from .events import EVENTS, EventLog, EventWriter, load_events, validate_events
from .exporter import LivePlane, ObservabilityServer, SpoolPoller, SpoolPush
from .manifest import (
    MANIFEST_NAME,
    METRICS_NAME,
    PROMETHEUS_NAME,
    SCHEMA,
    build_manifest,
    config_dict,
    git_describe,
    load_manifest,
    load_metrics,
    validate_manifest,
    write_manifest,
    write_metrics,
)
from .metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    cache_stats,
    merge_snapshots,
    parse_key,
)
from .profiling import PROFILER, Profiler
from .progress import ProgressTracker, render_progress
from .report import render_prometheus, render_stats_report

__all__ = [
    "EVENTS",
    "EventLog",
    "EventWriter",
    "load_events",
    "validate_events",
    "LivePlane",
    "ObservabilityServer",
    "SpoolPush",
    "SpoolPoller",
    "PROFILER",
    "Profiler",
    "ProgressTracker",
    "render_progress",
    "METRICS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "merge_snapshots",
    "cache_stats",
    "parse_key",
    "SCHEMA",
    "MANIFEST_NAME",
    "METRICS_NAME",
    "PROMETHEUS_NAME",
    "git_describe",
    "config_dict",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
    "load_metrics",
    "write_metrics",
    "render_prometheus",
    "render_stats_report",
]
