"""Orchestration of the full nine-week measurement study.

:func:`run_study` drives every experiment the paper reports against a
synthetic ecosystem, on one virtual timeline:

* daily single-connection sweeps with three cipher offers — modern
  (ticket/STEK tracking), DHE-only, and ECDHE-first (§4.3, §4.4);
* 10-connection support scans in a six-hour window plus 30-minute
  single-connection scans (Table 1, §5.2, §5.3);
* 24-hour session-ID and session-ticket resumption probes (§4.1, §4.2);
* the cross-domain session-cache probe (§5.1).

The experiments themselves live in :mod:`repro.scanner.experiments`
(a pluggable registry) and the day loop in
:mod:`repro.scanner.engine` (a sharded, streaming scan engine); this
module owns the configuration, the dataset container, and persistence.

The result is a :class:`StudyDataset` of pure scan records — the
analysis layer never sees the simulation's internals.  Datasets
live in a directory of JSONL files (one per channel in
:data:`repro.scanner.records.CHANNELS` plus ``meta.json``) so
expensive scans can be reused across benchmark runs.  Every study
*writes* that directory incrementally as it scans — its ``stream_dir``,
or a private temporary directory owned by the returned dataset — and
the dataset holds lazy views over it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Union

from ..faults.plan import ImpairmentPlan
from ..faults.retry import RetryPolicy
from ..hosting.ecosystem import Ecosystem
from ..netsim.clock import HOUR
from .datastore import (
    LazyRecordView,
    concatenate_channels,
    open_channel_views,
    read_meta,
    write_meta,
)
from .engine import StudyEngine, StudyStats
from .records import CHANNELS

#: Record fields are :class:`LazyRecordView` over the dataset directory
#: in every dataset a study or :func:`load_dataset` returns; a dataset
#: built by hand may hold plain lists.
RecordRows = Union[list, LazyRecordView]


@dataclass
class StudyConfig:
    """Which experiments run, and when, within the study window."""

    days: int = 63
    seed: int = 101
    probe_domain_count: int = 400      # top-ranked domains for 24 h probes
    support_scan_connections: int = 10
    support_scan_window: float = 6 * HOUR
    dhe_support_day: int = 43          # paper: April 14, 2016
    ecdhe_support_day: int = 44        # April 15
    ticket_support_day: int = 46       # April 17
    crossdomain_day: int = 50
    session_probe_day: int = 56        # April 27
    ticket_probe_day: int = 58         # April 29
    run_probes: bool = True
    run_crossdomain: bool = True
    run_support_scans: bool = True
    # Execution settings (see repro.scanner.engine), the only place a
    # study's execution is configured.  ``shards`` is the deterministic
    # population partition and affects output byte-for-byte; ``workers``
    # only parallelizes shard execution and never does.
    shards: int = 1
    workers: int = 1
    stream_dir: Optional[str] = None
    # Event-driven scan core (see docs/SCALING.md).  ``concurrency`` is
    # the event-loop admission batch size per shard — execution-only,
    # like ``workers``: it bounds buffered observations per flush and
    # never changes output bytes.  ``oracle`` runs every grab over the
    # record-layer exchange (real records and crypto) instead of the
    # fast path, on the same event-loop sweep; output is identical.
    concurrency: int = 1024
    oracle: bool = False
    # Resilience knobs (see repro.faults).  ``chaos`` is a repro-chaos/1
    # profile dict compiled per shard into an ImpairmentPlan; ``retry``
    # is the grabber's RetryPolicy.  Both default to "off": no plan, one
    # attempt, no breaker — the historical scanner behavior, so the
    # golden-digest corpus is unchanged.
    chaos: Optional[dict] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError(f"days must be positive, got {self.days}")
        if self.chaos is not None:
            # Compile once to fail fast on a malformed profile (shards
            # recompile their own copy; plans are cheap).
            ImpairmentPlan.from_profile(self.chaos)
        if isinstance(self.retry, dict):  # checkpoint round-trips
            self.retry = RetryPolicy(**self.retry)
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        scheduled: list[tuple[str, int]] = []
        if self.run_support_scans:
            scheduled += [
                ("dhe_support_day", self.dhe_support_day),
                ("ecdhe_support_day", self.ecdhe_support_day),
                ("ticket_support_day", self.ticket_support_day),
            ]
        if self.run_crossdomain:
            scheduled.append(("crossdomain_day", self.crossdomain_day))
        if self.run_probes:
            scheduled += [
                ("session_probe_day", self.session_probe_day),
                ("ticket_probe_day", self.ticket_probe_day),
            ]
        out_of_range = [
            f"{name}={day}" for name, day in scheduled
            if not 0 <= day < self.days
        ]
        if out_of_range:
            raise ValueError(
                f"experiment days outside range(days={self.days}): "
                f"{', '.join(out_of_range)} — the experiment would silently "
                "never run; adjust the day or disable the experiment"
            )


@dataclass
class StudyDataset:
    """Everything the nine-week study observed."""

    days: int
    day0_list: list[tuple[int, str]] = field(default_factory=list)
    always_present: list[str] = field(default_factory=list)
    ranks: dict[str, int] = field(default_factory=dict)
    # Daily longitudinal sweeps.
    ticket_daily: RecordRows = field(default_factory=list)
    dhe_daily: RecordRows = field(default_factory=list)
    ecdhe_daily: RecordRows = field(default_factory=list)
    # 10-connection support scans + 30-minute single scans.
    ticket_support: RecordRows = field(default_factory=list)
    dhe_support: RecordRows = field(default_factory=list)
    ecdhe_support: RecordRows = field(default_factory=list)
    ticket_30min: RecordRows = field(default_factory=list)
    dhe_30min: RecordRows = field(default_factory=list)
    ecdhe_30min: RecordRows = field(default_factory=list)
    # 24-hour resumption probes.
    session_probes: RecordRows = field(default_factory=list)
    ticket_probes: RecordRows = field(default_factory=list)
    # Cross-domain cache edges.
    cache_edges: RecordRows = field(default_factory=list)
    crossdomain_targets: list[str] = field(default_factory=list)
    # Scanner-side AS knowledge (domain -> asn), from "whois" lookups.
    domain_asn: dict[str, int] = field(default_factory=dict)
    domain_ip: dict[str, str] = field(default_factory=dict)
    as_names: dict[int, str] = field(default_factory=dict)
    # Bookkeeping for Table 1: list size and post-blacklist size on the
    # day each support scan ran, keyed by scan label.
    list_sizes: dict[str, tuple[int, int]] = field(default_factory=dict)

    #: The directory the record views read (None for a dataset built by
    #: hand).  Not a dataclass field: where a dataset lives is not part
    #: of its equality or of ``meta.json``.
    directory = None

    def meta(self) -> dict:
        """The JSON-serializable non-record fields (``meta.json``), in
        field order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name not in CHANNELS
        }


def run_study(
    ecosystem: Ecosystem,
    config: Optional[StudyConfig] = None,
    *,
    telemetry_dir: Optional[str] = None,
    shard_progress: Optional[Callable[[int, int, int, int], None]] = None,
    resume: bool = False,
    fail_fast: bool = False,
    live=None,
    profile_dir: Optional[str] = None,
) -> StudyDataset:
    """Run the full measurement study against ``ecosystem``.

    Execution settings (``shards``, ``workers``, ``stream_dir``,
    ``concurrency``, ``oracle``) come from ``config``.  With
    ``shards > 1`` the population is partitioned deterministically and
    the passed ecosystem is used only as the template for per-shard
    views (it is left untouched); output is byte-identical for any
    ``workers`` value.  Records stream into ``stream_dir``; without one
    they stream into a private temporary directory that the returned
    dataset owns and that is removed once the dataset is garbage
    collected.  ``resume`` continues a killed run from its
    ``stream_dir`` checkpoint (see :mod:`repro.scanner.checkpoint`);
    ``fail_fast`` aborts the whole study on the first shard failure
    instead of letting sibling shards finish and checkpoint.
    """
    dataset, _ = run_study_with_stats(
        ecosystem,
        config,
        telemetry_dir=telemetry_dir,
        shard_progress=shard_progress,
        resume=resume,
        fail_fast=fail_fast,
        live=live,
        profile_dir=profile_dir,
    )
    return dataset


def run_study_with_stats(
    ecosystem: Ecosystem,
    config: Optional[StudyConfig] = None,
    *,
    telemetry_dir: Optional[str] = None,
    shard_progress: Optional[Callable[[int, int, int, int], None]] = None,
    resume: bool = False,
    fail_fast: bool = False,
    live=None,
    profile_dir: Optional[str] = None,
) -> tuple[StudyDataset, StudyStats]:
    """Like :func:`run_study` but also returns a :class:`StudyStats`.

    ``telemetry_dir`` additionally writes a run manifest and merged
    metrics there (see :mod:`repro.obs`); it must not
    point into the dataset directory.  ``live`` feeds a running
    :class:`repro.obs.exporter.LivePlane` (progress, live metrics,
    events) and ``profile_dir`` collects per-shard cProfile dumps —
    both diagnostics-only, never affecting dataset bytes.
    """
    config = config or StudyConfig()
    engine = StudyEngine(config)
    return engine.run(
        ecosystem,
        shard_progress=shard_progress,
        telemetry_dir=telemetry_dir,
        resume=resume,
        fail_fast=fail_fast,
        live=live,
        profile_dir=profile_dir,
    )


# ---------------------------------------------------------------------------
# Dataset persistence (JSONL directory)
# ---------------------------------------------------------------------------


def save_dataset(dataset: StudyDataset, directory: str) -> None:
    """Copy a dataset to ``directory``: each channel's JSONL bytes as the
    study wrote them, plus ``meta.json``.

    Records are never re-serialized.  Saving a dataset to its own
    directory only rewrites ``meta.json``.  A dataset built by hand has
    no channel files, so only an empty one can be saved.
    """
    source = dataset.directory
    if source is None and any(getattr(dataset, name) for name in CHANNELS):
        raise ValueError("only a dataset a study or load_dataset returned "
                         "has record files to save")
    if source is None or not (
        os.path.isdir(directory) and os.path.samefile(source, directory)
    ):
        concatenate_channels([source] if source else [], directory)
    write_meta(directory, dataset.meta())


def load_dataset(directory: str) -> StudyDataset:
    """Load the dataset a study (or :func:`save_dataset`) wrote to
    ``directory``.

    Record channels come back as :class:`LazyRecordView` objects backed
    by the directory's JSONL files — nothing is materialized until an
    analysis iterates it.
    """
    dataset = StudyDataset(**read_meta(directory))
    # JSON round-trip: restore tuples and integer AS numbers.
    dataset.day0_list = [tuple(item) for item in dataset.day0_list]
    dataset.as_names = {int(k): v for k, v in dataset.as_names.items()}
    dataset.list_sizes = {k: tuple(v) for k, v in dataset.list_sizes.items()}
    dataset.directory = directory
    for name, view in open_channel_views(directory).items():
        setattr(dataset, name, view)
    return dataset


__all__ = [
    "StudyConfig",
    "StudyDataset",
    "StudyStats",
    "run_study",
    "run_study_with_stats",
    "save_dataset",
    "load_dataset",
]
